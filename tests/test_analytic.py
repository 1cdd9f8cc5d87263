import math

import numpy as np
import pytest
from scipy.integrate import quad

from fermichain import analytic, exact, wkb
from fermichain.analytic import (
    asymmetric_cosine_critical_energies,
    cosine_density,
    cosine_numax,
    cosine_turning_points,
    homogeneous_density_exact,
    homogeneous_spectrum,
    krawtchouk_spacing,
    krawtchouk_turning_points,
    rainbow_dos,
    rainbow_envelope,
    rainbow_filling,
    rainbow_turning_points,
)
from fermichain.profiles import (
    AsymmetricCosine,
    Cosine,
    Homogeneous,
    Krawtchouk,
    Rainbow,
    make_builtin,
)


# --- homogeneous ------------------------------------------------------------

def test_homogeneous_spectrum_n3():
    w, _ = homogeneous_spectrum(1.0, 0.0, 3)
    assert np.allclose(w, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-14)


def test_homogeneous_spectrum_n1():
    w, v = homogeneous_spectrum(2.0, 0.7, 1)
    assert np.allclose(w, [0.7]) and v.shape == (1, 1)


def test_homogeneous_spectrum_vs_eigensolver():
    lat, _ = make_builtin(Homogeneous(1.3, -0.2), 50)
    s = exact.diagonalize(lat)
    w, v = homogeneous_spectrum(1.3, -0.2, 50)
    assert np.abs(w - s.energies).max() < 1e-10
    assert np.abs(np.abs(v) - np.abs(s.modes)).max() < 1e-8
    assert np.abs(v.T @ v - np.eye(50)).max() < 1e-12


def test_homogeneous_density_limits():
    assert np.array_equal(homogeneous_density_exact(1.0, 0.0, 9, 0), np.zeros(9))
    assert np.abs(homogeneous_density_exact(1.0, 0.0, 9, 9) - 1.0).max() < 1e-12


def test_homogeneous_density_matches_diagonalization():
    lat, _ = make_builtin(Homogeneous(1.0, 0.0), 60)
    s = exact.diagonalize(lat)
    for M in (1, 17, 30, 59):
        d = exact.density_exact(s, exact.filled_state(s, M))
        assert np.abs(d - homogeneous_density_exact(1.0, 0.0, 60, M)).max() < 1e-12


def test_homogeneous_density_bulk_value():
    d = homogeneous_density_exact(1.0, 0.0, 400, 200)
    assert abs(d[199] - 0.5) < 1.0 / 400


# --- Krawtchouk ---------------------------------------------------------------

def test_krawtchouk_turning_point_degeneracies():
    q = 0.25
    x1, x2 = krawtchouk_turning_points(q, 0.0)
    assert x1 == pytest.approx(q) and x2 == pytest.approx(q)
    x1, x2 = krawtchouk_turning_points(q, 1.0)
    assert x1 == pytest.approx(1 - q) and x2 == pytest.approx(1 - q)
    x1, x2 = krawtchouk_turning_points(0.5, 0.5)
    assert x1 == pytest.approx(0.0, abs=1e-15) and x2 == pytest.approx(1.0)


def test_krawtchouk_spacing_matches_quadrature():
    _, cont = make_builtin(Krawtchouk(q=0.25), 400)
    assert krawtchouk_spacing(400) == 1 / 400
    for eps in (0.12, 0.48, 0.81):
        assert abs(wkb.level_spacing(cont, eps) - 1 / 400) < 1e-8


def test_krawtchouk_exact_lattice_spacing():
    lat, _ = make_builtin(Krawtchouk(q=0.25), 64)
    w = exact.diagonalize(lat).energies
    assert np.abs(np.diff(w) - 1 / 64).max() < 1e-10


# --- rainbow --------------------------------------------------------------------

def test_rainbow_dos_band_edge_vanishes():
    assert rainbow_dos(1.0, -1.0, 400) == pytest.approx(0.0, abs=1e-12)


def test_rainbow_dos_branch_continuity():
    # The inner branch approaches the boundary with a square-root cusp
    # (arcsin slope diverges), so continuity is tested at matched scale.
    eb = math.exp(-0.5)
    lo = rainbow_dos(1.0, -(eb + 1e-9), 400)
    hi = rainbow_dos(1.0, -(eb - 1e-9), 400)
    assert lo == pytest.approx(hi, rel=1e-3)


def test_rainbow_dos_zero_energy_limit():
    # Series-expanded limit continues the direct formula smoothly.
    direct = rainbow_dos(1.0, -1e-4, 400)
    series = rainbow_dos(1.0, -1e-6, 400)
    limit = 2 * 400 / math.pi * (math.exp(0.5) - 1.0)
    assert series == pytest.approx(limit, rel=1e-10)
    assert direct == pytest.approx(limit, rel=1e-7)


def test_rainbow_dos_vs_quadrature():
    _, cont = make_builtin(Rainbow(h=1.0), 400)
    es = np.linspace(-0.999, -0.001, 50)
    worst = max(
        abs(wkb.density_of_states(cont, float(e)) - rainbow_dos(1.0, float(e), 400))
        / rainbow_dos(1.0, float(e), 400)
        for e in es
    )
    assert worst < 1e-7


def _rainbow_filling_quadrature_oracle(h, eps):
    f = lambda x: math.acos(-min(max(eps / math.exp(-h * abs(0.5 - x)), -1.0), 1.0))
    pts = [0.5]
    ae = abs(eps)
    if ae >= math.exp(-h / 2):
        x1 = 0.5 + math.log(ae) / h
        pts = sorted({x1, 0.5, 1 - x1})
    val, _ = quad(f, 0.0, 1.0, points=pts, limit=300, epsabs=1e-13, epsrel=1e-12)
    return val / math.pi


def test_rainbow_filling_special_values():
    assert rainbow_filling(1.0, 0.0) == 0.5
    assert rainbow_filling(1.0, -1.0) == pytest.approx(0.0, abs=1e-12)
    assert rainbow_filling(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    # At the exact N=400 Fermi energy of the nu = 1/8 state the continuum
    # filling is about half a level spacing below 1/8 (oracle-frozen).
    assert rainbow_filling(1.0, -0.69945) == pytest.approx(0.1237553, abs=1e-6)
    assert rainbow_filling(1.0, -0.69945) == pytest.approx(
        _rainbow_filling_quadrature_oracle(1.0, -0.69945), abs=1e-10)


@pytest.mark.parametrize("eps", [-0.95, -0.75, -0.6065, -0.45, -0.1, 0.3, 0.8])
def test_rainbow_filling_vs_quadrature(eps):
    assert rainbow_filling(1.0, eps) == pytest.approx(
        _rainbow_filling_quadrature_oracle(1.0, eps), abs=1e-10)


def test_rainbow_filling_branch_continuity():
    eb = math.exp(-0.5)
    assert rainbow_filling(1.0, -(eb + 1e-13)) == pytest.approx(
        rainbow_filling(1.0, -(eb - 1e-13)), abs=1e-10)


def test_rainbow_turning_points_reference_values():
    x1, x2 = rainbow_turning_points(1.0, -0.69945, 400.0)
    assert x1 == pytest.approx(57.018, abs=5e-3)
    assert x2 == pytest.approx(342.982, abs=5e-3)
    assert rainbow_turning_points(1.0, -1.0, 400.0) == (200.0, 200.0)
    lo = rainbow_turning_points(1.0, -math.exp(-0.5), 400.0)
    assert lo[0] == pytest.approx(0.0, abs=1e-9)
    assert lo[1] == pytest.approx(400.0, abs=1e-9)
    assert rainbow_turning_points(1.0, -0.3, 400.0) is None


def test_rainbow_envelope_outside_turning_points_zero():
    x = np.array([1.0, 399.0])
    assert np.all(rainbow_envelope(1.0, -0.9, 400.0, x) == 0.0)


# --- cosine ---------------------------------------------------------------------

def test_cosine_density_half_filling_constant():
    x = np.linspace(0, 400, 17)
    assert np.all(cosine_density(0.5, 0.0, x, 400.0) == 0.5)


def test_cosine_density_depletion_interval():
    x = np.linspace(0, 400, 801)
    d = cosine_density(0.5, -2.0, x, 400.0)
    inside = (x > 100.0) & (x < 300.0)
    assert np.all(d[inside] == 0.0)
    assert np.all(d[~inside & (x < 100.0)] > 0.0)
    assert cosine_turning_points(0.5, -2.0, 400.0) == pytest.approx((100.0, 300.0))
    assert cosine_turning_points(0.5, -0.5, 400.0) is None


def test_cosine_density_vs_exact():
    lat, _ = make_builtin(Cosine(J0=0.5), 400)
    s = exact.diagonalize(lat)
    st = exact.filled_state(s, 160)  # nu = 2/5, eps_F = -0.53597
    rho = exact.density_exact(s, st)
    d = cosine_density(0.5, st.fermi_energy, lat.site_positions, 400.0)
    m = 20
    assert np.abs(rho - d)[m:-m].max() < 0.05


def test_cosine_density_saturation_side():
    x = np.linspace(0, 400, 801)
    d = cosine_density(0.5, 2.0, x, 400.0)
    inside = (x > 100.0) & (x < 300.0)
    assert np.all(d[inside] == 1.0)


def test_cosine_numax():
    # nu_max ~ (4/pi^2) sqrt(J0) for small J0, so it vanishes at J0 -> 0
    assert cosine_numax(1e-4) < 0.005
    grid = [cosine_numax(j) for j in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(b > a for a, b in zip(grid, grid[1:]))
    _, cont = make_builtin(Cosine(J0=0.5), 400)
    assert cosine_numax(0.5) == pytest.approx(
        wkb.filling_fraction(cont, 2 * 0.5 - 2), abs=1e-8)


# --- asymmetric cosine -------------------------------------------------------------

def test_critical_energy_table():
    rows = asymmetric_cosine_critical_energies()
    assert len(rows) == 9
    table = dict(rows)
    assert table[-2.3009] == 0.0225
    assert table[1.5000] == 0.4725
    assert table[4.8055] == 0.9350


def test_critical_fillings_match_wkb():
    _, cont = make_builtin(AsymmetricCosine(0.75, 5.0, 2), 400)
    for e, nu in asymmetric_cosine_critical_energies():
        assert wkb.filling_fraction(cont, e) == pytest.approx(nu, abs=5e-3)
