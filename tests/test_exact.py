import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.special import xlogy

from fermichain import exact
from fermichain.exact import (
    ExactError,
    FilledState,
    correlation_matrix,
    critical_polynomial,
    density_exact,
    diagonalize,
    entanglement_entropy,
    filled_state,
    localize_eigenfunction,
)
from fermichain.numerics import eigensolve_tridiagonal
from fermichain.profiles import (
    AsymmetricCosine,
    Cosine,
    Homogeneous,
    Krawtchouk,
    LatticeProfile,
    Rainbow,
    make_builtin,
)
from fermichain.wkb import Well, WellDecomposition


def _rand_profile(rng, N, zero_field=False):
    B = np.zeros(N) if zero_field else rng.normal(size=N)
    return LatticeProfile(rng.uniform(0.3, 1.5, N - 1), B)


# --- diagonalize -------------------------------------------------------------

def test_homogeneous_n3_energies():
    lat, _ = make_builtin(Homogeneous(1.0, 0.0), 3)
    s = diagonalize(lat)
    assert np.allclose(s.energies, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-14)


def test_krawtchouk_rescaled_spectrum():
    lat, _ = make_builtin(Krawtchouk(q=0.25), 10)
    s = diagonalize(lat)
    assert np.abs(s.energies - np.arange(10) / 10).max() < 1e-9


def test_single_site_profile():
    s = diagonalize(LatticeProfile([], [5.0]))
    assert s.energies[0] == 5.0


def test_spectrum_invariants():
    rng = np.random.default_rng(0)
    lat = _rand_profile(rng, 40)
    s = diagonalize(lat)
    H = np.diag(lat.fields) + np.diag(lat.hoppings, 1) + np.diag(lat.hoppings, -1)
    assert np.abs(H @ s.modes - s.modes * s.energies).max() < 1e-9
    assert np.abs(s.modes.T @ s.modes - np.eye(40)).max() < 1e-10
    assert np.all(np.diff(s.energies) > 0)
    # completeness: sum_k Phi_nk^2 = 1 at every site
    assert np.abs((s.modes ** 2).sum(axis=1) - 1.0).max() < 1e-10


def test_sign_convention():
    rng = np.random.default_rng(1)
    s = diagonalize(_rand_profile(rng, 25))
    for k in range(25):
        col = s.modes[:, k]
        significant = np.abs(col) > 1e-12 * np.abs(col).max()
        assert col[np.argmax(significant)] > 0


def test_particle_hole_symmetry_zero_field():
    rng = np.random.default_rng(2)
    s = diagonalize(_rand_profile(rng, 30, zero_field=True))
    assert np.abs(s.energies + s.energies[::-1]).max() < 1e-9
    assert np.abs(np.abs(s.modes) - np.abs(s.modes[:, ::-1])).max() < 1e-8


def test_hopping_sign_flip_equivalence():
    rng = np.random.default_rng(3)
    lat = _rand_profile(rng, 20)
    flipped = LatticeProfile(-lat.hoppings, lat.fields)
    s, sf = diagonalize(lat), diagonalize(flipped)
    assert np.abs(s.energies - sf.energies).max() < 1e-10
    M = 7
    d = density_exact(s, filled_state(s, M))
    df = density_exact(sf, filled_state(sf, M))
    assert np.abs(d - df).max() < 1e-10


def _one_zero_hopping(N=400, cut=3):
    # J_cut = 0 splits the chain; modes of the right block have exact zeros
    # on sites 0..cut, so the first significant component is not site 0.
    lat, _ = make_builtin(Homogeneous(1.0, 0.0), N)
    J = lat.hoppings.copy()
    J[cut] = 0.0
    return LatticeProfile(J, np.linspace(-0.5, 0.5, N))


_SIGN_CASES = [
    pytest.param(lambda: make_builtin(Homogeneous(1.0, 0.0), 400)[0], id="homogeneous"),
    pytest.param(lambda: make_builtin(Krawtchouk(q=0.25), 400)[0], id="krawtchouk"),
    pytest.param(lambda: make_builtin(Rainbow(1.0), 400)[0], id="rainbow"),
    pytest.param(lambda: make_builtin(Cosine(0.5), 400)[0], id="cosine"),
    pytest.param(lambda: make_builtin(AsymmetricCosine(), 400)[0], id="asymmetric-cosine"),
    pytest.param(_one_zero_hopping, id="one-zero-hopping"),
]


def _reference_signs(v):
    # The column-by-column sign rule the blocked _fix_signs must reproduce.
    out = v.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        big = np.abs(col) > 1e-12 * np.abs(col).max()
        if col[int(np.argmax(big))] < 0:
            out[:, k] = -col
    return out


@pytest.mark.parametrize("make_lat", _SIGN_CASES)
def test_blocked_sign_fix_matches_column_rule_bitwise(make_lat):
    lat = make_lat()
    _, raw = eigensolve_tridiagonal(lat.fields, lat.hoppings)
    modes = diagonalize(lat).modes
    assert modes.flags.c_contiguous
    assert np.array_equal(modes, _reference_signs(raw))


def test_zero_hopping_modes_have_exact_leading_zeros():
    # Guards the case above: the threshold rule must skip exact zeros.
    modes = diagonalize(_one_zero_hopping()).modes
    leading = np.argmax(modes != 0.0, axis=0)
    assert np.sum(leading == 0) == 4          # the left block, sites 0..3
    assert np.sum(leading >= 4) == 396        # the right block


@pytest.mark.parametrize("make_lat", _SIGN_CASES)
def test_eigenvalues_match_diagonalize(make_lat):
    lat = make_lat()
    E = diagonalize(lat).energies
    w = exact.eigenvalues(lat)
    assert w.shape == E.shape
    assert np.abs(w - E).max() <= 1e-12 * np.abs(E).max()


def test_eigenvalues_single_site():
    assert exact.eigenvalues(LatticeProfile([], [5.0])).tolist() == [5.0]


# --- filled state -------------------------------------------------------------

def test_filled_state_bookkeeping():
    lat, _ = make_builtin(Homogeneous(1.0, 0.0), 3)
    s = diagonalize(lat)
    st = filled_state(s, 2)
    assert st.fermi_energy == pytest.approx(0.0, abs=1e-14)  # eps_1 = 0 at odd N
    assert st == FilledState(2, s.energies[1])
    assert [f.name for f in fields(FilledState)] == ["M", "fermi_energy"]
    assert filled_state(s, 0) == FilledState(0, None)
    with pytest.raises(ExactError):
        filled_state(s, 4)


# --- critical polynomial --------------------------------------------------------

def _poly_values(p, eps):
    vals, exps = critical_polynomial(p, eps)
    return vals * np.exp2(exps.astype(float))


def test_polynomial_single_site():
    p = LatticeProfile([], [0.0])
    assert _poly_values(p, 0.0)[1] == 0.0


def test_polynomial_homogeneous_n3():
    lat, _ = make_builtin(Homogeneous(1.0, 0.0), 3)
    # Hand recurrence at eps = 0: P = [1, 0, -1, 0]
    assert np.array_equal(_poly_values(lat, 0.0), [1.0, 0.0, -1.0, 0.0])
    # eps = sqrt(2) is an eigenvalue, so P_3 vanishes
    assert abs(_poly_values(lat, math.sqrt(2))[-1]) < 1e-12


def test_polynomial_overflow_guard():
    # Unrescaled Krawtchouk at N=400 would overflow a raw recurrence;
    # scaled values stay finite with |mantissa| < 1 and exact signs.
    lat, _ = make_builtin(Krawtchouk(q=0.25, rescaled=False), 400)
    vals, exps = critical_polynomial(lat, 0.5)
    assert np.all(np.isfinite(vals))
    assert np.abs(vals).max() <= 1.0
    assert exps.max() > 1100  # genuinely beyond float range
    # eps = 0.5 lies between the integer eigenvalues 0 and 1: exactly one
    # sign change has happened in P_N across an eigenvalue.
    assert vals[-1] != 0.0


# --- correlation matrix ----------------------------------------------------------

def test_correlation_trivial_fillings():
    rng = np.random.default_rng(4)
    s = diagonalize(_rand_profile(rng, 12))
    assert np.array_equal(correlation_matrix(s, filled_state(s, 0)).entries,
                          np.zeros((12, 12)))
    full = correlation_matrix(s, filled_state(s, 12)).entries
    assert np.abs(full - np.eye(12)).max() < 1e-10


def test_correlation_homogeneous_n3_single_mode():
    lat, _ = make_builtin(Homogeneous(1.0, 0.0), 3)
    s = diagonalize(lat)
    C = correlation_matrix(s, filled_state(s, 1)).entries
    # Phi_{n,0}^2 = (2/4) sin^2(pi (n+1)/4) = [1/4, 1/2, 1/4]
    assert np.allclose(np.diag(C), [0.25, 0.5, 0.25], atol=1e-12)


def test_correlation_projector_properties():
    rng = np.random.default_rng(5)
    s = diagonalize(_rand_profile(rng, 30))
    st = filled_state(s, 11)
    C = correlation_matrix(s, st).entries
    assert np.abs(C - C.T).max() < 1e-14
    assert np.abs(C @ C - C).max() < 1e-8
    assert abs(np.trace(C) - 11) < 1e-9
    lam = np.linalg.eigvalsh(C)
    assert lam.min() > -1e-10 and lam.max() < 1 + 1e-10


# --- exact density ---------------------------------------------------------------

def test_density_full_filling():
    rng = np.random.default_rng(6)
    s = diagonalize(_rand_profile(rng, 15))
    assert np.abs(density_exact(s, filled_state(s, 15)) - 1.0).max() < 1e-10


def test_density_mean_is_filling():
    rng = np.random.default_rng(7)
    s = diagonalize(_rand_profile(rng, 33))
    for M in (0, 5, 20, 33):
        d = density_exact(s, filled_state(s, M))
        assert abs(d.mean() - M / 33) < 1e-10
        assert d.min() >= -1e-12 and d.max() <= 1 + 1e-12


def test_homogeneous_half_filling_friedel():
    lat, _ = make_builtin(Homogeneous(1.0, 0.0), 400)
    s = diagonalize(lat)
    d = density_exact(s, filled_state(s, 200))
    n = np.arange(1, 401)
    # Friedel oscillations decay like 1/n around the bulk value.
    dev = np.abs(d - 200 / 401)
    envelope = 1.0 / (401 * np.sin(np.pi * n / 401))
    assert np.all(dev <= envelope + 1e-12)
    assert dev[150:250].max() < 2e-3


def test_rainbow_depletion_at_low_filling():
    lat, _ = make_builtin(Rainbow(h=1.0), 400)
    s = diagonalize(lat)
    d = density_exact(s, filled_state(s, 50))  # nu = 1/8
    assert d[:51].max() < 0.01
    assert d[-51:].max() < 0.01


def test_krawtchouk_reflection_relation():
    # a rho(n, M) + a rho(N-1-n, N-M) = 1
    lat, _ = make_builtin(Krawtchouk(q=0.25), 60)
    s = diagonalize(lat)
    for M in (7, 23, 30, 51):
        d1 = density_exact(s, filled_state(s, M))
        d2 = density_exact(s, filled_state(s, 60 - M))
        assert np.abs(d1 + d2[::-1] - 1.0).max() < 1e-8


# --- entanglement entropy ----------------------------------------------------------

def test_entropy_pure_state_and_empty():
    rng = np.random.default_rng(8)
    s = diagonalize(_rand_profile(rng, 20))
    C = correlation_matrix(s, filled_state(s, 8))
    assert abs(entanglement_entropy(C, (0, 20))) < 1e-9
    assert entanglement_entropy(C, (5, 5)) == 0.0
    C0 = correlation_matrix(s, filled_state(s, 0))
    assert entanglement_entropy(C0, (0, 10)) == pytest.approx(0.0, abs=1e-12)


def _entropy_oracle(lat, M, block, alpha=None):
    # Independent dense route: numpy eigh of the full Hamiltonian, block
    # eigenvalues, entropy functional applied directly.
    H = np.diag(lat.fields) + np.diag(lat.hoppings, 1) + np.diag(lat.hoppings, -1)
    w, v = np.linalg.eigh(H)
    order = np.argsort(w)
    occ = v[:, order[:M]]
    C = occ @ occ.T
    lam = np.clip(np.linalg.eigvalsh(C[block[0]:block[1], block[0]:block[1]]), 0, 1)
    if alpha is None:
        return float(-(xlogy(lam, lam) + xlogy(1 - lam, 1 - lam)).sum())
    return float(np.log(lam ** alpha + (1 - lam) ** alpha).sum() / (1 - alpha))


def test_entropy_rainbow_block_vs_oracle():
    lat, _ = make_builtin(Rainbow(h=1.0), 40)
    s = diagonalize(lat)
    C = correlation_matrix(s, filled_state(s, 20))
    got = entanglement_entropy(C, (0, 20))
    assert got > 0.1
    assert got == pytest.approx(_entropy_oracle(lat, 20, (0, 20)), abs=1e-10)


def test_entropy_renyi():
    lat, _ = make_builtin(Rainbow(h=1.0), 40)
    s = diagonalize(lat)
    C = correlation_matrix(s, filled_state(s, 20))
    got = entanglement_entropy(C, (0, 20), alpha=2.0)
    assert got == pytest.approx(_entropy_oracle(lat, 20, (0, 20), alpha=2.0), abs=1e-10)
    # alpha = 1 falls back to von Neumann
    vn = entanglement_entropy(C, (0, 20), alpha=1.0)
    assert vn == pytest.approx(entanglement_entropy(C, (0, 20)), abs=1e-12)
    with pytest.raises(ExactError):
        entanglement_entropy(C, (0, 20), alpha=-1.0)
    with pytest.raises(ExactError):
        entanglement_entropy(C, (0, 50))


def test_entropy_index_one_is_the_default_bit_for_bit():
    lat, _ = make_builtin(Rainbow(h=1.0), 40)
    s = diagonalize(lat)
    C = correlation_matrix(s, filled_state(s, 20))
    assert entanglement_entropy(C, (3, 25), alpha=1.0) == entanglement_entropy(C, (3, 25))
    assert entanglement_entropy(C, (3, 25), 1) == entanglement_entropy(C, (3, 25))


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
def test_entropy_index_must_be_positive_and_finite(alpha):
    lat, _ = make_builtin(Rainbow(h=1.0), 40)
    s = diagonalize(lat)
    C = correlation_matrix(s, filled_state(s, 20))
    with pytest.raises(ExactError, match="Renyi index"):
        entanglement_entropy(C, (0, 20), alpha=alpha)


def test_correlation_matrix_holds_only_its_entries():
    s = diagonalize(LatticeProfile([1.0], [0.0, 0.0]))
    C = correlation_matrix(s, filled_state(s, 1))
    assert [f.name for f in fields(C)] == ["entries"]
    assert np.allclose(C.entries, [[0.5, -0.5], [-0.5, 0.5]])


# --- localization -------------------------------------------------------------------

def test_localize_single_well():
    lat, cont = make_builtin(Homogeneous(1.0, 0.0), 30)
    s = diagonalize(lat)
    from fermichain.wkb import wells

    for k in (0, 10, 29):
        wd = wells(cont, float(s.energies[k]))
        assert localize_eigenfunction(s, k, wd) == 0


def test_localize_symmetric_double_well_is_delocalized():
    # Construct a mode with exactly half its weight in each of two wells;
    # the tie must resolve as delocalized.
    lat = LatticeProfile(np.ones(3), np.zeros(4))
    s = diagonalize(lat)
    modes = s.modes.copy()
    modes[:, 1] = 0.5  # normalized, 50/50 across the two wells below
    s = type(s)(s.energies, modes, lat)
    wd = WellDecomposition(
        energy=float(s.energies[1]),
        wells=(Well(0.0, 1.5, "chain_end", "turning_point"),
               Well(1.6, 4.0, "turning_point", "chain_end")),
        inv_norms=np.array([1.0, 1.0]),
    )
    assert localize_eigenfunction(s, 1, wd) is None
    # a 3/4 - 1/4 split localizes in the heavier well
    modes[:, 2] = [0.5, math.sqrt(0.5), 0.0, 0.5]
    s = type(s)(s.energies, modes, lat)
    assert localize_eigenfunction(s, 2, wd) == 0
