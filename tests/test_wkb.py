import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from fermichain import analytic, exact, wkb
from fermichain.numerics import integrate
from fermichain.profiles import (
    AsymmetricCosine,
    Cosine,
    Homogeneous,
    Krawtchouk,
    Rainbow,
    load_custom,
    make_builtin,
)
from fermichain.wkb import (
    DEPLETED,
    PARTIAL,
    SATURATED,
    SingularProfileError,
    UnsupportedRegimeError,
    density_of_states,
    density_profile,
    envelope,
    filling_fraction,
    invert_filling,
    level_spacing,
    phase,
    well_frequencies,
    wells,
    wkb_correlation_kernel,
    wkb_wavefunction,
    xi,
    xi_star,
)


@pytest.fixture(scope="module")
def homogeneous():
    return make_builtin(Homogeneous(1.0, 0.0), 400)


@pytest.fixture(scope="module")
def rainbow():
    return make_builtin(Rainbow(h=1.0), 400)


@pytest.fixture(scope="module")
def krawtchouk():
    return make_builtin(Krawtchouk(q=0.25), 400)


@pytest.fixture(scope="module")
def cosine():
    return make_builtin(Cosine(J0=0.5), 400)


@pytest.fixture(scope="module")
def asym_cosine():
    return make_builtin(AsymmetricCosine(0.75, 5.0, 2), 400)


# --- xi and its clamp --------------------------------------------------------

def test_xi_basic(homogeneous):
    _, cont = homogeneous
    assert xi(cont, 10.0, 0.0) == 0.0
    assert xi(cont, 10.0, 2.0) == 1.0  # band edge


def test_xi_rainbow_midpoint(rainbow):
    _, cont = rainbow
    # J(l/2) = 1/2, so eps = -1 sits exactly at the lower band edge there.
    assert xi(cont, 200.0, -1.0) == pytest.approx(-1.0, abs=1e-14)


def test_xi_singular_at_zero_hopping(krawtchouk):
    _, cont = krawtchouk
    with pytest.raises(SingularProfileError):
        xi(cont, 0.0, 0.5)


def test_xi_star_clamps(homogeneous):
    _, cont = homogeneous
    assert xi_star(cont, 5.0, -77.0) == -1.0
    assert xi_star(cont, 5.0, 0.0) == 0.0
    assert xi_star(cont, 5.0, 77.0) == 1.0


def test_xi_star_at_vanishing_hopping_is_the_sign(krawtchouk):
    # J(0) = J(l) = 0: the limit of the clamp, sign(eps - B), with no warning.
    _, cont = krawtchouk
    ell = cont.length
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (0.0, ell):
            B = float(cont.B(np.array(x)))
            for eps in (B - 0.1, B, B + 0.1):
                assert xi_star(cont, x, eps) == np.sign(eps - B)
        both = xi_star(cont, np.array([0.0, 200.0, ell]), 0.5)
    assert np.array_equal(both, [1.0, xi(cont, 200.0, 0.5), -1.0])


# --- wells -------------------------------------------------------------------

def test_single_well_full_chain(homogeneous):
    _, cont = homogeneous
    wd = wells(cont, 0.0)
    assert len(wd.wells) == 1
    w = wd.wells[0]
    assert (w.lower, w.upper) == (0.0, 400.0)
    assert w.lower_kind == "chain_end" and w.upper_kind == "chain_end"


def test_cosine_well_turning_points(cosine):
    # At eps = -2 the turning points are x = l/4 and 3l/4 (arccos(0));
    # they bound the depleted interval, with one well at each chain end.
    _, cont = cosine
    wd = wells(cont, -2.0)
    assert len(wd.wells) == 2
    assert wd.wells[0].lower == 0.0
    assert wd.wells[0].upper == pytest.approx(100.0, abs=1e-6)
    assert wd.wells[0].upper_kind == "turning_point"
    assert wd.wells[1].lower == pytest.approx(300.0, abs=1e-6)
    assert wd.wells[1].upper == 400.0
    dep = [r for r in wkb.classified_regions(cont, -2.0) if r.kind == DEPLETED]
    assert len(dep) == 1
    assert dep[0].lower == pytest.approx(100.0, abs=1e-6)
    assert dep[0].upper == pytest.approx(300.0, abs=1e-6)


def test_three_wells_asymmetric_cosine(asym_cosine):
    lat, cont = asym_cosine
    s = exact.diagonalize(lat)
    wd = wells(cont, float(s.energies[199]))  # 1.69251
    assert len(wd.wells) == 3
    kinds = [(w.lower_kind, w.upper_kind) for w in wd.wells]
    assert kinds == [("chain_end", "turning_point"),
                     ("turning_point", "turning_point"),
                     ("turning_point", "chain_end")]


def test_empty_decomposition_outside_spectrum(homogeneous):
    _, cont = homogeneous
    assert wells(cont, -5.0).is_empty
    assert wells(cont, 5.0).is_empty


def test_well_norm_sum_rule(asym_cosine):
    # Sum of per-well A_i^-2 equals an independently computed full-chain
    # integral of Theta / sqrt(4J^2 - (eps-B)^2).
    lat, cont = asym_cosine
    eps = 1.69251
    wd = wells(cont, eps)

    total = 0.0
    for w in wd.wells:
        # independent route: clustered trapezoid, no adaptive machinery
        t = np.linspace(0.0, 1.0, 400001)
        x = w.lower + (w.upper - w.lower) * 0.5 * (1 - np.cos(np.pi * t))
        g = 4 * cont.J(x) ** 2 - (eps - cont.B(x)) ** 2
        f = np.zeros_like(x)
        ok = g > 0
        f[ok] = 1.0 / np.sqrt(g[ok])
        total += np.trapezoid(f * (w.upper - w.lower) * 0.5 * np.pi * np.sin(np.pi * t), t)
    # the trapezoid oracle itself carries a few-1e-6 relative error
    assert wd.total_inv_norm == pytest.approx(total, rel=1e-5)
    assert wd.total_inv_norm == pytest.approx(float(wd.inv_norms.sum()), abs=1e-15)


@pytest.mark.parametrize("N", [400, 4000])
@pytest.mark.parametrize("eps", [0.24948631457593637, 0.2503136498474675, 0.2503011026351416,
                                 0.25, 0.7498483723109807, 0.7503, 0.75005, 0.75])
def test_krawtchouk_norm_at_chain_end_sliver(N, eps):
    # Within ~1e-3 of eps = q or 1 - q a turning point sits closer than
    # TANGENCY_FRACTION * l to the chain end where J = 0; the scan merges it
    # away, so the well ends at the chain end with a negative band gap there
    # (zero at q and 1 - q exactly).  The first three energies come from
    # failed wkb-sweep ops; they and 0.7503 raised ConvergenceError before.
    # Krawtchouk's density of states is exactly N, so A^-2 = pi l.
    _, cont = make_builtin(Krawtchouk(q=0.25), N)
    wd = wells(cont, eps)
    assert len(wd.wells) == 1
    w = wd.wells[0]
    end = w.lower if eps < 0.5 else w.upper
    assert end in (0.0, cont.length)
    assert wkb._band_gap(cont, end, eps) <= 0.0
    assert wd.total_inv_norm == pytest.approx(math.pi * cont.length, rel=1e-9)


@pytest.mark.parametrize("N", [400, 4000])
def test_krawtchouk_inv_norm_sum_rule_to_full_precision(N):
    # sum_i A_i^-2 = pi N a exactly; the turning points are located to full
    # precision, so the 1/v quadrature meets the root it was built for.  A
    # root found only to 1e-12 l misses by up to 1.1e-10.
    _, cont = make_builtin(Krawtchouk(q=0.25), N)
    for eps in np.linspace(0.02, 0.98, 49):
        wd = wells(cont, float(eps))
        assert wd.total_inv_norm == pytest.approx(math.pi * cont.length, rel=2e-12), eps


# --- phase ---------------------------------------------------------------------

def test_phase_zero_at_origin(homogeneous):
    _, cont = homogeneous
    assert phase(cont, 0.0, 0.7) == 0.0


def test_phase_homogeneous_closed_form(homogeneous):
    _, cont = homogeneous
    for eps in (-1.0, 0.0, 1.2):
        for x in (17.0, 123.456, 400.0):
            expect = x * math.acos(eps / 2.0)  # a = 1
            assert phase(cont, x, eps) == pytest.approx(expect, rel=1e-10)


def test_phase_below_band_is_pi_per_site(homogeneous):
    _, cont = homogeneous
    assert phase(cont, 50.0, -3.0) == pytest.approx(50 * math.pi, rel=1e-12)


@pytest.mark.parametrize("chain", ["homogeneous", "cosine", "asym_cosine"])
@pytest.mark.parametrize("frac", [0.3, 0.7])
def test_phase_on_array_matches_scalar(request, chain, frac):
    # Unsorted, with duplicates and both chain ends.  The bound is relative
    # to pi x / a, the scale of the phase at x, so points on saturated
    # stretches (phase 0 up to rounding) are held to it too.
    _, cont = request.getfixturevalue(chain)
    lo, hi = wkb.band_bounds(cont)
    eps = lo + frac * (hi - lo)
    ell, a = cont.length, cont.lattice_spacing
    xs = ell * np.array([1.0, 0.31, 0.0, 0.77, 0.31, 0.5, 1.0, 0.05, 0.93])
    got = phase(cont, xs, eps)
    assert got.shape == xs.shape
    want = np.array([phase(cont, x, eps) for x in xs])
    assert np.all(np.abs(got - want) <= 1e-12 * math.pi * xs / a)


def test_phase_rejects_nan_position(homogeneous):
    _, cont = homogeneous
    with pytest.raises(ValueError):
        phase(cont, np.array([10.0, math.nan, 30.0]), 0.5)
    with pytest.raises(ValueError):
        wkb_correlation_kernel(cont, 0.5, 10.0, math.nan)


@pytest.mark.parametrize("bad", [500.0, math.nan, -1.0])
@pytest.mark.parametrize("call", [
    lambda c, x: phase(c, np.array([10.0, x]), 0.3),
    lambda c, x: density_profile(c, 0.3, [10.0, x]),
    lambda c, x: envelope(c, 0.3, wells(c, 0.3), [10.0, x]),
    lambda c, x: wkb.correlation_matrix(c, 0.3, [10.0, x]),
], ids=["phase", "density_profile", "envelope", "correlation_matrix"])
def test_positions_outside_the_chain_raise(cosine, call, bad):
    _, cont = cosine
    with pytest.raises(ValueError, match="positions must lie in"):
        call(cont, bad)


def test_positions_just_past_the_end_are_clamped(cosine):
    _, cont = cosine
    ell = cont.length
    edge = ell * (1 + 1e-13)
    prof = density_profile(cont, 0.3, [0.0, edge])
    assert prof.x[-1] == ell
    x, _ = envelope(cont, 0.3, wells(cont, 0.3), [ell / 2, edge])
    assert x[-1] == ell
    assert phase(cont, edge, 0.3) == phase(cont, ell, 0.3)


# --- density of states and spacing ----------------------------------------------

def test_krawtchouk_dos_constant(krawtchouk):
    _, cont = krawtchouk
    for eps in (0.1, 0.37, 0.5, 0.9):
        assert density_of_states(cont, eps) == pytest.approx(400.0, rel=1e-9)
        assert level_spacing(cont, eps) == pytest.approx(1 / 400, rel=1e-9)


def test_homogeneous_dos_midband(homogeneous):
    # A^-2 = l / (2 J) at eps = 0, so D = N / (2 pi).
    _, cont = homogeneous
    assert density_of_states(cont, 0.0) == pytest.approx(400 / (2 * math.pi), rel=1e-10)


def test_homogeneous_spacing_closed_form(homogeneous):
    _, cont = homogeneous
    for eps in (-1.5, -0.3, 0.8):
        expect = (2 * math.pi / 400) * math.sqrt(1 - (eps / 2) ** 2)
        assert level_spacing(cont, eps) == pytest.approx(expect, rel=1e-9)


def test_spacing_outside_spectrum_is_infinite(homogeneous):
    _, cont = homogeneous
    assert level_spacing(cont, 3.0) == math.inf


def test_rainbow_dos_closed_form(rainbow):
    _, cont = rainbow
    for eps in (-0.95, -0.7, -0.6065, -0.3, -0.01, 0.4):
        expect = analytic.rainbow_dos(1.0, eps, 400)
        assert density_of_states(cont, eps) == pytest.approx(expect, rel=1e-8)


def test_rainbow_dos_next_to_the_band_edges(rainbow):
    # Narrow wells around the cusp at l/2: [199.996, 200.004] at -0.99999.
    # With turning points found only to 1e-12 l, that energy raised
    # ConvergenceError and +-0.9998 missed by 3.8e-7.
    _, cont = rainbow
    for eps in (-0.99999, -0.9998, 0.9998):
        expect = analytic.rainbow_dos(1.0, eps, 400)
        assert density_of_states(cont, eps) == pytest.approx(expect, rel=1e-8)


# --- filling fraction -------------------------------------------------------------

def test_filling_endpoints(homogeneous):
    _, cont = homogeneous
    assert filling_fraction(cont, -2.5) == 0.0
    assert filling_fraction(cont, 2.5) == 1.0


def test_filling_half_at_zero_energy(homogeneous):
    _, cont = homogeneous
    assert filling_fraction(cont, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_krawtchouk_filling_is_identity(krawtchouk):
    _, cont = krawtchouk
    for eps in np.linspace(0.05, 0.95, 7):
        assert filling_fraction(cont, float(eps)) == pytest.approx(float(eps), abs=1e-9)


def _filling_by_regions(cont, eps):
    # The per-region sum filling_fraction used before it shared the
    # occupancy integral with phase; kept as the bitwise reference.
    total = 0.0
    for r in wkb.classified_regions(cont, eps):
        if r.kind == SATURATED:
            total += math.pi * (r.upper - r.lower)
        elif r.kind == PARTIAL:
            def f(t):
                return float(np.arccos(-np.clip(xi(cont, t, eps), -1.0, 1.0)))
            total += integrate(f, r.lower, r.upper)
    return total / (math.pi * cont.length)


@pytest.mark.parametrize("chain", ["homogeneous", "krawtchouk", "rainbow", "cosine",
                                   "asym_cosine"])
def test_filling_matches_region_sum_bitwise(request, chain):
    _, cont = request.getfixturevalue(chain)
    lo, hi = wkb.band_bounds(cont)
    for frac in (0.1, 0.35, 0.6, 0.85):
        eps = lo + frac * (hi - lo)
        assert filling_fraction(cont, eps) == _filling_by_regions(cont, eps)


# --- the cumulative-integral walker ----------------------------------------------

def test_cumulative_constant_rates():
    pieces = [(0.0, 1.0, math.pi, False, False), (1.0, 3.0, 0.0, False, False),
              (3.0, 4.0, 2.0, False, False)]
    xs = np.array([0.0, 0.5, 1.0, 2.0, 3.5, 4.0])
    expected = [0.0, math.pi / 2, math.pi, math.pi, math.pi + 1.0, math.pi + 2.0]
    assert wkb._cumulative(pieces, xs) == pytest.approx(expected, abs=1e-15)


def test_cumulative_regular_integrand():
    pieces = [(0.0, 1.0, math.cos, False, False), (1.0, 2.0, math.cos, False, False)]
    xs = np.array([0.3, 1.0, 1.7, 2.0])
    assert wkb._cumulative(pieces, xs) == pytest.approx(np.sin(xs), abs=1e-12)


def test_cumulative_inverse_sqrt_ends(monkeypatch):
    # int_{-1}^x dt / sqrt(1 - t^2) = arcsin x + pi/2, singular at both ends;
    # the positions hit the piece boundary 0 twice and end at 1.  Only the
    # stretches touching -1 or 1 declare the singularity.
    def f(t):
        return 1.0 / math.sqrt(1.0 - t * t)

    declared = []

    def recording(f, lower, upper, lower_singular, upper_singular):
        declared.append((lower_singular, upper_singular))
        return integrate(f, lower, upper, lower_singular, upper_singular)

    monkeypatch.setattr(wkb, "integrate", recording)
    pieces = [(-1.0, 0.0, f, True, False), (0.0, 1.0, f, False, True)]
    xs = np.array([-0.9, -0.2, 0.0, 0.0, 0.5, 1.0])
    out = wkb._cumulative(pieces, xs)
    assert out == pytest.approx(np.arcsin(xs) + math.pi / 2, abs=1e-9)
    assert out[2] == out[3]
    assert declared == [(True, False)] + 3 * [(False, False)] + [(False, True)]

    declared.clear()
    whole = wkb._cumulative([(-1.0, 1.0, f, True, True)], np.array([1.0]))
    assert whole == pytest.approx([math.pi], abs=1e-9)
    assert declared == [(True, True)]


def test_cumulative_stops_at_last_position():
    seen = []

    def f(t):
        seen.append(t)
        return 1.0

    pieces = [(0.0, 1.0, f, False, False), (1.0, 2.0, f, False, False)]
    assert wkb._cumulative(pieces, np.array([0.25, 0.5]))[-1] == pytest.approx(0.5)
    assert seen and max(seen) <= 0.5


@pytest.mark.parametrize("chain", ["homogeneous", "krawtchouk", "rainbow", "cosine",
                                   "asym_cosine"])
def test_cumulative_at_well_end_is_inverse_norm(request, chain):
    # The conformal length L~ (times a) and A^-2 are one integral of 1/v;
    # with the mode positions as stops it differs only by the splitting.
    lat, cont = request.getfixturevalue(chain)
    lo, hi = wkb.band_bounds(cont)
    checked = 0
    for frac in np.linspace(0.05, 0.95, 7):
        eps = float(lo + frac * (hi - lo))
        wd = wells(cont, eps)
        if len(wd.wells) != 1:
            continue
        piece = wkb._well_piece(cont, eps, wd.wells[0])
        x = lat.mode_positions
        x = x[(x > piece[0]) & (x < piece[1])]
        end = wkb._cumulative([piece], np.append(x, piece[1]))[-1]
        assert end == pytest.approx(wd.inv_norms[0], rel=1e-9), eps
        checked += 1
    assert checked


@pytest.mark.parametrize("call", [
    lambda c: filling_fraction(c, math.nan),
    lambda c: phase(c, 100.0, math.nan),
    lambda c: wells(c, math.nan),
    lambda c: density_of_states(c, math.nan),
    lambda c: density_profile(c, math.nan, [100.0]),
    lambda c: wkb_correlation_kernel(c, math.nan, 100.0, 110.0),
], ids=["filling_fraction", "phase", "wells", "density_of_states",
        "density_profile", "wkb_correlation_kernel"])
def test_nan_energy_raises(homogeneous, call):
    _, cont = homogeneous
    with pytest.raises(ValueError, match="NaN"):
        call(cont)


def test_infinite_energy_is_empty_or_full_chain(homogeneous):
    _, cont = homogeneous
    assert filling_fraction(cont, -math.inf) == 0.0
    assert filling_fraction(cont, math.inf) == 1.0


def test_overflowing_band_gap_raises():
    # 4J^2 overflows at eps = 0 (1/v would read 0); both squares overflow
    # at eps = J (the side of the band is unknown).
    _, cont = make_builtin(Homogeneous(1e200), 40)
    for eps in (0.0, 1e200):
        for call in (wells, filling_fraction):
            with pytest.raises(ValueError, match="overflows"):
                call(cont, eps)
    # Only (eps - B)^2 overflows: certainly outside the band.
    _, unit = make_builtin(Homogeneous(1.0), 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert filling_fraction(unit, 1e308) == 1.0
        assert wells(unit, -1e308).is_empty


def test_filling_monotone(asym_cosine):
    _, cont = asym_cosine
    es = np.linspace(-3.4, 8.4, 25)
    nus = [filling_fraction(cont, float(e)) for e in es]
    assert np.all(np.diff(nus) >= -1e-12)


def test_particle_hole_symmetry_zero_field(rainbow):
    _, cont = rainbow
    for eps in (0.15, 0.5, 0.9):
        assert filling_fraction(cont, eps) + filling_fraction(cont, -eps) == \
            pytest.approx(1.0, abs=1e-9)
        x = np.linspace(0, 400, 41)
        d1 = density_profile(cont, eps, x).density
        d2 = density_profile(cont, -eps, x).density
        assert np.abs(d1 + d2 - 1.0).max() < 1e-9


def test_filling_density_consistency(asym_cosine):
    # nu equals the chain average of the sampled density; integrate the
    # density evaluator independently with region-boundary breakpoints.
    _, cont = asym_cosine
    for eps in (-1.0, 1.69251, 3.2):
        regs = wkb.classified_regions(cont, eps)
        pts = [r.lower for r in regs[1:]]
        val, _ = quad(lambda t: density_profile(cont, eps, [t]).density[0],
                      0.0, 400.0, points=pts, limit=400, epsabs=1e-11, epsrel=1e-10)
        assert filling_fraction(cont, eps) == pytest.approx(val / 400.0, abs=1e-8)


def test_invert_filling_basics(krawtchouk):
    _, cont = krawtchouk
    assert invert_filling(cont, 0.3) == pytest.approx(0.3, abs=1e-6)
    lo, hi = wkb.band_bounds(cont)
    assert invert_filling(cont, 0.0) == lo
    assert invert_filling(cont, 1.0) == hi


def test_invert_filling_near_gap():
    # Two bands joined by a steep field step: nu(eps) rises very slowly
    # across the pseudo-gap.  A continuous profile cannot produce a true
    # plateau (the density of states never vanishes strictly inside the
    # band), so the leftmost-solution convention shows up as consistency
    # plus monotonicity of the inverse.
    lat, cont = load_custom({
        "expressions": {"J": "0.5 + 0*x", "B": "5/(1+exp(-80*(x-0.5)))"},
        "N": 64, "lattice_spacing": 1.0 / 64,
    })
    assert filling_fraction(cont, 2.5) == pytest.approx(0.5, abs=1e-9)
    prev = -np.inf
    for nu in (0.2, 0.45, 0.5, 0.55, 0.8):
        eF = invert_filling(cont, nu)
        assert filling_fraction(cont, eF) == pytest.approx(nu, abs=1e-6)
        assert eF > prev
        prev = eF


# --- density profile ---------------------------------------------------------------

def test_density_constant_at_half_filling(homogeneous):
    _, cont = homogeneous
    prof = density_profile(cont, 0.0, np.linspace(0, 400, 101))
    assert np.all(prof.density == 0.5)
    assert all(r.kind == PARTIAL for r in prof.regions)


def test_density_bounds_and_exact_limits(rainbow):
    _, cont = rainbow
    x = np.linspace(0, 400, 201)
    prof = density_profile(cont, -0.69945, x)
    assert prof.density.min() >= 0.0 and prof.density.max() <= 1.0
    for r in prof.regions:
        inside = (x >= r.lower) & (x <= r.upper)
        if r.kind == DEPLETED:
            assert np.all(prof.density[inside] == 0.0)
        if r.kind == SATURATED:
            assert np.all(prof.density[inside] == 1.0)


def test_rainbow_depletion_boundaries(rainbow):
    _, cont = rainbow
    prof = density_profile(cont, -0.69945, [0.0])
    dep = [r for r in prof.regions if r.kind == DEPLETED]
    assert len(dep) == 2
    x1, x2 = analytic.rainbow_turning_points(1.0, -0.69945, 400.0)
    assert dep[0].lower == 0.0
    assert dep[0].upper == pytest.approx(x1, abs=1e-6)
    assert dep[1].lower == pytest.approx(x2, abs=1e-6)
    assert dep[1].upper == 400.0


def test_krawtchouk_region_pattern(krawtchouk):
    # q < eps_F < 1-q: one saturated interval on the left, one depleted
    # interval on the right.
    _, cont = krawtchouk
    prof = density_profile(cont, 0.5, [200.0])
    kinds = [r.kind for r in prof.regions]
    assert kinds == [SATURATED, PARTIAL, DEPLETED]


def test_density_monotone_in_fermi_energy(asym_cosine):
    _, cont = asym_cosine
    x = np.linspace(0, 400, 31)
    es = np.linspace(-3.0, 8.0, 23)
    prev = np.zeros_like(x)
    for e in es:
        cur = density_profile(cont, float(e), x).density
        assert np.all(cur >= prev - 1e-12)
        prev = cur


@pytest.mark.parametrize("chain", ["homogeneous", "krawtchouk", "rainbow", "cosine",
                                   "asym_cosine"])
def test_density_is_arcsin_of_xi_star_bitwise(request, chain):
    _, cont = request.getfixturevalue(chain)
    x = np.linspace(0.0, cont.length, 1001)
    lo, hi = wkb.band_bounds(cont)
    for frac in (-0.1, 0.1, 0.35, 0.6, 0.85, 1.1):
        eps = lo + frac * (hi - lo)
        dens = density_profile(cont, eps, x).density
        assert np.array_equal(dens, 0.5 + np.arcsin(xi_star(cont, x, eps)) / np.pi)


def test_density_at_vanishing_hopping(krawtchouk):
    # J(0) = 0: classify by the sign of eps_F - B(0) (B(0) = q).
    _, cont = krawtchouk
    assert density_profile(cont, 0.5, [0.0]).density[0] == 1.0
    assert density_profile(cont, 0.1, [0.0]).density[0] == 0.0
    assert density_profile(cont, 0.25, [0.0]).density[0] == 0.5


def test_no_depletion_construction():
    # B = 2J with J(0) = 0 and J increasing: zero depleted regions and
    # exactly one saturated region anchored at x = 0, for every Fermi
    # energy inside the spectrum.
    lat, cont = load_custom({
        "expressions": {"J": "x*x", "B": "2*x*x"},
        "N": 100, "lattice_spacing": 0.01,
    })
    for eps in (0.5, 1.0, 2.0, 3.5):
        prof = density_profile(cont, eps, [0.5])
        dep = [r for r in prof.regions if r.kind == DEPLETED]
        sat = [r for r in prof.regions if r.kind == SATURATED]
        assert dep == []
        assert len(sat) == 1 and sat[0].lower == 0.0


# --- wavefunctions and envelopes ------------------------------------------------------

def test_homogeneous_wavefunction_closed_form(homogeneous):
    _, cont = homogeneous
    eps = -0.7
    wd = wells(cont, eps)
    x = np.linspace(5, 395, 79)
    xs, vals = wkb_wavefunction(cont, eps, wd, x)
    expect = math.sqrt(2 / 400) * np.sin(xs * math.acos(eps / 2))
    assert np.abs(vals - expect).max() < 1e-9


def test_wavefunction_matches_exact_mode():
    lat, cont = make_builtin(Homogeneous(1.0, 0.0), 200)
    s = exact.diagonalize(lat)
    k = 70
    wd = wells(cont, float(s.energies[k]))
    xq = lat.mode_positions
    xs, vals = wkb_wavefunction(cont, float(s.energies[k]), wd, xq)
    ex = s.modes[:, k] / math.sqrt(lat.lattice_spacing)
    if np.sign(vals[0]) != np.sign(ex[0]):
        vals = -vals
    rel = np.abs(vals - ex).max() / np.abs(ex).max()
    assert rel < 1.5 / 200  # O(1/N)


def test_wavefunction_zero_in_forbidden_region(rainbow):
    _, cont = rainbow
    eps = -0.8
    wd = wells(cont, eps)
    xs, vals = wkb_wavefunction(cont, eps, wd, np.linspace(0, 30, 16))
    assert np.all(vals == 0.0)  # inside the left depletion zone


def test_combined_is_weighted_sum_of_well_functions(asym_cosine):
    _, cont = asym_cosine
    eps = 1.69251
    wd = wells(cont, eps)
    grid = np.linspace(0, 400, 173)
    xs, combined = wkb_wavefunction(cont, eps, wd, grid)
    A = 1 / math.sqrt(wd.total_inv_norm)
    acc = np.zeros_like(combined)
    for i in range(3):
        _, fi = wkb_wavefunction(cont, eps, wd, grid, well=i)
        A_i = 1 / math.sqrt(wd.inv_norms[i])
        acc += (A / A_i) * fi
    assert np.abs(combined - acc).max() < 1e-12


def test_homogeneous_envelope_constant(homogeneous):
    _, cont = homogeneous
    wd = wells(cont, -0.7)
    xs, env = envelope(cont, -0.7, wd, np.linspace(1, 399, 55))
    assert np.abs(env - math.sqrt(2 / 400)).max() < 1e-10


def test_krawtchouk_envelope_closed_form(krawtchouk):
    # +/- sqrt(2/pi) ((x - x1)(x2 - x))^(-1/4) with a = 1, l = N.
    _, cont = krawtchouk
    eps = 0.5
    wd = wells(cont, eps)
    u1, u2 = analytic.krawtchouk_turning_points(0.25, eps)
    x1, x2 = 400 * u1, 400 * u2
    xs = np.linspace(x1 + 5, x2 - 5, 41)
    _, env = envelope(cont, eps, wd, xs)
    expect = math.sqrt(2 / math.pi) * ((xs - x1) * (x2 - xs)) ** -0.25
    assert np.abs(env / expect - 1).max() < 1e-6


@pytest.mark.parametrize("eps", [-0.8, -0.3])
def test_rainbow_envelope_closed_form(rainbow, eps):
    # Two-branch closed form split at e^(-h/2) = 0.6065.
    _, cont = rainbow
    wd = wells(cont, eps)
    xs = np.linspace(1, 399, 67)
    xs_kept, env = envelope(cont, eps, wd, xs)
    expect = analytic.rainbow_envelope(1.0, eps, 400.0, xs_kept)
    ok = expect > 0
    assert np.abs(env[ok] / expect[ok] - 1).max() < 1e-6
    assert np.all(env[~ok] == 0.0)


def test_skips_turning_point_neighborhood(cosine):
    _, cont = cosine
    eps = -2.0
    wd = wells(cont, eps)
    xs, vals = wkb_wavefunction(cont, eps, wd, [100.0, 100.0 + 1e-9, 150.0])
    assert 100.0 not in xs            # exactly at the turning point
    assert xs.size == 1               # the 1e-9 neighbor goes too
    assert np.all(np.isfinite(vals))


# --- well frequencies -------------------------------------------------------------------

def test_single_well_frequency(homogeneous):
    _, cont = homogeneous
    assert np.array_equal(well_frequencies(wells(cont, 0.0)), [1.0])


def test_symmetric_double_well_frequencies():
    # Phase-shifted cosine hopping: two identical interior wells.
    lat, cont = load_custom({
        "expressions": {"J": "1+0.5*cos(4*pi*x/400+pi)", "B": "0*x"},
        "N": 400, "lattice_spacing": 1.0,
    })
    wd = wells(cont, -2.2)
    assert len(wd.wells) == 2
    f = well_frequencies(wd)
    assert abs(f[0] - 0.5) < 1e-10 and abs(f.sum() - 1.0) < 1e-12


def test_asymmetric_cosine_frequencies(asym_cosine):
    lat, cont = asym_cosine
    s = exact.diagonalize(lat)
    wd = wells(cont, float(s.energies[199]))
    f = well_frequencies(wd)
    assert np.abs(f - [0.211558, 0.547223, 0.241218]).max() < 1e-4
    assert f.sum() == pytest.approx(1.0, abs=1e-12)


def test_frequencies_empty_error(homogeneous):
    _, cont = homogeneous
    with pytest.raises(UnsupportedRegimeError):
        well_frequencies(wells(cont, 9.0))


def test_well_frequencies_predict_localization_counts(asym_cosine):
    # 40 consecutive mid-spectrum modes: empirical per-well counts track
    # the predicted frequencies within +/- 3 modes.
    lat, cont = asym_cosine
    s = exact.diagonalize(lat)
    wd = wells(cont, float(s.energies[199]))
    f = well_frequencies(wd)
    counts = np.zeros(3)
    for k in range(179, 219):
        i = exact.localize_eigenfunction(s, k, wd)
        assert i is not None
        counts[i] += 1
    assert np.abs(counts - 40 * f).max() <= 3


# --- correlation kernel --------------------------------------------------------------------

def test_kernel_below_spectrum(homogeneous):
    _, cont = homogeneous
    assert wkb_correlation_kernel(cont, -5.0, 10.0, 20.0) == 0.0


def test_kernel_multi_well_raises(asym_cosine):
    _, cont = asym_cosine
    with pytest.raises(UnsupportedRegimeError):
        wkb_correlation_kernel(cont, 1.69251, 100.0, 200.0)


def test_kernel_symmetric_in_positions():
    _, cont = make_builtin(Homogeneous(1.0, 0.0), 40)
    x, y = 17.0, 21.5
    assert wkb_correlation_kernel(cont, -1.0, x, y) == wkb_correlation_kernel(cont, -1.0, y, x)


def test_kernel_diagonal_matches_density():
    # Empirical tolerance: the sin^2 average and band-edge handling leave
    # a few-1e-3 residual at this size (measured ~3e-3).
    lat, cont = make_builtin(Homogeneous(1.0, 0.0), 120)
    s = exact.diagonalize(lat)
    eF = float(s.energies[59])
    x0 = 60.0
    diag = wkb_correlation_kernel(cont, eF, x0, x0)
    dens = density_profile(cont, eF, [x0]).density[0]
    assert abs(diag - dens) < 0.02


def test_kernel_against_exact_correlations():
    # Half filling, zero field: exact C_nm from the finite-N eigenvector
    # sum is the oracle; empirical tolerance documented (measured <5e-3).
    lat, cont = make_builtin(Homogeneous(1.0, 0.0), 120)
    s = exact.diagonalize(lat)
    st = exact.filled_state(s, 60)
    C = exact.correlation_matrix(s, st).entries
    a = lat.lattice_spacing
    for n, m in ((59, 61), (59, 63), (59, 66)):
        got = wkb_correlation_kernel(cont, st.fermi_energy, (n + 1) * a, (m + 1) * a)
        assert abs(got - C[n, m]) < 0.02


KERNEL_FAMILIES = {"homogeneous": Homogeneous(1.0, 0.0), "krawtchouk": Krawtchouk(q=0.25),
                   "rainbow": Rainbow(h=1.0), "cosine": Cosine(J0=0.5)}


@pytest.fixture(scope="module")
def kernel_spectra():
    out = {}
    for name, fam in KERNEL_FAMILIES.items():
        lat, cont = make_builtin(fam, 400)
        out[name] = lat, cont, exact.diagonalize(lat)
    return out


def _exact_c(s, M):
    return exact.correlation_matrix(s, exact.filled_state(s, M)).entries


@pytest.mark.parametrize("family, M_range", [("homogeneous", (118, 122)),
                                             ("krawtchouk", (48, 52)),
                                             ("rainbow", (48, 52))])
def test_kernel_covers_benchmark_inputs(kernel_spectra, family, M_range):
    # Every input of the benchmark's kernel workload: M in its range, sites
    # n = 150..158, m in {n, n+2, ..., n+8}, eps_F = E_{M-1}, positions
    # (n + 1) a; 360 entries per family, 1080 in all.  The kernel is one
    # entry of correlation_matrix, taken here on the 17 positions at once.
    lat, cont, s = kernel_spectra[family]
    sites = np.arange(150, 167)
    for M in range(M_range[0], M_range[1] + 1):
        C = _exact_c(s, M)[np.ix_(sites, sites)]
        K = wkb.correlation_matrix(cont, float(s.energies[M - 1]), lat.mode_positions[sites])
        for i in range(9):
            for j in [i] + list(range(i + 2, i + 9)):
                assert abs(K[i, j] - C[i, j]) < 0.02, (family, M, sites[i], sites[j])


@pytest.mark.parametrize("family", ["homogeneous", "krawtchouk", "rainbow"])
def test_kernel_is_entry_of_correlation_matrix(kernel_spectra, family):
    # Different positions split the quadratures differently, so entries
    # agree to the quadrature target, not bitwise.
    lat, cont, s = kernel_spectra[family]
    eF = float(s.energies[119 if family == "homogeneous" else 49])
    x = lat.mode_positions[[150, 153, 158, 166]]
    K = wkb.correlation_matrix(cont, eF, x)
    for i, j in ((0, 0), (0, 1), (1, 2), (2, 3), (0, 3)):
        assert wkb_correlation_kernel(cont, eF, x[i], x[j]) == pytest.approx(K[i, j], abs=1e-9)


# Max |error| over the bulk, measured at N = 400: homogeneous 2.64e-3,
# cosine 2.57e-3, Krawtchouk 9.95e-3, rainbow 4.93e-3.  Most of it is the
# Fermi level itself: at eps_F = E_{M-1} the exact C holds that mode with
# full weight and the stationary-phase boundary term with half, a floor of
# |psi_F(x) psi_F(y)| / 2 (2.5e-3 homogeneous, 3.5e-3 rainbow here).
BULK_TOL = {"homogeneous": 2.9e-3, "cosine": 2.9e-3, "krawtchouk": 1.0e-2, "rainbow": 5.5e-3}


@pytest.mark.parametrize("family, M", [("homogeneous", 120), ("homogeneous", 200),
                                       ("cosine", 200),
                                       ("krawtchouk", 50), ("krawtchouk", 200),
                                       ("krawtchouk", 350),
                                       ("rainbow", 50), ("rainbow", 200), ("rainbow", 350)])
def test_correlation_matrix_in_the_bulk(kernel_spectra, family, M):
    # Whole matrix on every mode position at least 30 sites from the well
    # ends.  Krawtchouk M = 50 and rainbow M = 50 have depleted ends,
    # Krawtchouk M = 350 and rainbow M = 350 saturated ones, Krawtchouk
    # M = 200 one of each; the rest reach both hard chain ends.
    lat, cont, s = kernel_spectra[family]
    eF = float(s.energies[M - 1])
    (w,) = wells(cont, eF).wells
    x = lat.mode_positions
    bulk = np.flatnonzero((x >= w.lower + 30) & (x <= w.upper - 30))
    assert bulk.size > 150
    K = wkb.correlation_matrix(cont, eF, x[bulk])
    C = _exact_c(s, M)[np.ix_(bulk, bulk)]
    assert np.abs(K - C).max() < BULK_TOL[family]


@pytest.mark.parametrize("case", ["asymmetric_cosine", "krawtchouk"])
def test_correlation_matrix_next_to_a_turning_point(case):
    # Positions a fraction of a site from a turning point: asymmetric cosine
    # (0.75, 5, 2) at eps_F = E_109 has x = 254 0.0049 from the turning
    # point at 254.00488, and Krawtchouk at eps_F = 0.9999 has the
    # well [2965.16, 3034.44].  Both raised ConvergenceError while the
    # turning points were located only to 1e-12 l.
    if case == "asymmetric_cosine":
        lat, cont = make_builtin(AsymmetricCosine(0.75, 5.0, 2), 400)
        eF, sites = float(exact.diagonalize(lat).energies[109]), slice(0, 400)
    else:
        lat, cont = make_builtin(Krawtchouk(q=0.25), 4000)
        eF, sites = 0.9999, slice(2960, 3040)
    K = wkb.correlation_matrix(cont, eF, lat.mode_positions[sites])
    assert np.all(np.isfinite(K))
    assert np.array_equal(K, K.T)


@pytest.mark.parametrize("family", ["homogeneous", "krawtchouk", "rainbow", "cosine"])
def test_correlation_matrix_outside_the_band(kernel_spectra, family):
    lat, cont, _ = kernel_spectra[family]
    x = lat.mode_positions[[0, 57, 57, 200, 399]]
    lo, hi = wkb.band_bounds(cont)
    delta = (x[:, None] == x[None, :]).astype(float)
    for eps in (lo, lo - 1.0, -math.inf):
        assert np.array_equal(wkb.correlation_matrix(cont, eps, x), np.zeros((5, 5)))
    for eps in (hi, hi + 1.0, math.inf):
        assert np.array_equal(wkb.correlation_matrix(cont, eps, x), delta)


@pytest.mark.parametrize("family, M, kind", [("krawtchouk", 50, DEPLETED),
                                             ("krawtchouk", 350, SATURATED),
                                             ("rainbow", 50, DEPLETED),
                                             ("rainbow", 350, SATURATED)])
def test_correlation_matrix_off_the_well(kernel_spectra, family, M, kind):
    # Depleted positions: zero rows and columns.  Saturated: delta_xy.
    lat, cont, s = kernel_spectra[family]
    eF = float(s.energies[M - 1])
    outside = [r for r in wkb.classified_regions(cont, eF) if r.kind == kind]
    assert outside
    x = lat.mode_positions
    off = np.concatenate([x[(x > r.lower) & (x < r.upper)][:3] for r in outside])
    pos = np.concatenate([off, off[:1], x[[199, 200]]])
    K = wkb.correlation_matrix(cont, eF, pos)
    n = off.size + 1
    same = (pos[:n, None] == pos[None, :n]).astype(float)
    assert np.array_equal(K[:n, :n], same if kind == SATURATED else 0.0 * same)
    assert np.all(K[:n, n:] == 0.0) and np.all(K[n:, :n] == 0.0)
    assert np.all(K[n:, n:] != 0.0)


def test_correlation_matrix_zero_at_hard_wall_dirichlet_point(homogeneous):
    _, cont = homogeneous
    K = wkb.correlation_matrix(cont, -0.5, [0.0, 1.0, 2.0, 0.0])
    assert np.all(K[[0, 3]] == 0.0) and np.all(K[:, [0, 3]] == 0.0)
    assert np.all(np.isfinite(K)) and K[1, 1] > 0.0


@pytest.mark.parametrize("family", ["krawtchouk", "rainbow", "cosine"])
def test_correlation_matrix_exactly_symmetric(kernel_spectra, family):
    lat, cont, s = kernel_spectra[family]
    eF = float(s.energies[199])
    x = lat.mode_positions[::7]
    K = wkb.correlation_matrix(cont, eF, x)
    assert np.array_equal(K, K.T)
    assert np.array_equal(K[::-1, ::-1], wkb.correlation_matrix(cont, eF, x[::-1]))
    for xa, ya in ((x[20], x[23]), (x[5], x[40])):
        assert wkb_correlation_kernel(cont, eF, xa, ya) == wkb_correlation_kernel(cont, eF, ya, xa)


def test_kernel_at_band_edge_of_chain_end(rainbow):
    # eps_F = B - 2J at both ends: the band gap vanishes there, so the ends
    # are turning points; a hard-wall reading would divide by v(l) = 0.
    _, cont = rainbow
    eps = float(-2.0 * cont.J(cont.length))
    assert wkb._band_gap(cont, cont.length, eps) == 0.0
    K = wkb.correlation_matrix(cont, eps, [150.0, 200.0, 203.0, 400.0])
    assert np.all(np.isfinite(K)) and np.all(K[3] == 0.0)


def test_kernel_single_well_at_fermi_energy_suffices(cosine):
    # The rule is one well at eps_F.  Below eps = -1 the cosine chain has
    # two wells, at half filling one.
    _, cont = cosine
    assert len(wells(cont, -1.2).wells) == 2
    with pytest.raises(UnsupportedRegimeError):
        wkb.correlation_matrix(cont, -1.2, [100.0, 300.0])
    assert len(wells(cont, 0.0).wells) == 1
    assert math.isfinite(wkb_correlation_kernel(cont, 0.0, 100.0, 103.0))


# --- Krawtchouk reflection symmetries of the WKB density --------------------------

def test_krawtchouk_density_reflection(krawtchouk):
    # a rho(x, eps_F) = 1 - a rho(l - x, 1 - eps_F) on a test grid
    _, cont = krawtchouk
    x = np.linspace(0, 400, 81)
    for eF in (0.12, 0.5, 0.83):
        d1 = density_profile(cont, eF, x).density
        d2 = density_profile(cont, 1.0 - eF, 400.0 - x).density
        assert np.abs(d1 + d2 - 1.0).max() < 1e-9


def test_krawtchouk_density_q_reflection():
    # rho(x, eps_F; 1-q) = rho(l - x, eps_F; q)
    _, cq = make_builtin(Krawtchouk(q=0.25), 400)
    _, cq2 = make_builtin(Krawtchouk(q=0.75), 400)
    x = np.linspace(0, 400, 81)
    for eF in (0.2, 0.5, 0.77):
        d1 = density_profile(cq2, eF, x).density
        d2 = density_profile(cq, eF, 400.0 - x).density
        assert np.abs(d1 - d2).max() < 1e-9


def test_frequencies_vs_localization_all_builtins():
    # 40 consecutive mid-spectrum modes per family: per-well localization
    # counts match 40 * f_i within +/- 3 modes (single-well families are
    # the trivial g = 1 case).
    from fermichain.profiles import make_builtin

    families = [Homogeneous(1.0, 0.0), Krawtchouk(q=0.25), Rainbow(h=1.0),
                Cosine(J0=0.5), AsymmetricCosine(0.75, 5.0, 2)]
    for fam in families:
        lat, cont = make_builtin(fam, 400)
        s = exact.diagonalize(lat)
        wd = wells(cont, float(s.energies[199]))
        f = well_frequencies(wd)
        counts = np.zeros(len(wd.wells))
        for k in range(179, 219):
            i = exact.localize_eigenfunction(s, k, wd)
            assert i is not None, fam
            counts[i] += 1
        assert np.abs(counts - 40 * f).max() <= 3, fam
