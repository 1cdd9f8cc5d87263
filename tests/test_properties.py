"""Property tests for the occupancy integral shared by nu and the phase.

One integral G(x) = int_0^x arccos(-xi*) feeds both the filling fraction,
nu = G(l) / (pi l), and the phase, phi(x) = (pi x - G(x)) / a.  It is
summed over the region partition of the chain, whose invariants close
this file.  The properties below hold by construction on every builtin
chain at N = 400.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermichain import numerics, wkb
from fermichain.profiles import (
    AsymmetricCosine,
    Cosine,
    Homogeneous,
    Krawtchouk,
    Rainbow,
    make_builtin,
)

BUILTINS = {
    "homogeneous": Homogeneous(1.0, 0.0),
    "krawtchouk": Krawtchouk(q=0.25),
    "rainbow": Rainbow(h=1.0),
    "cosine": Cosine(J0=0.5),
    "asymmetric_cosine": AsymmetricCosine(0.75, 5.0, 2),
}

# Quadrature's relative target: nu and G are exact only to this, so
# monotonicity holds up to it.
QUAD_REL = numerics.QUAD_REL_TOL

fraction = st.floats(0.0, 1.0)
positions = st.lists(fraction, min_size=2, max_size=6)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=10)


@lru_cache(maxsize=None)
def chain(name):
    _, cont = make_builtin(BUILTINS[name], 400)
    return cont, wkb.band_bounds(cont)


def energy(name, t):
    _, (lo, hi) = chain(name)
    return lo + t * (hi - lo)


@pytest.mark.parametrize("name", BUILTINS)
@PROPERTY
@given(t1=fraction, t2=fraction)
def test_filling_monotone_in_energy(name, t1, t2):
    cont, _ = chain(name)
    t1, t2 = sorted((t1, t2))
    nu1 = wkb.filling_fraction(cont, energy(name, t1))
    nu2 = wkb.filling_fraction(cont, energy(name, t2))
    assert nu1 <= nu2 + QUAD_REL


@pytest.mark.parametrize("name", BUILTINS)
def test_filling_empty_and_full_at_band_edges(name):
    cont, (lo, hi) = chain(name)
    assert abs(wkb.filling_fraction(cont, lo)) <= 1e-12
    assert abs(wkb.filling_fraction(cont, hi) - 1.0) <= 1e-12


@pytest.mark.parametrize("name", BUILTINS)
@PROPERTY
@given(t=fraction, fracs=positions)
def test_phase_nondecreasing_in_position(name, t, fracs):
    # d phi / dx = arccos(xi*) / a lies in [0, pi / a].  Each partial piece
    # between consecutive positions is a quadrature good to QUAD_REL, and
    # phi = (pi x - G) / a rounds at the scale of its largest value pi l / a.
    cont, _ = chain(name)
    a = cont.lattice_spacing
    xs = cont.length * np.sort(fracs)
    phi = wkb.phase(cont, xs, energy(name, t))
    rounding = 8 * np.finfo(float).eps * math.pi * cont.length / a
    slack = QUAD_REL * math.pi * np.diff(xs) / a + rounding
    assert np.all(np.diff(phi) >= -slack)


@pytest.mark.parametrize("name", BUILTINS)
@PROPERTY
@given(t=fraction)
def test_filling_is_complement_of_phase_at_chain_end(name, t):
    cont, _ = chain(name)
    eps = energy(name, t)
    ell, a = cont.length, cont.lattice_spacing
    nu = wkb.filling_fraction(cont, eps)
    assert abs(nu - (1.0 - a * wkb.phase(cont, ell, eps) / (math.pi * ell))) <= 1e-12


def near_special_energies(name):
    # Band edges, and for Krawtchouk eps = q and 1 - q, where a turning
    # point reaches the chain end: the scan's slivers sit next to these.
    _, (lo, hi) = chain(name)
    anchors = [lo, hi]
    if name == "krawtchouk":
        anchors += [BUILTINS[name].q, 1.0 - BUILTINS[name].q]
    return st.builds(lambda e, sign, power: e + sign * 10.0 ** power * (hi - lo),
                     st.sampled_from(anchors), st.sampled_from([-1.0, 1.0]),
                     st.floats(-13.0, -1.0))


@pytest.mark.parametrize("name", BUILTINS)
@PROPERTY
@given(data=st.data())
def test_regions_tile_chain_and_alternate(name, data):
    cont, _ = chain(name)
    eps = data.draw(near_special_energies(name))
    ell = cont.length
    regions = wkb.classified_regions(cont, eps)
    assert regions[0].lower == 0.0 and regions[-1].upper == ell
    for r, s in zip(regions[:-1], regions[1:]):
        assert r.upper == s.lower
        assert (r.kind == wkb.PARTIAL) != (s.kind == wkb.PARTIAL)
    if len(regions) > 1:
        assert all(r.upper - r.lower >= wkb.TANGENCY_FRACTION * ell for r in regions)
