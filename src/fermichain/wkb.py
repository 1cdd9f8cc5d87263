"""Discrete-WKB asymptotics for smooth chain profiles.

The central object is the profile ratio xi(x, eps) = (eps - B(x)) / (2 J(x))
and its clamp xi* to [-1, 1].  Energies inside the local band |xi| <= 1
define classically allowed intervals ("wells"); their endpoints interior to
the chain are turning points.  From the wells follow the phase integral,
per-well normalizations, density of states, level spacing, filling
fraction, the local fermion density with its depletion/saturation regions,
approximate wavefunctions and envelopes, and the correlation matrix by
stationary phase.

The filling fraction and the phase are one integral: G(x), the integral
of arccos(-xi*) from 0 to x, gives nu = G(l) / (pi l) and
phi(x) = (pi x - G(x)) / a, hence nu = 1 - a * phi(l) / (pi l).

Density samples are the dimensionless site occupancy a*rho in [0, 1]; the
lattice spacing a is taken from the profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple, Union

import numpy as np

from .numerics import BracketError, find_root, integrate
from .profiles import ContinuumProfile, band_bounds

# Intervals of the uniform grid on which the region scan looks for sign
# changes of the band gap.
_SCAN_RESOLUTION = 4096
# Wells narrower than this fraction of the chain length are tangency
# artifacts (band edges, ellipse tangent points) and are discarded.
TANGENCY_FRACTION = 1e-6
# Grid points closer than this fraction of the chain length to a turning
# point are skipped when sampling wavefunctions/envelopes (the amplitude
# diverges there).
TURNING_POINT_SKIP = 1e-6

DEPLETED = "depleted"
SATURATED = "saturated"
PARTIAL = "partial"

TURNING_POINT = "turning_point"
CHAIN_END = "chain_end"


class SingularProfileError(ValueError):
    """xi evaluated where J(x) = 0."""


class UnsupportedRegimeError(ValueError):
    """Operation outside its documented regime (e.g. multi-well kernel)."""


@dataclass(frozen=True)
class Well:
    """Maximal interval with |xi(x, eps)| <= 1."""

    lower: float
    upper: float
    lower_kind: str = TURNING_POINT
    upper_kind: str = TURNING_POINT

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class Region:
    lower: float
    upper: float
    kind: str  # depleted | saturated | partial


@dataclass(frozen=True)
class WellDecomposition:
    """Wells at a fixed energy with their inverse normalizations A_i^-2."""

    energy: float
    wells: Tuple[Well, ...]
    inv_norms: np.ndarray  # A_i^-2, units of length / energy

    @property
    def is_empty(self) -> bool:
        return len(self.wells) == 0

    @property
    def total_inv_norm(self) -> float:
        """A^-2 = sum_i A_i^-2."""
        return float(self.inv_norms.sum())


@dataclass(frozen=True)
class DensityProfile:
    """Sampled a*rho(x) with classified depletion/saturation regions."""

    x: np.ndarray
    density: np.ndarray
    regions: Tuple[Region, ...]
    fermi_energy: float


def xi(c: ContinuumProfile, x, eps: float):
    """Profile ratio (eps - B(x)) / (2 J(x))."""
    xa = np.asarray(x, dtype=float)
    J = c.J(xa)
    if np.any(J == 0.0):
        raise SingularProfileError("xi undefined where J(x) = 0")
    out = (eps - c.B(xa)) / (2.0 * J)
    return out if out.ndim else float(out)


def xi_star(c: ContinuumProfile, x, eps: float):
    """xi clamped to [-1, 1]: -1 below the local band, +1 above it.

    Where J(x) = 0 it is the limit of the clamp, sign(eps - B(x)).
    """
    xa = np.asarray(x, dtype=float)
    J = c.J(xa)
    diff = eps - c.B(xa)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(J == 0.0, np.sign(diff), diff / (2.0 * J))
    out = np.clip(ratio, -1.0, 1.0)
    return out if out.ndim else float(out)


def _band_gap(c: ContinuumProfile, x, eps: float):
    """4 J^2 - (eps - B)^2; positive exactly where |xi| < 1, and defined
    even at J = 0 (profile endpoints)."""
    xa = np.asarray(x, dtype=float)
    J = c.J(xa)
    return 4.0 * J * J - (eps - c.B(xa)) ** 2


def _checked_gap(w, eps: float):
    """Band-gap values ``w`` from the region scan, if all are below +inf.

    -inf only means (eps - B)^2 overflowed, so the point lies outside the
    band.  NaN (both squares overflowed, or J or B is undefined) leaves the
    side of the band unknown, and +inf (4 J^2 overflowed) makes 1/v read 0;
    both raise ValueError.
    """
    if not (np.asarray(w) < np.inf).all():
        raise ValueError(f"band gap 4J^2 - (eps - B)^2 overflows or is NaN at eps={eps}")
    return w


def _turning_point(c: ContinuumProfile, eps: float, lo: float, hi: float) -> float:
    """Zero of the band gap inside [lo, hi], to full double precision.

    The 1/v quadrature absorbs the inverse square root at a turning point
    by a substitution that is exact only at the true zero; a root off by
    even 1e-12 leaves a layer the quadrature cannot resolve.
    """
    return find_root(lambda t: float(_band_gap(c, t, eps)), lo, hi)


@lru_cache(maxsize=512)
def _scan_regions(c: ContinuumProfile, eps: float) -> Tuple[Region, ...]:
    """Partition [0, l] into depleted / partial / saturated intervals.

    Sign changes of 4J^2 - (eps-B)^2 on a uniform scan grid are refined by
    bracketed root finding; intervals narrower than TANGENCY_FRACTION * l
    are merged away, so the result alternates between partial and
    non-partial intervals.  A band gap that overflows to +inf or NaN on the
    grid or at an interval midpoint raises ValueError.
    """
    ell = c.length
    xs = np.linspace(0.0, ell, _SCAN_RESOLUTION + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        w = _checked_gap(_band_gap(c, xs, eps), eps)
    inside = w > 0.0

    boundaries = [0.0]
    for i in np.flatnonzero(inside[:-1] != inside[1:]):
        lo, hi = xs[i], xs[i + 1]
        if w[i] == 0.0:
            boundaries.append(float(lo))
        elif w[i + 1] == 0.0:
            boundaries.append(float(hi))
        else:
            boundaries.append(_turning_point(c, eps, lo, hi))
    boundaries.append(ell)

    spans = [(lo, hi) for lo, hi in zip(boundaries[:-1], boundaries[1:]) if hi > lo]
    with np.errstate(over="ignore", invalid="ignore"):
        mid_gaps = _checked_gap([float(_band_gap(c, 0.5 * (lo + hi), eps))
                                 for lo, hi in spans], eps)

    # A sub-tangency sliver joins the interval before it, as does a
    # neighbor of equal membership; every appended interval is wide and
    # differs from its predecessor.
    min_width = TANGENCY_FRACTION * ell
    merged = []
    for (lo, hi), g in zip(spans, mid_gaps):
        is_inside = g > 0.0
        if merged and (hi - lo < min_width or merged[-1][2] == is_inside):
            merged[-1][1] = hi
        else:
            merged.append([lo, hi, is_inside])
    # Only the first interval can still be a sliver.
    if len(merged) > 1 and merged[0][1] - merged[0][0] < min_width:
        merged[1][0] = merged[0][0]
        merged = merged[1:]

    regions = []
    for lo, hi, is_inside in merged:
        if is_inside:
            kind = PARTIAL
        else:
            mid = 0.5 * (lo + hi)
            kind = DEPLETED if eps < float(c.B(np.array(mid))) else SATURATED
        regions.append(Region(lo, hi, kind))
    return tuple(regions)


def classified_regions(c: ContinuumProfile, eps: float) -> Tuple[Region, ...]:
    """Depleted / partial / saturated intervals at energy ``eps``; a NaN
    energy raises, -inf and +inf mean an empty and a full chain."""
    if math.isnan(eps):
        raise ValueError("energy is NaN")
    return _scan_regions(c, float(eps))


def _cumulative(pieces, xs: np.ndarray) -> np.ndarray:
    """Integral from the first piece's lower end to each sorted position.

    A piece is (lower, upper, rule, lower_singular, upper_singular), and
    the pieces tile an interval in order.  The rule is either an integrand,
    with an inverse square-root singularity at each end flagged singular,
    or a constant rate per unit length.  Each stretch between consecutive
    positions or piece ends is one quadrature; nothing past the last
    position is evaluated.
    """
    out = np.empty(xs.size)
    total, i = 0.0, 0
    for lo, hi, rule, lo_singular, hi_singular in pieces:
        prev = lo
        while i < xs.size:
            x = min(xs[i], hi)
            if x > prev:
                if callable(rule):
                    total += integrate(rule, prev, x, lo_singular and prev == lo,
                                       hi_singular and x == hi)
                else:
                    total += rule * (x - prev)
                prev = x
            if xs[i] > hi:
                break
            out[i] = total
            i += 1
    return out


def _well_piece(c: ContinuumProfile, eps: float, well: Well):
    """The 1/v integrand over a well as a piece of :func:`_cumulative`:
    (lower, upper, 1/v, lower is a turning point, upper is a turning point).

    1/v = 1 / sqrt(4J^2 - (eps - B)^2) inside the local band and 0 outside;
    it gives both A_i^-2 and the conformal coordinate.  A chain end where
    the band gap is negative hides a turning point in a sliver narrower
    than TANGENCY_FRACTION * l that the scan merged away (Krawtchouk near
    eps = q or 1 - q, where J vanishes at the ends); the piece then starts
    at that root, found inside the well.  A zero band gap makes the chain
    end itself the turning point.
    """
    lo, hi = well.lower, well.upper
    lo_tp, hi_tp = well.lower_kind == TURNING_POINT, well.upper_kind == TURNING_POINT

    def inv_velocity(t):
        g = float(_band_gap(c, t, eps))
        return 1.0 / math.sqrt(g) if g > 0.0 else 0.0

    mid = 0.5 * (lo + hi)
    if not lo_tp and float(_band_gap(c, lo, eps)) <= 0.0:
        lo, lo_tp = _turning_point(c, eps, lo, mid), True
    if not hi_tp and float(_band_gap(c, hi, eps)) <= 0.0:
        hi, hi_tp = _turning_point(c, eps, mid, hi), True
    return lo, hi, inv_velocity, lo_tp, hi_tp


def _well_inv_norm(c: ContinuumProfile, eps: float, well: Well) -> float:
    """A_i^-2 = integral over the well of dx / (2 J sqrt(1 - xi^2)).

    The integrand equals 1 / sqrt(4J^2 - (eps - B)^2), with inverse
    square-root singularities at turning-point boundaries only.
    """
    piece = _well_piece(c, eps, well)
    return float(_cumulative([piece], np.array([piece[1]]))[0])


def _wells_of(regions: Sequence[Region], ell: float) -> Tuple[Well, ...]:
    """The partial regions as wells, with chain ends told from turning points."""
    return tuple(
        Well(r.lower, r.upper,
             CHAIN_END if r.lower <= 0.0 else TURNING_POINT,
             CHAIN_END if r.upper >= ell else TURNING_POINT)
        for r in regions if r.kind == PARTIAL
    )


def wells(c: ContinuumProfile, eps: float) -> WellDecomposition:
    """Well decomposition at energy ``eps`` with per-well normalizations.

    An energy outside the spectrum yields an empty decomposition rather
    than an error.  A well whose A_i^-2 is not positive and finite (J
    underflowing to 0 across it) raises ValueError: it has no normalization.
    """
    ws = _wells_of(classified_regions(c, eps), c.length)
    inv = np.array([_well_inv_norm(c, eps, w) for w in ws])
    if not np.all(np.isfinite(inv) & (inv > 0.0)):
        raise ValueError(f"well weights A_i^-2 = {inv} at eps={eps} are not "
                         "all positive and finite")
    return WellDecomposition(float(eps), ws, inv)


def _filled_integral(c: ContinuumProfile, xs: np.ndarray, eps: float) -> np.ndarray:
    """G(x) = integral of arccos(-xi*) from 0 to each sorted position x:
    pi per unit length on saturated stretches, nothing on depleted ones."""
    def f(t):
        return float(np.arccos(-xi_star(c, t, eps)))

    rule = {PARTIAL: f, SATURATED: math.pi, DEPLETED: 0.0}
    pieces = [(r.lower, r.upper, rule[r.kind], False, False)
              for r in classified_regions(c, eps)]
    return _cumulative(pieces, xs)


def _positions(c: ContinuumProfile, x) -> np.ndarray:
    """``x`` as floats clamped to l; NaN or anything outside [0, l (1 + 1e-12)]
    raises ValueError."""
    x = np.asarray(x, dtype=float)
    ell = c.length
    if x.size and not (x.min() >= 0.0 and x.max() <= ell * (1 + 1e-12)):
        raise ValueError(f"positions must lie in [0, {ell}], got "
                         f"min {x.min()}, max {x.max()}")
    return np.minimum(x, ell)


def phase(c: ContinuumProfile, x, eps: float):
    """WKB phase (1/a) * integral of arccos(xi*) from 0 to x = (pi x - G(x)) / a.

    ``x`` is a position or an array of positions in [0, l], in any
    order.  Depleted stretches contribute pi per unit length / a,
    saturated ones nothing; the O(a^0) constant is fixed to zero.
    """
    xa = _positions(c, x)
    order = np.argsort(xa, axis=None)
    xs = xa.ravel()[order]
    out = np.empty(xa.shape)
    out.flat[order] = (math.pi * xs - _filled_integral(c, xs, eps)) / c.lattice_spacing
    return out if out.ndim else float(out)


def density_of_states(c: ContinuumProfile, eps: float) -> float:
    """D(eps) = A^-2 / (pi a), summed over wells; zero outside the band."""
    wd = wells(c, eps)
    if wd.is_empty:
        return 0.0
    return wd.total_inv_norm / (math.pi * c.lattice_spacing)


def level_spacing(c: ContinuumProfile, eps: float) -> float:
    """Delta(eps) = 1 / D(eps); +inf where the density of states vanishes."""
    D = density_of_states(c, eps)
    return math.inf if D == 0.0 else 1.0 / D


def filling_fraction(c: ContinuumProfile, eps_F: float) -> float:
    """nu = (1 / pi l) * integral of arccos(-xi*(x, eps_F)) over the chain."""
    ell = c.length
    return float(_filled_integral(c, np.array([ell]), eps_F)[0]) / (math.pi * ell)


def invert_filling(c: ContinuumProfile, nu: float) -> float:
    """Fermi energy with filling_fraction(eps) = nu.

    nu is nondecreasing in the energy, so the leftmost solution is well
    defined; on a plateau (spectral gap) the infimum is returned.
    """
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"nu={nu} outside [0, 1]")
    lo, hi = band_bounds(c)
    if nu <= 0.0:
        return lo
    if nu >= 1.0:
        return hi
    if filling_fraction(c, hi) < nu:
        raise BracketError("filling fraction never reaches nu on the band bracket")
    # Bisection on the predicate nu(eps) >= nu converges to the leftmost
    # energy achieving the filling, which is the plateau infimum.
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if hi - lo <= max(1e-10, 1e-10 * abs(mid)):
            break
        if filling_fraction(c, mid) >= nu:
            hi = mid
        else:
            lo = mid
    return hi


def density_profile(
    c: ContinuumProfile,
    eps_F: float,
    grid: Sequence[float],
) -> DensityProfile:
    """Local density a*rho = 1/2 + arcsin(xi*) / pi at positions in [0, l].

    Region classification: depleted where eps_F <= B - 2J (density exactly
    0), saturated where eps_F >= B + 2J (exactly 1), partial elsewhere.
    Points with J(x) = 0 take the limit of the clamp, so the sign of
    eps_F - B(x) gives exactly 0, 1 or 1/2.
    """
    x = _positions(c, grid)
    dens = 0.5 + np.arcsin(xi_star(c, x, eps_F)) / np.pi
    return DensityProfile(x, dens, classified_regions(c, eps_F), float(eps_F))


def _keep_mask(wd: WellDecomposition, x: np.ndarray, ell: float) -> np.ndarray:
    skip = TURNING_POINT_SKIP * ell
    mask = np.ones(x.size, dtype=bool)
    for w in wd.wells:
        if w.lower_kind == TURNING_POINT:
            mask &= np.abs(x - w.lower) > skip
        if w.upper_kind == TURNING_POINT:
            mask &= np.abs(x - w.upper) > skip
    return mask


def _amplitude(c, x: np.ndarray, eps: float) -> np.ndarray:
    """1 / sqrt(J (1 - xi^2)^(1/2)) where allowed, 0 elsewhere."""
    g = _band_gap(c, x, eps)          # 4 J^2 (1 - xi^2)
    J = c.J(x)
    out = np.zeros(x.size)
    ok = (g > 0) & (J > 0)
    # J sqrt(1 - xi^2) = sqrt(g) / 2
    out[ok] = 1.0 / np.sqrt(np.sqrt(g[ok]) / 2.0)
    return out


def wkb_wavefunction(
    c: ContinuumProfile,
    eps: float,
    wd: WellDecomposition,
    grid: Sequence[float],
    well: Union[int, str] = "combined",
) -> Tuple[np.ndarray, np.ndarray]:
    """WKB wavefunction samples (x, value) at energy ``eps``.

    Per well i the function is A_i sin(phi*) / sqrt(J (1 - xi^2)^(1/2))
    inside the well and identically zero outside; "combined" superposes
    all wells with the global normalization A (weights A / A_i per well).
    Grid points too close to a turning point are skipped, since the
    amplitude diverges there.  This is :func:`envelope` times sin(phi*).
    """
    x, env = envelope(c, eps, wd, grid, well)
    return x, env * np.sin(phase(c, x, eps))


def envelope(
    c: ContinuumProfile,
    eps: float,
    wd: WellDecomposition,
    grid: Sequence[float],
    well: Union[int, str] = "combined",
) -> Tuple[np.ndarray, np.ndarray]:
    """Positive envelope A / sqrt(J (1 - xi^2)^(1/2)) of the wavefunction.

    Returns the positive branch; the curves are the plus/minus pair.
    Zero outside the wells, turning-point neighborhoods skipped.  Grid
    points lie in [0, l]; NaN or a point outside raises ValueError.
    """
    if wd.is_empty:
        raise UnsupportedRegimeError("no wells at this energy")
    if well == "combined":
        chosen, A = wd.wells, 1.0 / math.sqrt(wd.total_inv_norm)
    else:
        i = int(well)
        if not 0 <= i < len(wd.wells):
            raise UnsupportedRegimeError(f"well index {i} out of range")
        chosen, A = wd.wells[i:i + 1], 1.0 / math.sqrt(wd.inv_norms[i])
    x = np.sort(_positions(c, grid))
    x = x[_keep_mask(wd, x, c.length)]
    amp = _amplitude(c, x, eps)
    values = np.zeros(x.size)
    for w in chosen:
        inside = (x >= w.lower) & (x <= w.upper)
        values[inside] = A * amp[inside]
    return x, values


def well_frequencies(wd: WellDecomposition) -> np.ndarray:
    """Relative frequency of eigenfunctions per well: A_i^-2 / sum_j A_j^-2."""
    if wd.is_empty:
        raise UnsupportedRegimeError("empty decomposition has no frequencies")
    return wd.inv_norms / wd.inv_norms.sum()


def correlation_matrix(c: ContinuumProfile, eps_F: float, positions) -> np.ndarray:
    """WKB correlation matrix C(x_i, x_j) of the chain filled up to eps_F.

    This is the energy integral C(x, y) = (1/pi) * int^eps_F f(x, e) f(y, e) de
    of the WKB wavefunctions f evaluated by stationary phase: the
    integrand oscillates with d phi / d e = -x~, so only the boundary term
    at eps_F survives.  That is the inhomogeneous sine kernel with one
    image per well end (Dubail, Stephan, Viti and Calabrese, SciPost
    Phys. 2, 002, 2017):

        C(x, y) = [ -sin(phi_x - phi_y) / (x~ - y~)
                    + sin(phi_x + phi_y + 2 mu_L) / (x~ + y~)
                    + sin(pb_x + pb_y + 2 mu_R) / (2 L~ - (x~ + y~)) ]
                  / (pi sqrt(v_x v_y))

    with phi the :func:`phase` at eps_F, pb the same phase measured from
    the right end, v = sqrt(4J^2 - (eps_F - B)^2) the local Fermi velocity,
    x~ the conformal coordinate, the integral of dx / (a v) from the lower
    end of the well, and L~ its value at the upper end.  The Maslov phase
    mu is 0 at a hard chain end, -pi/4 at a turning point next to a
    depleted stretch and +pi/4 next to a saturated one.  A hard right end
    sits at the phantom site l + a, where the mode positions x = (n + 1) a
    have their Dirichlet zero, with the profile held at its value at l.
    The diagonal is 1 - q(x)/pi plus the two image terms, with
    q = arccos(xi*).  The matrix is exactly symmetric.

    Positions on a depleted stretch give a zero row and column, positions
    on a saturated stretch give delta_xy; so eps_F at or below the band
    gives 0 and at or above it the identity.  x = 0 at a hard left end is
    the Dirichlet zero itself and gives a zero row and column.

    Valid for a single well at eps_F; more than one raises
    UnsupportedRegimeError.  Within about 20 sites of a turning point (the
    Airy zone) errors reach 0.09-0.25.  An interior near-tangent dip of
    B - 2J misses with no turning point nearby; at N = 400, 30 or more
    sites from the well ends, the worst diagonal errors against exact C
    are 1.3e-2 (cosine J0 = 0.5, M = 120, x = 183), 3.6e-2 and 1.5e-2
    (asymmetric cosine (0.75, 5, 2), M = 90 at x = 97 and M = 130 at
    x = 110).  Turning points are located to full double precision, so
    positions a fraction of a site from one are fine.  Like :func:`wells`,
    it can raise ConvergenceError when eps_F lies within about 1e-5 band
    widths of a critical energy of B -/+ 2J, where a well end is nearly
    tangent (measured within 1.4e-8 band widths of +-1 on cosine J0 = 0.5
    and within 6.5e-6 band widths of the tangency energies of asymmetric
    cosine (0.75, 5, 2)).
    """
    x = _positions(c, positions)
    if x.ndim != 1:
        raise ValueError("positions must be a 1-d array")
    ell = c.length
    ws = _wells_of(classified_regions(c, eps_F), ell)
    if len(ws) > 1:
        raise UnsupportedRegimeError(
            f"{len(ws)} wells at eps_F={eps_F}: kernel valid for a single well only"
        )
    g = _band_gap(c, x, eps_F)
    saturated = (g <= 0.0) & (eps_F > c.B(x))
    out = np.where((x[:, None] == x[None, :]) & saturated[:, None], 1.0, 0.0)
    if not ws:
        return out
    piece = lo, hi, _, lo_tp, hi_tp = _well_piece(c, eps_F, ws[0])
    inside = (g > 0.0) & (x > lo) & (x <= hi)
    pos, idx = np.unique(x[inside], return_inverse=True)
    if not pos.size:
        return out

    phi = phase(c, np.append(pos, ell), eps_F)
    phi, phi_bar = phi[:-1], phi[-1] - phi[:-1]
    s = _cumulative([piece], np.append(pos, hi)) / c.lattice_spacing
    s, L = s[:-1], float(s[-1])
    v = np.sqrt(_band_gap(c, pos, eps_F))
    q = np.arccos(xi_star(c, pos, eps_F))

    def maslov(end, turning):
        if not turning:
            return 0.0
        return -math.pi / 4 if eps_F < float(c.B(np.array(end))) else math.pi / 4

    mu_L, mu_R = maslov(lo, lo_tp), maslov(hi, hi_tp)
    if not hi_tp:
        # One more lattice spacing to the phantom site l + a.
        phi_bar = phi_bar + float(np.arccos(xi_star(c, ell, eps_F)))
        L += 1.0 / math.sqrt(float(_band_gap(c, ell, eps_F)))

    # |phi_x - phi_y| / |x~ - y~|: symmetric bit for bit, since both grow with x.
    ds = np.abs(np.subtract.outer(s, s))
    with np.errstate(divide="ignore", invalid="ignore"):
        bulk = -np.sin(np.abs(np.subtract.outer(phi, phi))) / ds
    np.fill_diagonal(bulk, (math.pi - q) * v)
    S = np.add.outer(s, s)
    T = (bulk
         + np.sin(np.add.outer(phi, phi) + 2 * mu_L) / S
         + np.sin(np.add.outer(phi_bar, phi_bar) + 2 * mu_R) / (2 * L - S))
    block = T / (math.pi * np.sqrt(np.multiply.outer(v, v)))
    out[np.ix_(inside, inside)] = block[np.ix_(idx, idx)]
    return out


def wkb_correlation_kernel(
    c: ContinuumProfile,
    eps_F: float,
    x: float,
    y: float,
) -> float:
    """Correlation kernel C(x, y), one entry of :func:`correlation_matrix`.

    It is the stationary-phase evaluation of the energy integral
    (1/pi) * int^eps_F f(x, e) f(y, e) de of WKB wavefunctions: the
    boundary term at eps_F, with no energy grid.  Valid for a single well
    at eps_F; more than one raises UnsupportedRegimeError.  Within about
    20 sites of a turning point (the Airy zone) errors reach 0.09-0.25,
    interior near-tangent dips of B - 2J miss by up to 3.6e-2, and an
    eps_F within about 1e-5 band widths of a critical energy of B -/+ 2J
    can raise ConvergenceError; see :func:`correlation_matrix`.
    """
    return float(correlation_matrix(c, eps_F, [x, y])[0, 1])
