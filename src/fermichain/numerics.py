"""Shared numerical kernels.

Symmetric tridiagonal eigensolver, quadrature that is robust to inverse
square-root endpoint singularities, bracketed root finding, and the
Clausen function Cl2.  Everything here is a pure function of its inputs,
so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import zeta


class NumericsError(Exception):
    """Base class for numerical-kernel failures."""


class InvalidInputError(NumericsError):
    """Non-finite or malformed input data."""


class BracketError(NumericsError):
    """Root bracket does not enclose a sign change."""


class DomainError(NumericsError):
    """Argument outside the documented domain of a special function."""


class ConvergenceError(NumericsError):
    """Quadrature or iteration failed to reach the requested tolerance.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate={estimate!r}, bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


# Quadrature targets: absolute, relative, and the cap on adaptive
# subintervals.  A result whose error bound exceeds 50 times the target
# raises ConvergenceError.
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-9
QUAD_LIMIT = 200
# Brent stops at this absolute width plus 4 ulps of the root.
ROOT_ABS_TOL = 1e-14
ROOT_REL_TOL = float(4 * np.finfo(float).eps)


@dataclass(frozen=True)
class TridiagonalSymmetric:
    """Real symmetric tridiagonal matrix: diagonal B_n, off-diagonal J_n."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)
        if d.ndim != 1 or d.size < 1:
            raise InvalidInputError("diag must be a 1-d array of length >= 1")
        if e.ndim != 1 or e.size != d.size - 1:
            raise InvalidInputError("offdiag length must be len(diag) - 1")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise InvalidInputError("matrix entries must be finite")

    @property
    def size(self) -> int:
        return self.diag.size


def eigensolve_tridiagonal(
    m: TridiagonalSymmetric, want_vectors: bool = True
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Eigenvalues (ascending) and, optionally, orthonormal eigenvectors.

    Backed by LAPACK's symmetric tridiagonal drivers.  Eigenvalues of a
    Jacobi matrix with nonzero off-diagonal entries are simple, so the
    returned array is strictly increasing in that case; zero hoppings
    decouple the matrix and may produce repeated eigenvalues.
    """
    if want_vectors:
        w, v = eigh_tridiagonal(m.diag, m.offdiag)
        return w, v
    w = eigh_tridiagonal(m.diag, m.offdiag, eigvals_only=True)
    return w, None


def _quad_checked(f, lo, hi, rel_tol: float) -> float:
    res = quad(f, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=rel_tol, limit=QUAD_LIMIT,
               full_output=1)
    value, abserr = res[0], res[1]
    requested = max(QUAD_ABS_TOL, rel_tol * abs(value))
    if len(res) > 3 and abserr > 50 * requested:
        raise ConvergenceError("quadrature did not converge: " + res[3], value, abserr)
    return value


def integrate(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    lower_singular: bool = False,
    upper_singular: bool = False,
    rel_tol: float = QUAD_REL_TOL,
) -> float:
    """Integral of ``f`` over the finite interval [lower, upper].

    An end flagged singular may carry an inverse-square-root singularity;
    it is removed before the adaptive pass with the substitution u^2 =
    distance to that end.  When both ends are singular the interval is
    split at its midpoint.
    """
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise InvalidInputError("integration bounds must be finite")
    if lower > upper:
        raise InvalidInputError("lower bound exceeds upper bound")
    if lower == upper:
        return 0.0
    if lower_singular and upper_singular:
        mid = 0.5 * (lower + upper)
        return (integrate(f, lower, mid, True, False, rel_tol)
                + integrate(f, mid, upper, False, True, rel_tol))
    if lower_singular:
        def g(u):
            return 2.0 * u * f(lower + u * u) if u > 0.0 else 0.0
    elif upper_singular:
        def g(u):
            return 2.0 * u * f(upper - u * u) if u > 0.0 else 0.0
    else:
        return _quad_checked(f, lower, upper, rel_tol)
    return _quad_checked(g, 0.0, math.sqrt(upper - lower), rel_tol)


def find_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of ``f`` inside [lo, hi] by Brent's bracketed method, to
    ROOT_ABS_TOL plus ROOT_REL_TOL of the root.

    Requires a sign change over the bracket; the returned point is always
    contained in the initial bracket.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    return brentq(f, lo, hi, xtol=ROOT_ABS_TOL, rtol=ROOT_REL_TOL)


# zeta(2n) for the accelerated Clausen series; 60 terms cover theta <= pi
# with geometric ratio <= 1/4.
_ZETA_EVEN = zeta(2.0 * np.arange(1, 61))
_CL2_COEFF = _ZETA_EVEN / (np.arange(1, 61) * (2 * np.arange(1, 61) + 1))


def clausen_cl2(theta: float) -> float:
    """Clausen's integral Cl2(theta) = sum_{n>=1} sin(n theta)/n^2.

    Valid for theta in [0, 2*pi]; callers reduce mod 2*pi themselves.
    Evaluated through the accelerated series
    Cl2(t) = t - t*log(t) + sum_n zeta(2n) t^{2n+1} / (n (2n+1) (2pi)^{2n}),
    after folding [pi, 2*pi] back with Cl2(2*pi - t) = -Cl2(t).
    """
    t = float(theta)
    if not math.isfinite(t) or t < -1e-12 or t > 2 * math.pi + 1e-12:
        raise DomainError(f"theta={theta!r} outside [0, 2*pi]")
    t = min(max(t, 0.0), 2 * math.pi)
    sign = 1.0
    if t > math.pi:
        t = 2 * math.pi - t
        sign = -1.0
    if t == 0.0:
        return 0.0
    r = (t / (2 * math.pi)) ** 2
    total = t * (1.0 - math.log(t))
    power = t
    for c in _CL2_COEFF:
        power *= r
        term = c * power
        total += term
        if abs(term) < 1e-18:
            break
    return sign * total
