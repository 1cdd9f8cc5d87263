"""Closed-form reference results for the builtin chain families.

Independent oracles: everything here is evaluated from explicit formulas
(or low-dimensional quadrature of them), never through the eigensolver or
the general WKB machinery, so the two routes can be compared in tests.
Density-like quantities are returned in the dimensionless convention
a*rho in [0, 1].
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .numerics import clausen_cl2, integrate


# --- homogeneous chain ---------------------------------------------------

def homogeneous_spectrum(J: float, B: float, N: int) -> Tuple[np.ndarray, np.ndarray]:
    """eps_{k-1} = B - 2J cos(pi k / (N+1)) with sine eigenfunctions.

    Phi_{n-1, k-1} = (-1)^(n-1) sqrt(2/(N+1)) sin(pi n k / (N+1)),
    n, k = 1..N.  Columns are orthonormal with a positive first component.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if J == 0:
        raise ValueError("J must be nonzero")
    k = np.arange(1, N + 1)
    energies = B - 2.0 * J * np.cos(np.pi * k / (N + 1))
    n = np.arange(1, N + 1)[:, None]
    modes = ((-1.0) ** (n - 1)) * np.sqrt(2.0 / (N + 1)) * np.sin(np.pi * n * k / (N + 1))
    return energies, modes


def homogeneous_density_exact(J: float, B: float, N: int, M: int) -> np.ndarray:
    """Finite-N site occupations with the Friedel oscillation term.

    <c+ c>_{n-1} = M/(N+1)
                 - sin(M pi n/(N+1)) cos((M+1) pi n/(N+1)) / ((N+1) sin(pi n/(N+1)))

    The cosine argument carries M+1, fixed by the Dirichlet-kernel identity
    sum_{k<=M} cos(2ks) = sin(Ms) cos((M+1)s) / sin(s); only this choice
    reproduces the M = N completeness limit (all occupations one).
    """
    if not 0 <= M <= N:
        raise ValueError("M outside [0, N]")
    n = np.arange(1, N + 1)
    s = np.pi * n / (N + 1)
    return M / (N + 1) - np.sin(M * s) * np.cos((M + 1) * s) / ((N + 1) * np.sin(s))


# --- Krawtchouk chain ----------------------------------------------------

def krawtchouk_turning_points(q: float, eps: float) -> Tuple[float, float]:
    """x_{1,2}/l = q + eps (1 - 2q) -/+ 2 sqrt(q (1-q) eps (1-eps))."""
    root = 2.0 * math.sqrt(max(q * (1 - q) * eps * (1 - eps), 0.0))
    center = q + eps * (1 - 2 * q)
    return center - root, center + root


def krawtchouk_spacing(num_sites: int) -> float:
    """Level spacing of the rescaled chain: exactly 1/N at every energy."""
    return 1.0 / num_sites


# --- rainbow chain -------------------------------------------------------

def rainbow_turning_points(
    h: float, eps: float, length: float
) -> Optional[Tuple[float, float]]:
    """x_{1,2} = l/2 +/- (l/h) log|eps| for |eps| >= e^(-h/2); else none."""
    ae = abs(eps)
    if ae < math.exp(-h / 2):
        return None
    x1 = length / 2 + (length / h) * math.log(ae)
    return x1, length - x1


def rainbow_dos(h: float, eps: float, num_sites: int) -> float:
    """Single-particle density of states, two branches split at e^(-h/2).

    |eps| >= e^(-h/2):  (N / (h |eps|)) (1 - (2/pi) arcsin|eps|)
    |eps| <  e^(-h/2):  (2N / (pi h |eps|)) (arcsin(e^(h/2)|eps|) - arcsin|eps|)

    The eps -> 0 limit is finite and evaluated by series (removable 0/0).
    """
    ae = abs(eps)
    if ae > 1.0:
        return 0.0
    K = math.exp(h / 2)
    if ae >= math.exp(-h / 2):
        return num_sites / (h * ae) * (1.0 - 2.0 / math.pi * math.asin(ae))
    if ae < 1e-5:
        # (arcsin(K z) - arcsin z)/z = (K - 1) + (K^3 - 1) z^2/6 + 3 (K^5 - 1) z^4/40
        series = (K - 1.0) + (K**3 - 1.0) * ae**2 / 6.0 + 3.0 * (K**5 - 1.0) * ae**4 / 40.0
        return 2.0 * num_sites / (math.pi * h) * series
    # K * ae can exceed 1 by rounding right at the branch point
    return 2.0 * num_sites / (math.pi * h * ae) * (math.asin(min(K * ae, 1.0)) - math.asin(ae))


def _arcsin_tail(t: float) -> float:
    """f(t) = int_t^1 arcsin(s)/s ds in terms of Clausen's integral."""
    if not 0.0 < t <= 1.0:
        raise ValueError("argument outside (0, 1]")
    return (
        math.pi / 2 * math.log(2.0)
        - math.log(2.0 * t) * math.asin(t)
        - 0.5 * clausen_cl2(2.0 * math.asin(t))
    )


def rainbow_filling(h: float, eps_F: float) -> float:
    """Closed-form filling fraction of the rainbow chain.

    Negative branch split at -e^(-h/2); positive energies come from the
    particle-hole relation nu(-eps) = 1 - nu(eps).
    """
    if eps_F > 0:
        return 1.0 - rainbow_filling(h, -eps_F)
    if eps_F == 0:
        return 0.5
    ae = min(abs(eps_F), 1.0)
    if ae >= math.exp(-h / 2):
        return (
            -math.log(2.0 * ae) / h
            + (2.0 * math.log(2.0 * ae) * math.asin(ae) + clausen_cl2(2.0 * math.asin(ae)))
            / (math.pi * h)
        )
    return 0.5 + 2.0 / (math.pi * h) * (
        _arcsin_tail(math.exp(h / 2) * ae) - _arcsin_tail(ae)
    )


def rainbow_envelope(h: float, eps: float, length: float, x) -> np.ndarray:
    """Positive envelope of the WKB eigenfunction, two-branch closed form.

    y = sqrt(h|eps|/l) (e^(-h|1 - 2x/l|) - eps^2)^(-1/4) * branch factor,
    zero outside the turning points in the outer-energy branch.
    """
    ae = abs(eps)
    xa = np.asarray(x, dtype=float)
    base = np.exp(-h * np.abs(1.0 - 2.0 * xa / length)) - ae * ae
    out = np.zeros_like(base)
    ok = base > 0
    if ae >= math.exp(-h / 2):
        factor = 1.0 / math.sqrt(math.pi / 2 - math.asin(ae))
    else:
        factor = 1.0 / math.sqrt(math.asin(math.exp(h / 2) * ae) - math.asin(ae))
    out[ok] = math.sqrt(h * ae / length) * factor * base[ok] ** (-0.25)
    return out


# --- cosine chain --------------------------------------------------------

def cosine_turning_points(J0: float, eps: float, length: float) -> Optional[Tuple[float, float]]:
    """x_1 = (l/2 pi) arccos((|eps| - 2)/(2 J0)), x_2 = l - x_1.

    Defined for 2 - 2 J0 <= |eps| <= 2 + 2 J0; no turning points inside
    the always-allowed band |eps| < 2 - 2 J0.
    """
    ae = abs(eps)
    if ae < 2 - 2 * J0 or ae > 2 + 2 * J0:
        return None
    x1 = length / (2 * np.pi) * math.acos((ae - 2.0) / (2.0 * J0))
    return x1, length - x1


def cosine_density(J0: float, eps_F: float, x, length: float) -> np.ndarray:
    """a*rho(x) for the cosine chain.

    Inside the always-allowed range |eps_F| <= 2 - 2 J0 the arccos form
    holds everywhere; outside it the interval between the turning points
    is depleted (eps_F < 0) or saturated (eps_F > 0).
    """
    xa = np.asarray(x, dtype=float)
    Jx = 1.0 + J0 * np.cos(2 * np.pi * xa / length)
    if eps_F > 0:
        return 1.0 - cosine_density(J0, -eps_F, xa, length)
    ae = abs(eps_F)
    arg = np.clip(ae / (2.0 * Jx), -1.0, 1.0)
    dens = np.arccos(arg) / np.pi
    tp = cosine_turning_points(J0, eps_F, length)
    if tp is not None:
        x1, x2 = tp
        dens = np.where((xa >= x1) & (xa <= x2), 0.0, dens)
    return dens


def cosine_numax(J0: float) -> float:
    """Largest filling with a depletion interval:
    (1/pi^2) int_0^pi arccos((1 - J0)/(1 + J0 cos s)) ds."""
    if not 0.0 < J0 < 1.0:
        raise ValueError("J0 outside (0, 1)")

    def f(s):
        return math.acos(min((1.0 - J0) / (1.0 + J0 * math.cos(s)), 1.0))

    # The independent oracle for the WKB critical filling: a tighter
    # relative target than the library default.
    return integrate(f, 0.0, math.pi, rel_tol=1e-11) / math.pi ** 2


# --- asymmetric cosine chain ----------------------------------------------

# Critical Fermi energies e_i (extrema of B +/- 2J) and the fillings nu_i
# they produce at N = 400, with J0 = 3/4, b = 5, r = 2.  Golden data to
# four decimals.
ASYMMETRIC_COSINE_TABLE = (
    (-2.3009, 0.0225),
    (-0.1737, 0.2100),
    (0.7998, 0.3700),
    (1.2929, 0.4425),
    (1.5000, 0.4725),
    (2.4384, 0.6225),
    (3.1972, 0.7700),
    (3.5000, 0.8225),
    (4.8055, 0.9350),
)


def asymmetric_cosine_critical_energies() -> Tuple[Tuple[float, float], ...]:
    """(e_i, nu_i) pairs where the well topology of the chain changes."""
    return ASYMMETRIC_COSINE_TABLE
