"""Exact diagonalization of finite chains.

Single-particle spectra of the tridiagonal Hamiltonian, with eigenfunctions
(``diagonalize``) or without (``eigenvalues``), the monic
orthogonal-polynomial recurrence used as a spectral cross-check,
correlation matrices of M-filled states, exact local densities, block
entanglement entropies, and per-well eigenfunction localization.  This
module is the oracle against which the WKB asymptotics are validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.special import xlogy

from .numerics import eigensolve_tridiagonal
from .profiles import LatticeProfile


class ExactError(ValueError):
    """Invalid state or numerically unusable data in the exact module."""


@dataclass(frozen=True)
class SingleParticleSpectrum:
    """Eigenvalues (ascending) and orthonormal eigenvector matrix.

    Column k of ``modes`` is the single-particle eigenfunction of energy
    ``energies[k]``, with the sign fixed so that the first component that
    is not negligibly small is positive.
    """

    energies: np.ndarray
    modes: np.ndarray
    profile: LatticeProfile

    @property
    def num_sites(self) -> int:
        return self.energies.size


@dataclass(frozen=True)
class FilledState:
    """The state occupying the M lowest single-particle modes; its Fermi
    energy is the highest occupied level, None when M = 0."""

    M: int
    fermi_energy: Optional[float]


@dataclass(frozen=True)
class CorrelationMatrix:
    """Two-point function <c+_n c_m> in an M-filled state (rank-M projector)."""

    entries: np.ndarray


_SIGN_BLOCK = 256


def _fix_signs(v: np.ndarray) -> np.ndarray:
    """C-ordered copy of LAPACK's Fortran-ordered vectors, column signs fixed.

    The first component above a relative threshold decides the column sign;
    a hard zero test would make golden outputs depend on rounding noise.
    Columns are taken in blocks, so the temporaries are N x 256 and the signs
    are applied while writing the one C-ordered copy.
    """
    out = np.empty(v.shape)
    for j in range(0, v.shape[1], _SIGN_BLOCK):
        blk = v[:, j:j + _SIGN_BLOCK]
        mag = np.abs(blk)
        first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
        flip = blk[first, np.arange(blk.shape[1])] < 0
        np.multiply(blk, np.where(flip, -1.0, 1.0), out=out[:, j:j + _SIGN_BLOCK])
    return out


def diagonalize(p: LatticeProfile) -> SingleParticleSpectrum:
    """Full spectrum and eigenfunctions of the chain Hamiltonian."""
    energies, modes = eigensolve_tridiagonal(p.fields, p.hoppings, want_vectors=True)
    return SingleParticleSpectrum(energies, _fix_signs(modes), p)


def eigenvalues(p: LatticeProfile) -> np.ndarray:
    """Ascending eigenvalues of the chain Hamiltonian, without eigenvectors.

    LAPACK computes these without vectors, so they can differ from
    ``diagonalize(p).energies`` in about the 13th significant digit.
    """
    return eigensolve_tridiagonal(p.fields, p.hoppings, want_vectors=False)[0]


def filled_state(s: SingleParticleSpectrum, M: int) -> FilledState:
    """The M-filled state of spectrum ``s``, for 0 <= M <= N."""
    N = s.num_sites
    if not 0 <= M <= N:
        raise ExactError(f"M={M} outside [0, {N}]")
    return FilledState(M, float(s.energies[M - 1]) if M else None)


def critical_polynomial(
    p: LatticeProfile, eps: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Values P_0..P_N of the monic polynomial recurrence at ``eps``.

    P_{n+1} = (eps - b_n) P_n - a_{n-1} P_{n-1} with a_n = J_n^2, b_n = B_n,
    P_{-1} = 0 and P_0 = 1.  The spectrum of the chain is the root set of
    the last entry P_N.  To keep sign information exact for large N the
    values are returned scaled: P_n = values[n] * 2.0 ** exponents[n].
    """
    N = p.num_sites
    a = p.hoppings ** 2
    b = p.fields
    values = np.empty(N + 1)
    exponents = np.zeros(N + 1, dtype=np.int64)
    p_prev, e_prev = 0.0, 0    # P_{n-1}
    p_cur, e_cur = 1.0, 0      # P_n
    values[0] = 1.0
    for n in range(N):
        # Both terms are brought to a common power-of-two exponent before
        # the sum; down-shifts can only underflow (harmlessly, below the
        # double-precision contribution threshold), never overflow.
        coupling = a[n - 1] if n > 0 else 0.0
        t1 = (eps - b[n]) * p_cur
        t2 = -coupling * p_prev
        E = max(e_cur if t1 != 0.0 else e_prev, e_prev if t2 != 0.0 else e_cur)
        s1 = e_cur - E
        s2 = e_prev - E
        p_new = (t1 * (2.0 ** s1) if s1 > -1074 else 0.0) + \
                (t2 * (2.0 ** s2) if s2 > -1074 else 0.0)
        e_new = E
        if p_new != 0.0:
            mant, ex = math.frexp(p_new)
            p_new, e_new = mant, E + ex
        values[n + 1] = p_new
        exponents[n + 1] = e_new
        p_prev, e_prev = p_cur, e_cur
        p_cur, e_cur = p_new, e_new
    return values, exponents


def correlation_matrix(s: SingleParticleSpectrum, st: FilledState) -> CorrelationMatrix:
    """C = Phi_M Phi_M^T over the M lowest modes."""
    if st.M > s.num_sites:
        raise ExactError("filled state does not match the spectrum size")
    occ = s.modes[:, : st.M]
    return CorrelationMatrix(occ @ occ.T)


def density_exact(s: SingleParticleSpectrum, st: FilledState) -> np.ndarray:
    """Site occupations <c+_n c_n> (the diagonal of the correlation matrix)."""
    if st.M > s.num_sites:
        raise ExactError("filled state does not match the spectrum size")
    return (s.modes[:, : st.M] ** 2).sum(axis=1)


def entanglement_entropy(
    c: CorrelationMatrix, block: Tuple[int, int], alpha: float = 1.0
) -> float:
    """Renyi entropy S_alpha of the half-open site block (start, stop).

    S_alpha = sum_k log(l_k^alpha + (1 - l_k)^alpha) / (1 - alpha) over the
    eigenvalues l_k of the truncated correlation matrix; alpha = 1 (the
    default) is its limit, the von Neumann entropy.  alpha must be
    positive and finite.  The block eigenvalues are clamped to [0, 1]
    within a 1e-12 window; anything further outside indicates a broken
    projector and raises.
    """
    if not 0 < alpha < math.inf:
        raise ExactError(f"Renyi index must be positive and finite, got {alpha!r}")
    start, stop = block
    N = c.entries.shape[0]
    if not (0 <= start <= stop <= N):
        raise ExactError(f"block [{start}, {stop}) outside [0, {N})")
    if start == stop:
        return 0.0
    sub = c.entries[start:stop, start:stop]
    lam = np.linalg.eigvalsh(sub)
    if lam.min() < -1e-12 or lam.max() > 1 + 1e-12:
        raise ExactError(
            f"block eigenvalues outside [0,1] beyond tolerance: "
            f"[{lam.min()}, {lam.max()}]"
        )
    lam = np.clip(lam, 0.0, 1.0)
    if alpha == 1.0:
        s = -(xlogy(lam, lam) + xlogy(1.0 - lam, 1.0 - lam))
    else:
        s = np.log(lam ** alpha + (1.0 - lam) ** alpha) / (1.0 - alpha)
    return float(s.sum())


def localize_eigenfunction(
    s: SingleParticleSpectrum, k: int, wells
) -> Optional[int]:
    """Index of the well holding the majority of mode k's weight.

    Weight is the squared eigenvector mass on lattice sites inside each
    well interval of the decomposition.  Returns None ("delocalized") when
    no well reaches a strict majority, which also resolves symmetric ties.
    """
    if not 0 <= k < s.num_sites:
        raise ExactError(f"mode index {k} out of range")
    if not wells.wells:
        return None
    weight = s.modes[:, k] ** 2
    x = s.profile.site_positions
    slack = 1e-9 * s.profile.length
    fractions = [
        float(weight[(x >= w.lower - slack) & (x <= w.upper + slack)].sum())
        for w in wells.wells
    ]
    best = int(np.argmax(fractions))
    if fractions[best] > 0.5 + 1e-9:
        return best
    return None
