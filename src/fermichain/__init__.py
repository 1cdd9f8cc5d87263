"""fermichain: exact and discrete-WKB properties of free-fermion chains.

Single-particle spectra, local density profiles, filling fractions and
depletion/saturation regions of inhomogeneous XX chains, with an
exact-diagonalization oracle and closed-form references for the builtin
families (homogeneous, Krawtchouk, rainbow, cosine, asymmetric cosine).
"""

__version__ = "0.1.0"

from . import analytic, exact, numerics, profiles, wkb
from .exact import (
    CorrelationMatrix,
    FilledState,
    SingleParticleSpectrum,
    correlation_matrix,
    density_exact,
    diagonalize,
    eigenvalues,
    entanglement_entropy,
    filled_state,
)
from .numerics import clausen_cl2, eigensolve_tridiagonal, find_root, integrate
from .profiles import (
    AsymmetricCosine,
    ContinuumProfile,
    Cosine,
    Homogeneous,
    Krawtchouk,
    LatticeProfile,
    Rainbow,
    discretize,
    gerschgorin_bounds,
    load_custom,
    make_builtin,
)
from .wkb import (
    DensityProfile,
    Well,
    WellDecomposition,
    correlation_matrix as wkb_correlation_matrix,
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
