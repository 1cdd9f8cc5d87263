"""fermichain: exact and discrete-WKB properties of free-fermion chains.

Single-particle spectra, local density profiles, filling fractions and
depletion/saturation regions of inhomogeneous XX chains, with an
exact-diagonalization oracle and closed-form references for the builtin
families (homogeneous, Krawtchouk, rainbow, cosine, asymmetric cosine).
"""

__version__ = "0.1.0"

from . import analytic, exact, numerics, profiles, wkb
