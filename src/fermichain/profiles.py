"""Chain parameter profiles.

A chain is specified by hopping amplitudes J_n (bonds n = 0..N-2) and
on-site fields B_n (sites n = 0..N-1), together with their smooth
continuum counterparts J(x), B(x) on [0, l] where l = N*a and x = n*a.
Builtin families: homogeneous, Krawtchouk, rainbow, cosine and an
asymmetric cosine generalization.  Custom profiles come from explicit
arrays or from expression strings.

An expression is a subset of Python expression syntax: numbers, the
variable x, the constants pi and e, binary + - * / and ** (``^`` means
``**``), unary + and -, parentheses, and one-argument calls of exp, log,
sin, cos, abs and sqrt.  Precedence and associativity are Python's, so
``-x^2`` is -(x^2) and ``2^3^2`` is 2^9.  Python's ``ast`` parses it and a
whitelist walker compiles it to numpy calls; nothing is evaluated.
Integers with leading zeros (``007``), numbers with underscores, prefixes
or an imaginary part, and syntax trees deeper than 100 levels are
rejected with ProfileError.
"""

from __future__ import annotations

import ast
import math
import operator
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

class ProfileError(ValueError):
    """Malformed profile data or out-of-range family parameters."""


@dataclass(frozen=True)
class LatticeProfile:
    """Lattice arrays of a finite chain.

    hoppings has length N-1 and fields length N; length = N * lattice_spacing.
    Zero hoppings are accepted but flagged: they decouple the chain, and the
    WKB formulas apply only where J > 0.
    """

    hoppings: np.ndarray
    fields: np.ndarray
    lattice_spacing: float = 1.0

    def __post_init__(self):
        J = np.atleast_1d(np.asarray(self.hoppings, dtype=float))
        B = np.atleast_1d(np.asarray(self.fields, dtype=float))
        object.__setattr__(self, "hoppings", J)
        object.__setattr__(self, "fields", B)
        if B.ndim != 1 or B.size < 1:
            raise ProfileError("fields must be a 1-d array of length N >= 1")
        if J.ndim != 1 or J.size != B.size - 1:
            raise ProfileError("hoppings must have length N - 1")
        if not (np.all(np.isfinite(J)) and np.all(np.isfinite(B))):
            raise ProfileError("profile arrays must be finite")
        if not self.lattice_spacing > 0:
            raise ProfileError("lattice_spacing must be positive")

    @property
    def num_sites(self) -> int:
        return self.fields.size

    @property
    def length(self) -> float:
        return self.num_sites * self.lattice_spacing

    @property
    def site_positions(self) -> np.ndarray:
        return np.arange(self.num_sites) * self.lattice_spacing

    @property
    def mode_positions(self) -> np.ndarray:
        """Continuum coordinates of eigenvector components: x = (n+1) a.

        The eigenvalue recurrence carries Dirichlet zeros at the phantom
        sites n = -1 and n = N; a WKB wavefunction whose phase vanishes at
        x = 0 therefore lines up with eigenvector component n at (n+1) a.
        """
        return (np.arange(self.num_sites) + 1) * self.lattice_spacing

    @property
    def has_zero_hoppings(self) -> bool:
        return bool(np.any(self.hoppings == 0.0))


@dataclass(frozen=True, eq=False)
class ContinuumProfile:
    """Smooth profile J(x), B(x) on [0, length], plus the lattice scale.

    J and B map an array of positions to an array of the same shape.
    J must be positive on the open interval (endpoints may vanish, as for
    the Krawtchouk family).  lattice_spacing fixes the 1/a factors in the
    WKB phase, density of states and density formulas.
    """

    J: Callable[[np.ndarray], np.ndarray]
    B: Callable[[np.ndarray], np.ndarray]
    length: float
    lattice_spacing: float = 1.0
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.length > 0:
            raise ProfileError("length must be positive")
        if not self.lattice_spacing > 0:
            raise ProfileError("lattice_spacing must be positive")

    @property
    def num_sites(self) -> int:
        return int(round(self.length / self.lattice_spacing))


# --- builtin families --------------------------------------------------

@dataclass(frozen=True)
class Homogeneous:
    J: float = 1.0
    B: float = 0.0

    def __post_init__(self):
        if not self.J > 0:
            raise ProfileError("homogeneous J must be positive")


@dataclass(frozen=True)
class Krawtchouk:
    """Krawtchouk chain; lattice arrays stored rescaled by 1/N by default,
    so the single-particle spectrum is {k/N} on the unit energy axis."""

    q: float
    rescaled: bool = True

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ProfileError("krawtchouk requires q in (0, 1)")


@dataclass(frozen=True)
class Rainbow:
    h: float

    def __post_init__(self):
        if not self.h > 0:
            raise ProfileError("rainbow requires h > 0")


@dataclass(frozen=True)
class Cosine:
    J0: float

    def __post_init__(self):
        if not 0.0 < self.J0 < 1.0:
            raise ProfileError("cosine requires J0 in (0, 1)")


@dataclass(frozen=True)
class AsymmetricCosine:
    J0: float = 0.75
    b: float = 5.0
    r: int = 2

    def __post_init__(self):
        if not abs(self.J0) < 1.0:
            raise ProfileError("asymmetric cosine requires |J0| < 1 so J > 0")
        if not (isinstance(self.r, int) and self.r >= 1):
            raise ProfileError("asymmetric cosine requires a positive integer r")


FamilyParameters = Union[Homogeneous, Krawtchouk, Rainbow, Cosine, AsymmetricCosine]

def make_builtin(
    family: FamilyParameters, N: int, lattice_spacing: float = 1.0
) -> Tuple[LatticeProfile, ContinuumProfile]:
    """Lattice arrays and continuum functions for a builtin family."""
    if N < 2:
        raise ProfileError("builtin families require N >= 2")
    if not lattice_spacing > 0:
        raise ProfileError("lattice_spacing must be positive")
    a = float(lattice_spacing)
    ell = N * a
    n_b = np.arange(N - 1)  # bond index
    n_s = np.arange(N)      # site index

    if isinstance(family, Homogeneous):
        J = np.full(N - 1, float(family.J))
        B = np.full(N, float(family.B))
        Jv, Bv = float(family.J), float(family.B)
        cont = ContinuumProfile(
            J=lambda x: np.full_like(np.asarray(x, dtype=float), Jv),
            B=lambda x: np.full_like(np.asarray(x, dtype=float), Bv),
            length=ell, lattice_spacing=a, family="homogeneous",
            params={"J": Jv, "B": Bv},
        )
    elif isinstance(family, Krawtchouk):
        q = family.q
        J = np.sqrt(q * (1 - q) * (n_b + 1.0) * (N - n_b - 1.0))
        B = (N - 1) * q + (1 - 2 * q) * n_s.astype(float)
        scale = 1.0 / N if family.rescaled else 1.0
        J = J * scale
        B = B * scale
        # Continuum limit of the rescaled arrays; without the rescale the
        # functions carry an explicit factor N.
        amp = 1.0 if family.rescaled else float(N)
        cont = ContinuumProfile(
            J=lambda x, q=q, amp=amp, ell=ell: amp * np.sqrt(
                np.maximum(q * (1 - q) * (x / ell) * (1 - x / ell), 0.0)
            ),
            B=lambda x, q=q, amp=amp, ell=ell: amp * (q + (1 - 2 * q) * (x / ell)),
            length=ell, lattice_spacing=a, family="krawtchouk",
            params={"q": q, "rescaled": family.rescaled},
        )
    elif isinstance(family, Rainbow):
        if N % 2:
            raise ProfileError("rainbow requires an even number of sites")
        h = family.h
        # Bond-distance form: the exponent vanishes on the midpoint bond
        # n = N/2 - 1 and the array is exactly symmetric, J_n = J_{N-2-n}.
        # The distance is formed in integers so reflected bonds share the
        # identical float.
        J = 0.5 * np.exp(-h * (np.abs(n_b + 1 - N // 2) / N))
        B = np.zeros(N)
        cont = ContinuumProfile(
            J=lambda x, h=h, ell=ell: 0.5 * np.exp(-h * np.abs(0.5 - x / ell)),
            B=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            length=ell, lattice_spacing=a, family="rainbow",
            params={"h": h},
        )
    elif isinstance(family, Cosine):
        J0 = family.J0
        J = 1.0 + J0 * np.cos(2 * np.pi * n_b / N)
        B = np.zeros(N)
        cont = ContinuumProfile(
            J=lambda x, J0=J0, ell=ell: 1.0 + J0 * np.cos(2 * np.pi * x / ell),
            B=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            length=ell, lattice_spacing=a, family="cosine",
            params={"J0": J0},
        )
    elif isinstance(family, AsymmetricCosine):
        J0, b, r = family.J0, family.b, family.r
        J = 1.0 + J0 * np.cos(2 * np.pi * r * n_b / N)
        B = b * (n_s / N) ** 2
        cont = ContinuumProfile(
            J=lambda x, J0=J0, r=r, ell=ell: 1.0 + J0 * np.cos(2 * np.pi * r * x / ell),
            B=lambda x, b=b, ell=ell: b * (x / ell) ** 2,
            length=ell, lattice_spacing=a, family="asymmetric_cosine",
            params={"J0": J0, "b": b, "r": r},
        )
    else:
        raise ProfileError(f"unknown family parameters: {family!r}")

    return LatticeProfile(J, B, lattice_spacing=a), cont


def discretize(c: ContinuumProfile, N: int) -> LatticeProfile:
    """Sample a continuum profile on N sites: a = l/N, x_n = n*a."""
    if N < 2:
        raise ProfileError("discretize requires N >= 2")
    a = c.length / N
    x_b = np.arange(N - 1) * a
    x_s = np.arange(N) * a
    return LatticeProfile(c.J(x_b), c.B(x_s), lattice_spacing=a)


def gerschgorin_bounds(
    p: Union[LatticeProfile, ContinuumProfile]
) -> Tuple[float, float]:
    """Exact spectral enclosure.

    Lattice: (min_n B_n - J_n - J_{n-1}, max_n B_n + J_n + J_{n-1}) with
    J_{-1} = J_{N-1} = 0.  Continuum: (min B - 2J, max B + 2J), the limit
    of the lattice bounds.
    """
    if isinstance(p, ContinuumProfile):
        return band_bounds(p)
    pad = np.concatenate(([0.0], p.hoppings, [0.0]))
    radius = np.abs(pad[1:]) + np.abs(pad[:-1])
    return float(np.min(p.fields - radius)), float(np.max(p.fields + radius))


# Intervals of the uniform grid on which band_bounds locates the extremes
# before refining around them.
_BAND_RESOLUTION = 1 << 14


def band_bounds(c: ContinuumProfile) -> Tuple[float, float]:
    """min(B - 2J) and max(B + 2J) over [0, l], refined near the extremes."""
    xs = np.linspace(0.0, c.length, _BAND_RESOLUTION + 1)
    B, J = c.B(xs), c.J(xs)

    def refine(fn, i, minimize):
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, _BAND_RESOLUTION)]
        grid = np.linspace(lo, hi, 257)
        v = fn(grid)
        return float(np.min(v)) if minimize else float(np.max(v))

    i_min = int(np.argmin(B - 2 * J))
    i_max = int(np.argmax(B + 2 * J))
    emin = refine(lambda x: c.B(x) - 2 * c.J(x), i_min, True)
    emax = refine(lambda x: c.B(x) + 2 * c.J(x), i_max, False)
    return emin, emax


# --- expression grammar (see the module docstring) ---------------------

# Characters an expression may contain; rejects quotes, brackets, commas,
# comparisons, comments and non-ASCII names before the parser sees them.
_CHARACTERS_RE = re.compile(r"[0-9A-Za-z_.\s+\-*/^()]*")
# Decimal literals: no underscores, no 0x/0o/0b prefix, no imaginary part.
_NUMBER_RE = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
# Syntax-tree levels an expression may have; keeps closure evaluation far
# from Python's recursion limit.
_MAX_DEPTH = 100

_BINOPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
}
_FUNCS = {
    "exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
    "abs": np.abs, "sqrt": np.sqrt,
}
_CONSTS = {"pi": math.pi, "e": math.e}


def _closure(node: ast.AST, source: str, depth: int) -> Callable[[np.ndarray], np.ndarray]:
    """The numpy closure of a whitelisted syntax-tree node at ``depth``."""
    if depth > _MAX_DEPTH:
        raise ProfileError(f"expression nested deeper than {_MAX_DEPTH} levels")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        lhs = _closure(node.left, source, depth + 1)
        rhs = _closure(node.right, source, depth + 1)
        return lambda x: op(lhs(x), rhs(x))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        inner = _closure(node.operand, source, depth + 1)
        return inner if isinstance(node.op, ast.UAdd) else lambda x: -inner(x)
    if isinstance(node, ast.Constant):
        text = ast.get_source_segment(source, node)
        if not _NUMBER_RE.fullmatch(text):
            raise ProfileError(f"bad number {text!r} in expression {source!r}")
        return lambda x, v=float(text): np.full_like(x, v)
    if isinstance(node, ast.Name):
        if node.id == "x":
            return lambda x: x
        if node.id in _CONSTS:
            return lambda x, v=_CONSTS[node.id]: np.full_like(x, v)
        raise ProfileError(f"unknown name {node.id!r} in expression {source!r}")
    # A call's own column is its function name's: "(exp)(x)" is rejected.
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCS and node.func.col_offset == node.col_offset
            and len(node.args) == 1 and not node.keywords):
        f, inner = _FUNCS[node.func.id], _closure(node.args[0], source, depth + 1)
        return lambda x: f(inner(x))
    raise ProfileError(f"unsupported syntax {ast.get_source_segment(source, node)!r} "
                       f"in expression {source!r}")


def compile_expression(text: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression in the profile grammar to a vectorized callable."""
    if not isinstance(text, str) or not text.strip():
        raise ProfileError("expression must be a nonempty string")
    if not _CHARACTERS_RE.fullmatch(text):
        raise ProfileError(f"bad character in expression {text!r}")
    source = " ".join(text.split()).replace("^", "**")
    try:
        with warnings.catch_warnings():
            # A number glued to a keyword ("1if") is a SyntaxError, not a
            # warning printed to stderr.
            warnings.simplefilter("error", SyntaxWarning)
            tree = ast.parse(source, mode="eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        # Python's parser gives up on very deep input with RecursionError
        # or MemoryError.
        raise ProfileError(f"cannot parse expression {text!r}: {exc}") from exc
    node = _closure(tree.body, source, 1)

    def fn(x):
        return node(np.asarray(x, dtype=float))

    return fn


# --- custom profile records ---------------------------------------------

def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _site_count(record: dict) -> int:
    """The record's 'N', an integer >= 2."""
    N = record["N"]
    if not (_is_int(N) and N >= 2):
        raise ProfileError(f"N must be an integer >= 2, got {N!r}")
    return N


def _spacing(record: dict) -> float:
    """The record's 'lattice_spacing' (default 1), a finite positive number."""
    a = record.get("lattice_spacing", 1.0)
    if not (_is_real(a) and a > 0):
        raise ProfileError(f"lattice_spacing must be a finite positive number, got {a!r}")
    return float(a)


def _real_array(values, key: str) -> np.ndarray:
    if not (isinstance(values, (list, tuple)) and all(_is_real(v) for v in values)):
        raise ProfileError(f"array {key!r} must be a list of finite numbers")
    return np.asarray(values, dtype=float)


def load_custom(source: dict) -> Tuple[LatticeProfile, Optional[ContinuumProfile]]:
    """Build a profile from a description record.

    Two record shapes are accepted (JSON-compatible dicts):

    * explicit arrays:  {"arrays": {"J": [...], "B": [...]},
                         "lattice_spacing": a}
    * expressions:      {"expressions": {"J": "exp(x)", "B": "2*exp(x)"},
                         "N": 100, "lattice_spacing": 0.01}

    In the expression form the chain length is N * lattice_spacing and the
    lattice arrays are produced by :func:`discretize`.  Only the lattice
    profile is returned in the array form (no continuum information).
    Array entries and the lattice spacing are finite numbers, N an integer,
    an expression J is finite and nonnegative and an expression B finite on
    the sites and on band_bounds' grid; anything else raises ProfileError.
    """
    if not isinstance(source, dict):
        raise ProfileError("profile record must be a mapping")
    a = _spacing(source)
    if "arrays" in source:
        arrays = source["arrays"]
        if not isinstance(arrays, dict) or "J" not in arrays or "B" not in arrays:
            raise ProfileError("array record needs 'J' and 'B' entries")
        lat = LatticeProfile(_real_array(arrays["J"], "J"), _real_array(arrays["B"], "B"),
                             lattice_spacing=a)
        if "N" in source and not (_is_int(source["N"]) and source["N"] == lat.num_sites):
            raise ProfileError(
                f"declared N={source['N']!r} does not match array length {lat.num_sites}"
            )
        return lat, None
    if "expressions" in source:
        exprs = source["expressions"]
        if not isinstance(exprs, dict) or "J" not in exprs or "B" not in exprs:
            raise ProfileError("expression record needs 'J' and 'B' entries")
        if "N" not in source:
            raise ProfileError("expression record needs 'N'")
        N = _site_count(source)
        cont = ContinuumProfile(
            J=compile_expression(exprs["J"]),
            B=compile_expression(exprs["B"]),
            length=N * a, lattice_spacing=a, family="custom",
            params={"J": exprs["J"], "B": exprs["B"]},
        )
        # The WKB formulas read the sign of J; band_bounds samples this grid.
        # Values that are undefined there raise ProfileError, not warnings.
        grid = np.linspace(0.0, cont.length, _BAND_RESOLUTION + 1)
        with np.errstate(all="ignore"):
            lat = discretize(cont, N)
            J, B = cont.J(grid), cont.B(grid)
        if not (np.all(lat.hoppings >= 0.0) and np.all(np.isfinite(J) & (J >= 0.0))):
            raise ProfileError(f"hopping expression {exprs['J']!r} is negative or "
                               "undefined on the chain")
        if not np.all(np.isfinite(B)):
            raise ProfileError(f"field expression {exprs['B']!r} is undefined on the chain")
        return lat, cont
    raise ProfileError("profile record needs either 'arrays' or 'expressions'")


_FAMILY_BY_NAME = {
    "homogeneous": Homogeneous,
    "krawtchouk": Krawtchouk,
    "rainbow": Rainbow,
    "cosine": Cosine,
    "asymmetric_cosine": AsymmetricCosine,
}


def _check_parameter(name: str, key: str, value) -> None:
    """Family parameters are finite numbers, except the flag 'rescaled' and
    the integer 'r'."""
    if key == "rescaled":
        ok, what = isinstance(value, bool), "true or false"
    elif key == "r":
        ok, what = _is_int(value), "an integer"
    else:
        ok, what = _is_real(value), "a finite number"
    if not ok:
        raise ProfileError(f"parameter {key!r} of family {name!r} must be {what}, "
                           f"got {value!r}")


def from_config(record: dict) -> Tuple[LatticeProfile, Optional[ContinuumProfile]]:
    """Profile from a config record: builtin family or custom description."""
    if not isinstance(record, dict):
        raise ProfileError("profile config must be a mapping")
    if "family" in record:
        name = record["family"]
        if not isinstance(name, str) or name not in _FAMILY_BY_NAME:
            raise ProfileError(f"unknown family {name!r}")
        params = record.get("parameters", {})
        if not isinstance(params, dict):
            raise ProfileError("'parameters' must be a mapping")
        for key, value in params.items():
            _check_parameter(name, key, value)
        try:
            family = _FAMILY_BY_NAME[name](**params)
        except TypeError as exc:
            raise ProfileError(f"bad parameters for family {name!r}: {exc}") from exc
        if "N" not in record:
            raise ProfileError("family record needs 'N'")
        return make_builtin(family, _site_count(record), _spacing(record))
    return load_custom(record)
