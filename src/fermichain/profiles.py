"""Chain parameter profiles.

A chain is specified by hopping amplitudes J_n (bonds n = 0..N-2) and
on-site fields B_n (sites n = 0..N-1), together with their smooth
continuum counterparts J(x), B(x) on [0, l] where l = N*a and x = n*a.
Builtin families: homogeneous, Krawtchouk, rainbow, cosine and an
asymmetric cosine generalization.  Custom profiles come from explicit
arrays or from expression strings in a small arithmetic grammar.
"""

from __future__ import annotations

import math
import re
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


def _vectorized(fn):
    """Ensure fn maps ndarray -> ndarray; wrap scalar-only callables."""
    try:
        out = fn(np.array([0.0, 0.5]))
        if np.shape(out) == (2,):
            return fn
    except Exception:
        pass
    return np.vectorize(fn, otypes=[float])


@dataclass(frozen=True, eq=False)
class ContinuumProfile:
    """Smooth profile J(x), B(x) on [0, length], plus the lattice scale.

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
        object.__setattr__(self, "J", _vectorized(self.J))
        object.__setattr__(self, "B", _vectorized(self.B))

    @property
    def num_sites(self) -> int:
        return int(round(self.length / self.lattice_spacing))


# --- builtin families --------------------------------------------------

@dataclass(frozen=True)
class Homogeneous:
    J: float = 1.0
    B: float = 0.0

    def __post_init__(self):
        if self.J == 0:
            raise ProfileError("homogeneous J must be nonzero")


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
    lower = c.B(xs) - 2 * c.J(xs)
    upper = c.B(xs) + 2 * c.J(xs)

    def refine(fn, i, minimize):
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, _BAND_RESOLUTION)]
        grid = np.linspace(lo, hi, 257)
        v = fn(grid)
        return float(np.min(v)) if minimize else float(np.max(v))

    i_min = int(np.argmin(lower))
    i_max = int(np.argmax(upper))
    emin = refine(lambda x: c.B(x) - 2 * c.J(x), i_min, True)
    emax = refine(lambda x: c.B(x) + 2 * c.J(x), i_max, False)
    return emin, emax


# --- expression grammar -------------------------------------------------
#
# expr   := term  { (+|-) term }
# term   := factor { (*|/) factor }
# factor := (+|-) factor | power
# power  := atom [ (^|**) factor ]          (right associative)
# atom   := NUMBER | x | pi | e | NAME(expr) | (expr)
#
# Functions: exp, log, sin, cos, abs, sqrt.  No eval() involved.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)

_FUNCS = {
    "exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
    "abs": np.abs, "sqrt": np.sqrt,
}
_CONSTS = {"pi": math.pi, "e": math.e}


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ProfileError(f"bad character in expression at {pos}: {text[pos:]!r}")
            break
        if m.lastgroup == "num":
            out.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ProfileError(f"expected {op!r} in expression {self.text!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ProfileError(f"trailing input in expression {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.next()[1]
            rhs = self.term()
            node = (lambda l, r: (lambda x: l(x) + r(x)))(node, rhs) if op == "+" \
                else (lambda l, r: (lambda x: l(x) - r(x)))(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.next()[1]
            rhs = self.factor()
            node = (lambda l, r: (lambda x: l(x) * r(x)))(node, rhs) if op == "*" \
                else (lambda l, r: (lambda x: l(x) / r(x)))(node, rhs)
        return node

    def factor(self):
        if self.peek() in (("op", "+"), ("op", "-")):
            op = self.next()[1]
            inner = self.factor()
            if op == "-":
                return lambda x: -inner(x)
            return inner
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() in (("op", "^"), ("op", "**")):
            self.next()
            exponent = self.factor()
            return lambda x: base(x) ** exponent(x)
        return base

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return lambda x, v=val: np.full_like(np.asarray(x, dtype=float), v)
        if kind == "name":
            if val == "x":
                return lambda x: np.asarray(x, dtype=float)
            if val in _CONSTS:
                return lambda x, v=_CONSTS[val]: np.full_like(np.asarray(x, dtype=float), v)
            if val in _FUNCS:
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return lambda x, f=_FUNCS[val]: f(inner(x))
            raise ProfileError(f"unknown name {val!r} in expression {self.text!r}")
        if (kind, val) == ("op", "("):
            inner = self.expr()
            self.expect(")")
            return inner
        raise ProfileError(f"unexpected token {val!r} in expression {self.text!r}")


def compile_expression(text: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression in the profile grammar to a vectorized callable."""
    if not isinstance(text, str) or not text.strip():
        raise ProfileError("expression must be a nonempty string")
    node = _Parser(text).parse()

    def fn(x):
        return node(np.asarray(x, dtype=float))

    return fn


# --- custom profile records ---------------------------------------------

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
    """
    if not isinstance(source, dict):
        raise ProfileError("profile record must be a mapping")
    a = source.get("lattice_spacing", 1.0)
    if "arrays" in source:
        arrays = source["arrays"]
        if not isinstance(arrays, dict) or "J" not in arrays or "B" not in arrays:
            raise ProfileError("array record needs 'J' and 'B' entries")
        lat = LatticeProfile(np.asarray(arrays["J"], dtype=float),
                             np.asarray(arrays["B"], dtype=float),
                             lattice_spacing=float(a))
        if "N" in source and int(source["N"]) != lat.num_sites:
            raise ProfileError(
                f"declared N={source['N']} does not match array length {lat.num_sites}"
            )
        return lat, None
    if "expressions" in source:
        exprs = source["expressions"]
        if not isinstance(exprs, dict) or "J" not in exprs or "B" not in exprs:
            raise ProfileError("expression record needs 'J' and 'B' entries")
        if "N" not in source:
            raise ProfileError("expression record needs 'N'")
        N = int(source["N"])
        if N < 2:
            raise ProfileError("N must be >= 2")
        a = float(a)
        cont = ContinuumProfile(
            J=compile_expression(exprs["J"]),
            B=compile_expression(exprs["B"]),
            length=N * a, lattice_spacing=a, family="custom",
            params={"J": exprs["J"], "B": exprs["B"]},
        )
        lat = discretize(cont, N)
        if not np.all(np.isfinite(lat.hoppings)) or not np.all(np.isfinite(lat.fields)):
            raise ProfileError("expressions evaluate to non-finite values on the chain")
        return lat, cont
    raise ProfileError("profile record needs either 'arrays' or 'expressions'")


_FAMILY_BY_NAME = {
    "homogeneous": Homogeneous,
    "krawtchouk": Krawtchouk,
    "rainbow": Rainbow,
    "cosine": Cosine,
    "asymmetric_cosine": AsymmetricCosine,
}


def from_config(record: dict) -> Tuple[LatticeProfile, Optional[ContinuumProfile]]:
    """Profile from a config record: builtin family or custom description."""
    if not isinstance(record, dict):
        raise ProfileError("profile config must be a mapping")
    if "family" in record:
        name = record["family"]
        if name not in _FAMILY_BY_NAME:
            raise ProfileError(f"unknown family {name!r}")
        params = record.get("parameters", {})
        if not isinstance(params, dict):
            raise ProfileError("'parameters' must be a mapping")
        try:
            family = _FAMILY_BY_NAME[name](**params)
        except TypeError as exc:
            raise ProfileError(f"bad parameters for family {name!r}: {exc}") from exc
        if "N" not in record:
            raise ProfileError("family record needs 'N'")
        return make_builtin(family, int(record["N"]),
                            float(record.get("lattice_spacing", 1.0)))
    return load_custom(record)
