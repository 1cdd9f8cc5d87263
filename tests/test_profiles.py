import ast
import math
import operator
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermichain import profiles
from fermichain.profiles import (
    AsymmetricCosine,
    Cosine,
    Homogeneous,
    Krawtchouk,
    LatticeProfile,
    ProfileError,
    Rainbow,
    compile_expression,
    discretize,
    from_config,
    gerschgorin_bounds,
    load_custom,
    make_builtin,
)


# --- builtin families -------------------------------------------------------

def test_homogeneous_arrays():
    lat, cont = make_builtin(Homogeneous(J=1.0, B=0.0), 4)
    assert np.array_equal(lat.hoppings, [1.0, 1.0, 1.0])
    assert np.array_equal(lat.fields, [0.0, 0.0, 0.0, 0.0])
    assert cont.J(2.0) == 1.0 and cont.B(1.3) == 0.0


def test_krawtchouk_fields_before_rescale():
    # B_n = (N-1) q + (1-2q) n = 3/4 + n/2 at N=4, q=1/4
    lat, _ = make_builtin(Krawtchouk(q=0.25, rescaled=False), 4)
    assert np.array_equal(lat.fields, 0.75 + 0.5 * np.arange(4))


def test_krawtchouk_rescale_flag():
    plain, _ = make_builtin(Krawtchouk(q=0.25, rescaled=False), 16)
    scaled, _ = make_builtin(Krawtchouk(q=0.25), 16)
    assert np.allclose(plain.hoppings / 16, scaled.hoppings)
    assert np.allclose(plain.fields / 16, scaled.fields)


def test_rainbow_midpoint_bond():
    # The midpoint bond n = N/2 - 1 has vanishing exponent: J = 1/2 exactly.
    lat, _ = make_builtin(Rainbow(h=1.0), 4)
    assert lat.hoppings[1] == 0.5
    assert lat.hoppings[0] == 0.5 * math.exp(-0.25)


@pytest.mark.parametrize("N", [4, 8, 50, 400])
def test_rainbow_hoppings_symmetric(N):
    lat, _ = make_builtin(Rainbow(h=1.7), N)
    assert np.array_equal(lat.hoppings, lat.hoppings[::-1])


def test_rainbow_requires_even_N():
    with pytest.raises(ProfileError):
        make_builtin(Rainbow(h=1.0), 5)


@pytest.mark.parametrize("q", [0.25, 0.5, 0.75])
def test_krawtchouk_reflection_symmetries(q):
    # J_n = J_{N-2-n} and B_n + B_{N-1-n} = N - 1, exactly (pre-rescale).
    N = 20
    lat, _ = make_builtin(Krawtchouk(q=q, rescaled=False), N)
    assert np.array_equal(lat.hoppings, lat.hoppings[::-1])
    assert np.array_equal(lat.fields + lat.fields[::-1], np.full(N, N - 1.0))


def test_parameter_validation():
    with pytest.raises(ProfileError):
        Krawtchouk(q=1.5)
    with pytest.raises(ProfileError):
        Cosine(J0=1.0)
    with pytest.raises(ProfileError):
        Rainbow(h=-1.0)
    with pytest.raises(ProfileError):
        AsymmetricCosine(J0=1.2)
    with pytest.raises(ProfileError):
        AsymmetricCosine(J0=0.5, r=0)
    with pytest.raises(ProfileError):
        Homogeneous(J=0.0)


# --- discretize -------------------------------------------------------------

def test_discretize_homogeneous():
    _, cont = make_builtin(Homogeneous(J=1.0, B=0.3), 10)
    for N in (5, 64):
        lat = discretize(cont, N)
        assert np.all(lat.hoppings == 1.0)
        assert np.all(lat.fields == 0.3)


def test_discretize_cosine_n4():
    # J(n a) = 1 + 0.5 cos(pi n / 2) = [1.5, 1, 0.5] for N=4, l=4
    _, cont = make_builtin(Cosine(J0=0.5), 4)
    lat = discretize(cont, 4)
    assert np.allclose(lat.hoppings, [1.5, 1.0, 0.5], atol=1e-15)


def test_discretize_matches_builtin_cosine_exactly():
    lat, cont = make_builtin(Cosine(J0=0.5), 128)
    resampled = discretize(cont, 128)
    assert np.array_equal(lat.hoppings, resampled.hoppings)
    assert np.array_equal(lat.fields, resampled.fields)


def test_discretize_krawtchouk_agreement():
    N = 400
    lat, cont = make_builtin(Krawtchouk(q=0.25), N)
    resampled = discretize(cont, N)
    diff = np.abs(lat.hoppings - resampled.hoppings)
    # Interior agreement is O(1/N); near the ends the square-root factor
    # sqrt((n+1)(N-n-1)) vs sqrt(x (l-x)) leaves an O(1/sqrt(N)) residue.
    assert diff[10:-10].max() < 2.0 / N
    assert diff.max() < 1.5 / math.sqrt(N)
    assert np.abs(lat.fields - resampled.fields).max() < 2.0 / N


def test_discretize_rainbow_within_1_over_N():
    N = 400
    lat, cont = make_builtin(Rainbow(h=1.0), N)
    resampled = discretize(cont, N)
    assert np.abs(lat.hoppings - resampled.hoppings).max() < 2.0 / N


# --- bounds ------------------------------------------------------------------

def test_gerschgorin_homogeneous():
    lat, _ = make_builtin(Homogeneous(J=1.0, B=0.0), 6)
    assert gerschgorin_bounds(lat) == (-2.0, 2.0)


def test_gerschgorin_continuum_examples():
    _, rain = make_builtin(Rainbow(h=1.0), 64)
    lo, hi = gerschgorin_bounds(rain)
    assert abs(lo + 1.0) < 1e-9 and abs(hi - 1.0) < 1e-9
    _, cos = make_builtin(Cosine(J0=0.5), 64)
    lo, hi = gerschgorin_bounds(cos)
    assert abs(lo + 3.0) < 1e-9 and abs(hi - 3.0) < 1e-9


def test_spectrum_within_gerschgorin():
    from fermichain.exact import diagonalize

    for fam in (Krawtchouk(0.3), Rainbow(2.0), Cosine(0.7),
                AsymmetricCosine(0.75, 5.0, 2), Homogeneous(1.0, 0.2)):
        lat, _ = make_builtin(fam, 50)
        lo, hi = gerschgorin_bounds(lat)
        w = diagonalize(lat).energies
        assert w[0] >= lo and w[-1] <= hi  # exact containment


# --- lattice validation -------------------------------------------------------

def test_lattice_validation():
    with pytest.raises(ProfileError):
        LatticeProfile([1.0, 2.0], [0.0, 0.0])  # length mismatch
    with pytest.raises(ProfileError):
        LatticeProfile([1.0], [0.0, np.nan])
    with pytest.raises(ProfileError):
        LatticeProfile([1.0], [0.0, 0.0], lattice_spacing=0.0)
    lat = LatticeProfile([1.0, 0.0], [0.0, 0.0, 0.0])
    assert lat.has_zero_hoppings
    assert lat.length == 3.0


# --- expression grammar --------------------------------------------------------

@pytest.mark.parametrize("text,x,expected", [
    ("1+2*3", 0.0, 7.0),
    ("(1+2)*3", 0.0, 9.0),
    ("2^-2", 0.0, 0.25),
    ("-x^2", 3.0, -9.0),
    ("2*pi", 0.0, 2 * math.pi),
    ("exp(1)-e", 0.0, 0.0),
    ("sin(x)^2+cos(x)^2", 0.7, 1.0),
    ("abs(-x)", 2.5, 2.5),
    ("sqrt(x)", 4.0, 2.0),
    ("x/2 - 1", 5.0, 1.5),
    ("2**3", 0.0, 8.0),
    ("2^3^2", 0.0, 512.0),
    ("-x**2", 1.5, -2.25),
    ("x**-x", 2.0, 0.25),
    ("1 +\n  x", 2.0, 3.0),
    pytest.param("(" * 199 + "x + 1" + ")" * 199, 1.0, 2.0, id="199-parentheses"),
    pytest.param("-" * 99 + "x", 2.0, -2.0, id="100-levels"),
])
def test_expression_values(text, x, expected):
    f = compile_expression(text)
    assert f(x) == pytest.approx(expected, abs=1e-14)


def test_expression_vectorized():
    f = compile_expression("1 + 0.5*cos(2*pi*x/4)")
    out = f(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(out, [1.5, 1.0, 0.5], atol=1e-15)


@pytest.mark.parametrize("bad", [
    "", "x+", "foo(x)", "1..2", "(x", "x$y", "sin x",
    "x.real", "exp(x, 2)", "1_0", "0x1", "1j", "True", "x if x else 1", "x # c",
    "007", "(exp)(x)", "exp(*x)", "x // 2",
    pytest.param("-" * 100 + "x", id="101-levels"),
    pytest.param("+".join(["x"] * 3000), id="3000-terms"),
    pytest.param("(" * 300 + "x" + ")" * 300, id="300-parentheses"),
    pytest.param("-" * 100000 + "x", id="100000-signs"),
])
def test_expression_errors(bad):
    with pytest.raises(ProfileError):
        compile_expression(bad)


@pytest.mark.parametrize("bad", ["1if x else 2", "1or x", "0x1for"])
def test_number_glued_to_a_keyword_is_an_error_not_a_warning(bad, recwarn):
    with pytest.raises(ProfileError):
        compile_expression(bad)
    assert not recwarn.list


# Random expression trees of the documented grammar.  A node is a number
# text, a name, (op, operand) for unary + and -, (op, lhs, rhs) for a binary
# operator, or (function, argument).
_UNARY = {"-": operator.neg, "+": operator.pos}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "**": operator.pow}
_FUNCTIONS = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
              "abs": np.abs, "sqrt": np.sqrt}
# Binding strength of each form in Python's grammar: a sum, a product, a
# unary operand, a power, an atom.
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "unary": 3, "**": 4, "atom": 5}

_numbers = st.one_of(
    st.builds(lambda whole, frac, exp: whole + frac + exp,
              st.sampled_from(["0", "1", "2", "3", "17", "250"]),
              st.sampled_from(["", ".", ".5", ".25", ".125"]),
              st.sampled_from(["", "e2", "E-1", "e+0"])),
    st.sampled_from([".5", ".75", ".125e1"]),
)
_leaves = st.one_of(_numbers, st.sampled_from(["x", "x", "pi", "e"]))
_trees = st.recursive(_leaves, lambda sub: st.one_of(
    st.tuples(st.sampled_from(sorted(_UNARY)), sub),
    st.tuples(st.sampled_from(sorted(_BINARY)), sub, sub),
    st.tuples(st.sampled_from(sorted(_FUNCTIONS)), sub),
), max_leaves=12)


def _evaluate(node, x):
    if isinstance(node, str):
        if node == "x":
            return x
        return np.full_like(x, {"pi": math.pi, "e": math.e}.get(node) or float(node))
    if node[0] in _FUNCTIONS:
        return _FUNCTIONS[node[0]](_evaluate(node[1], x))
    if len(node) == 2:
        return _UNARY[node[0]](_evaluate(node[1], x))
    return _BINARY[node[0]](_evaluate(node[1], x), _evaluate(node[2], x))


def _render(node, rnd):
    """(text, level) with only the parentheses Python's precedence needs,
    plus random redundant ones, random spacing and ^ for ** at random."""
    def gap():
        return rnd.choice(["", "", " ", "  ", "\n"])

    def operand(child, least):
        text, level = _render(child, rnd)
        if level < least or rnd.random() < 0.2:
            return f"({gap()}{text}{gap()})"
        return text

    if isinstance(node, str):
        return node, _LEVEL["atom"]
    if node[0] in _FUNCTIONS:
        return f"{node[0]}{gap()}({gap()}{operand(node[1], 0)}{gap()})", _LEVEL["atom"]
    if len(node) == 2:
        return node[0] + gap() + operand(node[1], _LEVEL["unary"]), _LEVEL["unary"]
    op, level = node[0], _LEVEL[node[0]]
    if op == "**":  # right associative, atom base, unary exponent
        lhs, rhs = operand(node[1], _LEVEL["atom"]), operand(node[2], _LEVEL["unary"])
        op = rnd.choice(["**", "^"])
    else:  # left associative
        lhs, rhs = operand(node[1], level), operand(node[2], level + 1)
    return lhs + gap() + op + gap() + rhs, level


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tree=_trees, rnd=st.randoms(use_true_random=False))
def test_expression_follows_python_precedence_bitwise(tree, rnd):
    text, _ = _render(tree, rnd)
    x = np.linspace(-2.0, 3.0, 11)
    with np.errstate(all="ignore"):
        got = compile_expression(text)(x)
        want = _evaluate(tree, x)
    assert got.tobytes() == want.tobytes(), text


# --- custom records --------------------------------------------------------------

def test_load_custom_arrays():
    lat, cont = load_custom({"arrays": {"J": [1.0, 2.0], "B": [0.0, 0.0, 0.0]}})
    assert cont is None
    assert lat.num_sites == 3
    assert np.array_equal(lat.hoppings, [1.0, 2.0])


def test_load_custom_array_mismatch():
    with pytest.raises(ProfileError):
        load_custom({"arrays": {"J": [1.0], "B": [0.0, 0.0, 0.0]}})
    with pytest.raises(ProfileError):
        load_custom({"arrays": {"J": [1.0, 2.0], "B": [0.0, 0.0, 0.0]}, "N": 5})
    with pytest.raises(ProfileError):
        load_custom({"arrays": {"J": [1.0, np.inf], "B": [0.0, 0.0, 0.0]}})


def test_load_custom_rindler_expressions():
    # B(x) = 2 J(x) with J increasing: a saturation-only chain.
    lat, cont = load_custom({
        "expressions": {"J": "exp(x)", "B": "2*exp(x)"},
        "N": 100, "lattice_spacing": 0.01,
    })
    assert cont is not None
    assert lat.num_sites == 100
    assert abs(cont.length - 1.0) < 1e-15
    assert np.allclose(lat.fields, 2 * np.exp(np.arange(100) * 0.01))


def test_load_custom_requires_record_shape():
    with pytest.raises(ProfileError):
        load_custom({"N": 10})
    with pytest.raises(ProfileError):
        load_custom({"expressions": {"J": "exp(x)"}, "N": 10})
    with pytest.raises(ProfileError):
        load_custom([1, 2, 3])


def test_from_config_family():
    lat, cont = from_config({"family": "rainbow", "parameters": {"h": 1.0}, "N": 8})
    assert lat.num_sites == 8 and cont.family == "rainbow"
    with pytest.raises(ProfileError):
        from_config({"family": "unknown", "N": 8})
    with pytest.raises(ProfileError):
        from_config({"family": "rainbow", "parameters": {"bogus": 1}, "N": 8})


_HOMOGENEOUS = {"family": "homogeneous", "parameters": {"J": 1.0, "B": 0.0}, "N": 8}
_EXPRESSIONS = {"expressions": {"J": "1", "B": "x"}, "N": 8}
_ARRAYS = {"arrays": {"J": [1.0, 1.0], "B": [0.0, 0.0, 0.0]}}


@pytest.mark.parametrize("record", [
    {**_HOMOGENEOUS, "N": 10.7},
    {**_HOMOGENEOUS, "N": "abc"},
    {**_HOMOGENEOUS, "N": [3]},
    {**_HOMOGENEOUS, "N": True},
    {**_HOMOGENEOUS, "N": 1},
    {**_HOMOGENEOUS, "lattice_spacing": "x"},
    {**_HOMOGENEOUS, "lattice_spacing": 0},
    {**_HOMOGENEOUS, "lattice_spacing": math.inf},
    {**_HOMOGENEOUS, "family": ["cosine"]},
    {**_HOMOGENEOUS, "parameters": {"J": True}},
    {**_HOMOGENEOUS, "parameters": {"J": "x"}},
    {**_HOMOGENEOUS, "parameters": {"B": "x"}},
    {**_HOMOGENEOUS, "parameters": {"J": [1, 2]}},
    {"family": "krawtchouk", "parameters": {"q": 0.25, "rescaled": "no"}, "N": 8},
    {"family": "asymmetric_cosine", "parameters": {"b": "x"}, "N": 8},
    {"family": "asymmetric_cosine", "parameters": {"r": 2.0}, "N": 8},
    {**_EXPRESSIONS, "N": "abc"},
    {**_EXPRESSIONS, "N": 8.0},
    {**_EXPRESSIONS, "lattice_spacing": "x"},
    {**_ARRAYS, "arrays": {"J": [1.0, "a"], "B": [0.0, 0.0, 0.0]}},
    {**_ARRAYS, "arrays": {"J": [1.0, True], "B": [0.0, 0.0, 0.0]}},
    {**_ARRAYS, "arrays": {"J": 1.0, "B": [0.0, 0.0, 0.0]}},
    {**_ARRAYS, "N": 3.0},
    {**_ARRAYS, "lattice_spacing": -1.0},
    {**_HOMOGENEOUS, "parameters": {"J": -1.0}},
    {"expressions": {"J": "1.5-x", "B": "0"}, "N": 200, "lattice_spacing": 0.01},
    # Negative, or undefined, only past the last bond, on band_bounds' grid.
    {"expressions": {"J": "1.995-x", "B": "0"}, "N": 200, "lattice_spacing": 0.01},
    {"expressions": {"J": "sqrt(1.995-x)", "B": "0"}, "N": 200, "lattice_spacing": 0.01},
    {"expressions": {"J": "1", "B": "sqrt(1.995-x)"}, "N": 200, "lattice_spacing": 0.01},
    {"expressions": {"J": "1", "B": "1/x"}, "N": 20},
])
def test_malformed_records_raise_profile_error(record):
    # The error is the whole report: no numpy RuntimeWarning reaches stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProfileError):
            from_config(record)


def test_well_formed_records_keep_their_values():
    lat, _ = from_config({**_HOMOGENEOUS, "N": 8, "lattice_spacing": 2})
    assert lat.num_sites == 8 and lat.lattice_spacing == 2.0
    _, cont = from_config({"family": "krawtchouk",
                           "parameters": {"q": 0.25, "rescaled": False}, "N": 8})
    assert cont.params["rescaled"] is False
    lat, _ = from_config({**_ARRAYS, "N": 3, "arrays": {"J": [1, 2], "B": [0, 0, 1]}})
    assert np.array_equal(lat.fields, [0.0, 0.0, 1.0])
    # A hopping expression may vanish, as Krawtchouk's does at the chain ends.
    lat, _ = from_config({"expressions": {"J": "x*(2-x)", "B": "0"}, "N": 200,
                          "lattice_spacing": 0.01})
    assert lat.hoppings[0] == 0.0


def test_package_never_evaluates_code():
    # Expressions are compiled by a whitelist walker; no source reaches eval.
    forbidden = {"eval", "exec", "compile", "__import__"}
    package = Path(profiles.__file__).parent
    used = {
        (path.name, node.id)
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id in forbidden
    }
    assert not used
