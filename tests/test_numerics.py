import ast
import math
from pathlib import Path

import numpy as np
import pytest

import fermichain
from fermichain import numerics
from fermichain.profiles import LatticeProfile, ProfileError
from fermichain.numerics import (
    BracketError,
    ConvergenceError,
    DomainError,
    InvalidInputError,
    clausen_cl2,
    eigensolve_tridiagonal,
    find_root,
    integrate,
)


# --- eigensolver -----------------------------------------------------------

def test_exchange_matrix_2x2():
    w, v = eigensolve_tridiagonal(np.zeros(2), np.ones(1))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)
    assert np.allclose(v.T @ v, np.eye(2), atol=1e-14)


def test_homogeneous_n3():
    # B - 2J cos(pi k/(N+1)) at N=3, J=1, B=0 gives -sqrt(2), 0, sqrt(2)
    w, _ = eigensolve_tridiagonal(np.zeros(3), np.ones(2), want_vectors=False)
    assert np.allclose(w, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-14)


def test_krawtchouk_integer_spectrum():
    # Unrescaled Krawtchouk arrays have the integers 0..N-1 as spectrum.
    N, q = 8, 0.25
    n = np.arange(N)
    J = np.sqrt(q * (1 - q) * (n[:-1] + 1) * (N - n[:-1] - 1))
    B = (N - 1) * q + (1 - 2 * q) * n
    w, _ = eigensolve_tridiagonal(B, J, want_vectors=False)
    assert np.abs(w - np.arange(N)).max() < 1e-10


def test_single_site():
    w, v = eigensolve_tridiagonal(np.array([5.0]), np.array([]))
    assert w[0] == 5.0 and v[0, 0] == 1.0


def test_nonfinite_entries_rejected():
    # The eigensolver's inputs come from a LatticeProfile, which refuses
    # non-finite fields and hoppings.
    with pytest.raises(ProfileError):
        LatticeProfile([1.0], [0.0, np.nan])
    with pytest.raises(ProfileError):
        LatticeProfile([np.inf], [0.0, 0.0])


def test_zero_offdiagonal_decouples():
    # Two decoupled 1x1 blocks with equal diagonal: repeated eigenvalue,
    # orthonormality still holds.
    w, v = eigensolve_tridiagonal(np.ones(2), np.zeros(1))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v.T @ v, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_random_matrices_diagonalize(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 65))
    d, e = rng.normal(size=N), rng.normal(size=N - 1)
    w, v = eigensolve_tridiagonal(d, e)
    H = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    off = v.T @ H @ v - np.diag(w)
    assert np.abs(off).max() < 1e-9
    assert np.abs(v.T @ v - np.eye(N)).max() < 1e-10
    assert np.all(np.diff(w) > 0)  # nonzero hoppings: simple spectrum


def test_eigenvalues_are_critical_polynomial_roots():
    # Each eigenvalue annihilates P_N relative to the local slope.
    from fermichain.exact import critical_polynomial

    rng = np.random.default_rng(7)
    for _ in range(4):
        N = int(rng.integers(3, 33))
        p = LatticeProfile(rng.uniform(0.2, 1.5, N - 1), rng.normal(size=N))
        w, _ = eigensolve_tridiagonal(p.fields, p.hoppings, want_vectors=False)

        def P_N(e):
            vals, exps = critical_polynomial(p, e)
            return vals[-1] * 2.0 ** float(exps[-1])

        delta = 1e-7 * (w[-1] - w[0])
        for e in w:
            slope = (P_N(e + delta) - P_N(e - delta)) / (2 * delta)
            assert abs(P_N(e)) <= 1e-8 * abs(slope)


# --- quadrature ------------------------------------------------------------

def test_constant_integrand():
    assert integrate(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_arcsine_integral_both_singular():
    f = lambda x: 1.0 / math.sqrt(1.0 - x * x)
    assert abs(integrate(f, -1.0, 1.0, True, True) - math.pi) < 1e-10


def test_interior_turning_point_integral_is_pi():
    x1, x2 = 0.2, 0.9
    f = lambda x: 1.0 / math.sqrt((x - x1) * (x2 - x))
    assert abs(integrate(f, x1, x2, True, True) - math.pi) < 1e-10


def test_single_sided_singularities():
    # int_0^1 x^(-1/2) dx = 2 and the mirrored version
    assert abs(integrate(lambda x: x ** -0.5, 0.0, 1.0, lower_singular=True) - 2.0) < 1e-10
    assert abs(integrate(lambda x: (1 - x) ** -0.5, 0.0, 1.0, upper_singular=True) - 2.0) < 1e-10


def test_analytic_integrand_matches_fixed_rule():
    # Oracle: 50-point Gauss-Legendre on a smooth integrand.
    f = lambda x: math.exp(x) * math.cos(3 * x)
    nodes, weights = np.polynomial.legendre.leggauss(50)
    lo, hi = 0.0, 2.0
    ref = float(np.sum(weights * np.vectorize(f)((hi - lo) / 2 * nodes + (hi + lo) / 2)) * (hi - lo) / 2)
    assert abs(integrate(f, lo, hi) - ref) < 1e-10


def test_empty_interval():
    assert integrate(lambda x: 1.0, 0.5, 0.5) == 0.0


def test_bounds_validation():
    with pytest.raises(InvalidInputError):
        integrate(lambda x: x, 1.0, 0.0)
    with pytest.raises(InvalidInputError):
        integrate(lambda x: x, 0.0, math.inf)
    with pytest.raises(InvalidInputError):
        integrate(lambda x: x, math.nan, 1.0)


def test_nonconvergence_reports_estimate():
    # A wildly oscillatory integrand at a relative target near rounding.
    f = lambda x: math.sin(1e7 * x)
    with pytest.raises(ConvergenceError) as err:
        integrate(f, 0.0, 1.0, rel_tol=1e-14)
    assert math.isfinite(err.value.estimate)
    assert err.value.error_bound > 0


# --- root finding ----------------------------------------------------------

def test_linear_root():
    assert find_root(lambda x: x - 0.5, 0.0, 1.0) == pytest.approx(0.5, abs=1e-10)


def test_cosine_root():
    assert find_root(math.cos, 1.0, 2.0) == pytest.approx(math.pi / 2, abs=1e-10)


def test_root_stays_in_bracket():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = np.sort(rng.uniform(-5, 5, 3))
        f = lambda x, roots=r: np.prod(x - roots)
        lo = r[0] - 0.5
        hi = r[0] + rng.uniform(0.1, 0.9) * (r[1] - r[0])
        root = find_root(f, lo, hi)
        assert lo <= root <= hi


def test_no_sign_change_raises():
    with pytest.raises(BracketError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_rainbow_filling_equation_root():
    # Root of the closed-form rainbow filling minus 1/8 at h=1.  Oracle:
    # bisection against an independent quadrature of the filling integral
    # (see test_analytic for the closed-form/quadrature agreement); the
    # frozen value below was produced by both routes.  Note the chain's
    # exact N=400 Fermi energy at this filling is -0.69945, about half a
    # level spacing away; the continuum equation root is distinct.
    from fermichain.analytic import rainbow_filling

    root = find_root(lambda e: rainbow_filling(1.0, e) - 0.125, -1.0, -0.61)
    assert root == pytest.approx(-0.69773696707, abs=1e-8)


# --- Clausen function ------------------------------------------------------

def _cl2_series_oracle(theta: float, terms: int = 4_000_000) -> float:
    # Direct partial sum; the alternating tail is bounded by
    # 2 / (sin(theta/2) * terms^2) via Abel summation.
    n = np.arange(1, terms + 1, dtype=float)
    return float(np.sum(np.sin(n * theta) / n ** 2))


def test_clausen_trivial_zeros():
    assert clausen_cl2(0.0) == 0.0
    assert abs(clausen_cl2(math.pi)) < 1e-12
    assert abs(clausen_cl2(2 * math.pi)) < 1e-12


def test_clausen_catalan():
    catalan = 0.915965594177219015  # Cl2(pi/2), oracle-checked below
    assert abs(clausen_cl2(math.pi / 2) - catalan) < 1e-12
    assert abs(_cl2_series_oracle(math.pi / 2) - catalan) < 5e-12


@pytest.mark.parametrize("theta", [0.3, 1.0, math.pi / 3, 2.0, 2.9])
def test_clausen_against_series(theta):
    assert abs(clausen_cl2(theta) - _cl2_series_oracle(theta)) < 5e-12


def test_clausen_odd_about_pi():
    for theta in np.linspace(0.01, math.pi, 25):
        assert abs(clausen_cl2(2 * math.pi - theta) + clausen_cl2(theta)) < 1e-12


def test_clausen_domain():
    with pytest.raises(DomainError):
        clausen_cl2(-0.5)
    with pytest.raises(DomainError):
        clausen_cl2(7.0)


# --- architecture ----------------------------------------------------------

PACKAGE = Path(fermichain.__file__).parent


def _scipy_solver_imports(tree):
    """scipy.integrate / scipy.optimize imports in a module's syntax tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.startswith(("scipy.integrate", "scipy.optimize"))]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith(("scipy.integrate", "scipy.optimize")):
                found.append(node.module)
            elif node.module == "scipy":
                found += [a.name for a in node.names if a.name in ("integrate", "optimize")]
    return found


def _callers(tree, name):
    """Top-level functions of a module that call ``name``, by bare name or
    as an attribute; "<module>" for calls outside any function."""
    out = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                if (isinstance(f, ast.Name) and f.id == name) or \
                        (isinstance(f, ast.Attribute) and f.attr == name):
                    out.add(owner)
    return out


def test_numerics_is_the_only_quadrature_and_root_finding_entry_point():
    importers = {
        path.name for path in PACKAGE.glob("*.py")
        if _scipy_solver_imports(ast.parse(path.read_text()))
    }
    assert importers == {"numerics.py"}
    wkb_tree = ast.parse((PACKAGE / "wkb.py").read_text())
    assert _callers(wkb_tree, "integrate") == {"_cumulative"}
    assert _callers(wkb_tree, "find_root") == {"_turning_point"}
