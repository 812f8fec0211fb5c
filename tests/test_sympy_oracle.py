"""An independent computer-algebra oracle: sympy's derivatives and curvature.

`expr.diff` and `expr.tangent` are checked against `sympy.diff` on seeded
random parsed expressions, and the classical tables `levi_civita_from_metric` and
`riemann_coefficients` against sympy's Christoffel symbols and Riemann
tensor of the unit S^3 metric.  Both sides are evaluated numerically at
points of the domain.  sympy is a test-only dependency; without it the file
is skipped.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

sympy = pytest.importorskip("sympy")

from gacalc import expr as ex  # noqa: E402
from gacalc.bridge import levi_civita_from_metric, riemann_coefficients  # noqa: E402
from gacalc.fixtures import load_fixture_file  # noqa: E402

SPHERE3 = Path(__file__).resolve().parents[1] / "fixtures" / "sphere3_metric.json"
DIM = 3
FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "atan")


def bounded(rng, u: str) -> str:
    """A function of u with values in [-pi/2, pi/2]."""
    return f"{rng.choice(['sin', 'cos', 'atan'])}({u})"


def random_source(rng, depth: int) -> str:
    """Source text of a random expression in x0..x2 that is finite wherever
    the x are: a logarithm, root, quotient or negative power only ever meets
    2 + (a bounded value), and tan and exp only a bounded value."""
    if depth == 0:
        return f"x{rng.integers(DIM)}" if rng.random() < 0.7 else f"{rng.uniform(0.1, 2):.3f}"
    u = random_source(rng, depth - 1)
    v = random_source(rng, depth - 1)
    shifted = f"(2 + {bounded(rng, v)})"
    return rng.choice([
        f"({u} + {v})", f"({u} - {v})", f"({u} * {v})", f"-({u})",
        f"({u} / {shifted})", f"({u})^{rng.integers(2, 4)}", f"{shifted}^-{rng.integers(1, 4)}",
        f"sin({u})", f"cos({u})", f"atan({u})", f"tan({bounded(rng, u)})",
        f"exp({bounded(rng, u)})", f"ln{shifted}", f"sqrt{shifted}",
    ])


def to_sympy(src: str, symbols):
    names = {f"x{i}": s for i, s in enumerate(symbols)}
    names.update(ln=sympy.log, sqrt=sympy.sqrt, exp=sympy.exp, sin=sympy.sin,
                 cos=sympy.cos, tan=sympy.tan, atan=sympy.atan)
    return sympy.sympify(src.replace("^", "**"), locals=names)


def flat(table) -> list:
    """The entries of a nested table, outer index first."""
    return np.array(table, dtype=object).ravel().tolist()


def ours_at(exprs, points):
    """Each gacalc expression at each point, shape (points, exprs), on one tape."""
    return ex.Tape(exprs)(points)


def theirs_at(symbols, exprs, points):
    """Each sympy expression at each point, shape (points, exprs)."""
    values = sympy.lambdify(symbols, list(exprs), "numpy")(*points.T)
    return np.column_stack([np.broadcast_to(v, len(points)) for v in values])


class TestDiffAgainstSympy:
    def test_random_expressions(self):
        rng = np.random.default_rng(20261018)
        symbols = sympy.symbols(f"x0:{DIM}")
        sources = [random_source(rng, depth) for depth in (1, 2, 3) for _ in range(12)]
        used = "".join(sources)
        assert all(re.search(rf"\b{name}\(", used) for name in FUNCTIONS)
        assert all(op in used for op in (" + ", " - ", " * ", " / ", "-(", ")^", "^-"))
        points = rng.uniform(-1.5, 1.5, size=(8, DIM))
        ours, theirs = [], []
        for src in sources:
            e, s = ex.parse(src, DIM), to_sympy(src, symbols)
            for i in range(DIM):
                ours.append(ex.diff(e, i))
                theirs.append(sympy.diff(s, symbols[i]))
        assert_allclose(ours_at(ours, points), theirs_at(symbols, theirs, points),
                        rtol=1e-10, atol=1e-10)


class TestTangentAgainstSympy:
    def test_random_expressions_along_random_directions(self):
        # the derivative along a varying direction a is sum_i a_i d/dx_i
        rng = np.random.default_rng(20261019)
        symbols = sympy.symbols(f"x0:{DIM}")
        sources = [random_source(rng, depth) for depth in (1, 2, 3) for _ in range(12)]
        used = "".join(sources)
        assert all(re.search(rf"\b{name}\(", used) for name in FUNCTIONS)
        assert all(op in used for op in (" / ", "^-"))
        points = rng.uniform(-1.5, 1.5, size=(8, DIM))
        ours, theirs = [], []
        for src in sources:
            direction = [random_source(rng, 1) for _ in range(DIM)]
            seeds = {i: ex.parse(c, DIM) for i, c in enumerate(direction)}
            ours.append(ex.tangent(ex.parse(src, DIM), seeds, {}))
            s = to_sympy(src, symbols)
            theirs.append(sum(to_sympy(c, symbols) * sympy.diff(s, x)
                              for c, x in zip(direction, symbols)))
        assert_allclose(ours_at(ours, points), theirs_at(symbols, theirs, points),
                        rtol=1e-10, atol=1e-10)


class TestSphere3TablesAgainstSympy:
    """The fixture's own metric text, read by both sides."""

    MATRIX = json.loads(SPHERE3.read_text())["connection"]["matrix"]
    X = sympy.symbols("x0:3")

    @pytest.fixture(scope="class")
    def oracle(self):
        """sympy's metric, Christoffel symbols G^c_ab and Riemann tensor R^d_cab."""
        x, n = self.X, range(3)
        g = sympy.Matrix([[to_sympy(c, x) for c in row] for row in self.MATRIX])
        ginv = g.inv()
        gamma = [[[sum(ginv[c, s] * (sympy.diff(g[s, b], x[a]) + sympy.diff(g[a, s], x[b])
                                     - sympy.diff(g[a, b], x[s])) for s in n) / 2
                   for b in n] for a in n] for c in n]
        riemann = [[[[sympy.diff(gamma[d][b][c], x[a]) - sympy.diff(gamma[d][a][c], x[b])
                      + sum(gamma[d][a][s] * gamma[s][b][c] - gamma[d][b][s] * gamma[s][a][c]
                            for s in n)
                      for b in n] for a in n] for c in n] for d in n]
        return g, gamma, riemann

    @pytest.fixture(scope="class")
    def points(self):
        return load_fixture_file(SPHERE3).domain.sample(12, np.random.default_rng(3303))

    def test_levi_civita_from_metric(self, oracle, points):
        metric = [[ex.parse(c, 3) for c in row] for row in self.MATRIX]
        got = ours_at(flat(levi_civita_from_metric(metric).gamma), points)
        assert_allclose(got, theirs_at(self.X, flat(oracle[1]), points), rtol=1e-10, atol=1e-10)

    def test_riemann_coefficients(self, oracle, points):
        g, _, riemann = oracle
        got = ours_at(flat(riemann_coefficients(load_fixture_file(SPHERE3).conn)), points)
        assert_allclose(got, theirs_at(self.X, flat(riemann), points), rtol=1e-9, atol=1e-9)
        # the oracle's own convention: the unit sphere has R^d_cab = delta^d_a g_cb - delta^d_b g_ca
        closed = [[[[(g[c, b] if d == a else 0) - (g[c, a] if d == b else 0)
                     for b in range(3)] for a in range(3)] for c in range(3)] for d in range(3)]
        assert_allclose(got, theirs_at(self.X, flat(closed), points), rtol=1e-9, atol=1e-9)
