"""Expression DSL: grammar, evaluation, exact differentiation, printing."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.testing import assert_allclose

from gacalc import expr as ex
from gacalc import fields as mf


def fd(e, i, p, h=1e-6):
    """Central finite difference, the independent derivative oracle."""
    up = list(p)
    dn = list(p)
    step = h * max(1.0, abs(p[i]))
    up[i] += step
    dn[i] -= step
    return (ex.evaluate(e, up) - ex.evaluate(e, dn)) / (2 * step)


CORPUS = [
    "x0^2 + 3*x1",
    "sin(x0)*x1",
    "x0*sin(x1)",
    "cos(x0)/sin(x0)",
    "exp(x0*x1) - ln(x0 + 2)",
    "sqrt(x0^2 + x1^2 + 1)",
    "tan(x0/4) + atan(x1)",
    "-x0^3/(1 + x1^2)",
    "1/x0 + x0^-2",
    "2.5e-1*x0 - 0.5",
]


class TestParser:
    def test_parse_eval_examples(self):
        e = ex.parse("x0^2 + 3*x1", 2)
        assert ex.evaluate(e, (2.0, 1.0)) == pytest.approx(7.0)
        assert ex.evaluate(ex.parse("sin(x0)*x1", 2), (0.0, 5.0)) == 0.0
        assert ex.evaluate(ex.parse("exp(0)", 1), (0.0,)) == pytest.approx(1.0)

    def test_syntax_error_position(self):
        with pytest.raises(ex.ParseError) as err:
            ex.parse("x0 + * 3", 2)
        assert err.value.position == 5
        assert "offset 5" in str(err.value)

    def test_variable_out_of_range(self):
        with pytest.raises(ex.ParseError, match="variable index 9 out of range"):
            ex.parse("x9", 2)

    def test_unknown_function(self):
        with pytest.raises(ex.ParseError, match="unknown function"):
            ex.parse("sinh(x0)", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ex.ParseError):
            ex.parse("x0 + 1)", 1)

    def test_unbalanced_paren(self):
        with pytest.raises(ex.ParseError, match="expected '\\)'"):
            ex.parse("(x0 + 1", 1)

    def test_whitespace_insignificant(self):
        a = ex.parse("x0*sin( x1 ) + 2 ^ 3", 2)
        b = ex.parse("x0*sin(x1)+2^3", 2)
        p = (1.2, 0.7)
        assert ex.evaluate(a, p) == ex.evaluate(b, p)

    def test_negative_exponent_and_unary_minus(self):
        assert ex.evaluate(ex.parse("x0^-2", 1), (2.0,)) == pytest.approx(0.25)
        assert ex.evaluate(ex.parse("-x0^2", 1), (3.0,)) == pytest.approx(9.0)  # (-x0)^2
        assert ex.evaluate(ex.parse("-(x0^2)", 1), (3.0,)) == pytest.approx(-9.0)
        assert ex.evaluate(ex.parse("--x0", 1), (3.0,)) == pytest.approx(3.0)

    def test_scientific_notation(self):
        assert ex.evaluate(ex.parse("1e2 + 2.5E-1", 1), (0.0,)) == pytest.approx(100.25)


class TestEvaluate:
    def test_division_by_zero(self):
        with pytest.raises(ex.DomainError, match="division by zero"):
            ex.evaluate(ex.parse("1/x0", 1), (0.0,))

    def test_ln_nonpositive(self):
        with pytest.raises(ex.DomainError, match="logarithm"):
            ex.evaluate(ex.parse("ln(x0)", 1), (-1.0,))

    def test_sqrt_negative(self):
        with pytest.raises(ex.DomainError, match="square root"):
            ex.evaluate(ex.parse("sqrt(x0)", 1), (-4.0,))

    def test_domain_error_names_subexpression(self):
        with pytest.raises(ex.DomainError, match=r"1/x0"):
            ex.evaluate(ex.parse("x1 + 1/x0", 2), (0.0, 3.0))


class TestDiff:
    def test_calculus_examples(self):
        d = ex.diff(ex.parse("x0*sin(x1)", 2), 1)
        p = (1.7, 0.4)
        assert ex.evaluate(d, p) == pytest.approx(1.7 * math.cos(0.4))
        d2 = ex.diff(ex.diff(ex.parse("x0^3", 1), 0), 0)
        assert ex.evaluate(d2, (2.0,)) == pytest.approx(12.0)
        assert ex.diff(ex.parse("4.5", 1), 0) == ex.ZERO

    @pytest.mark.parametrize("src", CORPUS)
    def test_matches_finite_differences(self, src, rng):
        e = ex.parse(src, 2)
        for _ in range(20):
            p = rng.uniform(0.5, 2.0, size=2)
            for i in range(2):
                exact = ex.evaluate(ex.diff(e, i), p)
                approx = fd(e, i, p)
                assert exact == pytest.approx(approx, rel=1e-6, abs=1e-8), (src, i)

    @pytest.mark.parametrize("src", CORPUS)
    def test_partials_commute(self, src, rng):
        e = ex.parse(src, 2)
        d01 = ex.diff(ex.diff(e, 0), 1)
        d10 = ex.diff(ex.diff(e, 1), 0)
        for _ in range(10):
            p = rng.uniform(0.5, 2.0, size=2)
            a, b = ex.evaluate(d01, p), ex.evaluate(d10, p)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b)), src

    def test_linearity(self, rng):
        e1 = ex.parse("sin(x0)*x1", 2)
        e2 = ex.parse("x0^2 - x1", 2)
        combo = ex.add(ex.mul(ex.const(2.5), e1), ex.mul(ex.const(-1.5), e2))
        d_combo = ex.diff(combo, 0)
        d_direct = ex.add(ex.mul(ex.const(2.5), ex.diff(e1, 0)),
                          ex.mul(ex.const(-1.5), ex.diff(e2, 0)))
        for _ in range(10):
            p = rng.uniform(-2, 2, size=2)
            assert ex.evaluate(d_combo, p) == pytest.approx(ex.evaluate(d_direct, p), abs=1e-12)

    def test_third_derivatives_stay_exact(self, rng):
        # repeated application must stay valid (needed by curvature derivatives)
        e = ex.parse("cos(x0)/sin(x0)", 1)
        d3 = ex.diff(ex.diff(ex.diff(e, 0), 0), 0)
        for _ in range(10):
            t = rng.uniform(0.3, 2.8)
            s, c = math.sin(t), math.cos(t)
            # d^3/dt^3 cot(t) = -2(2 + cos(2t))/sin(t)^4... derive via cot''' = -(6cot^4+8cot^2+2)/... use numeric oracle
            exact = ex.evaluate(d3, (t,))
            approx = fd(ex.diff(ex.diff(e, 0), 0), 0, (t,))
            assert exact == pytest.approx(approx, rel=1e-5)


class TestPrintRoundTrip:
    @pytest.mark.parametrize("src", CORPUS)
    def test_corpus_round_trip(self, src, rng):
        e = ex.parse(src, 2)
        back = ex.parse(ex.to_str(e), 2)
        for _ in range(100):
            p = rng.uniform(0.5, 2.0, size=2)
            a, b = ex.evaluate(e, p), ex.evaluate(back, p)
            assert abs(a - b) <= 1e-14 * max(1.0, abs(a), abs(b)), src

    def test_random_tree_round_trip(self, rng):
        def build(depth):
            pick = rng.integers(0, 9 if depth > 0 else 2)
            if pick == 0:
                return ex.Var(int(rng.integers(0, 2)))
            if pick == 1:
                return ex.const(round(float(rng.uniform(-3, 3)), 3))
            if pick == 2:
                return ex.Add(build(depth - 1), build(depth - 1))
            if pick == 3:
                return ex.Sub(build(depth - 1), build(depth - 1))
            if pick == 4:
                return ex.Mul(build(depth - 1), build(depth - 1))
            if pick == 5:
                return ex.Div(build(depth - 1), ex.Add(ex.const(3.0), ex.Var(0)))
            if pick == 6:
                return ex.Neg(build(depth - 1))
            if pick == 7:
                return ex.Pow(build(depth - 1), int(rng.integers(0, 4)))
            return ex.Call(["sin", "cos", "exp", "atan"][int(rng.integers(0, 4))],
                           build(depth - 1))

        for _ in range(100):
            e = build(3)
            back = ex.parse(ex.to_str(e), 2)
            p = rng.uniform(0.5, 1.5, size=2)
            try:
                a = ex.evaluate(e, p)
            except (ex.DomainError, OverflowError):
                continue
            b = ex.evaluate(back, p)
            assert abs(a - b) <= 1e-14 * max(1.0, abs(a), abs(b)), ex.to_str(e)


class TestSimplify:
    @pytest.mark.parametrize("src", CORPUS)
    def test_simplify_preserves_values(self, src, rng):
        e = ex.parse(src, 2)
        s = ex.simplify(e)
        for _ in range(50):
            p = rng.uniform(0.5, 2.0, size=2)
            a, b = ex.evaluate(e, p), ex.evaluate(s, p)
            assert abs(a - b) <= 1e-14 * max(1.0, abs(a), abs(b)), src

    def test_folding_rules(self):
        x = ex.Var(0)
        assert ex.simplify(ex.Add(x, ex.ZERO)) == x
        assert ex.simplify(ex.Mul(ex.ONE, x)) == x
        assert ex.simplify(ex.Mul(ex.ZERO, x)) == ex.ZERO
        assert ex.simplify(ex.Pow(x, 1)) == x
        assert ex.simplify(ex.Pow(x, 0)) == ex.ONE
        assert ex.simplify(ex.Neg(ex.Neg(x))) == x
        assert ex.simplify(ex.parse("2*3 + 1", 1)) == ex.const(7.0)

    def test_substitute(self):
        e = ex.parse("x0^2 + x1", 2)
        composed = ex.substitute(e, [ex.parse("x0*cos(x1)", 2), ex.parse("x0*sin(x1)", 2)])
        r, t = 1.7, 0.6
        want = (r * math.cos(t)) ** 2 + r * math.sin(t)
        assert ex.evaluate(composed, (r, t)) == pytest.approx(want)


class TestCompiled:
    @pytest.mark.parametrize("src", CORPUS)
    def test_compiled_matches_interpreter(self, src, rng):
        e = ex.parse(src, 2)
        fn = ex.compile_fn(e)
        pts = rng.uniform(0.5, 2.0, size=(20, 2))
        values = fn(pts)
        assert values.shape == (20,)
        for p, value in zip(pts, values):
            assert value == pytest.approx(ex.evaluate(e, p), rel=1e-15, abs=1e-300)

    @pytest.mark.parametrize("src,point,message,subexpr", [
        ("x1 + 1/x0", (0.0, 1.0), "division by zero", "1/x0"),
        ("x1 + x0^-2", (0.0, 1.0), "zero raised to a negative power", "x0^-2"),
        ("x1*ln(x0 - 1)", (1.0, 1.0), "logarithm of a non-positive value", "ln(x0 - 1)"),
        ("x1 - sqrt(x0)", (-0.5, 1.0), "square root of a negative value", "sqrt(x0)"),
        ("x1 + exp(exp(exp(10*x0)))", (1.0, 1.0), "non-finite value", "exp(exp(10*x0))"),
    ])
    def test_domain_error_names_subexpression(self, src, point, message, subexpr):
        # the bad point sits among good ones: one point is enough to fail the batch
        pts = [(1.5, 0.5), point, (2.0, -1.0)]
        with pytest.raises(ex.DomainError, match=message) as err:
            ex.compile_fn(ex.parse(src, 2))(pts)
        assert f"'{subexpr}'" in str(err.value)
        assert ex.to_str(err.value.subexpr) == subexpr

    def test_field_evaluator_matches_point_queries(self, rng):
        e = ex.parse("sin(x0)*x1", 2)
        field = mf.mvf(2, {0: e, 0b11: ex.diff(e, 0)})
        pts = rng.uniform(-1.0, 1.0, size=(7, 2))
        values = mf.compiled_evaluator(field)(pts)
        assert values.shape == (7, 4)
        for p, row in zip(pts, values):
            assert_allclose(row, field.at(p).coeffs, rtol=1e-15, atol=0.0)


def test_import_leaves_recursion_limit_unchanged():
    code = ("import sys; before = sys.getrecursionlimit(); import gacalc; "
            "assert sys.getrecursionlimit() == before, sys.getrecursionlimit()")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
