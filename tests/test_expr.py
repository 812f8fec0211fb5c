"""Expression DSL: grammar, evaluation, exact differentiation, printing."""

import gc
import json
import math
import operator
import os
import random
import subprocess
import sys
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gacalc import cli
from gacalc import expr as ex
from gacalc import fields as mf
from gacalc import suites
from gacalc.cartan import cartan_curvature, curvature, torsion
from gacalc.connection import ConnectionField
from gacalc.fixtures import load_fixture_file, load_map_file
from gacalc.suites import rand_scalar, rand_vector

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


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


    def test_deep_nesting_parses(self):
        depth = 3000
        e = ex.parse("(" * depth + "x0" + ")" * depth, 1)
        assert e == ex.Var(0)
        e = ex.parse("-" * depth + "x0", 1)
        for _ in range(depth):
            e = e.arg
        assert e == ex.Var(0)
        e = ex.parse("sin(" * depth + "x0" + ")" * depth, 1)
        for _ in range(depth):
            assert e.name == "sin"
            e = e.arg
        assert e == ex.Var(0)

    @pytest.mark.parametrize("src, position, message", [
        ("x\u00b2", 0, "unknown function 'x'"),
        ("x0^\u00b2", 3, "expected integer exponent"),
        ("x0^-\u00b2", 4, "expected integer exponent"),
        ("x\u0661", 0, "unknown function 'x'"),
        ("\u0661", 0, "unexpected character"),
        ("1\u0661", 1, "unexpected character"),
    ])
    def test_digits_are_ascii_only(self, src, position, message):
        # each of these passes str.isdigit, and some even int() or float()
        with pytest.raises(ex.ParseError, match=message) as err:
            ex.parse(src, 2)
        assert err.value.position == position

    @pytest.mark.parametrize("src, position", [
        ("x" + "1" * 5000, 1),
        ("x0^" + "2" * 5000, 3),
        ("x0 ^ -" + "2" * 5000, 6),
    ], ids=["variable", "exponent", "negative-exponent"])
    def test_digit_runs_past_the_int_limit_are_syntax_errors(self, src, position):
        # int() refuses more than sys.get_int_max_str_digits() digits
        with pytest.raises(ex.ParseError, match="integer of 5000 digits is too long") as err:
            ex.parse(src, 2)
        assert err.value.position == position

    @pytest.mark.parametrize("src, position, digits", [
        ("x0^" + "9" * 400, 3, 400),
        ("x0 ^ -" + "9" * 400, 6, 400),
        ("x0^2" + "0" * 308 + "*x1", 3, 309),
    ], ids=["exponent", "negative-exponent", "just-past-the-float-range"])
    def test_exponents_past_the_float_range_are_syntax_errors(self, src, position, digits):
        # diff and evaluation take the exponent as a float
        message = f"exponent of {digits} digits is too large"
        with pytest.raises(ex.ParseError, match=message) as err:
            ex.parse(src, 2)
        assert err.value.position == position

    def test_largest_exponents_in_the_float_range_parse(self):
        exponent = int(sys.float_info.max)
        for src in (f"x0^{exponent}", f"x0^-{exponent}"):
            e = ex.parse(src, 2)
            assert ex.diff(e, 0) == ex.mul(ex.const(float(e.exponent)),
                                           ex.powi(ex.Var(0), e.exponent - 1))


class RecursiveParser:
    """Reference parser: the recursive-descent form of the grammar, one
    method per rule, independent of `ex.parse`'s operator-precedence loop."""

    def __init__(self, src: str, dim: int):
        self.src = src
        self.dim = dim
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def fail(self, message, position=None):
        raise ex.ParseError(message, self.pos if position is None else position)

    def parse(self):
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            self.fail(f"unexpected character {self.peek()!r}")
        return e

    def expr(self):
        e = self.term()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                e = ex.Add(e, self.term())
            elif ch == "-":
                self.pos += 1
                e = ex.Sub(e, self.term())
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                e = ex.Mul(e, self.factor())
            elif ch == "/":
                self.pos += 1
                e = ex.Div(e, self.factor())
            else:
                return e

    def factor(self):
        e = self.base()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            if self.peek() == "-":
                self.pos += 1
            if not self.peek().isdigit():
                self.fail("expected integer exponent")
            while self.peek().isdigit():
                self.pos += 1
            e = ex.Pow(e, int(self.src[start:self.pos]))
        return e

    def base(self):
        self.skip_ws()
        ch = self.peek()
        if ch == "":
            self.fail("unexpected end of input")
        if ch == "-":
            self.pos += 1
            return ex.Neg(self.base())
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self.skip_ws()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            return e
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch == "x" and self.pos + 1 < len(self.src) and self.src[self.pos + 1].isdigit():
            return self.variable()
        if ch.isalpha():
            return self.func_call()
        self.fail(f"unexpected character {ch!r}")

    def number(self):
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.peek() == ".":
            self.pos += 1
            while self.peek().isdigit():
                self.pos += 1
        if self.peek() in ("e", "E"):
            mark = self.pos
            self.pos += 1
            if self.peek() in ("+", "-"):
                self.pos += 1
            if self.peek().isdigit():
                while self.peek().isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent after all
        text = self.src[start:self.pos]
        try:
            return ex.Const(float(text))
        except ValueError:
            self.fail(f"bad number {text!r}", start)

    def variable(self):
        start = self.pos
        self.pos += 1  # 'x'
        while self.peek().isdigit():
            self.pos += 1
        index = int(self.src[start + 1:self.pos])
        if index >= self.dim:
            self.fail(f"variable index {index} out of range for dimension {self.dim}", start)
        return ex.Var(index)

    def func_call(self):
        start = self.pos
        while self.peek().isalpha():
            self.pos += 1
        name = self.src[start:self.pos]
        if name not in ex._FUNCTIONS:
            self.fail(f"unknown function {name!r}", start)
        self.skip_ws()
        if self.peek() != "(":
            self.fail(f"expected '(' after {name!r}")
        self.pos += 1
        e = self.expr()
        self.skip_ws()
        if self.peek() != ")":
            self.fail("expected ')'")
        self.pos += 1
        return ex.Call(name, e)


_OPENERS = ("(", "-", "sin(", "ln (", "atan(")
_OPERANDS = ("x0", "x1", "3", "0.5", "1e3", "2.5E-1", ".5", "1.") + _OPENERS
_OPERATORS = ("+", "-", "*", "/", "^2", "^-1", " ^ 3", ")")
_JUNK = (" ", "\t", "^", "^-", ".", "e", "1e", "x", "x2", "x01", "sinh(", "1.2.3", ",", "(", ")",
         "-")


def random_source(rng: random.Random) -> str:
    """A string of the grammar's tokens, mostly in grammatical order, with
    some junk (tokens out of place, printable ASCII) mixed in."""
    parts, operand, depth = [], True, 0
    for _ in range(rng.randrange(1, 16)):
        if rng.random() < 0.04:
            parts.append(rng.choice(_JUNK) if rng.random() < 0.7 else chr(rng.randrange(32, 127)))
            continue
        tok = rng.choice(_OPERANDS if operand else _OPERATORS)
        if tok == ")" and not depth:
            continue
        depth += tok.endswith("(") - (tok == ")")
        operand = tok in _OPENERS if operand else tok in "+-*/"
        parts.append(tok + " " * (rng.random() < 0.2))
    if rng.random() < 0.8:
        parts.append(")" * depth)
    return "".join(parts)


def _outcome(parse, src):
    try:
        return repr(parse(src, 2))
    except ex.ParseError as err:
        return str(err), err.position


class TestParserAgainstRecursive:
    def test_same_trees_and_errors_on_random_ascii(self):
        rng = random.Random(20261018)
        parsed = 0
        for _ in range(20000):
            src = random_source(rng)
            want = _outcome(lambda s, d: RecursiveParser(s, d).parse(), src)
            assert _outcome(ex.parse, src) == want, src
            parsed += isinstance(want, str)
        assert parsed > 4000  # the trees are compared, not only the errors

    @pytest.mark.parametrize("src", CORPUS)
    def test_same_trees_on_corpus(self, src):
        assert ex.parse(src, 2) == RecursiveParser(src, 2).parse()


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

    @pytest.mark.parametrize("src,subexpr", [
        ("1 + exp(exp(x0))", "exp(exp(x0))"),
        ("x1 - (x0*1e200)^2", "(x0*1e+200)^2"),
    ])
    def test_overflow_names_subexpression(self, src, subexpr):
        with pytest.raises(ex.DomainError, match="overflow") as err:
            ex.evaluate(ex.parse(src, 2), (10.0, 1.0))
        assert f"'{subexpr}'" in str(err.value)

    def test_function_of_infinity_names_subexpression(self):
        with pytest.raises(ex.DomainError, match="overflow to a non-finite value") as err:
            ex.evaluate(ex.parse("x1 + sin(x0*1e308*10)", 2), (1.0, 1.0))
        assert "'x0*1e+308*10'" in str(err.value)

    @pytest.mark.parametrize("call", ["evaluate", "at", "array"])
    def test_a_point_too_short_for_the_tape_is_refused(self, call):
        e = ex.add(ex.Var(0), ex.powi(ex.Var(2), 2))  # reads x0 and x2: width 3
        run = {"evaluate": lambda p: ex.evaluate(e, p), "at": ex.Tape([e]).at,
               "array": lambda p: ex.Tape([e])(np.array([p, p]))}[call]
        for point in ((0.5,), (0.5, 0.25)):
            with pytest.raises(ValueError) as err:
                run(point)
            assert str(err.value) == f"point has {len(point)} coordinates, but the tape reads 3"
        assert np.ravel(run((0.5, 0.25, 2.0)))[0] == 4.5
        assert ex.Tape([ex.ONE])(np.empty((2, 0))).tolist() == [[1.0], [1.0]]

    def test_deep_sum_evaluates_at_any_depth(self):
        # a left-deep sum of 5000 terms, far past the default recursion limit
        e = ex.parse(" + ".join(["x0*x1"] * 5000), 2)
        assert ex.evaluate(e, (1.5, 2.0)) == 15000.0
        assert mf.mvf(2, {0b11: e}).at((1.5, 2.0)).coeffs[0b11] == 15000.0


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


    def test_shared_dag_differentiates_in_linear_work(self):
        # e_{k+1} = e_k * e_k shares its operand; a tree walk would take
        # 2^depth steps, and the derivative keeps the sharing
        x = ex.Var(0)
        e = x
        for _ in range(200):
            e = ex.mul(e, e)
        d = ex.diff(e, 0)
        assert len(ex.Tape((d,)).nodes) <= 5 * 200
        e = x
        for _ in range(10):
            e = ex.mul(e, e)
        points = [[0.99], [1.0], [1.002]]
        got = ex.Tape([ex.diff(e, 0)])(points)[:, 0]
        assert_allclose(got, [2 ** 10 * p ** (2 ** 10 - 1) for (p,) in points], rtol=1e-12)

    def test_second_diff_returns_the_stored_derivative(self, monkeypatch):
        e = ex.parse("x0*sin(x1) + exp(x0*x1)/x1 - (x0 - x1)^3", 2)
        d0, d1 = ex.diff(e, 0), ex.diff(e, 1)
        fresh = ex.parse("x0*sin(x1) + exp(x0*x1)/x1 - (x0 - x1)^3", 2)
        # the stored derivatives leave ==, hash and repr as they were
        assert e == fresh and hash(e) == hash(fresh) and repr(e) == repr(fresh)

        def no_new_nodes(*args, **kwargs):
            raise AssertionError("a node was built")

        for kind in (ex.Var, ex.Const, ex.Add, ex.Sub, ex.Mul, ex.Div, ex.Neg, ex.Pow, ex.Call):
            monkeypatch.setattr(kind, "__init__", no_new_nodes)
        assert ex.diff(e, 0) is d0
        assert ex.diff(e, 1) is d1
        assert ex.diff(e.left, 1) is ex.diff(e.left, 1)  # a subtree's, stored on the way

    def test_directional_derivatives_share_the_stored_partials(self):
        x = mf.mvf(2, {0: ex.parse("x0*sin(x1)", 2), 0b11: ex.parse("exp(x0*x1)/x1", 2)})
        for i in range(2):
            first = mf.directional_derivative(mf.basis(2, i), x)
            second = mf.directional_derivative(mf.basis(2, i), x)
            assert first.coeffs.keys() == second.coeffs.keys()
            for m, c in first.coeffs.items():
                assert c is second.coeffs[m] is ex.diff(x.coeffs[m], i)

    def test_stored_derivatives_go_with_their_node(self):
        # no module-level table may keep a differentiated tree alive
        e = ex.parse("x0*sin(x1) + exp(x0*x1)/x1", 2)
        d = ex.diff(ex.diff(e, 0), 1)
        root, derivative = weakref.ref(e), weakref.ref(d)
        del e, d
        gc.collect()
        assert root() is None
        assert derivative() is None

    @pytest.mark.parametrize("name", sorted(ex._FUNCTIONS))
    def test_a_derivative_never_holds_its_node(self, name):
        # `cli.main` runs with the collector off, so reference counting alone
        # must free a differentiated node: a derivative holding its node would
        # be a cycle through the node's stored derivatives
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            e = ex.parse(f"{name}(x0*x0 + 1)", 1)
            d = ex.diff(ex.diff(e, 0), 0)
            node, derivative = weakref.ref(e), weakref.ref(d)
            del e, d
            assert node() is None
            assert derivative() is None
        finally:
            if enabled:
                gc.enable()

    def test_deep_sum_differentiates_at_any_depth(self):
        # a left-deep sum of 5000 terms, far past the default recursion limit
        n = 5000
        e = ex.ZERO
        for k in range(1, n + 1):
            e = ex.Add(e, ex.Call("sin", ex.Mul(ex.const(k / n), ex.Var(0))))
        d = ex.diff(e, 0)
        points = [[0.3], [1.7]]
        k = np.arange(1, n + 1) / n
        want = [np.sum(k * np.cos(k * p)) for (p,) in points]
        assert_allclose(ex.Tape([d])(points)[:, 0], want, rtol=1e-12)


def tangent_corpus(n: int) -> list[ex.Expr]:
    """Expressions in x0..x{n-1}, finite on [-1.5, 1.5]^n: every function row
    (on an argument in [0.9, 1.5], inside every domain and below tan's pole),
    a quotient and negative powers, each reading several coordinates."""
    last = n - 1
    inner = f"(1.2 + 0.3*sin(x0*x{last} - x1))"
    sources = [f"{name}{inner}*x{k % n}" for k, name in enumerate(sorted(ex._FUNCTIONS))]
    sources += [f"x0*x1/(2 + cos(x{last}))", f"(2 + sin(x0 - x{last}))^-3",
                f"{inner}^-2 - x0^3*x{last}"]
    return [ex.parse(src, n) for src in sources]


def varying_direction(n: int) -> dict[int, ex.Expr]:
    """The components of a varying direction: a constant one, a zero one, the rest varying."""
    seeds = {0: ex.const(-0.75)}
    for i in range(2, n):
        seeds[i] = ex.parse(f"sin(x{i - 1}) + x0*x{i}", n)
    seeds[1] = ex.parse("exp(x1/3)", n)
    return seeds


class TestTangent:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_the_sum_of_partials_in_value(self, n, rng):
        seeds = varying_direction(n)
        corpus = tangent_corpus(n)
        ours = [ex.tangent(e, seeds, {}) for e in corpus]
        summed = []
        for e in corpus:
            total = ex.ZERO
            for i, a in seeds.items():
                total = ex.add(total, ex.mul(a, ex.diff(e, i)))
            summed.append(total)
        points = rng.uniform(-1.5, 1.5, size=(30, n))
        assert_allclose(ex.Tape(ours)(points), ex.Tape(summed)(points), rtol=1e-12, atol=1e-12)

    def test_along_a_unit_direction_is_the_partial(self, rng):
        for e in tangent_corpus(3):
            for i in range(3):
                points = rng.uniform(-1.5, 1.5, size=(10, 3))
                got = ex.Tape([ex.tangent(e, {i: ex.ONE}, {}), ex.diff(e, i)])(points)
                assert_allclose(got[:, 0], got[:, 1], rtol=1e-13, atol=1e-13)

    def test_one_direction_gives_one_tangent_object(self):
        a = mf.vector(3, [ex.parse(src, 3) for src in ("x1", "1 + x0*x2", "0.5")])
        x = mf.mvf(3, dict(zip(range(8), tangent_corpus(3))))
        first, second = mf.directional_derivative(a, x), mf.directional_derivative(a, x)
        assert first.coeffs.keys() == second.coeffs.keys()
        for m, c in first.coeffs.items():
            assert second.coeffs[m] is c
        # a subtree's tangent is kept on the way, and read again by another root
        assert mf.directional_derivative(a, mf.scalar_field(3, x.coeffs[0].left)).coeffs[0] \
            is a._tangents[id(x.coeffs[0].left)][1]

    def test_the_tangents_die_with_their_direction(self):
        # `cli.main` runs with the collector off: reference counting alone must
        # free the direction, the memo it holds and every tangent in it
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            a = mf.vector(2, [ex.parse("x1", 2), ex.parse("sin(x0)", 2)])
            x = mf.scalar_field(2, ex.parse("exp(x0*x1) + ln(2 + cos(x1))", 2))
            d = mf.directional_derivative(a, x)
            inner = x.coeffs[0].left  # a node held by the memo once x is gone
            refs = [weakref.ref(o) for o in (a, x, d, d.coeffs[0], inner)]
            refs += [weakref.ref(t) for _, t in a._tangents.values()]
            del x, inner
            assert refs[4]() is not None
            del a, d
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("suite", ["bianchi", "all"])
    def test_a_fault_under_a_tangent_exits_2_with_one_line(self, suite, tmp_path, capsys):
        # the bianchi and all rows differentiate ln(x0) along varying draws
        cfg = tmp_path / "ln.json"
        cfg.write_text(json.dumps({
            "name": "ln-fault", "dim": 2, "seed": 1,
            "connection": {"kind": "coefficients", "coefficients": {"0,0,0": "ln(x0)"}},
            "domain": {"lo": [-1, -1], "hi": [1, 1]}}))
        assert cli.main(["check", "--config", str(cfg), "--suite", suite, "--seed", "1"]) == 2
        assert capsys.readouterr() == ("", "error: logarithm of a non-positive value in 'ln(x0)'\n")


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

    def test_deep_tree_prints_at_any_depth(self):
        # to_str builds every DomainError message; a left-deep sum of 3000
        # terms is past the default recursion limit
        deep = ex.parse(" + ".join(["x0*x1"] * 3000), 2)
        with pytest.raises(ex.DomainError, match="division by zero") as err:
            ex.evaluate(ex.Div(ex.ONE, deep), (0.0, 0.0))
        assert str(err.value).endswith("in '1/(" + " + ".join(["x0*x1"] * 3000) + ")'")

    def test_printing_holds_about_its_output(self):
        # a subtree's text is dropped once its parent has used it; keeping
        # every prefix of this 24k-character sum would take about 37 MB
        deep = ex.parse(" + ".join(["x0*x1"] * 3000), 2)
        tracemalloc.start()
        try:
            text = ex.to_str(deep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 23_997
        assert peak < 4_000_000

    @pytest.mark.parametrize("value,text", [
        (math.inf, "1e999*x0"), (-math.inf, "-1e999*x0"), (math.nan, "nan*x0"),
    ])
    def test_non_finite_constants_print(self, value, text):
        e = ex.Mul(ex.Const(value), ex.Var(0))
        assert ex.to_str(e) == text
        if not math.isnan(value):  # +-1e999 parses back to +-inf
            assert ex.simplify(ex.parse(text, 1)) == ex.simplify(e)


class TestSimplify:
    @pytest.mark.parametrize("src", CORPUS)
    def test_simplify_preserves_values(self, src, rng):
        e = ex.parse(src, 2)
        s = ex.simplify(e)
        for _ in range(50):
            p = rng.uniform(0.5, 2.0, size=2)
            a, b = ex.evaluate(e, p), ex.evaluate(s, p)
            assert abs(a - b) <= 1e-14 * max(1.0, abs(a), abs(b)), src

    def test_constant_power_folds_unless_it_overflows(self):
        two = ex.const(2.0)
        assert ex.powi(two, 10) == ex.const(1024.0)
        assert ex.powi(two, 5000) == ex.Pow(two, 5000)
        assert ex.powi(ex.const(-2.0), 5001) == ex.Pow(ex.const(-2.0), 5001)
        assert ex.to_str(ex.diff(ex.parse("2^5000*x0^2", 1), 0)) == "2^5000*(2*x0)"
        with pytest.raises(ex.DomainError, match="overflow to a non-finite value") as err:
            ex.evaluate(ex.powi(two, 5000), (0.0,))
        assert err.value.subexpr == ex.Pow(two, 5000)

    def test_constant_calls_and_powers_fold_to_the_tape_value(self):
        # folding runs the ufunc a Tape runs, so simplify moves no value by a bit
        rng = np.random.default_rng(8000)
        values = np.concatenate([rng.uniform(-10.0, 10.0, 300), rng.uniform(-800.0, 800.0, 100),
                                 10.0 ** rng.uniform(-300.0, 300.0, 100), [0.0, -0.0]])
        trees = [ex.Call(name, ex.const(v)) for name in ex._FUNCTIONS for v in values]
        trees += [ex.Pow(ex.const(v), k) for v in values for k in (-3, -2, -1, 2, 3, 7, 200)]
        folded = 0
        for e in trees:
            s = ex.simplify(e)
            if s != e:
                assert type(s) is ex.Const, e
                assert ex.evaluate(s, (0.0,)).hex() == ex.evaluate(e, (0.0,)).hex(), e
                folded += 1
        assert folded > len(trees) // 2

    @pytest.mark.parametrize("src,message", [
        ("ln(0)", "logarithm of a non-positive value"),
        ("sqrt(-1)", "square root of a negative value"),
        ("exp(1000)", "overflow to a non-finite value"),
        ("0^-1", "zero raised to a negative power"),
    ])
    def test_constant_fault_stays_unfolded(self, src, message):
        e = ex.parse(src, 1)
        assert type(ex.simplify(e)) is type(e) and ex.to_str(ex.simplify(e)) == src
        for tree in (e, ex.simplify(e)):
            with pytest.raises(ex.DomainError, match=message) as err:
                ex.evaluate(tree, (0.0,))
            assert ex.to_str(err.value.subexpr) == src

    @pytest.mark.parametrize("base", [ex.Var(0), ex.const(2.0)], ids=["var", "const"])
    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_exponent_past_the_float_range_is_refused(self, base, sign):
        # diff and evaluation take the exponent as a float, the bound parse keeps
        with pytest.raises(ValueError, match="exponent past the float range"):
            ex.powi(base, sign * 10**400)
        big = ex.powi(ex.Var(0), sign * 10**300)
        assert big == ex.Pow(ex.Var(0), sign * 10**300)
        assert isinstance(ex.diff(big, 0), ex.Mul)  # a representable exponent still differentiates

    def test_folding_rules(self):
        x = ex.Var(0)
        assert ex.simplify(ex.Add(x, ex.ZERO)) == x
        assert ex.simplify(ex.Mul(ex.ONE, x)) == x
        assert ex.simplify(ex.Mul(ex.ZERO, x)) == ex.ZERO
        assert ex.simplify(ex.Pow(x, 1)) == x
        assert ex.simplify(ex.Pow(x, 0)) == ex.ONE
        assert ex.simplify(ex.Neg(ex.Neg(x))) == x
        assert ex.simplify(ex.parse("2*3 + 1", 1)) == ex.const(7.0)

    def test_simplify_calls_constructors_as_a_recursive_rebuild(self):
        def reference(e):
            if isinstance(e, (ex.Var, ex.Const)):
                return e
            if isinstance(e, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
                build = {ex.Add: ex.add, ex.Sub: ex.sub, ex.Mul: ex.mul, ex.Div: ex.div}[type(e)]
                return build(reference(e.left), reference(e.right))
            if isinstance(e, ex.Neg):
                return ex.neg(reference(e.arg))
            if isinstance(e, ex.Pow):
                return ex.powi(reference(e.base), e.exponent)
            return ex.call(e.name, reference(e.arg))

        for src in CORPUS + ["0*x0 + 1*(x1 - 0) - -(-x0)", "(2 + 3)^2 / (x0*1)^1 + sin(0)"]:
            e = ex.parse(src, 2)
            assert ex.simplify(e) == reference(e), src

    def test_deep_sum_simplifies_and_substitutes_at_any_depth(self):
        # a left-deep sum of 5000 terms, far past the default recursion limit
        n = 5000
        e = ex.ZERO
        for k in range(1, n + 1):
            e = ex.Add(e, ex.Mul(ex.const(k / n), ex.Call("sin", ex.Var(0))))
        points = [[0.3, 0.2], [1.7, -0.4]]
        k = np.arange(1, n + 1) / n
        want = [np.sum(k) * math.sin(p) for p, _ in points]
        [swapped] = ex.substitute([e], [ex.Var(1), ex.Var(0)])
        assert_allclose(ex.Tape([ex.simplify(e), swapped])(points),
                        [[w, np.sum(k) * math.sin(q)] for w, (_, q) in zip(want, points)],
                        rtol=1e-12)

    def test_substitute(self):
        e = ex.parse("x0^2 + x1", 2)
        [composed] = ex.substitute([e], [ex.parse("x0*cos(x1)", 2), ex.parse("x0*sin(x1)", 2)])
        r, t = 1.7, 0.6
        want = (r * math.cos(t)) ** 2 + r * math.sin(t)
        assert ex.evaluate(composed, (r, t)) == pytest.approx(want)

    def test_a_shared_dag_stays_shared(self):
        # 16 levels of e = e*e: 2**16 paths, 17 distinct Mul objects; each
        # walk visits an object once and shares its one result alike
        x, y, sin_x = ex.Var(0), ex.Var(1), ex.Call("sin", ex.Var(0))
        e = ex.Add(ex.Mul(ex.ONE, x), y)
        for _ in range(16):
            e = ex.Mul(e, e)
        lookups = []

        class Replacements(list):
            def __getitem__(self, i):
                lookups.append(i)
                return super().__getitem__(i)

        for out, bottom in ((ex.simplify(e), ex.Add(x, y)),
                            (ex.substitute([e], Replacements([y, sin_x]))[0], ex.Add(y, sin_x))):
            for _ in range(16):
                assert type(out) is ex.Mul and out.left is out.right
                out = out.left
            assert out == bottom
        assert lookups == [0, 1]  # one visit to each Var object

    def test_equal_subtrees_are_rebuilt_as_one_object(self):
        # two distinct but equal Mul objects share one tape slot, so the
        # rebuild returns one object on both sides
        x0, x1 = ex.Var(0), ex.Var(1)
        e = ex.Add(ex.Mul(x0, x1), ex.Mul(x0, x1))
        assert e.left is not e.right
        for out in (ex.simplify(e), *ex.substitute([e], [x0, x1])):
            assert out == e and out.left is out.right


def interpret(e, point):
    """Reference evaluator: a plain recursive walk in `math`, independent of `Tape`."""
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        return float(point[e.index])
    if isinstance(e, ex.Neg):
        return -interpret(e.arg, point)
    if isinstance(e, ex.Pow):
        return interpret(e.base, point) ** e.exponent
    if isinstance(e, ex.Call):
        return (math.log if e.name == "ln" else getattr(math, e.name))(interpret(e.arg, point))
    left, right = interpret(e.left, point), interpret(e.right, point)
    if isinstance(e, ex.Add):
        return left + right
    if isinstance(e, ex.Sub):
        return left - right
    if isinstance(e, ex.Mul):
        return left * right
    return left / right


class TestCompiled:
    @pytest.mark.parametrize("src", CORPUS)
    def test_compiled_matches_interpreter(self, src, rng):
        e = ex.parse(src, 2)
        pts = rng.uniform(0.5, 2.0, size=(20, 2))
        values = ex.Tape([e])(pts)[:, 0]
        assert values.shape == (20,)
        for p, value in zip(pts, values):
            want = interpret(e, p)
            for got in (value, ex.evaluate(e, p)):
                assert got == pytest.approx(want, rel=1e-15, abs=1e-300)

    @pytest.mark.parametrize("src,point,message,subexpr", [
        ("x1 + 1/x0", (0.0, 1.0), "division by zero", "1/x0"),
        ("x1 + x0^-2", (0.0, 1.0), "zero raised to a negative power", "x0^-2"),
        ("x1*ln(x0 - 1)", (1.0, 1.0), "logarithm of a non-positive value", "ln(x0 - 1)"),
        ("x1 - sqrt(x0)", (-0.5, 1.0), "square root of a negative value", "sqrt(x0)"),
        ("x1 + exp(exp(exp(10*x0)))", (1.0, 1.0), "non-finite value", "exp(exp(10*x0))"),
    ])
    def test_domain_error_names_subexpression(self, src, point, message, subexpr):
        e = ex.parse(src, 2)
        # the bad point sits among good ones: one point is enough to fail the batch
        pts = [(1.5, 0.5), point, (2.0, -1.0)]
        for run in (lambda: ex.Tape([e])(pts), lambda: ex.evaluate(e, point)):
            with pytest.raises(ex.DomainError, match=message) as err:
                run()
            assert f"'{subexpr}'" in str(err.value)
            assert ex.to_str(err.value.subexpr) == subexpr

    def test_each_fault_row_raises_its_message(self):
        # the rows' faults, each tested on its node's last operand
        x = ex.Var(0)
        cases = [(ex.Div(ex.ONE, x), 0.0, ex._BINARY[ex.Div].fault),
                 (ex.Pow(x, -3), 0.0, ex._NEGATIVE_POWER)]
        cases += [(ex.Call(name, x), -1.0, row.fault)
                  for name, row in ex._FUNCTIONS.items() if row.fault]
        assert [message for *_, (message, _) in cases] == [
            "division by zero", "zero raised to a negative power",
            "logarithm of a non-positive value", "square root of a negative value"]
        for e, bad, (message, _) in cases:
            assert np.isfinite(ex.Tape([e])([(2.0,)])).all()
            with pytest.raises(ex.DomainError) as err:
                ex.Tape([e])([(2.0,), (bad,)])
            assert str(err.value) == f"{message} in '{ex.to_str(e)}'"
            assert err.value.subexpr is e

    def test_overflow_blames_a_node_below_the_non_finite_root(self):
        # exp(800*x0) overflows under the finite 1/exp(800*x0); the second
        # root's own overflow is the one to name
        tape = ex.Tape([ex.parse("1/exp(800*x0)", 1), ex.parse("exp(x0)*1e308*10", 1)])
        with pytest.raises(ex.DomainError, match="non-finite value") as err:
            tape([(1.0,)])
        assert ex.to_str(err.value.subexpr) == "exp(x0)*1e+308"

    @staticmethod
    def three_ways(e, point):
        """Evaluate ``e`` at ``point`` through `evaluate`, a 3-point and a
        50-point tape, the point among good ones in the last two."""
        good = np.full(len(point), 0.75)
        pts = np.tile(good, (50, 1))
        pts[17] = point
        yield lambda: ex.evaluate(e, point)
        yield lambda: ex.Tape([e])([good, point, good])
        yield lambda: ex.Tape([e])(pts)

    @pytest.mark.parametrize("src,message,subexpr", [
        ("atan(1/x0)", "division by zero", "1/x0"),
        ("atan(ln(x0))", "logarithm of a non-positive value", "ln(x0)"),
        ("atan(x0^-2)", "zero raised to a negative power", "x0^-2"),
        ("atan(1/0) + x0", "division by zero", "1/0"),
    ])
    def test_fault_under_a_finite_root_raises(self, src, message, subexpr):
        # atan maps the fault's inf or -inf to a finite root value; 1/0 is
        # one scalar, not a column, whatever the number of points
        e = ex.parse(src, 1)
        for run in self.three_ways(e, (0.0,)):
            with pytest.raises(ex.DomainError, match=message) as err:
                run()
            assert ex.to_str(err.value.subexpr) == subexpr

    def test_non_finite_value_without_a_fault_is_overflow(self):
        e = ex.parse("1e308/x0", 1)
        for run in self.three_ways(e, (1e-10,)):
            with pytest.raises(ex.DomainError, match="overflow to a non-finite value") as err:
                run()
            assert ex.to_str(err.value.subexpr) == "1e+308/x0"

    def test_earlier_slot_wins_between_two_faults(self):
        e = ex.parse("ln(x0) + 1/x1", 2)
        for run in self.three_ways(e, (0.0, 0.0)):
            with pytest.raises(ex.DomainError, match="logarithm of a non-positive value"):
                run()

    def test_points_must_be_a_two_dimensional_array(self):
        with pytest.raises(ValueError, match=r"points must be an \(N, dim\) array"):
            ex.Tape([ex.parse("x0 + x1", 2)])(np.ones(2))

    @pytest.mark.parametrize("n", [1, 50])
    def test_tape_matches_interpreter(self, n, rng):
        # one tape over the whole corpus, so trees share slots
        trees = [ex.parse(src, 2) for src in CORPUS]
        pts = rng.uniform(0.5, 2.0, size=(n, 2))
        values = ex.Tape(trees)(pts)
        assert values.shape == (n, len(trees))
        for p, row in zip(pts, values):
            for e, got in zip(trees, row):
                assert got == pytest.approx(interpret(e, p), rel=1e-15, abs=1e-300)

    def test_field_evaluator_matches_point_queries(self, rng):
        e = ex.parse("sin(x0)*x1", 2)
        field = mf.mvf(2, {0: e, 0b11: ex.diff(e, 0)})
        pts = rng.uniform(-1.0, 1.0, size=(7, 2))
        values = ex.Tape(field.coeffs.values())(pts)
        assert values.shape == (7, 2)
        for p, row in zip(pts, values):
            assert_allclose(row, field.at(p).coeffs[[0, 0b11]], rtol=1e-15, atol=0.0)


class TestFreedSlots:
    """An array call drops each slot's value after its last reader, as its
    instruction's mask says; the roots and every DomainError text are those of
    the run that drops nothing."""

    def test_freed_roots_are_the_unfreed_ones(self, rng):
        trees = [ex.parse(src, 2) for src in CORPUS]
        tape = ex.Tape(trees + [ex.diff(e, 0) for e in trees])
        assert tape.checked
        pts = rng.uniform(0.5, 2.0, size=(40, 2))
        kept = ex._run([(fn, a, b, 0) for fn, a, b, _ in tape.program], pts.T)  # drops nothing
        got = tape(pts)
        for j, slot in enumerate(tape.roots):
            assert got[:, j].tobytes() == np.broadcast_to(kept[slot], 40).tobytes()
        # only the roots, which the call reads, outlive the run; checked slots die too
        freed = ex._run(tape.program, pts.T)
        assert {slot for slot, value in enumerate(freed) if value is not None} == set(tape.roots)

    @pytest.mark.parametrize("src", [*CORPUS, "atan(1/(x0 - x0)) + x1", "sqrt(x0)*sqrt(x0)"])
    def test_each_mask_is_the_liveness_of_the_reference_lowering(self, src):
        e = ex.parse(src, 2)
        roots = [e, ex.diff(e, 0), ex.Var(1), ex.diff(ex.diff(e, 1), 0)]
        tape = ex.Tape(roots)
        _, program, checked, slots = reference_lowering(roots)
        for slot, (fn, a, b) in enumerate(program):
            want = 0
            for bit, operand in ((1, a), (2, b)):
                # dead after this slot: an operand slot no root is and no later slot reads
                if fn is not None and operand is not None and operand not in slots and not any(
                        f is not None and operand in (x, y) for f, x, y in program[slot + 1:]):
                    want |= bit * (5 if operand in checked else 1)
            assert tape.program[slot][3] == want, (slot, program[slot])
        for fn, a, b, dead in tape.program:  # no root is ever dropped
            assert not (dead & 1 and a in slots or dead & 2 and b in slots)

    def test_the_one_point_plan_and_the_fault_rerun_drop_nothing(self, monkeypatch):
        tape = ex.Tape([self.chained(ex.parse("x1/(x0 - 1)", 2))])
        assert any(dead for *_, dead in tape.program)
        assert tape.at([0.5, 1.0]) == tape([(0.5, 1.0)])[0].tolist()
        plan, _ = tape._plan
        assert [dead for *_, dead in plan] == [0] * len(plan)
        runs = []
        run = ex._run
        monkeypatch.setattr(ex, "_run", lambda program, columns: runs.append(program) or run(
            program, columns))
        with pytest.raises(ex.DomainError, match="division by zero"):
            tape([(0.5, 1.0), (1.0, 1.0)])
        assert [program is tape.program for program in runs] == [True, False]
        assert [dead for *_, dead in runs[1]] == [0] * len(tape.program)

    @staticmethod
    def chained(e: ex.Expr) -> ex.Expr:
        """``e`` deep in a chain of 200 operations whose values die as it runs."""
        for k in range(100):
            e = ex.add(ex.mul(e, ex.Var(1)), ex.const(k + 2))
        return e

    @pytest.mark.parametrize("src,message", [
        ("1/(x0 - x0)", "division by zero in '1/(x0 - x0)'"),
        ("x1 + exp(exp(exp(10*x0)))", "overflow to a non-finite value in 'exp(exp(10*x0))'"),
        ("atan(1/(x0 - x0))", "division by zero in '1/(x0 - x0)'"),
    ])
    def test_a_fault_among_freed_slots_names_its_subexpression(self, src, message):
        # the divisor x0 - x0, and every value the overflow blame reads, is
        # freed before the screen trips; atan's quotient dies at once, and its
        # root is finite, so only the quotient's own screen, as it dies, sees it
        tape = ex.Tape([self.chained(ex.parse(src, 2))])
        with pytest.raises(ex.DomainError) as err:
            tape([(0.5, 1.5), (1.0, 1.0)])
        assert str(err.value) == message

    @staticmethod
    def traced_peak(tape: ex.Tape) -> int:
        """tracemalloc's peak, in bytes, of a call of ``tape`` on 2,000 points."""
        pts = np.ones((2000, 2))
        tracemalloc.start()
        try:
            tape(pts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_long_chain_holds_a_few_arrays(self):
        e = ex.Var(0)
        for _ in range(2000):
            e = ex.add(e, ex.Var(1))
        tape = ex.Tape([e])
        assert len(tape.program) == 2002
        column = 2000 * 8
        assert self.traced_peak(tape) < 8 * column  # unfreed, the run held 2,000 columns: 32 MB

    def test_checked_slots_die_like_any_other(self):
        e = ex.Var(0)
        for k in range(2000):
            e = ex.add(e, ex.div(ex.ONE, ex.add(ex.Var(1), ex.const(k + 1))))
        tape = ex.Tape([e])
        assert len(tape.checked) == 2000
        column = 2000 * 8
        assert self.traced_peak(tape) < 8 * column  # with the quotients kept to the screen: 64 MB


class TestOnePoint:
    """A one-point call runs on numpy scalars: it must give the bits, and the
    DomainError text, of the same point in a multi-point call."""

    @pytest.mark.parametrize("config", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_fields_at_a_point_match_the_rows_of_a_batch(self, config, rng):
        fix = load_fixture_file(FIXTURES / config)
        n = fix.dim
        a, b, c = (mf.vector(n, [ex.parse(f"{rng.uniform(-1, 1)} + x{i}*x{(i + k) % n}", n)
                                 for i in range(n)]) for k in range(3))
        pts = fix.domain.sample(6, rng)
        for field in (curvature(fix.conn, a, b, c), cartan_curvature(fix.conn, a, b),
                      torsion(fix.conn, a, b)):
            rows = ex.Tape(field.coeffs.values())(pts)
            for p, row in zip(pts, rows):
                want = np.zeros(1 << n)  # the row, written into its blades
                want[list(field.coeffs)] = row
                assert field.at(p).coeffs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("exponent", [2, -1, 1, 0, 3, -2])
    def test_powers_match_numpy_array_power(self, exponent, rng):
        e = ex.parse(f"x0^{exponent} + (x1 - x0)^{exponent}", 2)
        pts = rng.uniform(-3.0, 3.0, size=(40, 2))
        with np.errstate(all="ignore"):
            want = pts[:, 0] ** exponent + (pts[:, 1] - pts[:, 0]) ** exponent
        tape = ex.Tape([e])
        assert tape(pts)[:, 0].tobytes() == want.tobytes()
        for p, value in zip(pts, want):
            assert tape(p[None, :]).tobytes() == value.tobytes()
            assert np.float64(ex.evaluate(e, p)).tobytes() == value.tobytes()

    @pytest.mark.parametrize("srcs,point", [
        (["x1 + 1/x0"], (0.0, 1.0)),
        (["x1 + x0^-3"], (0.0, 1.0)),
        (["x1*ln(x0 - 1)"], (1.0, 1.0)),
        (["x1*ln(x0 - 1)"], (0.5, 1.0)),
        (["x1 - sqrt(x0)"], (-0.5, 1.0)),
        (["exp(800*x0)"], (1.0, 0.0)),
        (["1/exp(800*x0)", "x1 + exp(800*x0)"], (1.0, 0.0)),
    ])
    def test_faults_raise_the_text_of_a_two_point_call(self, srcs, point):
        tape = ex.Tape([ex.parse(src, 2) for src in srcs])
        texts = []
        for pts in ([point], [(1.5, 0.5), point]):
            with pytest.raises(ex.DomainError) as err:
                tape(pts)
            texts.append(str(err.value))
        assert texts[0] == texts[1]


X0, X1 = ex.Var(0), ex.Var(1)
NEG_ZERO = ex.Const(-0.0)

# every binary row (both ways round, and with a -0.0 constant on either side),
# negation, every function row, every Pow form, and faults in non-root slots
ONE_POINT_EXPRS = (
    [kind(a, b) for kind in ex._BINARY for a, b in ((X0, X1), (X1, X0), (NEG_ZERO, X0), (X0, NEG_ZERO))]
    + [ex.Neg(X0), ex.Neg(NEG_ZERO)]
    + [ex.Call(name, arg) for name in ex._FUNCTIONS for arg in (X0, ex.Div(X1, X0))]
    + [ex.Pow(base, k) for k in (2, -1, 1, 0, 3, -2) for base in (X0, ex.Sub(X0, X1))]
    + [ex.parse(src, 2) for src in ("1/x0", "x0^-1", "x1 + exp(ln(x0))", "atan(1/x0)",
                                    "1/exp(x0^-2)", "x1 - 1/(1 + exp(800*x0))",
                                    "x1 + 0*sqrt(x0)", "x0*x1 - x1*x0 + cos(x0)^2")]
)

BENIGN = (0.75, 1.25)  # a point where every expression above is finite
ONE_POINT_POINTS = [
    (0.0, 1.0), (-0.0, 1.0), (0.5, -0.0), (-0.0, -0.0), (-1.5, 2.0), (2.0, 0.25),
    (1.0, 1.0), (math.pi / 2, 3.0), (710.0, 1.0), (-710.0, 1e-300), (1e300, 1e300),
    (1e-200, 1e200), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (-math.inf, -0.0),
]


def outcome(call):
    """The bytes of call()'s float64 values, or the text of its DomainError."""
    try:
        return np.asarray(call(), dtype=float).tobytes()
    except ex.DomainError as err:
        return str(err)


class TestOnePointPlan:
    """`Tape.at`, and everything that reads it (`evaluate`,
    `MultivectorField.at`), give the bits, or the DomainError text, of the
    point's row in an array call, as a one-row array call does; and a tape
    called only on arrays never decodes the one-point plan."""

    @pytest.mark.parametrize("e", ONE_POINT_EXPRS, ids=ex.to_str)
    def test_every_row_matches_the_array_call(self, e):
        field = mf.mvf(2, {0b10: e})
        for point in ONE_POINT_POINTS:
            p = np.array(point)
            want = outcome(lambda: ex.Tape([e])(np.array([BENIGN, point]))[1])
            assert outcome(lambda: ex.Tape([e]).at(point)) == want, point
            assert outcome(lambda: ex.Tape([e])(p[None, :])[0]) == want, point
            assert outcome(lambda: [ex.evaluate(e, point)]) == want, point
            assert outcome(lambda: field.at(p).coeffs[[0b10]]) == want, point

    def test_a_fault_under_a_finite_root_raises(self):
        # finite roots at x0 = 0: a zero divisor (Python raises) or a screened slot must raise
        for src, text in (("x1 + exp(ln(x0))", "logarithm of a non-positive value in 'ln(x0)'"),
                          ("atan(1/x0)", "division by zero in '1/x0'"),
                          ("atan(x0^-1)", "zero raised to a negative power in 'x0^-1'"),
                          ("1/exp(x0^-2)", "zero raised to a negative power in 'x0^-2'")):
            tape = ex.Tape([ex.parse(src, 2)])
            for point in ((0.0, 1.0), (-0.0, 1.0)):
                with pytest.raises(ex.DomainError) as err:
                    tape.at(point)
                assert str(err.value) == text

    def test_a_negative_zero_keeps_its_sign(self):
        for src, point in (("-x0", (0.0, 1.0)), ("x0*x1", (-0.0, 1.0)), ("sqrt(x0)", (-0.0, 1.0)),
                           ("atan(x0)^1", (-0.0, 1.0)), ("x1/x0", (-1.0, 0.0))):
            value = ex.evaluate(ex.parse(src, 2), point)
            assert value == 0.0 and math.copysign(1.0, value) == -1.0, src
        tape = ex.Tape([ex.Mul(NEG_ZERO, X1), ex.Add(NEG_ZERO, X0)])  # unfolded: -0.0 is a leaf
        assert [math.copysign(1.0, v) for v in tape.at((-0.0, 2.0))] == [-1.0, -1.0]

    def test_the_plan_is_decoded_on_the_first_one_point_call_only(self, monkeypatch):
        made = []
        decode = ex.Tape._decode_plan
        monkeypatch.setattr(ex.Tape, "_decode_plan", lambda tape: made.append(tape) or decode(tape))
        tape = ex.Tape([ex.parse("x0/x1 + sin(x0)^3", 2)])
        tape(np.array([BENIGN, (1.0, 2.0)]))
        tape(np.array([[0.5, 0.5]]))  # one row runs the array program too
        assert made == [] and tape._plan is None
        tape.at(BENIGN)
        tape.at((1.0, 2.0))
        assert made == [tape]

    @pytest.mark.parametrize("config", ["sphere.json", "torsionful.json", "polar.json"])
    def test_a_suite_check_builds_no_one_point_plan(self, config, monkeypatch):
        made = []
        decode = ex.Tape._decode_plan
        monkeypatch.setattr(ex.Tape, "_decode_plan", lambda tape: made.append(tape) or decode(tape))
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)  # every row in this process
        fix = load_fixture_file(FIXTURES / config)
        checks = suites.run_fixture_checks(fix, "all", seed=1).checks
        checks += suites.run_transform_checks(
            fix, load_map_file(FIXTURES / "maps" / "polar_map.json"), seed=1).checks
        assert len(checks) > 20 and made == []


# The walks of `diff` and `Tape.__init__` as they were before each looked a
# child up once, kept as references: the new walks must build the same
# derivatives and the same tapes, slot for slot.

def reference_diff(e, i):
    """`diff` as a post-order walk that asks for every operand's stored
    derivative each time it meets the node."""
    def stored(node):
        if type(node) is ex.Var:
            return ex.ONE if node.index == i else ex.ZERO
        if type(node) is ex.Const:
            return ex.ZERO
        known = getattr(node, "_diff", None)
        return None if known is None else known.get(i)

    stack = [e]
    while stack:
        node = stack.pop()
        if stored(node) is not None:
            continue
        kind = type(node)
        if kind in (ex.Add, ex.Sub, ex.Mul, ex.Div):
            left, right = stored(node.left), stored(node.right)
            if left is None or right is None:
                stack += (node, node.right, node.left)
                continue
            d = ex._BINARY[kind].diff(node, left, right)
        else:
            child = node.base if kind is ex.Pow else node.arg
            done = stored(child)
            if done is None:
                stack += (node, child)
                continue
            d = unary_derivative(node, done)
        if getattr(node, "_diff", None) is None:
            node._diff = {}
        node._diff[i] = d
    return stored(e)


def unary_derivative(node, du):
    """The derivative of a Call (its function's row), Pow or Neg node."""
    if type(node) is ex.Call:
        return ex._FUNCTIONS[node.name].diff(node, du)
    if type(node) is ex.Pow:
        return ex.mul(ex.mul(ex.const(node.exponent), ex.powi(node.base, node.exponent - 1)), du)
    return ex.neg(du)


def reference_lowering(roots):
    """(nodes, program, checked, roots) of a tape, lowered by the walk that
    pushes both operands of a node and looks each up again on return."""
    roots = list(roots)
    nodes, program, checked = [], [], []
    slot_of, slot_by_key = {}, {}
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) in slot_of:
                continue
            kind = type(node)
            if kind in (ex.Add, ex.Sub, ex.Mul, ex.Div):
                left, right = slot_of.get(id(node.left)), slot_of.get(id(node.right))
                if left is None or right is None:
                    stack += (node, node.right, node.left)
                    continue
                key = op = (ex._BINARY[kind].op, left, right)
            elif kind is ex.Var:
                key, op = (ex.Var, node.index), (None, node.index, None)
            elif kind is ex.Const:
                key = (ex.Const, node.value, math.copysign(1.0, node.value))
                op = (None, None, np.float64(node.value))
            else:
                child = node.base if kind is ex.Pow else node.arg
                arg = slot_of.get(id(child))
                if arg is None:
                    stack += (node, child)
                    continue
                if kind is ex.Pow:
                    key, op = (ex.Pow, node.exponent, arg), (ex._power(node.exponent), arg, None)
                elif kind is ex.Call:
                    key = op = (ex._FUNCTIONS[node.name].ufunc, arg, None)
                else:
                    key = op = (operator.neg, arg, None)
            slot = slot_by_key.get(key)
            if slot is None:
                slot = slot_by_key[key] = len(program)
                program.append(op)
                nodes.append(node)
                if (kind is ex.Div or kind is ex.Pow and node.exponent < 0
                        or kind is ex.Call and node.name in ("ln", "sqrt")):
                    checked.append(slot)
            slot_of[id(node)] = slot
    return nodes, program, checked, [slot_of[id(r)] for r in roots]


def fresh_copy(e):
    """A copy of the DAG ``e`` with the same sharing and no stored derivative."""
    copies = {}
    stack = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in copies:
            continue
        kids = [getattr(node, f) for f in node.__slots__]
        pending = [k for k in kids if isinstance(k, ex.Expr) and id(k) not in copies]
        if pending and not ready:
            stack.append((node, True))
            stack.extend((k, False) for k in pending)
            continue
        copies[id(node)] = type(node)(*(copies[id(k)] if isinstance(k, ex.Expr) else k
                                        for k in kids))
    return copies[id(e)]


def assert_same_dag(a, b):
    """``a == b``, with every shared node of one shared alike in the other and
    differentiated by the same coordinates, checked in one pass over the
    distinct object pairs."""
    pairs, back = {}, {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if pairs.setdefault(id(x), y) is not y or back.setdefault(id(y), x) is not x:
            raise AssertionError(f"sharing differs at {ex.to_str(x)!r}")
        assert type(x) is type(y)
        assert (getattr(x, "_diff", None) or {}).keys() == (getattr(y, "_diff", None) or {}).keys()
        for f in x.__slots__:
            u, v = getattr(x, f), getattr(y, f)
            if isinstance(u, ex.Expr):
                if id(u) not in pairs:
                    stack.append((u, v))
                elif pairs[id(u)] is not v:
                    raise AssertionError(f"sharing differs at {ex.to_str(u)!r}")
            else:
                assert (u, math.copysign(1.0, u) if type(u) is float else 0) == (
                    v, math.copysign(1.0, v) if type(v) is float else 0)


def decoded(program):
    """The (callable, operand, operand) of each instruction of a tape program,
    each power lambda as its code and exponent, so that two lowerings compare
    with ``==``; a mask, if any, is left out."""
    return [((fn.__code__, *(c.cell_contents for c in fn.__closure__ or ()))
             if isinstance(fn, types.FunctionType) else fn, a, b) for fn, a, b, *_ in program]


def curvature_coefficient():
    """The largest coefficient of rho(a, b, c) on a curved dim-6 connection,
    built afresh from one seed."""
    rng = np.random.default_rng(6)
    entries = {tuple(int(k) for k in rng.integers(0, 6, size=3)): rand_scalar(6, rng, 2)
               for _ in range(12)}
    conn = ConnectionField.from_entries(6, entries)
    a, b, c = (rand_vector(6, rng, 2) for _ in range(3))
    rho = curvature(conn, a, b, c)
    return max(rho.coeffs.values(), key=lambda e: len(ex.Tape([e]).nodes))


class TestWalksMatchTheReferenceWalks:
    def corpus(self):
        return [ex.parse(src, 2) for src in CORPUS] + [curvature_coefficient()]

    def test_diff_builds_the_reference_derivatives(self):
        for e in self.corpus():
            for i in range(2):
                mine, theirs = fresh_copy(e), fresh_copy(e)
                d = ex.diff(mine, i)
                want = reference_diff(theirs, i)
                assert_same_dag(d, want)
                assert_same_dag(ex.diff(d, 1 - i), reference_diff(want, 1 - i))
                assert_same_dag(mine, theirs)  # the same nodes hold derivatives
                assert ex.diff(mine, i) is d

    def test_corpus_derivatives_are_equal(self):
        for src in CORPUS:
            for i in range(2):
                assert ex.diff(ex.parse(src, 2), i) == reference_diff(ex.parse(src, 2), i)

    def test_tape_lowers_slot_for_slot_as_the_reference(self):
        for e in self.corpus():
            roots = [e, ex.diff(e, 0), ex.diff(ex.diff(e, 1), 0), e, ex.ONE, ex.Var(1)]
            tape = ex.Tape(roots)
            nodes, program, checked, slots = reference_lowering(roots)
            assert len(tape.nodes) == len(nodes)
            assert all(x is y for x, y in zip(tape.nodes, nodes))
            assert decoded(tape.program) == decoded(program)
            assert (tape.checked, tape.roots) == (checked, slots)

    def test_tape_of_a_leaf_root_and_of_no_roots(self):
        assert ex.Tape([]).program == [] and ex.Tape([]).roots == []
        tape = ex.Tape([ex.Var(0), ex.Const(-0.0), ex.Const(0.0), ex.Var(0)])
        assert tape.roots == [0, 1, 2, 0]
        assert reference_lowering(tape.nodes)[1:] == (
            [instruction[:3] for instruction in tape.program], tape.checked, [0, 1, 2])


def test_import_leaves_recursion_limit_unchanged():
    code = ("import sys; before = sys.getrecursionlimit(); import gacalc; "
            "assert sys.getrecursionlimit() == before, sys.getrecursionlimit()")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
