"""`report.worst_residual`: one tape per call, the same residuals as pair by pair."""

import numpy as np
import pytest

from gacalc import expr as ex
from gacalc import fields as mf
from gacalc.connection import cov_derivative, generalized_apply
from gacalc.report import CHUNK, worst_residual
from gacalc.suites import rand_scalar, rand_vector


def pair_by_pair(pairs, points):
    """Each pair on two tapes of its own, scored by the rule written out: at each
    point, max|l - r| / max(1, max|l|, max|r|) over a field pair's 2**dim
    coefficients or a scalar pair's two values; the worst over pairs and
    points, NaN winning."""
    worst = 0.0
    for lhs, rhs in pairs:
        lhs_values, rhs_values = values(lhs, points), values(rhs, points)
        gap = np.max(np.abs(lhs_values - rhs_values), axis=1)
        scale = np.maximum(np.max(np.abs(lhs_values), axis=1), np.max(np.abs(rhs_values), axis=1))
        worst = np.max([worst, np.max(gap / np.maximum(1.0, scale))])
    return float(worst)


def values(x, points):
    """A field's (N, 2**dim) coefficients, or a scalar's (N, 1) values, on a tape of its own."""
    if not isinstance(x, mf.MultivectorField):
        return ex.Tape([x])(points)
    out = np.zeros((len(points), 1 << x.dim))
    out[:, list(x.coeffs)] = ex.Tape(x.coeffs.values())(points)
    return out


@pytest.fixture
def tapes(monkeypatch):
    """The number of `expr.Tape` objects built so far."""
    built = []

    class Counted(ex.Tape):
        def __init__(self, roots):
            built.append(self)
            super().__init__(roots)

    monkeypatch.setattr(ex, "Tape", Counted)
    return built


def field_pairs(conn, rng):
    """Pairs that share subtrees, pairs with no coefficients and pairs on disjoint blades."""
    dim = conn.dim
    a = rand_vector(dim, rng, degree=2)
    x = mf.mvf(dim, {mask: rand_scalar(dim, rng, degree=2) for mask in range(1 << dim)})
    plus = cov_derivative(conn, "+", a, x)
    yield plus, mf.add(mf.directional_derivative(a, x), generalized_apply(conn, a, x))
    yield plus, cov_derivative(conn, "-", a, x)
    yield mf.mvf(dim, {}), mf.mvf(dim, {})
    yield mf.mvf(dim, {}), mf.grade_project(plus, 1)
    yield mf.grade_project(plus, 0), mf.grade_project(plus, 2)


def scalar_pairs(conn, rng):
    dim = conn.dim
    a, b = rand_vector(dim, rng), rand_vector(dim, rng)
    dot = mf.scalar_product(a, b)
    yield dot, mf.scalar_product(b, a)
    yield ex.diff(dot, 0), ex.mul(dot, ex.Var(1))
    yield ex.ONE, ex.ZERO
    yield ex.call("sin", dot), dot


class TestWorstResidual:
    @pytest.mark.parametrize("kind", ["fields", "scalars", "mixed"])
    @pytest.mark.parametrize("name", ["polar", "sphere", "torsionful"])
    def test_one_tape_gives_the_pair_by_pair_residual(self, request, tapes, kind, name):
        fix = request.getfixturevalue(name)
        conn = fix.conn
        rng = np.random.default_rng(11)
        points = fix.domain.sample(13, rng)
        build = {"fields": [field_pairs], "scalars": [scalar_pairs],
                 "mixed": [field_pairs, scalar_pairs, field_pairs]}[kind]
        corpus = [pair for make in build for pair in make(conn, rng)]
        want = pair_by_pair(corpus, points)
        del tapes[:]
        got = worst_residual((pair for pair in corpus), points)  # a generator, as suites pass
        assert got == want
        assert len(tapes) == 1
        for lhs, rhs in corpus:  # and pair by pair
            assert worst_residual([(lhs, rhs)], points) == pair_by_pair([(lhs, rhs)], points)

    @pytest.mark.parametrize("name", ["polar", "sphere"])
    def test_points_past_one_chunk_give_the_pair_by_pair_residual(self, request, tapes, name):
        fix = request.getfixturevalue(name)
        rng = np.random.default_rng(17)
        points = fix.domain.sample(2 * CHUNK + 5, rng)  # three chunks, the last of 5 points
        corpus = [pair for make in (field_pairs, scalar_pairs) for pair in make(fix.conn, rng)]
        want = pair_by_pair(corpus, points)
        del tapes[:]
        assert worst_residual(iter(corpus), points) == want
        assert len(tapes) == 1

    def test_the_worst_point_may_sit_in_the_last_chunk(self):
        points = np.zeros((2 * CHUNK + 1, 1))
        points[-1] = 0.5
        assert worst_residual([(ex.Var(0), ex.ZERO)], points) == 0.5

    @pytest.mark.parametrize("name", ["polar", "sphere", "torsionful"])
    def test_a_scalar_pair_scores_as_a_one_blade_field_pair(self, request, name):
        fix = request.getfixturevalue(name)
        rng = np.random.default_rng(5)
        points = fix.domain.sample(13, rng)
        for lhs, rhs in scalar_pairs(fix.conn, rng):  # ONE against ZERO: a blade on one side
            wrapped = mf.scalar_field(fix.dim, lhs), mf.scalar_field(fix.dim, rhs)
            assert worst_residual([(lhs, rhs)], points) == worst_residual([wrapped], points)

    def test_a_pair_with_blades_on_one_side_only(self):
        points = np.array([[0.5, -2.0], [0.25, 0.5], [-3.0, 0.0]])
        x0, x1 = ex.Var(0), ex.Var(1)
        # at each point max(|x0|, |x1|) / max(1, |x0|, |x1|): 1, 0.5 and 1
        disjoint = mf.mvf(2, {0b01: x0}), mf.mvf(2, {0b10: x1})
        assert worst_residual([disjoint], points[1:2]) == 0.5
        assert worst_residual([disjoint], points) == 1.0
        # one side empty: max|x0 x1| / max(1, |x0 x1|) is 0.125 at the second point
        one_sided = mf.mvf(2, {}), mf.mvf(2, {0b11: ex.mul(x0, x1)})
        assert worst_residual([one_sided], points[1:2]) == 0.125
        assert worst_residual([one_sided[::-1]], points[1:2]) == 0.125
        for pair in (disjoint, one_sided, one_sided[::-1]):
            assert worst_residual([pair], points) == pair_by_pair([pair], points)

    def test_a_pair_of_empty_fields_scores_0(self):
        points = np.array([[0.5, -2.0], [0.25, 0.5]])
        empty = mf.mvf(2, {}), mf.mvf(2, {})
        assert worst_residual([empty], points) == 0.0
        assert worst_residual([empty, (ex.const(0.5), ex.ZERO), empty], points) == 0.5

    def test_no_pairs_give_0(self, tapes):
        assert worst_residual(iter(()), np.zeros((4, 2))) == 0.0
        assert len(tapes) == 1

    def test_each_blade_is_its_lhs_root_then_its_rhs_root(self, tapes):
        # pair after pair, blade after blade: the lhs coefficient, then the rhs
        # one, a side without the blade reading the constant 0
        x0, x1, x2 = ex.Var(0), ex.Var(1), ex.Var(2)
        a, b, c, d = x0, x1, x2, ex.mul(x0, x1)
        e, f = ex.call("sin", x2), ex.add(x1, x2)
        fields = mf.mvf(3, {0b001: a, 0b010: b}), mf.mvf(3, {0b010: c, 0b100: d})
        worst_residual([fields, (e, f)], np.zeros((2, 3)))
        (tape,) = tapes
        assert [tape.nodes[slot] for slot in tape.roots] == [a, ex.ZERO, b, c, ex.ZERO, d, e, f]

    def test_overflow_in_a_later_pair_is_named_there(self):
        # the first pair is finite though exp(800*x0) overflows inside it
        first = (ex.parse("1/exp(800*x0)", 1), ex.ZERO)
        second = (ex.parse("exp(x0)*1e308*10", 1), ex.ONE)
        with pytest.raises(ex.DomainError, match="non-finite value") as err:
            worst_residual([first, second], np.array([[1.0], [0.5]]))
        assert ex.to_str(err.value.subexpr) == "exp(x0)*1e+308"
