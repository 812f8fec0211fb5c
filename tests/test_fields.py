"""Symbolic multivector fields: derivative operators and their Leibniz rules."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gacalc import algebra as alg
from gacalc import expr as ex
from gacalc import fields as mf
from gacalc.algebra import Multivector, allclose, grade_of
from gacalc.cartan import curvature
from gacalc.connection import ExtensorField11
from gacalc.fixtures import sphere_fixture
from gacalc.report import worst_residual
from gacalc.suites import rand_mvf
from test_algebra import KEPT_GRADE, blade_mul_oracle, generators, sort_generators


def rand_poly_vf(dim, rng, degree=1):
    comps = []
    for _ in range(dim):
        e = ex.const(rng.uniform(-1, 1))
        if degree >= 1:
            for i in range(dim):
                e = ex.add(e, ex.mul(ex.const(rng.uniform(-1, 1)), ex.Var(i)))
        if degree >= 2:
            e = ex.add(e, ex.mul(ex.const(rng.uniform(-0.5, 0.5)),
                                 ex.powi(ex.Var(int(rng.integers(dim))), 2)))
        comps.append(e)
    return mf.vector(dim, comps)


def rand_poly_mvf(dim, rng):
    coeffs = {m: ex.add(ex.const(rng.uniform(-1, 1)),
                        ex.mul(ex.const(rng.uniform(-1, 1)), ex.Var(int(rng.integers(dim)))))
              for m in range(1 << dim)}
    return mf.mvf(dim, coeffs)


def max_residual(lhs, rhs, points):
    return worst_residual([(lhs, rhs)], points)


class TestBasis:
    def test_one_object_per_dim_and_index_the_frame_sum_sees(self):
        assert mf.basis(3, 1) is mf.basis(3, 1) is mf.const_frames(3, None)[0][1]

    @pytest.mark.parametrize("i", [-1, 2])
    def test_an_index_outside_the_dim_is_refused(self, i):
        with pytest.raises(ValueError, match=f"basis index {i} out of range for dim 2"):
            mf.basis(2, i)

    def test_a_dim_outside_the_documented_scope_is_refused(self):
        with pytest.raises(ValueError, match="dimension must be between 2 and 6, got 7"):
            mf.basis(7, 0)

    def test_memo_functions_share_work_across_basis_calls(self):
        conn = sphere_fixture().conn
        first = curvature(conn, mf.basis(2, 0), mf.basis(2, 1), mf.basis(2, 1))
        assert curvature(conn, mf.basis(2, 0), mf.basis(2, 1), mf.basis(2, 1)) is first


class TestFieldBasics:
    def test_eval_at_point(self):
        f = mf.mvf(2, {0b01: ex.parse("x0^2", 2), 0b10: ex.parse("sin(x1)", 2)})
        v = f.at((3.0, 0.0))
        assert_allclose(v.coeffs, [0.0, 9.0, 0.0, 0.0])

    def test_grade_bookkeeping(self):
        f = mf.mvf(2, {0: ex.ONE, 0b11: ex.Var(0)})
        assert f.grades() == {0, 2}
        assert not f.is_vector()
        assert mf.basis(2, 0).is_vector()

    def test_zero_coefficients_dropped(self):
        f = mf.mvf(2, {0b01: ex.ZERO, 0b10: ex.ONE})
        assert set(f.coeffs) == {0b10}

    def test_plain_number_zeros_dropped(self):
        f = mf.mvf(2, {0: 0.0, 0b11: 0, 0b01: ex.Var(0)})
        assert set(f.coeffs) == {0b01}
        assert f.is_vector()

    def test_blade_index_validated(self):
        with pytest.raises(ValueError, match="blade index"):
            mf.mvf(2, {7: ex.ONE})

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mf.wedge(mf.basis(2, 0), mf.basis(3, 0))


class TestDirectionalDerivative:
    def test_coefficient_partial(self):
        a = mf.basis(2, 0)
        x = mf.mvf(2, {0b10: ex.parse("x0^2", 2)})
        d = mf.directional_derivative(a, x)
        assert allclose(d.at((3.0, 0.5)), Multivector.blade(2, 0b10, 6.0))

    def test_constant_field_killed(self, rng):
        a = rand_poly_vf(2, rng)
        x = mf.constant(Multivector(2, rng.uniform(-1, 1, 4)))
        d = mf.directional_derivative(a, x)
        assert allclose(d.at((0.3, -0.7)), Multivector.zero(2), atol=1e-15)

    def test_bivector_coefficient(self):
        a = mf.basis(2, 0)
        x = mf.mvf(2, {0b11: ex.parse("sin(x0)", 2)})
        d = mf.directional_derivative(a, x)
        assert d.at((0.0, 0.0)).coeffs[0b11] == pytest.approx(1.0)

    def test_wedge_leibniz(self, rng):
        pts = rng.uniform(-1, 1, size=(10, 3))
        for _ in range(5):
            a = rand_poly_vf(3, rng)
            x, y = rand_poly_mvf(3, rng), rand_poly_mvf(3, rng)
            lhs = mf.directional_derivative(a, mf.wedge(x, y))
            rhs = mf.add(mf.wedge(mf.directional_derivative(a, x), y),
                         mf.wedge(x, mf.directional_derivative(a, y)))
            assert max_residual(lhs, rhs, pts) < 1e-10

    def test_clifford_leibniz(self, rng):
        pts = rng.uniform(-1, 1, size=(10, 2))
        for _ in range(5):
            a = rand_poly_vf(2, rng)
            x, y = rand_poly_mvf(2, rng), rand_poly_mvf(2, rng)
            lhs = mf.directional_derivative(a, mf.clifford(x, y))
            rhs = mf.add(mf.clifford(mf.directional_derivative(a, x), y),
                         mf.clifford(x, mf.directional_derivative(a, y)))
            assert max_residual(lhs, rhs, pts) < 1e-10


class TestLieBracket:
    def test_constant_fields_commute(self):
        a = mf.constant(Multivector.from_vector([1.0, 2.0]))
        b = mf.constant(Multivector.from_vector([-0.5, 3.0]))
        br = mf.lie_bracket(a, b)
        assert allclose(br.at((0.1, 0.2)), Multivector.zero(2))

    def test_componentwise_example(self):
        # [x1 e1, e2] = -e1
        a = mf.mvf(2, {0b01: ex.Var(1)})
        b = mf.basis(2, 1)
        br = mf.lie_bracket(a, b)
        assert allclose(br.at((0.7, -0.3)), Multivector.from_vector([-1.0, 0.0]))

    def test_self_bracket_vanishes(self, rng):
        a = rand_poly_vf(2, rng, degree=2)
        br = mf.lie_bracket(a, a)
        pts = rng.uniform(-1, 1, size=(10, 2))
        zero = mf.mvf(2, {})
        assert max_residual(br, zero, pts) == pytest.approx(0.0, abs=1e-14)

    def test_jacobi_identity(self, rng):
        pts = rng.uniform(-1, 1, size=(10, 2))
        zero = mf.mvf(2, {})
        for _ in range(5):
            a, b, c = (rand_poly_vf(2, rng, degree=2) for _ in range(3))
            total = mf.add(mf.add(mf.lie_bracket(a, mf.lie_bracket(b, c)),
                                  mf.lie_bracket(b, mf.lie_bracket(c, a))),
                           mf.lie_bracket(c, mf.lie_bracket(a, b)))
            assert max_residual(total, zero, pts) < 1e-9

    def test_requires_vectors(self):
        with pytest.raises(ValueError, match="vector"):
            mf.lie_bracket(mf.mvf(2, {0b11: ex.ONE}), mf.basis(2, 0))


class TestCurl:
    def test_constant_field(self):
        c = mf.constant(Multivector.from_vector([1.0, 2.0]))
        assert allclose(mf.curl(c).at((0.4, 0.5)), Multivector.zero(2))

    def test_grade_raising_example(self):
        # d_o ^ (x1 e1) = e2 ^ e1 = -e12
        c = mf.mvf(2, {0b01: ex.Var(1)})
        assert allclose(mf.curl(c).at((0.3, 0.9)), Multivector.blade(2, 0b11, -1.0))

    def test_gradient_direction_vanishes(self):
        # d_o ^ (x0 e1) = e1 ^ e1 = 0
        c = mf.mvf(2, {0b01: ex.Var(0)})
        assert allclose(mf.curl(c).at((0.3, 0.9)), Multivector.zero(2))

    def test_scalar_leibniz(self, rng):
        # d_o^(fX) = (d_o f)^X + f d_o^X
        pts = rng.uniform(-1, 1, size=(10, 3))
        for _ in range(5):
            f = ex.add(ex.const(rng.uniform(-1, 1)),
                       ex.mul(ex.const(rng.uniform(-1, 1)), ex.Var(0)))
            f = ex.add(f, ex.mul(ex.const(rng.uniform(-1, 1)), ex.Var(2)))
            x = rand_poly_mvf(3, rng)
            lhs = mf.curl(mf.scale(f, x))
            rhs = mf.add(mf.wedge(mf.gradient_field(f, 3), x), mf.scale(f, mf.curl(x)))
            assert max_residual(lhs, rhs, pts) < 1e-10


def rand_field_on(dim, rng, masks):
    """Distinct coefficients, linear in every coordinate, keyed in the order of ``masks``."""
    return mf.mvf(dim, {int(m): rand_poly_vf(dim, rng).vector_components()[0] for m in masks})


def sparse_fields_covering_every_blade(dim, rng):
    """Three sparse fields on disjoint random thirds of the blades, in shuffled order."""
    return [rand_field_on(dim, rng, part) for part in np.array_split(rng.permutation(1 << dim), 3)]


def accumulate(out, mask, sign, term):
    out[mask] = (ex.sub if sign < 0 else ex.add)(out.get(mask, ex.ZERO), term)


class TestProductsMatchOracleLoops:
    """The symbolic products and involutions read the blade table, and curl
    wedges each direction's derivative; the trees must come out as loops over
    every coefficient pair, signed by the generator-list oracle, build them:
    same keys in the same order, and structurally equal sums.  The sparse
    operands cover every blade, so a flipped sign or a reordered sum anywhere
    in the table fails."""

    PRODUCTS = {"clifford": mf.clifford, "wedge": mf.wedge,
                "left": lambda x, y: mf.contract(x, y, "left"),
                "right": lambda x, y: mf.contract(x, y, "right")}

    @staticmethod
    def assert_same_tree(got, want):
        assert list(got.coeffs.items()) == list(want.coeffs.items())

    @pytest.mark.parametrize("kind", ["clifford", "wedge", "left", "right"])
    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_products(self, dim, kind, rng):
        y = rand_field_on(dim, rng, rng.permutation(1 << dim))
        for x in sparse_fields_covering_every_blade(dim, rng):
            dense = {}
            for a, ca in x.coeffs.items():
                for b, cb in y.coeffs.items():
                    mask, sign = blade_mul_oracle(a, b)
                    if (kind == "clifford"
                            or grade_of(mask) == KEPT_GRADE[kind](grade_of(a), grade_of(b))):
                        accumulate(dense, mask, sign, ex.mul(ca, cb))
            self.assert_same_tree(self.PRODUCTS[kind](x, y), mf.mvf(dim, dense))

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_curl(self, dim, rng):
        # x0 x1 + x1 x2 + ... + x(n-1) x0 on every blade: no derivative of it folds to a constant
        ring = ex.total(ex.mul(ex.Var(i), ex.Var((i + 1) % dim)) for i in range(dim))
        curved = mf.mvf(dim, {m: ring for m in range(1 << dim)})
        for x in sparse_fields_covering_every_blade(dim, rng) + [curved]:
            dense = {}
            for i in range(dim):  # the frame sum's order: direction outer
                for m, c in x.coeffs.items():
                    mask, sign = blade_mul_oracle(1 << i, m)
                    if grade_of(mask) == grade_of(m) + 1:
                        # the frame sum adds each direction's one-term wedge, -c
                        # where the sign is -1, through fields.add
                        term = ex.diff(c, i)
                        dense[mask] = ex.add(dense.get(mask, ex.ZERO),
                                             ex.neg(term) if sign < 0 else term)
            self.assert_same_tree(mf.curl(x), mf.mvf(dim, dense))

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_involute(self, dim, rng):
        for x in sparse_fields_covering_every_blade(dim, rng):
            for kind in ("hat", "tilde", "bar"):
                dense = {}
                for m, c in x.coeffs.items():
                    gens = generators(m)
                    hat, tilde = (-1) ** len(gens), sort_generators(gens[::-1])[1]
                    sign = {"hat": hat, "tilde": tilde, "bar": hat * tilde}[kind]
                    dense[m] = ex.neg(c) if sign < 0 else c
                self.assert_same_tree(mf.involute(x, kind), mf.mvf(dim, dense))


class TestProductsMatchTheNumericAlgebra:
    """Known answers for the symbolic operations: each one, evaluated at a
    sampled point, is `algebra`'s numeric operation on its arguments' values
    there.  Two implementations meet, so a term dropped or mis-signed on
    either side, blade 0 included, fails."""

    BINARY = {
        "wedge": (mf.wedge, alg.wedge),
        "clifford": (mf.clifford, alg.clifford),
        "contract-left": (lambda x, y: mf.contract(x, y, "left"),
                          lambda x, y: alg.contraction(x, y, "left")),
        "contract-right": (lambda x, y: mf.contract(x, y, "right"),
                           lambda x, y: alg.contraction(x, y, "right")),
        "commutator": (mf.commutator, alg.commutator),
    }

    @staticmethod
    def draw(dim):
        rng = np.random.default_rng(1000 + dim)
        x, y = rand_mvf(dim, rng), rand_mvf(dim, rng)
        return x, y, rng.uniform(-1.5, 1.5, size=(3, dim))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_products(self, dim):
        x, y, points = self.draw(dim)
        for name, (symbolic, numeric) in self.BINARY.items():
            field = symbolic(x, y)
            for p in points:
                assert_allclose(field.at(p).coeffs, numeric(x.at(p), y.at(p)).coeffs,
                                rtol=1e-12, atol=1e-12, err_msg=name)
        product = mf.scalar_product(x, y)
        for p in points:
            assert_allclose(ex.evaluate(product, p), alg.scalar_product(x.at(p), y.at(p)),
                            rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_involutions_and_grade_projections(self, dim):
        x, _, points = self.draw(dim)
        unary = {kind: (lambda f, k=kind: mf.involute(f, k), lambda v, k=kind: alg.involution(v, k))
                 for kind in alg.INVOLUTIONS}
        unary.update({f"grade-{k}": (lambda f, k=k: mf.grade_project(f, k),
                                     lambda v, k=k: alg.grade_project(v, k))
                      for k in range(dim + 1)})
        for name, (symbolic, numeric) in unary.items():
            field = symbolic(x)
            for p in points:
                assert_allclose(field.at(p).coeffs, numeric(x.at(p)).coeffs,
                                rtol=1e-12, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("entry", ["field", "extensor", "box"])
@pytest.mark.parametrize("point, message", [
    ((0.5, 0.25, 9.0), "point has 3 coordinates, expected 2"),
    ((0.5,), "point has 1 coordinates, expected 2"),
], ids=["too-long", "too-short"])
def test_a_point_of_the_wrong_length_is_refused(entry, point, message):
    x = ex.add(ex.Var(0), ex.Var(1))
    query = {"field": mf.vector(2, [x, ex.ONE]).at,
             "extensor": ExtensorField11(2, ((x, ex.ZERO), (ex.ZERO, x))).at,
             "box": mf.Box((0.0, 0.0), (1.0, 1.0)).contains}[entry]
    with pytest.raises(ValueError) as err:
        query(point)
    assert str(err.value) == message


def test_a_tape_ignores_a_long_point_that_a_field_refuses():
    # a tape has no dim: it reads x0 and x1 and ignores the rest; the field has one
    x = ex.add(ex.Var(0), ex.Var(1))
    assert ex.evaluate(x, (0.5, 0.25, 9.0)) == 0.75
    with pytest.raises(ValueError, match="point has 3 coordinates, expected 2"):
        mf.scalar_field(2, x).at((0.5, 0.25, 9.0))


class TestBox:
    def test_sampling_respects_bounds_and_exclusions(self, rng):
        box = mf.Box((0.0, -1.0), (2.0, 1.0), exclusions=((0, 1.0),), margin=0.1)
        pts = box.sample(200, rng)
        assert pts.shape == (200, 2)
        assert (pts[:, 0] > 0.0).all() and (pts[:, 0] < 2.0).all()
        assert (np.abs(pts[:, 0] - 1.0) > 0.1).all()

    def test_contains(self):
        box = mf.Box((0.0,), (1.0,), exclusions=((0, 0.5),), margin=0.05)
        assert box.contains((0.2,))
        assert not box.contains((0.5,))
        assert not box.contains((1.5,))

    @pytest.mark.parametrize("exclusions,margin", [
        (((0, 0.5),), 1.0),
        (((0, 0.2), (0, 0.7)), 0.3),
        (((1, 0.5),), 0.5),
    ])
    def test_box_with_a_covered_axis_rejected(self, exclusions, margin):
        with pytest.raises(ValueError, match="cover all of axis"):
            mf.Box((0.0, 0.0), (1.0, 1.0), exclusions=exclusions, margin=margin)

    def test_narrow_gap_between_exclusions_kept(self, rng):
        box = mf.Box((0.0, 0.0), (1.0, 1.0), exclusions=((0, 0.2), (0, 0.7), (0, 1.0)),
                     margin=0.24)
        assert (np.abs(box.sample(20, rng)[:, 0] - 0.45) <= 0.01).all()

    @pytest.mark.parametrize("lo,hi", [
        ((float("nan"), 0.0), (1.0, 1.0)),
        ((0.0, 0.0), (1.0, float("inf"))),
        ((float("-inf"), 0.0), (1.0, 1.0)),
    ])
    def test_non_finite_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="box bounds must be finite"):
            mf.Box(lo, hi)

    def test_seeded_sampling_is_deterministic(self):
        box = mf.Box((0.0, 0.0), (1.0, 1.0))
        a = box.sample(5, np.random.default_rng(42))
        b = box.sample(5, np.random.default_rng(42))
        assert_allclose(a, b)

    @pytest.mark.parametrize("dim", [2, 3, 6])
    @pytest.mark.parametrize("exclusions", [(), ((0, 0.1),), ((0, 0.1), (-1, -0.3))])
    def test_sampling_draws_as_one_try_at_a_time(self, dim, exclusions):
        # one block per shortfall: the same points, then the same next draw
        exclusions = tuple((axis % dim, v) for axis, v in exclusions)
        box = mf.Box([-1.0] * dim, [1.0] * dim, exclusions=exclusions, margin=0.4)
        for seed in range(10):
            for count in (1, 7, 50):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                got, want = box.sample(count, a), sample_one_try_at_a_time(box, count, b)
                assert got.shape == want.shape == (count, dim)
                assert got.tobytes() == want.tobytes()
                assert a.random() == b.random()

    @pytest.mark.parametrize("margin,count", [(0.999999, 3), (0.9995, 40)])
    def test_giving_up_draws_as_one_try_at_a_time(self, margin, count):
        box = mf.Box((-1.0, -1.0), (1.0, 1.0), exclusions=((0, 0.0),), margin=margin)
        errors = []
        for sample in (box.sample, lambda n, rng: sample_one_try_at_a_time(box, n, rng)):
            rng = np.random.default_rng(3)
            with pytest.raises(ValueError) as err:
                sample(count, rng)
            errors.append((str(err.value), rng.random()))
        assert errors[0] == errors[1]
        assert errors[0][0].endswith(f"of {count} points in {mf.SAMPLE_TRIES * count} tries: "
                                     "the exclusions leave too little of the box")


def sample_one_try_at_a_time(box, count, rng):
    """`Box.sample` as one uniform draw and one exclusion test per try."""
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    out = []
    tries = 0
    while len(out) < count:
        if tries == mf.SAMPLE_TRIES * count:
            raise ValueError(f"drew {len(out)} of {count} points in {tries} tries: "
                             "the exclusions leave too little of the box")
        tries += 1
        p = rng.uniform(lo, hi)
        if all(abs(p[axis] - value) > box.margin for axis, value in box.exclusions):
            out.append(p)
    return np.array(out)
