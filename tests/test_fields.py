"""Symbolic multivector fields: derivative operators and their Leibniz rules."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gacalc import expr as ex
from gacalc import fields as mf
from gacalc.algebra import Multivector, allclose
from gacalc.report import batch_residual


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
    return batch_residual(mf.compiled_evaluator(lhs)(points), mf.compiled_evaluator(rhs)(points))


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

    def test_seeded_sampling_is_deterministic(self):
        box = mf.Box((0.0, 0.0), (1.0, 1.0))
        a = box.sample(5, np.random.default_rng(42))
        b = box.sample(5, np.random.default_rng(42))
        assert_allclose(a, b)
