"""Connection maps, covariant derivatives, deformation, extensor derivatives."""

import math

import numpy as np
import pytest

from gacalc import expr as ex
from gacalc import fields as mf
from gacalc.algebra import Multivector, allclose
from gacalc.connection import (
    ExtensorField11,
    ExtensorFieldK,
    cov_derivative,
    cov_derivative_extensor,
    connection_operator,
    deform,
    ext_adjoint,
    ext_det,
    ext_inverse,
    gamma_apply,
    gauge_bivector,
    generalized_apply,
    is_symmetric,
    outermorphism_apply,
    resolve11,
)
from gacalc.report import batch_residual


E1 = mf.basis(2, 0)
E2 = mf.basis(2, 1)


def max_residual(lhs, rhs, points):
    return batch_residual(mf.compiled_evaluator(lhs)(points), mf.compiled_evaluator(rhs)(points))


@pytest.fixture
def pts(polar, rng):
    return polar.domain.sample(10, rng)


class TestGammaApply:
    def test_zero_connection(self, zero2, rng):
        a = mf.vector(2, [ex.Var(0), ex.ONE])
        out = gamma_apply(zero2.conn, a, E2)
        assert allclose(out.at((0.4, -0.2)), Multivector.zero(2))

    def test_polar_value(self, polar):
        out = gamma_apply(polar.conn, E2, E2)
        assert allclose(out.at((2.0, math.pi / 4)), Multivector.from_vector([-2.0, 0.0]))

    def test_pointwise_bilinearity(self, polar, pts, rng):
        f = ex.parse("x0*x1 + 1", 2)
        g = ex.parse("sin(x1)", 2)
        a = mf.vector(2, [ex.ONE, ex.Var(0)])
        b = mf.vector(2, [ex.Var(1), ex.ONE])
        lhs = gamma_apply(polar.conn, mf.scale(f, a), mf.scale(g, b))
        rhs = mf.scale(ex.mul(f, g), gamma_apply(polar.conn, a, b))
        assert max_residual(lhs, rhs, pts) < 1e-12

    def test_requires_vector_arguments(self, polar):
        with pytest.raises(ValueError, match="vector"):
            gamma_apply(polar.conn, mf.mvf(2, {0b11: ex.ONE}), E2)


class TestGaugeBivector:
    def test_zero_connection(self, zero2):
        out = gauge_bivector(zero2.conn, E1)
        assert allclose(out.at((0.1, 0.2)), Multivector.zero(2))

    def test_polar_values(self, polar):
        p = (2.0, math.pi / 4)
        assert allclose(gauge_bivector(polar.conn, E1).at(p), Multivector.zero(2))
        assert allclose(gauge_bivector(polar.conn, E2).at(p), Multivector.blade(2, 0b11, -1.25))


class TestGeneralizedApply:
    def test_kills_scalars(self, polar, pts):
        f = mf.scalar_field(2, ex.parse("x0^2*x1", 2))
        out = generalized_apply(polar.conn, E1, f)
        assert max_residual(out, mf.mvf(2, {}), pts) == 0.0

    def test_agrees_with_gamma_on_vectors(self, polar, pts, rng):
        a = mf.vector(2, [ex.Var(1), ex.ONE])
        b = mf.vector(2, [ex.ONE, ex.Var(0)])
        assert max_residual(generalized_apply(polar.conn, a, b),
                            gamma_apply(polar.conn, a, b), pts) < 1e-13

    def test_polar_bivector_value(self, polar):
        out = generalized_apply(polar.conn, E1, mf.mvf(2, {0b11: ex.ONE}))
        assert allclose(out.at((2.0, 0.3)), Multivector.blade(2, 0b11, 0.5))


class TestCovDerivative:
    def test_zero_connection_reduces_to_flat(self, zero2, rng):
        pts = zero2.domain.sample(8, rng)
        a = mf.vector(2, [ex.ONE, ex.Var(0)])
        x = mf.mvf(2, {0b01: ex.parse("x0*x1", 2), 0b11: ex.parse("sin(x0)", 2)})
        flat = mf.directional_derivative(a, x)
        for sign in ("+", "-", "0"):
            assert max_residual(cov_derivative(zero2.conn, sign, a, x), flat, pts) == 0.0

    def test_polar_example(self, polar):
        out = cov_derivative(polar.conn, "+", E1, E2)
        assert allclose(out.at((2.0, 1.0)), Multivector.from_vector([0.0, 0.5]))

    def test_scalar_any_sign(self, polar, pts):
        f = mf.scalar_field(2, ex.parse("x0^2 + x1", 2))
        flat = mf.directional_derivative(E2, f)
        for sign in ("+", "-", "0"):
            assert max_residual(cov_derivative(polar.conn, sign, E2, f), flat, pts) < 1e-14

    def test_invalid_sign(self, polar):
        with pytest.raises(ValueError, match="invalid derivative sign"):
            cov_derivative(polar.conn, "*", E1, E2)


class TestConnectionOperator:
    def test_zero_connection_is_flat_derivative(self, zero2, rng):
        pts = zero2.domain.sample(8, rng)
        a = mf.vector(2, [ex.ONE, ex.Var(1)])
        b = mf.vector(2, [ex.parse("x0*x1", 2), ex.Var(0)])
        flat = mf.directional_derivative(a, b)
        for sign in ("+", "-"):
            assert max_residual(connection_operator(zero2.conn, sign, a, b), flat, pts) == 0.0

    def test_rejects_nonvector(self, polar):
        with pytest.raises(ValueError, match="vector"):
            connection_operator(polar.conn, "+", E1, mf.mvf(2, {0b11: ex.ONE}))


class TestSymmetry:
    def test_symmetric_fixtures(self, polar, sphere, zero2, rng):
        for fix in (polar, sphere, zero2):
            pts = fix.domain.sample(10, rng)
            assert is_symmetric(fix.conn, pts)

    def test_torsionful_detected(self, torsionful, rng):
        pts = torsionful.domain.sample(10, rng)
        assert not is_symmetric(torsionful.conn, pts)


class TestExtensorField11:
    def test_det_and_inverse(self, rng):
        t = ExtensorField11.from_matrix([[ex.parse("1 + x0^2", 2), ex.parse("x1", 2)],
                                         [ex.parse("-x1", 2), ex.ONE]])
        inv = ext_inverse(t)
        pts = rng.uniform(-0.8, 0.8, size=(10, 2))
        for p in pts:
            m = t.at(p).matrix
            got = inv.at(p).matrix
            np.testing.assert_allclose(m @ got, np.eye(2), atol=1e-12)
            assert ex.evaluate(ext_det(t), p) == pytest.approx(np.linalg.det(m))

    def test_outermorphism_scalar_and_pseudoscalar(self, rng):
        t = ExtensorField11.from_matrix([[2.0, 0.0], [0.0, ex.parse("3 + x0", 2)]])
        s = outermorphism_apply(t, mf.scalar_field(2, ex.const(4.0)))
        assert s.at((0.5, 0.5)).coeffs[0] == pytest.approx(4.0)
        ps = outermorphism_apply(t, mf.mvf(2, {0b11: ex.ONE}))
        assert ps.at((1.0, 0.0)).coeffs[0b11] == pytest.approx(8.0)  # det at x0=1

    def test_adjoint_twice_is_identity(self, rng):
        t = ExtensorField11.from_matrix([[ex.Var(0), ex.ONE], [ex.ZERO, ex.Var(1)]])
        back = ext_adjoint(ext_adjoint(t))
        assert back.entries == t.entries


class TestDeformation:
    def test_identity_map_unchanged(self, polar, pts):
        lam = ExtensorField11.identity(2)
        x = mf.mvf(2, {0b01: ex.Var(1), 0b11: ex.parse("x0", 2)})
        for sign in ("+", "-"):
            got = deform(polar.conn, lam, sign, E2, x)
            want = cov_derivative(polar.conn, sign, E2, x)
            assert max_residual(got, want, pts) < 1e-12

    def test_constant_scale_cancels(self, polar, pts):
        lam = ExtensorField11.from_matrix([[2.0, 0.0], [0.0, 2.0]])
        b = mf.vector(2, [ex.Var(1), ex.ONE])
        got = deform(polar.conn, lam, "+", E1, b)
        want = cov_derivative(polar.conn, "+", E1, b)
        assert max_residual(got, want, pts) < 1e-13

    def test_scalar_fields_see_flat_derivative(self, sphere, rng):
        pts = sphere.domain.sample(8, rng)
        lam = ExtensorField11.from_matrix([[ex.parse("1 + 0.1*x0", 2), ex.ZERO],
                                           [ex.parse("0.05*x1", 2), ex.ONE]])
        f = mf.scalar_field(2, ex.parse("x0*x1", 2))
        flat = mf.directional_derivative(E2, f)
        for sign in ("+", "-"):
            assert max_residual(deform(sphere.conn, lam, sign, E2, f), flat, pts) < 1e-12

    def test_singular_map_surfaces_domain_error(self, polar):
        # lam degenerates on the x0 = 0 hyperplane; its inverse divides by det
        lam = ExtensorField11.from_matrix([[ex.Var(0), ex.ZERO], [ex.ZERO, ex.ONE]])
        out = deform(polar.conn, lam, "+", E1, E2)
        with pytest.raises(ex.DomainError, match="division by zero"):
            out.at((0.0, 0.5))

    def test_deformed_pairing(self, sphere, rng):
        pts = sphere.domain.sample(8, rng)
        lam = ExtensorField11.from_matrix([[ex.parse("1 + 0.1*x0", 2), ex.parse("0.05*x1", 2)],
                                           [ex.ZERO, ex.parse("1 - 0.05*x0", 2)]])
        x = mf.mvf(2, {0: ex.Var(0), 0b01: ex.Var(1), 0b11: ex.ONE})
        y = mf.mvf(2, {0b01: ex.ONE, 0b10: ex.Var(0), 0b11: ex.Var(1)})
        lhs = ex.add(mf.scalar_product(deform(sphere.conn, lam, "+", E1, x), y),
                     mf.scalar_product(x, deform(sphere.conn, lam, "-", E1, y)))
        rhs = mf.directional_derivative(E1, mf.scalar_field(2, mf.scalar_product(x, y))).component(0)
        fl, fr = ex.compile_fn(lhs), ex.compile_fn(rhs)
        assert np.max(np.abs(fl(pts) - fr(pts))) < 1e-10


class TestExtensorDerivatives:
    def test_identity_extensor_plus_minus_vanishes(self, sphere, rng):
        pts = sphere.domain.sample(8, rng)
        t = ExtensorField11.identity(2)
        b = mf.vector(2, [ex.Var(1), ex.parse("sin(x0)", 2)])
        out = cov_derivative_extensor(sphere.conn, ("+", "-"), t, E2, (b,))
        assert max_residual(out, mf.mvf(2, {}), pts) < 1e-13

    def test_identity_extensor_plus_plus(self, sphere, rng):
        # reduces to minus the symmetrized connection map on vectors
        from gacalc.connection import gamma_matrix, ext_add
        pts = sphere.domain.sample(8, rng)
        t = ExtensorField11.identity(2)
        b = mf.vector(2, [ex.ONE, ex.Var(0)])
        got = cov_derivative_extensor(sphere.conn, ("+", "+"), t, E2, (b,))
        gm = gamma_matrix(sphere.conn, E2)
        sym_sum = ext_add(gm, ext_adjoint(gm))
        want = mf.scale(-1.0, sym_sum.apply(b))
        assert max_residual(got, want, pts) < 1e-12

    def test_zero_connection_reduces_to_flat_rule(self, zero2, rng):
        pts = zero2.domain.sample(8, rng)
        t = ExtensorField11.from_matrix([[ex.Var(0), ex.ONE], [ex.parse("x0*x1", 2), ex.Var(1)]])
        b = mf.vector(2, [ex.Var(1), ex.ONE])
        for signs in (("+", "+"), ("-", "0"), ("0", "-")):
            got = cov_derivative_extensor(zero2.conn, signs, t, E1, (b,))
            want = mf.sub(mf.directional_derivative(E1, t.apply(b)),
                          t.apply(mf.directional_derivative(E1, b)))
            assert max_residual(got, want, pts) < 1e-13

    def test_displayed_sign_table(self, sphere, rng):
        # the four displayed (1,1) cases: dual sign on the value, given sign inside
        pts = sphere.domain.sample(6, rng)
        t = ExtensorField11.from_matrix([[ex.Var(0), ex.ZERO], [ex.ONE, ex.Var(1)]])
        b = mf.vector(2, [ex.ONE, ex.Var(1)])
        cases = {
            ("+", "+"): ("-", "+"),
            ("+", "-"): ("+", "+"),
            ("-", "-"): ("+", "-"),
            ("-", "+"): ("-", "-"),
        }
        for signs, (outer, inner) in cases.items():
            got = cov_derivative_extensor(sphere.conn, signs, t, E2, (b,))
            want = mf.sub(cov_derivative(sphere.conn, outer, E2, t.apply(b)),
                          t.apply(cov_derivative(sphere.conn, inner, E2, b)))
            assert max_residual(got, want, pts) < 1e-12

    def test_spec_length_validated(self, sphere):
        t = ExtensorField11.identity(2)
        with pytest.raises(ValueError, match="expected 2 signs"):
            cov_derivative_extensor(sphere.conn, ("+", "+", "-"), t, E1, (E2,))
        with pytest.raises(ValueError, match="invalid derivative sign"):
            cov_derivative_extensor(sphere.conn, ("+", "x"), t, E1, (E2,))

    def test_resolve11_round_trip(self, rng):
        t = ExtensorField11.from_matrix([[ex.Var(0), ex.ONE], [ex.parse("x0*x1", 2), ex.Var(1)]])
        back = resolve11(ExtensorFieldK(2, 1, t.apply))
        pts = rng.uniform(-1, 1, size=(5, 2))
        for p in pts:
            np.testing.assert_allclose(back.at(p).matrix, t.at(p).matrix, atol=1e-14)

    def test_arity_cap(self):
        with pytest.raises(ValueError, match="arity"):
            ExtensorFieldK(2, 4, lambda *a: None)
