"""Connection maps, covariant derivatives, deformation, extensor derivatives."""

import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from gacalc import bridge
from gacalc import expr as ex
from gacalc import fields as mf
from gacalc.algebra import Frame, LinearMap11, Multivector, allclose, outermorphism
from gacalc.cartan import (
    cartan_connection,
    cartan_curvature,
    cartan_torsion,
    curvature,
    first_structure_rhs,
    invert_cartan_curvature,
    invert_cartan_torsion,
    second_structure_rhs,
    torsion,
)
from gacalc.connection import (
    SIGNS,
    ConnectionField,
    ExtensorField11,
    asymmetry,
    cov_derivative,
    cov_derivative_extensor,
    deform,
    extensor_cov_derivative,
    ext_adjoint,
    ext_det,
    ext_inverse,
    gamma_apply,
    gamma_matrix,
    gauge_bivector,
    generalized_adjoint_apply,
    generalized_apply,
    outermorphism_apply,
)
from gacalc.fixtures import load_fixture_file, zero_fixture
from gacalc.report import worst_residual
from gacalc.suites import rand_ext11, rand_lambda, rand_scalar, rand_vector

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
SPHERE3 = FIXTURES / "sphere3_metric.json"


E1 = mf.basis(2, 0)
E2 = mf.basis(2, 1)


def max_residual(lhs, rhs, points):
    return worst_residual([(lhs, rhs)], points)


def rand_map(dim, rng):
    """A non-singular map with non-polynomial entries: identity plus small waves.

    Every off-diagonal entry is below 0.16 in size and every diagonal one
    above 0.84, so the matrix is strictly diagonally dominant everywhere.
    """
    return ExtensorField11.from_matrix(
        [[ex.add(ex.const(float(i == j) + rng.uniform(-0.08, 0.08)),
                 ex.mul(ex.const(rng.uniform(-0.08, 0.08)), ex.call("sin", ex.Var((i + j) % dim))))
          for j in range(dim)] for i in range(dim)])


# The recursive first-row cofactor expansion the minor table replaced, kept
# as the oracle for the trees the table builds.

def cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = ex.ZERO
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = ex.mul(m[0][j], cofactor_det(minor))
        total = ex.add(total, term if j % 2 == 0 else ex.neg(term))
    return total


def cofactor_inverse(m):
    n = len(m)
    det = cofactor_det(m)
    inv = [[ex.ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(m) if k != j]
            cof = cofactor_det(minor) if minor else ex.ONE
            inv[i][j] = ex.div(ex.neg(cof) if (i + j) % 2 else cof, det)
    return inv


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


class TestSymmetry:
    """`asymmetry` decides from the expressions alone: a pair is symmetric when
    its two trees share one tape slot or differ by a constant within
    `SYMMETRY_TOL`; a larger constant is proved torsion, and any other pair of
    different expressions is not proved symmetric.  Nothing is evaluated."""

    def test_symmetric_fixtures(self, polar, sphere, zero2):
        for fix in (polar, sphere, zero2):
            assert asymmetry(fix.conn) is None

    def test_torsionful_detected(self, torsionful):
        assert asymmetry(torsionful.conn) == ((0, 0, 1), True)

    def test_same_answer_as_a_check_per_pair_on_every_shipped_fixture(self):
        def per_pair(conn, tol=1e-10):
            """Each pair by structural equality or a folded constant difference."""
            n = conn.dim
            for g in range(n):
                for a in range(n):
                    for b in range(a + 1, n):
                        ab, ba = conn.gamma[g][a][b], conn.gamma[g][b][a]
                        d = ex.sub(ab, ba)
                        if ab != ba and not (isinstance(d, ex.Const) and abs(d.value) <= tol):
                            return False
            return True

        answers = {}
        for path in sorted(FIXTURES.glob("*.json")):
            conn = load_fixture_file(path).conn
            answers[path.stem] = asymmetry(conn) is None
            assert answers[path.stem] == per_pair(conn), path.name
        assert answers == {"cylindrical3_from_zero": True, "polar": True, "polar_from_zero": True,
                           "sphere": True, "sphere3_metric": True, "sphere_metric": True,
                           "torsionful": False, "zero": True}
        # an asymmetry no sample decides: G^0_{01} = x0 against G^0_{10} = 0 is 0 on x0 = 0
        varying = ConnectionField.from_entries(2, {(0, 0, 1): ex.Var(0)})
        assert asymmetry(varying) == ((0, 0, 1), False)
        assert per_pair(varying) is False

    def test_asymmetry_names_the_pair_and_whether_it_is_proved(self, torsionful):
        varying = ConnectionField.from_entries(2, {(0, 0, 1): ex.Var(0), (1, 0, 1): ex.Var(1)})
        assert asymmetry(varying) == ((0, 0, 1), False)  # the first pair in index order
        # a constant difference decides first, wherever it stands
        mixed = ConnectionField.from_entries(2, {(0, 0, 1): ex.Var(0), (1, 0, 1): ex.ONE})
        assert asymmetry(mixed) == ((1, 0, 1), True)
        assert asymmetry(ConnectionField.zero(2)) is None

    def test_a_constant_difference_within_the_bound_is_symmetric(self):
        near = ConnectionField.from_entries(2, {(0, 0, 1): ex.const(1.0),
                                                (0, 1, 0): ex.const(1.0 + 1e-12)})
        assert asymmetry(near) is None
        signed = ConnectionField.from_entries(2, {(0, 0, 1): ex.const(-0.0)})
        assert asymmetry(signed) is None  # -0.0 against 0.0: two slots, difference 0

    def test_equal_trees_are_symmetric_with_no_evaluation(self):
        # two distinct sqrt(x0 - 2) trees: evaluated at (0.5, 0.5) they would
        # meet sqrt of a negative value, but equal trees share one tape slot
        twin = [ex.parse("sqrt(x0 - 2)", 2) for _ in range(2)]
        assert twin[0] is not twin[1]
        conn = ConnectionField.from_entries(2, {(0, 0, 1): twin[0], (0, 1, 0): twin[1]})
        assert asymmetry(conn) is None
        with pytest.raises(ex.DomainError, match="square root of a negative value"):
            ex.Tape(twin)(np.array([[0.5, 0.5]]))

    def test_equal_values_written_differently_are_not_proved_symmetric(self):
        # cos/sin against 1/tan: equal wherever both are defined, but no fold shows it
        conn = ConnectionField.from_entries(2, {(1, 0, 1): ex.parse("cos(x0)/sin(x0)", 2),
                                                (1, 1, 0): ex.parse("1/tan(x0)", 2)})
        assert asymmetry(conn) == ((1, 0, 1), False)


class TestExtensorField11:
    def test_det_and_inverse(self, rng):
        t = ExtensorField11.from_matrix([[ex.parse("1 + x0^2", 2), ex.parse("x1", 2)],
                                         [ex.parse("-x1", 2), ex.ONE]])
        for t in [t] + [rand_map(dim, rng) for dim in range(2, 7)]:
            inv, det = ext_inverse(t), ext_det(t)
            for p in rng.uniform(-0.8, 0.8, size=(10, t.dim)):
                m = t.at(p).matrix
                got = inv.at(p).matrix
                np.testing.assert_allclose(m @ got, np.eye(t.dim), atol=1e-12)
                np.testing.assert_allclose(got, np.linalg.inv(m), rtol=1e-12, atol=1e-13)
                assert ex.evaluate(det, p) == pytest.approx(np.linalg.det(m), rel=1e-12)

    def test_det_and_inverse_trees_are_the_cofactor_expansion(self, rng):
        for dim in range(1, 7):
            t = rand_map(dim, rng) if dim > 1 else ExtensorField11.from_matrix([[ex.Var(0)]])
            assert ext_det(t) == cofactor_det(t.entries)
            assert ext_inverse(t).entries == tuple(map(tuple, cofactor_inverse(t.entries)))

    @pytest.mark.parametrize("metric", ["sphere_metric", "sphere3_metric", "random4"])
    def test_levi_civita_trees_match_the_cofactor_formula(self, metric, monkeypatch):
        if metric == "random4":  # a symmetric polynomial metric, 2 I plus small quadratics
            rng, n = np.random.default_rng(7), 4
            g = [[ex.ZERO] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = ex.add(ex.const(2.0 * (i == j)),
                                               ex.mul(ex.const(0.1), rand_scalar(n, rng, 2)))
        else:
            cfg = json.loads((FIXTURES / f"{metric}.json").read_text())
            n = cfg["dim"]
            g = [[ex.parse(c, n) for c in row] for row in cfg["connection"]["matrix"]]
        assert ext_inverse(ExtensorField11(n, g)).entries == tuple(map(tuple, cofactor_inverse(g)))
        got = bridge.levi_civita_from_metric(g)
        monkeypatch.setattr(bridge, "ext_inverse",
                            lambda t: ExtensorField11(t.dim, cofactor_inverse(t.entries)))
        want = bridge.levi_civita_from_metric(g)
        assert got.gamma == want.gamma

    def test_at_is_one_tape_with_per_entry_values(self, rng):
        dim = 6
        t = ExtensorField11.from_matrix([[ex.parse(f"sin(x{i})*x{j} + {i - 0.25 * j}", dim)
                                          for j in range(dim)] for i in range(dim)])
        for p in rng.uniform(-1.0, 1.0, size=(10, dim)):
            want = np.array([[ex.evaluate(c, p) for c in row] for row in t.entries])
            assert t.at(p).matrix.tobytes() == want.tobytes()
        assert t._tape is t._tape  # lowered once

    @pytest.mark.parametrize("fault", ["ln(x0 - x1)", "sqrt(x0 - x1)", "1/(x1 - 0.5)",
                                       "x0^-2", "exp(1500*x1)", "exp(1500*x1) - exp(1500*x1)"])
    @pytest.mark.parametrize("where", [(0, 0), (1, 0), (1, 1)])
    def test_at_raises_the_faulting_entry_error(self, fault, where):
        rows = [[ex.parse("1 + x0", 2), ex.parse("sin(x1)", 2)], [ex.parse("x0*x1", 2), ex.ONE]]
        rows[where[0]][where[1]] = ex.parse(fault, 2)
        t = ExtensorField11.from_matrix(rows)
        p = (0.0, 0.5)
        with pytest.raises(ex.DomainError) as want:
            ex.evaluate(rows[where[0]][where[1]], p)
        with pytest.raises(ex.DomainError) as got:
            t.at(p)
        assert str(got.value) == str(want.value)

    def test_outermorphism_scalar_and_pseudoscalar(self, rng):
        t = ExtensorField11.from_matrix([[2.0, 0.0], [0.0, ex.parse("3 + x0", 2)]])
        s = outermorphism_apply(t, mf.scalar_field(2, ex.const(4.0)))
        assert s.at((0.5, 0.5)).coeffs[0] == pytest.approx(4.0)
        ps = outermorphism_apply(t, mf.mvf(2, {0b11: ex.ONE}))
        assert ps.at((1.0, 0.0)).coeffs[0b11] == pytest.approx(8.0)  # det at x0=1

    def test_outermorphism_round_trip_and_pseudoscalar(self, rng):
        for dim in range(2, 7):
            lam = rand_map(dim, rng)
            pts = rng.uniform(-0.8, 0.8, size=(3, dim))
            maps = [LinearMap11(dim, lam.at(p).matrix) for p in pts]
            inverses = [LinearMap11(dim, np.linalg.inv(m.matrix)) for m in maps]
            for blade in range(1 << dim):
                x = mf.mvf(dim, {blade: ex.ONE})
                numeric = Multivector.blade(dim, blade, 1.0)
                inv_x = outermorphism_apply(lam, x, True)  # Jacobi's complementary minors
                lam_x = outermorphism_apply(lam, x)  # the compound matrix
                for field, linear_maps in ((inv_x, inverses), (lam_x, maps)):
                    got = np.zeros((len(pts), 1 << dim))
                    got[:, list(field.coeffs)] = ex.Tape(field.coeffs.values())(pts)
                    want = [outermorphism(m, numeric).coeffs for m in linear_maps]
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
                for back in (outermorphism_apply(lam, inv_x),
                             outermorphism_apply(lam, lam_x, True)):
                    assert worst_residual([(back, x)], pts) < 1e-12
            full = (1 << dim) - 1
            assert outermorphism_apply(lam, mf.mvf(dim, {full: ex.ONE})).coeffs == {full: ext_det(lam)}
            scalar = mf.scalar_field(dim, ex.Var(0))  # grade 0 passes both ways untouched
            assert outermorphism_apply(lam, scalar, True).coeffs == {0: ex.Var(0)}
            assert outermorphism_apply(lam, scalar).coeffs == {0: ex.Var(0)}

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
        values = ex.Tape([lhs, rhs])(pts)
        assert np.max(np.abs(values[:, 0] - values[:, 1])) < 1e-10


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
        want = mf.scale(-1.0, sym_sum(b))
        assert max_residual(got, want, pts) < 1e-12

    def test_zero_connection_reduces_to_flat_rule(self, zero2, rng):
        pts = zero2.domain.sample(8, rng)
        t = ExtensorField11.from_matrix([[ex.Var(0), ex.ONE], [ex.parse("x0*x1", 2), ex.Var(1)]])
        b = mf.vector(2, [ex.Var(1), ex.ONE])
        for signs in (("+", "+"), ("-", "0"), ("0", "-")):
            got = cov_derivative_extensor(zero2.conn, signs, t, E1, (b,))
            want = mf.sub(mf.directional_derivative(E1, t(b)),
                          t(mf.directional_derivative(E1, b)))
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
            want = mf.sub(cov_derivative(sphere.conn, outer, E2, t(b)),
                          t(cov_derivative(sphere.conn, inner, E2, b)))
            assert max_residual(got, want, pts) < 1e-12

    def test_spec_length_validated(self, sphere):
        t = ExtensorField11.identity(2)
        with pytest.raises(ValueError, match="expected 2 signs"):
            cov_derivative_extensor(sphere.conn, ("+", "+", "-"), t, E1, (E2,))
        with pytest.raises(ValueError, match="invalid derivative sign"):
            cov_derivative_extensor(sphere.conn, ("+", "x"), t, E1, (E2,))

    def test_matrix_columns_are_the_values_on_the_frame(self, sphere):
        # column j of the derivative as a matrix is the derivative's value on e_j
        t = ExtensorField11.from_matrix([[ex.Var(0), ex.ONE], [ex.parse("x0*x1", 2), ex.Var(1)]])
        for signs in (("+", "-"), ("0", "+"), ("-", "-")):
            dt = extensor_cov_derivative(sphere.conn, signs, t, E2)
            for j in range(2):
                column = cov_derivative_extensor(sphere.conn, signs, t, E2, (mf.basis(2, j),))
                assert [row[j] for row in dt.entries] == column.vector_components()


def _random_component(dim, rng):
    """A scalar expression from a pool that includes the constant 0."""
    k, m = (int(v) for v in rng.integers(0, dim, size=2))
    everywhere = ex.ZERO  # depends on every coordinate
    for i in range(dim):
        everywhere = ex.add(everywhere, ex.Var(i))
    pool = [ex.ZERO, ex.ONE, ex.const(-2.5), ex.Var(k),
            ex.mul(ex.Var(k), ex.Var(m)), ex.call("sin", ex.Var(k)),
            ex.div(ex.ONE, ex.add(ex.const(3.0), ex.Var(m))), ex.call("exp", everywhere)]
    return pool[int(rng.integers(len(pool)))]


def _random_vector(dim, rng):
    return mf.vector(dim, [_random_component(dim, rng) for _ in range(dim)])


def _random_field(dim, rng):
    masks = rng.choice(1 << dim, size=min(5, 1 << dim), replace=False)
    return mf.mvf(dim, {int(m): _random_component(dim, rng) for m in masks})


class TestSparseContractionsMatchDenseFormulas:
    """The contractions skip constant-0 factors; the trees must come out as
    the dense sums over every index build them, by structural equality."""

    @pytest.fixture(params=["polar", "sphere", "torsionful", "zero4", "random3"])
    def conn(self, request):
        if request.param == "zero4":
            return zero_fixture(4).conn
        if request.param == "random3":  # several nonzero terms in every sum
            rng = np.random.default_rng(7)
            gamma = [[[_random_component(3, rng) for _ in range(3)] for _ in range(3)]
                     for _ in range(3)]
            return ConnectionField(3, gamma)
        return request.getfixturevalue(request.param).conn

    @staticmethod
    def directions(conn, rng):
        n = conn.dim
        return [mf.basis(n, i) for i in range(n)] + [_random_vector(n, rng) for _ in range(8)]

    def test_gamma_matrix(self, conn, rng):
        n = conn.dim
        for a in self.directions(conn, rng):
            ac = a.vector_components()
            dense = []
            for g in range(n):
                row = []
                for j in range(n):
                    total = ex.ZERO
                    for i in range(n):
                        total = ex.add(total, ex.mul(ac[i], conn.gamma[g][i][j]))
                    row.append(total)
                dense.append(tuple(row))
            assert gamma_matrix(conn, a).entries == tuple(dense)

    def test_gamma_apply(self, conn, rng):
        n = conn.dim
        for a in self.directions(conn, rng):
            b = _random_vector(n, rng)
            ac, bc = a.vector_components(), b.vector_components()
            dense = []
            for g in range(n):
                total = ex.ZERO
                for i in range(n):
                    for j in range(n):
                        total = ex.add(total, ex.mul(conn.gamma[g][i][j], ex.mul(ac[i], bc[j])))
                dense.append(total)
            assert gamma_apply(conn, a, b).coeffs == mf.vector(n, dense).coeffs

    def test_extensor_apply(self, conn, rng):
        n = conn.dim
        for a in self.directions(conn, rng):
            t = gamma_matrix(conn, a)
            v = _random_vector(n, rng)
            comps = v.vector_components()
            dense = [ex.ZERO] * n
            for i in range(n):
                for j in range(n):
                    dense[i] = ex.add(dense[i], ex.mul(t.entries[i][j], comps[j]))
            assert t(v).coeffs == mf.vector(n, dense).coeffs

    def test_directional_derivative(self, conn, rng):
        # along a constant direction the trees are the dense sum's; along a
        # varying one (a forward pass) their values are, at seeded points
        n = conn.dim
        points = rng.uniform(-1.5, 1.5, (40, n))
        for a in self.directions(conn, rng):
            x = _random_field(n, rng)
            comps = a.vector_components()
            dense = {}
            for m, c in x.coeffs.items():
                total = ex.ZERO
                for i in range(n):
                    total = ex.add(total, ex.mul(comps[i], ex.diff(c, i)))
                dense[m] = total
            got = mf.directional_derivative(a, x)
            if all(type(c) is ex.Const for c in comps):
                assert got.coeffs == mf.mvf(n, dense).coeffs
            else:
                assert max_residual(got, mf.mvf(n, dense), points) < 1e-12

    @staticmethod
    def frames(n, rng):
        """The canonical frame, whose reciprocal vectors pick single columns, and
        a seeded random one, whose reciprocal vectors mix them."""
        return [None, Frame.from_matrix(np.eye(n) + 0.3 * rng.uniform(-1.0, 1.0, (n, n)))]

    def test_generalized_apply(self, conn, rng):
        # the frame sum of gmap(e^mu) ^ (e_mu . X) over every mu, skipping none
        n = conn.dim
        for frame in self.frames(n, rng):
            down, up = mf.const_frames(n, frame)
            for a in self.directions(conn, rng):
                x = _random_field(n, rng)
                gmap = gamma_matrix(conn, a)
                cases = [(gmap, lambda: generalized_apply(conn, a, x, frame))]
                if frame is None:  # the adjoint's sum takes no frame: it runs over the canonical one
                    cases.append((ext_adjoint(gmap), lambda: generalized_adjoint_apply(conn, a, x)))
                for t, apply in cases:
                    dense = mf.mvf(n, {})
                    for e_mu, e_up in zip(down, up):
                        dense = mf.add(dense, mf.wedge(t(e_up), mf.contract(e_mu, x)))
                    assert apply().coeffs == dense.coeffs

    def test_gauge_bivector(self, conn, rng):
        # half the frame sum of gamma(a, e^mu) ^ e_mu over every mu, skipping none
        n = conn.dim
        for frame in self.frames(n, rng):
            down, up = mf.const_frames(n, frame)
            for a in self.directions(conn, rng):
                dense = mf.mvf(n, {})
                for e_mu, e_up in zip(down, up):
                    dense = mf.add(dense, mf.wedge(gamma_apply(conn, a, e_up), e_mu))
                dense = mf.scale(0.5, dense)
                got = gauge_bivector(conn, a, frame)
                assert got.coeffs == dense.coeffs

    # The Cartan sums below are each one `frame_sum`: the references add every
    # term, an empty one and the m = n one too, in the same fold order.

    @staticmethod
    def dense_sum(n, term, frame=None):
        down, up = mf.const_frames(n, frame)
        out = mf.mvf(n, {})
        for e_mu, e_up in zip(down, up):
            out = mf.add(out, term(e_mu, e_up))
        return out

    def half_double_sum(self, n, coeff, frame):
        # the row of each m, then the rows in order, m = n included
        def row(e_m, up_m):
            return self.dense_sum(n, lambda e_n, up_n: mf.scale(coeff(e_m, e_n),
                                                                mf.wedge(up_m, up_n)), frame)
        return mf.scale(0.5, self.dense_sum(n, row, frame))

    def test_cartan_connection(self, conn, rng):
        n = conn.dim
        b, c = _random_vector(n, rng), _random_vector(n, rng)
        first = self.dense_sum(n, lambda e, e_up: mf.scale(
            mf.scalar_product(cov_derivative(conn, "+", e, b), c), e_up))
        second = self.dense_sum(n, lambda e, e_up: mf.scale(
            mf.scalar_product(b, cov_derivative(conn, "-", e, c)), e_up))
        assert cartan_connection(conn, "first", b, c).coeffs == first.coeffs
        assert cartan_connection(conn, "second", b, c).coeffs == second.coeffs

    def test_cartan_torsion_and_its_inverse(self, conn, rng):
        n = conn.dim
        a, b, c = (_random_vector(n, rng) for _ in range(3))
        for frame in self.frames(n, rng):
            dense = self.half_double_sum(
                n, lambda u, v: mf.scalar_product(torsion(conn, u, v), c), frame)
            assert cartan_torsion(conn, c, frame).coeffs == dense.coeffs
        theta = partial(cartan_torsion, conn)
        ab = mf.wedge(a, b)
        dense = self.dense_sum(n, lambda e, e_up: mf.scale(mf.scalar_product(ab, theta(e)), e_up))
        assert invert_cartan_torsion(theta, a, b).coeffs == dense.coeffs

    def test_cartan_curvature_and_its_inverse(self, conn, rng):
        n = conn.dim
        a, b, c, d = (_random_vector(n, rng) for _ in range(4))
        for frame in self.frames(n, rng):
            dense = self.half_double_sum(
                n, lambda u, v: mf.scalar_product(curvature(conn, u, v, c), d), frame)
            assert cartan_curvature(conn, c, d, frame).coeffs == dense.coeffs
        omega = partial(cartan_curvature, conn)
        ab = mf.wedge(a, b)
        dense = self.dense_sum(n, lambda e, e_up: mf.scale(mf.scalar_product(ab, omega(c, e)), e_up))
        assert invert_cartan_curvature(omega, a, b, c).coeffs == dense.coeffs

    def test_structure_right_hand_sides(self, conn, rng):
        n = conn.dim
        c, d = _random_vector(n, rng), _random_vector(n, rng)
        dense = mf.add(mf.curl(c), self.dense_sum(n, lambda e, e_up: mf.wedge(
            e_up, cartan_connection(conn, "second", e, c))))
        assert first_structure_rhs(conn, c).coeffs == dense.coeffs
        dense = mf.add(mf.curl(cartan_connection(conn, "first", c, d)), self.dense_sum(
            n, lambda e, e_up: mf.wedge(cartan_connection(conn, "first", c, e_up),
                                        cartan_connection(conn, "second", e, d))))
        assert second_structure_rhs(conn, c, d).coeffs == dense.coeffs


class TestZeroDerivativeOnCurvedDim3:
    def test_zero_derivative_of_vector_field_is_vector(self):
        # Omega(a) x b has no trivector part; the symbolic commutator must not
        # leave one behind as a rounding residue of two cancelling products
        conn = load_fixture_file(SPHERE3).conn
        rng = np.random.default_rng(3)
        for _ in range(3):
            a, b = rand_vector(3, rng), rand_vector(3, rng)
            assert cov_derivative(conn, "0", a, b).is_vector()

    def test_commutator_keeps_a_bivector_and_vector_to_grade_1(self):
        omega = mf.mvf(3, {0b011: ex.Var(0), 0b101: ex.Var(1), 0b110: ex.Var(2)})
        b = mf.vector(3, [ex.Var(1), ex.Var(2), ex.Var(0)])
        assert mf.commutator(omega, b).grades() == {1}


class TestGradeOneLaws:
    @pytest.mark.parametrize("name", ["sphere3_metric", "torsionful", "cylindrical3_from_zero"])
    def test_vector_valued_laws_build_only_grade_1_blades(self, name):
        # every law that fixes grade 1 builds grade 1 exactly: the products drop
        # the other blades from their tables, with no cancellation to evaluate
        conn = load_fixture_file(FIXTURES / f"{name}.json").conn
        n, rng = conn.dim, np.random.default_rng(5)
        a, b, c = (rand_vector(n, rng) for _ in range(3))
        lam = rand_lambda(n, rng)
        values = [torsion(conn, a, b), curvature(conn, a, b, c), mf.lie_bracket(a, b),
                  rand_ext11(n, rng)(a)]
        values += [cov_derivative(conn, sign, a, b) for sign in SIGNS]
        values += [deform(conn, lam, sign, a, b) for sign in ("+", "-")]
        values += [cartan_connection(conn, kind, b, c) for kind in ("first", "second")]
        for value in values:
            assert value.grades() <= {1}


class TestEmptyConnectionMap:
    def test_generalized_maps_of_the_zero_connection_apply_no_extensor(self, monkeypatch, rng):
        # an all-zero connection map has no nonzero entry, so the frame sum
        # is empty without building a single column image
        conn = zero_fixture(3).conn

        def refuse(self, v):
            raise AssertionError("ExtensorField11 called on an all-zero map")

        monkeypatch.setattr(ExtensorField11, "__call__", refuse)
        a, x = rand_vector(3, rng), _random_field(3, rng)
        copy = mf.mvf(3, x.coeffs)
        for fn in (generalized_apply, generalized_adjoint_apply):
            got = fn(conn, a, x)
            assert got.coeffs == {}
            got = fn(conn, a, copy)
            assert got.coeffs == {}

    def test_nonzero_lists_the_entries_that_are_not_constant_0(self):
        t = ExtensorField11(2, ((ex.ZERO, ex.Var(1)), (ex.ONE, 0.0)))
        assert t.nonzero == ((0, 1, ex.Var(1)), (1, 0, ex.ONE))
        assert ExtensorField11(3, ((ex.ZERO,) * 3,) * 3).nonzero == ()
