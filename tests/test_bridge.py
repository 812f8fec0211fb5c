"""Coordinate bridge: frames, transformation laws, classical derivatives."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gacalc import expr as ex
from gacalc import fields as mf
from gacalc.bridge import (
    CoordinateMap,
    christoffel,
    classical_cov_derivative,
    coordinate_frames,
    forward_jacobian_primed,
    inverse_jacobian,
    levi_civita_from_metric,
    transform_connection,
    transform_vector_components,
    vector_components_in_chart,
)
from gacalc.connection import (
    ConnectionField,
    ExtensorField11,
    cov_derivative,
    extensor_cov_derivative,
)
from gacalc.fields import Box
from gacalc.suites import expr_residual


def eval_gamma(conn, g, a, b, p):
    return ex.evaluate(conn.gamma[g][a][b], p)


@pytest.fixture(scope="module")
def zero2_conn():
    return ConnectionField.zero(2, Box((0.3, -1.0), (3.0, 1.0)))


class TestCoordinateMap:
    def test_identity_map_frames(self):
        cmap = CoordinateMap.identity(2, Box((-1, -1), (1, 1)))
        cov, contra = coordinate_frames(cmap)
        for i in range(2):
            assert_allclose(cov[i].at((0.3, 0.4)).vector_components(), np.eye(2)[i])
            assert_allclose(contra[i].at((0.3, 0.4)).vector_components(), np.eye(2)[i])

    def test_polar_frames(self, pmap):
        cov, _ = coordinate_frames(pmap)
        assert_allclose(cov[0].at((2.0, 0.0)).vector_components(), [1.0, 0.0], atol=1e-14)
        assert_allclose(cov[1].at((2.0, 0.0)).vector_components(), [0.0, 2.0], atol=1e-14)

    def test_reciprocity(self, pmap, rng):
        cov, contra = coordinate_frames(pmap)
        pts = pmap.domain_primed.sample(10, rng)
        pairs = [(mf.scalar_product(cov[m], contra[n]),
                  ex.ONE if m == n else ex.ZERO) for m in range(2) for n in range(2)]
        assert expr_residual(pairs, pts) < 1e-10

    def test_round_trip_and_jacobians(self, pmap, rng):
        pts = pmap.domain_primed.sample(10, rng)
        composed = [ex.substitute(f, pmap.inverse) for f in pmap.forward]
        assert expr_residual([(c, ex.Var(i)) for i, c in enumerate(composed)], pts) < 1e-10
        jinv = inverse_jacobian(pmap)
        kfwd = forward_jacobian_primed(pmap)
        pairs = []
        for i in range(2):
            for j in range(2):
                prod = ex.ZERO
                for k in range(2):
                    prod = ex.add(prod, ex.mul(kfwd[i][k], jinv[k][j]))
                pairs.append((prod, ex.ONE if i == j else ex.ZERO))
        assert expr_residual(pairs, pts) < 1e-10

    def test_component_count_validated(self):
        with pytest.raises(ValueError, match="forward and inverse"):
            CoordinateMap(2, (ex.Var(0),), (ex.Var(0), ex.Var(1)), Box((0, 0), (1, 1)))


class TestConnectionTransform:
    def test_identity_map_echoes(self, polar, rng):
        cmap = CoordinateMap.identity(2, polar.domain)
        out = transform_connection(polar.conn, cmap)
        pts = polar.domain.sample(8, rng)
        pairs = [(out.gamma[g][a][b], polar.conn.gamma[g][a][b])
                 for g in range(2) for a in range(2) for b in range(2)]
        assert expr_residual(pairs, pts) < 1e-13

    def test_zero_to_polar_coefficients(self, zero2_conn, pmap, rng):
        out = transform_connection(zero2_conn, pmap)
        pts = pmap.domain_primed.sample(20, rng)
        r = ex.Var(0)
        expected = {
            (0, 1, 1): ex.neg(r),
            (1, 0, 1): ex.div(ex.ONE, r),
            (1, 1, 0): ex.div(ex.ONE, r),
        }
        pairs = []
        for g in range(2):
            for a in range(2):
                for b in range(2):
                    pairs.append((out.gamma[g][a][b], expected.get((g, a, b), ex.ZERO)))
        assert expr_residual(pairs, pts) < 1e-12
        assert eval_gamma(out, 0, 1, 1, (2.0, 0.3)) == pytest.approx(-2.0)

    def test_operator_route_agrees_with_law(self, zero2_conn, polar, pmap, rng):
        pts = pmap.domain_primed.sample(10, rng)
        for conn in (zero2_conn, polar.conn):
            a_route = christoffel(conn, pmap)
            b_route = transform_connection(conn, pmap)
            pairs = [(a_route.gamma[g][a][b], b_route.gamma[g][a][b])
                     for g in range(2) for a in range(2) for b in range(2)]
            assert expr_residual(pairs, pts) < 1e-9

    def test_there_and_back(self, zero2_conn, pmap, rng):
        swapped = CoordinateMap(2, pmap.inverse, pmap.forward,
                                pmap.domain_canonical, pmap.domain_primed)
        once = transform_connection(zero2_conn, pmap)
        back = transform_connection(once, swapped)
        pts = pmap.domain_canonical.sample(10, rng)
        pairs = [(back.gamma[g][a][b], ex.ZERO) for g in range(2) for a in range(2)
                 for b in range(2)]
        assert expr_residual(pairs, pts) < 1e-9


@pytest.fixture(scope="module")
def cyl():
    from pathlib import Path

    from gacalc.fixtures import load_map_file

    return load_map_file(Path(__file__).resolve().parents[1]
                         / "fixtures" / "maps" / "cylindrical3.json")


class TestCylindrical3D:
    """3-dimensional chart change: flat connection in cylindrical coordinates."""

    def test_known_coefficients(self, cyl, rng):
        conn = transform_connection(ConnectionField.zero(3, cyl.domain_canonical), cyl)
        pts = cyl.domain_primed.sample(15, rng)
        rho = ex.Var(0)
        expected = {(0, 1, 1): ex.neg(rho),
                    (1, 0, 1): ex.div(ex.ONE, rho),
                    (1, 1, 0): ex.div(ex.ONE, rho)}
        pairs = []
        for g in range(3):
            for a in range(3):
                for b in range(3):
                    pairs.append((conn.gamma[g][a][b], expected.get((g, a, b), ex.ZERO)))
        assert expr_residual(pairs, pts) < 1e-12

    def test_operator_route_and_flatness(self, cyl, rng):
        from gacalc.cartan import curvature
        from gacalc.suites import rand_vector
        from gacalc.report import batch_residual

        zero3 = ConnectionField.zero(3, cyl.domain_canonical)
        conn = transform_connection(zero3, cyl)
        pts = cyl.domain_primed.sample(10, rng)
        ch = christoffel(zero3, cyl)
        pairs = [(ch.gamma[g][a][b], conn.gamma[g][a][b])
                 for g in range(3) for a in range(3) for b in range(3)]
        assert expr_residual(pairs, pts) < 1e-10

        derived = ConnectionField(3, conn.gamma, cyl.domain_primed)
        rho_field = curvature(derived, rand_vector(3, rng), rand_vector(3, rng),
                              rand_vector(3, rng))
        fe = mf.compiled_evaluator(rho_field)
        fz = mf.compiled_evaluator(mf.mvf(3, {}))
        assert batch_residual(fe(pts), fz(pts)) < 1e-9


class TestComponentTransforms:
    def test_identity_map_unchanged(self, rng):
        cmap = CoordinateMap.identity(2, Box((-1, -1), (1, 1)))
        comps = [ex.parse("x0*x1", 2), ex.parse("x0^2", 2)]
        for variance in ("co", "contra"):
            out = transform_vector_components(comps, cmap, variance)
            pts = rng.uniform(-1, 1, size=(8, 2))
            assert expr_residual(list(zip(out, comps)), pts) < 1e-14

    def test_constant_vector_under_polar(self, pmap):
        # e1 has polar components v^r = cos(theta), v^theta = -sin(theta)/r
        out = transform_vector_components([ex.ONE, ex.ZERO], pmap, "contra")
        r, th = 1.7, 0.4
        assert ex.evaluate(out[0], (r, th)) == pytest.approx(math.cos(th))
        assert ex.evaluate(out[1], (r, th)) == pytest.approx(-math.sin(th) / r)

    def test_law_matches_direct_chart_definition(self, pmap, rng):
        v = mf.vector(2, [ex.parse("x0 + x1", 2), ex.parse("x0*x1", 2)])
        pts = pmap.domain_primed.sample(10, rng)
        for variance in ("co", "contra"):
            law = transform_vector_components(v.vector_components(), pmap, variance)
            direct = vector_components_in_chart(v, pmap, variance)
            assert expr_residual(list(zip(law, direct)), pts) < 1e-10

    def test_variance_validated(self, pmap):
        with pytest.raises(ValueError, match="variance"):
            transform_vector_components([ex.ONE, ex.ZERO], pmap, "mixed")

    @pytest.mark.parametrize("variances", [("co", "co"), ("contra", "contra"),
                                           ("co", "contra"), ("contra", "co")])
    def test_tensor_law_matches_direct_chart_definition(self, pmap, rng, variances):
        from gacalc.bridge import tensor2_components_in_chart, transform_tensor2_components

        t = ExtensorField11.from_matrix([[ex.parse("x0", 2), ex.parse("x1 + 1", 2)],
                                         [ex.parse("x0*x1", 2), ex.ONE]])
        # canonical orthonormal chart: t_ab = t(e_a).e_b = entries[b][a]
        comps = [[t.entries[b][a] for b in range(2)] for a in range(2)]
        law = transform_tensor2_components(comps, pmap, variances)
        direct = tensor2_components_in_chart(t, pmap, variances)
        pts = pmap.domain_primed.sample(10, rng)
        pairs = [(law[m][n], direct[m][n]) for m in range(2) for n in range(2)]
        assert expr_residual(pairs, pts) < 1e-10


class TestClassicalCovariantDerivatives:
    def test_zero_connection_gives_partials(self, zero2_conn, rng):
        v = [ex.parse("x0^2*x1", 2), ex.parse("sin(x0)", 2)]
        out = classical_cov_derivative(zero2_conn, v, "contra")
        pts = rng.uniform(0.4, 1.0, size=(8, 2))
        pairs = [(out[l][m], ex.diff(v[l], m)) for l in range(2) for m in range(2)]
        assert expr_residual(pairs, pts) < 1e-14

    def test_sphere_example_values(self, sphere):
        # v = (1, 0): contra derivative along phi gives (0, cot(theta))
        out = classical_cov_derivative(sphere.conn, [ex.ONE, ex.ZERO], "contra")
        th = 0.9
        assert ex.evaluate(out[0][1], (th, 0.1)) == pytest.approx(0.0)
        assert ex.evaluate(out[1][1], (th, 0.1)) == pytest.approx(1.0 / math.tan(th))

    @pytest.mark.parametrize("variance,sign", [("contra", "+"), ("co", "-")])
    def test_vector_oracle_equality(self, sphere, rng, variance, sign):
        pts = sphere.domain.sample(10, rng)
        comps = [ex.parse("x0*x1 + 1", 2), ex.parse("sin(x0)*x1", 2)]
        v = mf.vector(2, comps)
        table = classical_cov_derivative(sphere.conn, comps, variance)
        pairs = []
        for mu in range(2):
            ga = cov_derivative(sphere.conn, sign, mf.basis(2, mu), v)
            for l in range(2):
                pairs.append((ga.component(1 << l), table[l][mu]))
        assert expr_residual(pairs, pts) < 1e-10

    @pytest.mark.parametrize("variance,signs", [(("co", "co"), ("+", "+")),
                                                (("co", "contra"), ("+", "-"))])
    def test_tensor_oracle_equality(self, sphere, rng, variance, signs):
        pts = sphere.domain.sample(10, rng)
        t = ExtensorField11.from_matrix([[ex.parse("x0", 2), ex.parse("x1", 2)],
                                         [ex.parse("sin(x0)", 2), ex.ONE]])
        comps = [[t.entries[b][a] for b in range(2)] for a in range(2)]
        table = classical_cov_derivative(sphere.conn, comps, variance)
        pairs = []
        for mu in range(2):
            dt = extensor_cov_derivative(sphere.conn, signs, t, mf.basis(2, mu))
            for a in range(2):
                value = dt(mf.basis(2, a))
                for b in range(2):
                    pairs.append((value.component(1 << b), table[a][b][mu]))
        assert expr_residual(pairs, pts) < 1e-10


class TestLeviCivita:
    def test_identity_metric_gives_zero(self, rng):
        conn = levi_civita_from_metric([[ex.ONE, ex.ZERO], [ex.ZERO, ex.ONE]],
                                       Box((-1, -1), (1, 1)))
        pts = rng.uniform(-1, 1, size=(5, 2))
        pairs = [(conn.gamma[g][a][b], ex.ZERO) for g in range(2) for a in range(2)
                 for b in range(2)]
        assert expr_residual(pairs, pts) == 0.0

    def test_polar_metric(self, polar, rng):
        conn = levi_civita_from_metric([[ex.ONE, ex.ZERO], [ex.ZERO, ex.powi(ex.Var(0), 2)]],
                                       polar.domain)
        pts = polar.domain.sample(10, rng)
        pairs = [(conn.gamma[g][a][b], polar.conn.gamma[g][a][b])
                 for g in range(2) for a in range(2) for b in range(2)]
        assert expr_residual(pairs, pts) < 1e-12

    def test_sphere_metric(self, sphere, rng):
        g = [[ex.ONE, ex.ZERO], [ex.ZERO, ex.powi(ex.call("sin", ex.Var(0)), 2)]]
        conn = levi_civita_from_metric(g, sphere.domain)
        pts = sphere.domain.sample(10, rng)
        pairs = [(conn.gamma[gg][a][b], sphere.conn.gamma[gg][a][b])
                 for gg in range(2) for a in range(2) for b in range(2)]
        assert expr_residual(pairs, pts) < 1e-12

    def test_pullback_agrees_with_transform(self, zero2_conn, pmap, polar, rng):
        # Euclidean metric pulled back through the polar chart = r^2 metric
        conn_metric = levi_civita_from_metric(
            [[ex.ONE, ex.ZERO], [ex.ZERO, ex.powi(ex.Var(0), 2)]], polar.domain)
        conn_map = transform_connection(zero2_conn, pmap)
        pts = pmap.domain_primed.sample(10, rng)
        pairs = [(conn_metric.gamma[g][a][b], conn_map.gamma[g][a][b])
                 for g in range(2) for a in range(2) for b in range(2)]
        assert expr_residual(pairs, pts) < 1e-10

    def test_singular_metric_detected(self):
        conn = levi_civita_from_metric([[ex.Var(0), ex.ZERO], [ex.ZERO, ex.ONE]],
                                       Box((-1, -1), (1, 1)))
        with pytest.raises(ex.DomainError):
            ex.evaluate(conn.gamma[0][0][0], (0.0, 0.5))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            levi_civita_from_metric([[ex.ONE, ex.ZERO]], Box((-1, -1), (1, 1)))
