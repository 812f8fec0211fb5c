"""Torsion, curvature, Cartan fields, structure equations, symmetric identities."""

import itertools
import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gacalc import expr as ex
from gacalc import fields as mf
from gacalc.algebra import Multivector, allclose
from gacalc.bridge import riemann_coefficients
from gacalc.cartan import (
    NotSymmetricError,
    cartan_connection,
    cartan_curvature,
    cartan_torsion,
    check_bianchi,
    check_cyclic,
    check_structure_equation,
    curvature,
    invert_cartan_curvature,
    invert_cartan_torsion,
    torsion,
    torsion_operator_form,
)
from gacalc.fixtures import load_fixture_file
from gacalc.report import worst_residual
from gacalc.suites import rand_frame, rand_vector, run_fixture_checks

SPHERE3 = Path(__file__).resolve().parents[1] / "fixtures" / "sphere3_metric.json"

E1 = mf.basis(2, 0)
E2 = mf.basis(2, 1)


def max_residual(lhs, rhs, points):
    return worst_residual([(lhs, rhs)], points)


def identity_pairs(sides, arity, draws, seed):
    """sides(*vectors) for ``draws`` seeded draws of ``arity`` random vector
    fields on the plane, the first draw constant (as the bianchi suite draws)."""
    rng = np.random.default_rng(seed)
    return [sides(*(rand_vector(2, rng, degree=min(k, 1)) for _ in range(arity)))
            for k in range(draws)]


def rand_vf(dim, rng):
    comps = []
    for _ in range(dim):
        e = ex.const(rng.uniform(-1, 1))
        for i in range(dim):
            e = ex.add(e, ex.mul(ex.const(rng.uniform(-1, 1)), ex.Var(i)))
        comps.append(e)
    return mf.vector(dim, comps)


class TestTorsion:
    def test_symmetric_fixtures_are_torsionless(self, polar, sphere, rng):
        for fix in (polar, sphere):
            pts = fix.domain.sample(10, rng)
            tau = torsion(fix.conn, rand_vf(2, rng), rand_vf(2, rng))
            assert max_residual(tau, mf.mvf(2, {}), pts) < 1e-13

    def test_torsionful_value(self, torsionful):
        tau = torsion(torsionful.conn, E1, E2)
        assert allclose(tau.at((0.2, -0.4)), Multivector.from_vector([1.0, 0.0]))

    def test_self_torsion_vanishes(self, torsionful, rng):
        a = rand_vf(2, rng)
        pts = torsionful.domain.sample(8, rng)
        assert max_residual(torsion(torsionful.conn, a, a), mf.mvf(2, {}), pts) < 1e-14

    def test_operator_form_equivalence(self, torsionful, sphere, rng):
        for fix in (torsionful, sphere):
            pts = fix.domain.sample(8, rng)
            for _ in range(5):
               a, b = rand_vf(2, rng), rand_vf(2, rng)
               assert max_residual(torsion(fix.conn, a, b),
                                   torsion_operator_form(fix.conn, a, b), pts) < 1e-8


class TestCurvature:
    def test_zero_connection_flat(self, zero2, rng):
        pts = zero2.domain.sample(8, rng)
        rho = curvature(zero2.conn, rand_vf(2, rng), rand_vf(2, rng), rand_vf(2, rng))
        assert max_residual(rho, mf.mvf(2, {}), pts) < 1e-14

    def test_polar_is_flat(self, polar, rng):
        pts = polar.domain.sample(10, rng)
        for _ in range(3):
            rho = curvature(polar.conn, rand_vf(2, rng), rand_vf(2, rng), rand_vf(2, rng))
            assert max_residual(rho, mf.mvf(2, {}), pts) < 1e-9

    def test_sphere_against_classical_coefficients(self, sphere, rng):
        pts = sphere.domain.sample(10, rng)
        riem = riemann_coefficients(sphere.conn)
        for a in range(2):
            for b in range(2):
                for g in range(2):
                    got = curvature(sphere.conn, mf.basis(2, a), mf.basis(2, b), mf.basis(2, g))
                    want = mf.vector(2, [riem[d][g][a][b] for d in range(2)])
                    assert max_residual(got, want, pts) < 1e-9

    def test_sphere_value_at_pi_third(self, sphere):
        rho = curvature(sphere.conn, E1, E2, E2)
        got = rho.at((math.pi / 3, 0.0))
        assert allclose(got, Multivector.from_vector([0.75, 0.0]), atol=1e-12)


class TestSphere3Curvature:
    def test_curvature_is_the_unit_sphere_closed_form(self):
        # the unit S^n has rho(a, b) c = (b.c) a - (a.c) b; on the chart basis of
        # S^3 that is g_jk e_i - g_ik e_j, g = diag(1, sin^2 x0, sin^2 x0 sin^2 x1)
        fx = load_fixture_file(SPHERE3)
        pts = fx.domain.sample(20, np.random.default_rng(3303))
        s0, s1 = (ex.powi(ex.call("sin", ex.Var(i)), 2) for i in range(2))
        g = [ex.ONE, s0, ex.mul(s0, s1)]
        e = [mf.basis(3, i) for i in range(3)]
        for i, j, k in itertools.product(range(3), repeat=3):
            want = [ex.ZERO] * 3
            if j == k:
                want[i] = ex.add(want[i], g[j])
            if i == k:
                want[j] = ex.sub(want[j], g[i])
            got = curvature(fx.conn, e[i], e[j], e[k])
            # every value is at most 1, so the residual is the absolute error
            assert worst_residual([(got, mf.vector(3, want))], pts) < 1e-10, (i, j, k)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_higher_spheres_at_points(self, n, tmp_path):
        # the same closed form on S^4..S^6, g_ii = sin^2 x0 ... sin^2 x{i-1},
        # read one point at a time through MultivectorField.at
        g_ii = ["1"] + ["*".join(f"sin(x{m})^2" for m in range(i)) for i in range(1, n)]
        cfg = tmp_path / f"sphere{n}.json"
        cfg.write_text(json.dumps({
            "name": f"sphere{n}", "dim": n, "seed": n,
            "connection": {"kind": "metric",
                           "matrix": [[g_ii[i] if i == j else "0" for j in range(n)]
                                      for i in range(n)]},
            "domain": {"lo": [0.3] * (n - 1) + [-3.0], "hi": [2.84] * (n - 1) + [3.0]},
        }))
        fx = load_fixture_file(cfg)
        pts = fx.domain.sample(3, np.random.default_rng(n))
        e = [mf.basis(n, i) for i in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            for k in range(n):
                rho = curvature(fx.conn, e[i], e[j], e[k])
                for p in pts:
                    g = np.cumprod([1.0] + [math.sin(v) ** 2 for v in p[:n - 1]])
                    want = np.zeros(1 << n)
                    want[1 << i] += g[j] * (j == k)
                    want[1 << j] -= g[i] * (i == k)
                    assert_allclose(rho.at(p).coeffs, want, rtol=0, atol=1e-12,
                                    err_msg=f"(i, j, k) = {(i, j, k)} at {p}")


class TestCartanFields:
    def test_symmetric_connection_has_zero_cartan_torsion(self, sphere, rng):
        pts = sphere.domain.sample(8, rng)
        th = cartan_torsion(sphere.conn, rand_vf(2, rng))
        assert max_residual(th, mf.mvf(2, {}), pts) < 1e-13

    def test_torsionful_value(self, torsionful):
        th = cartan_torsion(torsionful.conn, E1)
        assert allclose(th.at((0.0, 0.0)), Multivector.blade(2, 0b11, 1.0))

    def test_torsion_round_trip(self, torsionful, rng):
        pts = torsionful.domain.sample(8, rng)
        for _ in range(3):
            a, b = rand_vf(2, rng), rand_vf(2, rng)
            rec = invert_cartan_torsion(lambda c: cartan_torsion(torsionful.conn, c), a, b)
            assert max_residual(rec, torsion(torsionful.conn, a, b), pts) < 1e-10

    def test_sphere_cartan_curvature_value(self, sphere):
        om = cartan_curvature(sphere.conn, E2, E1)
        got = om.at((math.pi / 3, 0.5))
        assert allclose(got, Multivector.blade(2, 0b11, 0.75), atol=1e-12)

    def test_curvature_round_trip(self, sphere, rng):
        pts = sphere.domain.sample(8, rng)
        for _ in range(3):
            a, b, c = (rand_vf(2, rng) for _ in range(3))
            rec = invert_cartan_curvature(
                lambda cc, dd: cartan_curvature(sphere.conn, cc, dd), a, b, c)
            assert max_residual(rec, curvature(sphere.conn, a, b, c), pts) < 1e-10

    def test_frame_independence(self, sphere, torsionful, rng):
        for fix in (sphere, torsionful):
            pts = fix.domain.sample(8, rng)
            frame = rand_frame(2, rng)
            c, d = rand_vf(2, rng), rand_vf(2, rng)
            assert max_residual(cartan_torsion(fix.conn, c),
                                cartan_torsion(fix.conn, c, frame), pts) < 1e-9
            assert max_residual(cartan_curvature(fix.conn, c, d),
                                cartan_curvature(fix.conn, c, d, frame), pts) < 1e-9


class TestCartanConnectionOperators:
    def test_zero_connection_constant_field(self, zero2):
        b = mf.constant(Multivector.from_vector([0.3, -1.2]))
        c = mf.vector(2, [ex.Var(0), ex.Var(1)])
        out = cartan_connection(zero2.conn, "first", b, c)
        assert allclose(out.at((0.5, 0.5)), Multivector.zero(2))

    def test_first_kind_second_slot_linearity(self, sphere, rng):
        pts = sphere.domain.sample(8, rng)
        f = ex.parse("x0 + 2*x1", 2)
        b, c = rand_vf(2, rng), rand_vf(2, rng)
        lhs = cartan_connection(sphere.conn, "first", b, mf.scale(f, c))
        rhs = mf.scale(f, cartan_connection(sphere.conn, "first", b, c))
        assert max_residual(lhs, rhs, pts) < 1e-10

    def test_second_kind_first_slot_linearity(self, sphere, rng):
        pts = sphere.domain.sample(8, rng)
        f = ex.parse("x0 + 2*x1", 2)
        b, c = rand_vf(2, rng), rand_vf(2, rng)
        lhs = cartan_connection(sphere.conn, "second", mf.scale(f, b), c)
        rhs = mf.scale(f, cartan_connection(sphere.conn, "second", b, c))
        assert max_residual(lhs, rhs, pts) < 1e-10

    def test_pairing_to_gradient(self, sphere, rng):
        pts = sphere.domain.sample(8, rng)
        for _ in range(3):
            b, c = rand_vf(2, rng), rand_vf(2, rng)
            lhs = mf.add(cartan_connection(sphere.conn, "first", b, c),
                         cartan_connection(sphere.conn, "second", b, c))
            rhs = mf.gradient_field(mf.scalar_product(b, c), 2)
            assert max_residual(lhs, rhs, pts) < 1e-9

    def test_kind_validated(self, sphere):
        with pytest.raises(ValueError, match="first.*second"):
            cartan_connection(sphere.conn, "third", E1, E2)


class TestStructureEquations:
    def test_zero_connection_both_exact(self, zero2, rng):
        pts = zero2.domain.sample(8, rng)
        args1 = [(rand_vf(2, rng),), (E1,)]
        args2 = [(rand_vf(2, rng), rand_vf(2, rng)), (E1, E2)]
        pairs1 = [check_structure_equation(zero2.conn, "first", *args) for args in args1]
        pairs2 = [check_structure_equation(zero2.conn, "second", *args) for args in args2]
        assert worst_residual(pairs1, pts) < 1e-12
        assert worst_residual(pairs2, pts) < 1e-12

    @pytest.mark.parametrize("fixture_name", ["polar", "sphere", "torsionful"])
    def test_all_fixtures_satisfy_both(self, fixture_name, request, rng):
        fix = request.getfixturevalue(fixture_name)
        pts = fix.domain.sample(10, rng)
        args1 = [(rand_vf(2, rng),), (rand_vf(2, rng),), (E2,)]
        args2 = [(rand_vf(2, rng), rand_vf(2, rng)), (E1, E2)]
        r1 = worst_residual([check_structure_equation(fix.conn, "first", *args)
                             for args in args1], pts)
        r2 = worst_residual([check_structure_equation(fix.conn, "second", *args)
                             for args in args2], pts)
        assert r1 < 1e-9, r1
        assert r2 < 1e-9, r2

    def test_which_validated(self, sphere, rng):
        with pytest.raises(ValueError, match="first.*second"):
            check_structure_equation(sphere.conn, "both", E1)


class TestSymmetricIdentities:
    def test_cyclic_on_sphere(self, sphere, rng):
        pts = sphere.domain.sample(12, rng)
        res = worst_residual(identity_pairs(partial(check_cyclic, sphere.conn), 3, 4, seed=5), pts)
        assert res < 1e-8, res

    def test_bianchi_on_sphere_and_polar(self, sphere, polar, rng):
        for fix in (sphere, polar):
            pts = fix.domain.sample(12, rng)
            res = worst_residual(identity_pairs(partial(check_bianchi, fix.conn), 4, 3, seed=6),
                                 pts)
            assert res < 1e-8, (fix.name, res)

    def test_zero_connection_exact(self, zero2, rng):
        pts = zero2.domain.sample(8, rng)
        assert worst_residual(identity_pairs(partial(check_cyclic, zero2.conn), 3, 4, seed=1),
                              pts) < 1e-12
        assert worst_residual(identity_pairs(partial(check_bianchi, zero2.conn), 4, 3, seed=2),
                              pts) < 1e-12

    def test_torsionful_rejected(self, torsionful):
        with pytest.raises(NotSymmetricError, match="not symmetric"):
            run_fixture_checks(torsionful, "bianchi")
