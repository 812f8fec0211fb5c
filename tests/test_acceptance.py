"""Acceptance criteria, one test per criterion with a printed PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; seeds are fixed so reruns are
byte-for-byte reproducible.
"""

import numpy as np

from gacalc import expr as ex
from gacalc import fields as mf
from gacalc.bridge import riemann_coefficients, transform_connection
from gacalc.cartan import (
    cartan_curvature,
    cartan_torsion,
    cartan_connection,
    check_bianchi,
    check_cyclic,
    check_structure_equation,
    curvature,
    invert_cartan_curvature,
    invert_cartan_torsion,
    torsion,
)
from gacalc.connection import (
    ConnectionField,
    cov_derivative,
    deform,
    ext_adjoint,
    extensor_cov_derivative,
    gauge_bivector,
    generalized_apply,
)
from gacalc.report import worst_residual
from gacalc.suites import (
    rand_ext11,
    rand_frame,
    rand_lambda,
    rand_mvf,
    rand_vector,
    run_fixture_checks,
    run_transform_checks,
)

SIGNS3 = ("+", "-", "0")


def report_line(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_flat_suite(zero3):
    """Zero connection passes every check with residuals below 1e-12."""
    report = run_fixture_checks(zero3, "all", tol=1e-12)
    worst = max(c.max_residual for c in report.checks)
    ok = report.passed
    report_line(1, ok, f"flat suite, {len(report.checks)} checks, max residual {worst:.2e} < 1e-12")
    assert ok, [c.name for c in report.checks if not c.passed]


def test_criterion_2_polar_fixture(polar, pmap):
    """Transforming the flat connection into the polar chart reproduces the
    known coefficients, and the resulting structure is flat."""
    rng = np.random.default_rng(77001)
    zero2 = ConnectionField.zero(2)
    derived = transform_connection(zero2, pmap)
    pts = pmap.domain_primed.sample(50, rng)
    r = ex.Var(0)
    expected = {(0, 1, 1): ex.neg(r), (1, 0, 1): ex.div(ex.ONE, r), (1, 1, 0): ex.div(ex.ONE, r)}
    pairs = [(derived.gamma[g][a][b], expected.get((g, a, b), ex.ZERO))
             for g in range(2) for a in range(2) for b in range(2)]
    coeff_res = worst_residual(pairs, pts)

    flat_pts = polar.domain.sample(10, rng)
    zero = mf.mvf(2, {})
    curv_res = 0.0
    for _ in range(5):
        rho = curvature(polar.conn, rand_vector(2, rng), rand_vector(2, rng),
                        rand_vector(2, rng))
        curv_res = max(curv_res, worst_residual([(rho, zero)], flat_pts))

    ok = coeff_res < 1e-12 and curv_res < 1e-9
    report_line(2, ok, f"polar coefficients residual {coeff_res:.2e} < 1e-12, "
                       f"curvature residual {curv_res:.2e} < 1e-9")
    assert coeff_res < 1e-12
    assert curv_res < 1e-9


def test_criterion_3_sphere_fixture(sphere):
    """Sphere curvature values against the classical coefficient oracle,
    plus the cyclic and differential identities."""
    rng = np.random.default_rng(77002)
    pts = sphere.domain.sample(50, rng)
    e1, e2 = mf.basis(2, 0), mf.basis(2, 1)

    rho = curvature(sphere.conn, e1, e2, e2)
    sin2 = ex.powi(ex.call("sin", ex.Var(0)), 2)
    rho_res = worst_residual([(rho, mf.mvf(2, {0b01: sin2}))], pts)
    riem = riemann_coefficients(sphere.conn)
    oracle_res = worst_residual([(rho.component(0b01), riem[0][1][0][1]),
                                 (rho.component(0b10), riem[1][1][0][1])], pts)

    omega = cartan_curvature(sphere.conn, e2, e1)
    omega_res = worst_residual([(omega, mf.mvf(2, {0b11: sin2}))], pts)

    id_pts = sphere.domain.sample(17, rng)

    def draws(seed, arity, count):
        """``count`` seeded draws of ``arity`` random vector fields, the first constant."""
        rng = np.random.default_rng(seed)
        return [[rand_vector(2, rng, degree=min(k, 1)) for _ in range(arity)] for k in range(count)]

    cyc = worst_residual([check_cyclic(sphere.conn, *args) for args in draws(9001, 3, 4)], id_pts)
    bia = worst_residual([check_bianchi(sphere.conn, *args) for args in draws(9002, 4, 3)], id_pts)

    ok = rho_res < 1e-9 and oracle_res < 1e-9 and omega_res < 1e-9 and cyc < 1e-8 and bia < 1e-8
    report_line(3, ok, f"sphere curvature {rho_res:.2e}/{oracle_res:.2e} < 1e-9, "
                       f"cartan curvature {omega_res:.2e} < 1e-9, "
                       f"cyclic {cyc:.2e} and bianchi {bia:.2e} < 1e-8")
    assert rho_res < 1e-9 and oracle_res < 1e-9
    assert omega_res < 1e-9
    assert cyc < 1e-8 and bia < 1e-8


def test_criterion_4_pairing_identities(zero3, polar, sphere):
    """The four pairing identities on every fixture, and the deformed pairing."""
    worst = 0.0
    for fix in (zero3, polar, sphere):
        rng = np.random.default_rng(77003)
        dim = fix.dim
        pts = fix.domain.sample(10, rng)
        for _ in range(5):
            a = rand_vector(dim, rng)
            x, y = rand_mvf(dim, rng), rand_mvf(dim, rng)
            b, c = rand_vector(dim, rng), rand_vector(dim, rng)
            flat_xy = mf.directional_derivative(
                a, mf.scalar_field(dim, mf.scalar_product(x, y))).component(0)
            lhs = ex.add(mf.scalar_product(cov_derivative(fix.conn, "+", a, x), y),
                         mf.scalar_product(x, cov_derivative(fix.conn, "-", a, y)))
            worst = max(worst, worst_residual([(lhs, flat_xy)], pts))
            lhs = ex.add(mf.scalar_product(cov_derivative(fix.conn, "0", a, x), y),
                         mf.scalar_product(x, cov_derivative(fix.conn, "0", a, y)))
            worst = max(worst, worst_residual([(lhs, flat_xy)], pts))
            flat_bc = mf.directional_derivative(
                a, mf.scalar_field(dim, mf.scalar_product(b, c))).component(0)
            lhs = ex.add(mf.scalar_product(cov_derivative(fix.conn, "+", a, b), c),
                         mf.scalar_product(b, cov_derivative(fix.conn, "-", a, c)))
            worst = max(worst, worst_residual([(lhs, flat_bc)], pts))
            lhs_field = mf.add(cartan_connection(fix.conn, "first", b, c),
                               cartan_connection(fix.conn, "second", b, c))
            rhs_field = mf.gradient_field(mf.scalar_product(b, c), dim)
            worst = max(worst, worst_residual([(lhs_field, rhs_field)], pts))

    rng = np.random.default_rng(77004)
    deform_worst = 0.0
    for fix in (polar, sphere):
        pts = fix.domain.sample(10, rng)
        for _ in range(3):
            lam = rand_lambda(2, rng)
            a = rand_vector(2, rng)
            x, y = rand_mvf(2, rng), rand_mvf(2, rng)
            lhs = ex.add(mf.scalar_product(deform(fix.conn, lam, "+", a, x), y),
                         mf.scalar_product(x, deform(fix.conn, lam, "-", a, y)))
            rhs = mf.directional_derivative(
                a, mf.scalar_field(2, mf.scalar_product(x, y))).component(0)
            deform_worst = max(deform_worst, worst_residual([(lhs, rhs)], pts))

    ok = worst < 1e-8 and deform_worst < 1e-8
    report_line(4, ok, f"pairing identities residual {worst:.2e} < 1e-8, "
                       f"deformed pairing {deform_worst:.2e} < 1e-8")
    assert worst < 1e-8
    assert deform_worst < 1e-8


def test_criterion_5_structure_equations(zero3, polar, sphere, torsionful):
    """Both structure equations on every fixture, torsionful included."""
    worst = 0.0
    for fix in (zero3, polar, sphere, torsionful):
        rng = np.random.default_rng(77005)
        dim = fix.dim
        pts = fix.domain.sample(13, rng)
        args1 = [(rand_vector(dim, rng),) for _ in range(3)] + [(mf.basis(dim, 0),)]
        args2 = [(rand_vector(dim, rng), rand_vector(dim, rng)) for _ in range(3)]
        args2.append((mf.basis(dim, 0), mf.basis(dim, 1)))
        r1 = worst_residual([check_structure_equation(fix.conn, "first", *args)
                             for args in args1], pts)
        r2 = worst_residual([check_structure_equation(fix.conn, "second", *args)
                             for args in args2], pts)
        assert r1 < 1e-9, (fix.name, r1)
        assert r2 < 1e-9, (fix.name, r2)
        worst = max(worst, r1, r2)
    report_line(5, True, f"structure equations on 4 fixtures, max residual {worst:.2e} < 1e-9")


def test_criterion_6_inversions_and_frames(sphere, torsionful):
    """Cartan-field inversion round trips and frame independence."""
    rng = np.random.default_rng(77006)
    rt_worst = 0.0
    for fix in (sphere, torsionful):
        pts = fix.domain.sample(10, rng)
        for _ in range(5):
            a, b, c = (rand_vector(2, rng) for _ in range(3))
            rec_t = invert_cartan_torsion(lambda v: cartan_torsion(fix.conn, v), a, b)
            rt_worst = max(rt_worst, worst_residual([(rec_t, torsion(fix.conn, a, b))], pts))
            rec_r = invert_cartan_curvature(
                lambda v, w: cartan_curvature(fix.conn, v, w), a, b, c)
            rt_worst = max(rt_worst, worst_residual([(rec_r, curvature(fix.conn, a, b, c))], pts))

    fr_worst = 0.0
    for fix in (sphere, torsionful):
        pts = fix.domain.sample(10, rng)
        for _ in range(5):
            frame = rand_frame(2, rng)
            a, c, d = (rand_vector(2, rng) for _ in range(3))
            x = rand_mvf(2, rng)
            fr_worst = max(fr_worst, worst_residual([(
                cartan_torsion(fix.conn, c), cartan_torsion(fix.conn, c, frame))], pts))
            fr_worst = max(fr_worst, worst_residual([(
                cartan_curvature(fix.conn, c, d), cartan_curvature(fix.conn, c, d, frame))], pts))
            fr_worst = max(fr_worst, worst_residual([(
                gauge_bivector(fix.conn, a), gauge_bivector(fix.conn, a, frame))], pts))
            fr_worst = max(fr_worst, worst_residual([(
                generalized_apply(fix.conn, a, x), generalized_apply(fix.conn, a, x, frame))], pts))

    ok = rt_worst < 1e-10 and fr_worst < 1e-9
    report_line(6, ok, f"inversion round trips {rt_worst:.2e} < 1e-10, "
                       f"frame independence {fr_worst:.2e} < 1e-9")
    assert rt_worst < 1e-10
    assert fr_worst < 1e-9


def test_criterion_7_classical_bridge(sphere, polar, pmap):
    """Component-calculus oracle on the sphere; transformation laws under
    the polar map."""
    oracle = run_fixture_checks(sphere, "bridge", seed=77007, samples=50, tol=1e-10).checks
    oracle_worst = max(c.max_residual for c in oracle)
    assert all(c.passed for c in oracle), [(c.name, c.max_residual) for c in oracle]

    zero2 = type(polar)("zero2", 2, ("x", "y"), ConnectionField.zero(2),
                        pmap.domain_canonical, 50, 77008, 1e-9)
    law_worst = 0.0
    for fix in (zero2, polar):
        report = run_transform_checks(fix, pmap, samples=50, tol=1e-9)
        assert report.passed, [(c.name, c.max_residual) for c in report.checks]
        law_worst = max(law_worst, max(c.max_residual for c in report.checks))

    report_line(7, True, f"component oracle {oracle_worst:.2e} < 1e-10, "
                         f"transformation laws {law_worst:.2e} < 1e-9")


def test_criterion_8_adjoint_commutation(polar, sphere):
    """All nine sign pairs commute with the adjoint on (1,1)-extensor fields."""
    worst = 0.0
    for fix in (polar, sphere):
        rng = np.random.default_rng(77009)
        pts = fix.domain.sample(10, rng)
        for _ in range(3):
            t = rand_ext11(2, rng)
            a = rand_vector(2, rng)
            for s1 in SIGNS3:
                for s in SIGNS3:
                    lhs = ext_adjoint(extensor_cov_derivative(fix.conn, (s1, s), t, a))
                    rhs = extensor_cov_derivative(fix.conn, (s, s1), ext_adjoint(t), a)
                    pairs = [(lhs.entries[i][j], rhs.entries[i][j])
                             for i in range(2) for j in range(2)]
                    worst = max(worst, worst_residual(pairs, pts))
    ok = worst < 1e-8
    report_line(8, ok, f"adjoint commutation over 9 sign pairs, residual {worst:.2e} < 1e-8")
    assert ok
