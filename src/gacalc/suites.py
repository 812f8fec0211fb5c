"""Identity-check suites: every verified law as a named residual check.

Each check draws seeded random argument fields, builds both sides of an
identity through independent code paths where the law relates different
constructions, and reports the max residual over sampled points
(normalized by max(1, |lhs|, |rhs|)).  A check asked for N samples gets
ceil(N / draws) points per argument draw, so the reported sample count is
never below the request.  Suites group the checks for the command line:
'core' covers the derivative operators, 'cartan' torsion, curvature and
the structure equations, 'bianchi' the two symmetric-structure
identities, 'bridge' the classical component formulas.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from . import fields as mf
from .algebra import Frame, Multivector
from .bridge import (
    CoordinateMap,
    christoffel,
    classical_cov_derivative,
    coordinate_frames,
    forward_jacobian_primed,
    inverse_jacobian,
    riemann_coefficients,
    transform_connection,
    transform_tensor2_components,
    transform_vector_components,
)
from .cartan import (
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
from .connection import (
    ExtensorField11,
    ExtensorFieldK,
    cov_derivative,
    cov_derivative_extensor,
    deform,
    ext_adjoint,
    extensor_cov_derivative,
    gamma_apply,
    gauge_bivector,
    generalized_adjoint_apply,
    generalized_apply,
    generalized_skew_apply,
    generalized_sym_apply,
    is_symmetric,
    resolve11,
)
from .fixtures import FixtureConfig
from .report import CheckResult, Report, expr_residual, field_residual, worst_of

SUITES = ("all", "core", "cartan", "bianchi", "bridge")

SIGNS3 = ("+", "-", "0")


# ---------------------------------------------------------------------------
# Random argument generators (seeded)
# ---------------------------------------------------------------------------


def rand_scalar(dim: int, rng: np.random.Generator, degree: int = 1) -> ex.Expr:
    e = ex.const(rng.uniform(-1.0, 1.0))
    if degree >= 1:
        for i in range(dim):
            e = ex.add(e, ex.mul(ex.const(rng.uniform(-1.0, 1.0)), ex.Var(i)))
    if degree >= 2:
        i = int(rng.integers(dim))
        e = ex.add(e, ex.mul(ex.const(rng.uniform(-0.5, 0.5)), ex.powi(ex.Var(i), 2)))
    return e


def rand_vector(dim: int, rng: np.random.Generator, degree: int = 1) -> mf.MultivectorField:
    return mf.vector(dim, [rand_scalar(dim, rng, degree) for _ in range(dim)])


def rand_mvf(dim: int, rng: np.random.Generator, degree: int = 1,
             grades=None) -> mf.MultivectorField:
    coeffs = {}
    for mask in range(1 << dim):
        if grades is not None and bin(mask).count("1") not in grades:
            continue
        coeffs[mask] = rand_scalar(dim, rng, degree)
    return mf.mvf(dim, coeffs)


def rand_ext11(dim: int, rng: np.random.Generator, degree: int = 1) -> ExtensorField11:
    rows = tuple(tuple(rand_scalar(dim, rng, degree) for _ in range(dim)) for _ in range(dim))
    return ExtensorField11(dim, rows)


def rand_lambda(dim: int, rng: np.random.Generator) -> ExtensorField11:
    """Non-singular non-constant vector map: identity plus a small linear part."""
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            bump = ex.mul(ex.const(0.05), rand_scalar(dim, rng, degree=1))
            row.append(ex.add(ex.ONE, bump) if i == j else bump)
        rows.append(tuple(row))
    return ExtensorField11(dim, tuple(rows))


def rand_frame(dim: int, rng: np.random.Generator) -> Frame:
    while True:
        m = np.eye(dim) + rng.uniform(-0.4, 0.4, size=(dim, dim))
        if abs(np.linalg.det(m)) > 0.3:
            return Frame.from_matrix(m)


def rand_kextensor2(dim: int, rng: np.random.Generator) -> ExtensorFieldK:
    """Random pointwise-bilinear map on vector pairs, multivector valued."""
    p = rand_vector(dim, rng)
    q = rand_vector(dim, rng)
    u = rand_vector(dim, rng)
    w = rand_mvf(dim, rng, grades={2})

    def func(v1, v2):
        t1 = mf.scale(ex.mul(mf.scalar_product(v1, p), mf.scalar_product(v2, q)), u)
        t2 = mf.scale(mf.scalar_product(mf.wedge(v1, v2), w), p)
        return mf.add(t1, t2)

    return ExtensorFieldK(dim, 2, func)


# ---------------------------------------------------------------------------
# Suite bookkeeping
# ---------------------------------------------------------------------------


class _SuiteRun:
    """Bookkeeping for one suite: seeded generator, point budgets, results."""

    def __init__(self, fix: FixtureConfig, seed: int, samples: int, tol: float):
        self.fix = fix
        self.conn = fix.conn
        self.dim = fix.dim
        self.rng = np.random.default_rng(seed)
        self.tol = tol
        self.samples = max(1, samples)
        self.results: list[CheckResult] = []

    def points(self, count: int) -> np.ndarray:
        return self.fix.domain.sample(count, self.rng)

    def check(self, name: str, tag: str, residual_fn, draws: int = 5) -> None:
        """residual_fn(rng, points) -> float for one argument draw."""
        n_points = max(10, math.ceil(self.samples / draws))
        pts = self.points(n_points)
        worst = 0.0
        for _ in range(draws):
            worst = worst_of(worst, residual_fn(self.rng, pts))
        self.results.append(CheckResult(name, tag, draws * n_points, worst, self.tol))


def _flat_scalar(a: mf.MultivectorField, f: ex.Expr) -> ex.Expr:
    """a.d_o f for a scalar expression."""
    return mf.directional_derivative(a, mf.scalar_field(a.dim, f)).component(0)


def _ext_sum(t: ExtensorField11, u: ExtensorField11) -> ExtensorFieldK:
    return ExtensorFieldK(t.dim, 1, lambda v: mf.add(t.apply(v), u.apply(v)))


def _rand_const_vector(dim: int, rng: np.random.Generator) -> Multivector:
    return Multivector.from_vector(rng.uniform(-1.0, 1.0, size=dim))


# ---------------------------------------------------------------------------
# Core suite: connection maps and covariant derivatives
# ---------------------------------------------------------------------------


def core_suite(fix: FixtureConfig, seed: int, samples: int, tol: float) -> list[CheckResult]:
    run = _SuiteRun(fix, seed, samples, tol)
    conn, dim = run.conn, run.dim

    def rv(rng, degree=1):
        return rand_vector(dim, rng, degree)

    def rx(rng):
        return rand_mvf(dim, rng)

    zero = mf.mvf(dim, {})

    def gen_grade(rng, pts):
        a, x = rv(rng), rx(rng)
        worst = 0.0
        for k in range(dim + 1):
            y = generalized_apply(conn, a, mf.grade_project(x, k))
            worst = worst_of(worst, field_residual(y, mf.grade_project(y, k), pts))
        return worst

    run.check("gen-grade-preserving", "PS.4", gen_grade, draws=2)

    for kind, tag in (("hat", "PS.5a"), ("tilde", "PS.5b"), ("bar", "PS.5c")):
        def inv_commute(rng, pts, kind=kind):
            a, x = rv(rng), rx(rng)
            return field_residual(generalized_apply(conn, a, mf.involute(x, kind)),
                                  mf.involute(generalized_apply(conn, a, x), kind), pts)

        run.check(f"gen-involution-{kind}", tag, inv_commute, draws=2)

    run.check("gen-scalar-kills", "PS.6a",
              lambda rng, pts: field_residual(
                  generalized_apply(conn, rv(rng), mf.scalar_field(dim, rand_scalar(dim, rng))),
                  zero, pts))

    run.check("gen-vector-agrees", "PS.6b",
              lambda rng, pts: (lambda a, b: field_residual(
                  generalized_apply(conn, a, b), gamma_apply(conn, a, b), pts))(rv(rng), rv(rng)))

    def gen_wedge(rng, pts):
        a, x, y = rv(rng), rx(rng), rx(rng)
        lhs = generalized_apply(conn, a, mf.wedge(x, y))
        rhs = mf.add(mf.wedge(generalized_apply(conn, a, x), y),
                     mf.wedge(x, generalized_apply(conn, a, y)))
        return field_residual(lhs, rhs, pts)

    run.check("gen-wedge-derivation", "PS.6c", gen_wedge, draws=2)

    def gen_adjoint(rng, pts):
        a, x, y = rv(rng), rx(rng), rx(rng)
        lhs = mf.scalar_product(generalized_apply(conn, a, x), y)
        rhs = mf.scalar_product(x, generalized_adjoint_apply(conn, a, y))
        return expr_residual([(lhs, rhs)], pts)

    run.check("gen-adjoint-pairing", "PS.7", gen_adjoint, draws=2)

    def gen_parts(rng, pts):
        a, x = rv(rng), rx(rng)
        plus = generalized_apply(conn, a, x)
        minus = generalized_adjoint_apply(conn, a, x)
        sym = mf.scale(0.5, mf.add(plus, minus))
        skew = mf.scale(0.5, mf.sub(plus, minus))
        return worst_of(field_residual(sym, generalized_sym_apply(conn, a, x), pts),
                        field_residual(skew, generalized_skew_apply(conn, a, x), pts))

    run.check("gen-sym-skew-parts", "PS.8", gen_parts, draws=2)

    def gauge_factor(rng, pts):
        a, x = rv(rng), rx(rng)
        return field_residual(generalized_skew_apply(conn, a, x),
                              mf.commutator(gauge_bivector(conn, a), x), pts)

    run.check("gauge-factorization", "PS.9", gauge_factor, draws=2)

    _product_derivation_checks(run, "skew-derivation", "PS.10",
                               lambda a, x: generalized_skew_apply(conn, a, x))

    def cov_grade(rng, pts):
        a, x = rv(rng), rx(rng)
        worst = 0.0
        for sign in ("+", "-"):
            for k in range(dim + 1):
                y = cov_derivative(conn, sign, a, mf.grade_project(x, k))
                worst = worst_of(worst, field_residual(y, mf.grade_project(y, k), pts))
        return worst

    run.check("cov-grade-preserving", "CDM.2", cov_grade, draws=2)

    def cov_linear_dir(rng, pts):
        a, a2, x = rv(rng), rv(rng), rx(rng)
        alpha, beta = rng.uniform(-2, 2), rng.uniform(-2, 2)
        combo = mf.add(mf.scale(alpha, a), mf.scale(beta, a2))
        worst = 0.0
        for sign in SIGNS3:
            lhs = cov_derivative(conn, sign, combo, x)
            rhs = mf.add(mf.scale(alpha, cov_derivative(conn, sign, a, x)),
                         mf.scale(beta, cov_derivative(conn, sign, a2, x)))
            worst = worst_of(worst, field_residual(lhs, rhs, pts))
        return worst

    run.check("cov-direction-linearity", "CDM.3", cov_linear_dir, draws=2)

    def cov_scalar(rng, pts):
        a = rv(rng)
        f = mf.scalar_field(dim, rand_scalar(dim, rng, degree=2))
        flat = mf.directional_derivative(a, f)
        return worst_of(*(field_residual(cov_derivative(conn, s, a, f), flat, pts) for s in SIGNS3))

    run.check("cov-scalar-field", "CDM.4a", cov_scalar)

    def cov_additive(rng, pts):
        a, x, y = rv(rng), rx(rng), rx(rng)
        worst = 0.0
        for sign in SIGNS3:
            lhs = cov_derivative(conn, sign, a, mf.add(x, y))
            rhs = mf.add(cov_derivative(conn, sign, a, x), cov_derivative(conn, sign, a, y))
            worst = worst_of(worst, field_residual(lhs, rhs, pts))
        return worst

    run.check("cov-additivity", "CDM.4b", cov_additive, draws=2)

    def cov_f_leibniz(rng, pts):
        a, x = rv(rng), rx(rng)
        f = rand_scalar(dim, rng)
        fx = mf.scale(f, x)
        df = _flat_scalar(a, f)
        worst = 0.0
        for sign in SIGNS3:
            lhs = cov_derivative(conn, sign, a, fx)
            rhs = mf.add(mf.scale(df, x), mf.scale(f, cov_derivative(conn, sign, a, x)))
            worst = worst_of(worst, field_residual(lhs, rhs, pts))
        return worst

    run.check("cov-scalar-leibniz", "CDM.4c", cov_f_leibniz, draws=2)

    def cov_wedge(rng, pts):
        a, x, y = rv(rng), rx(rng), rx(rng)
        worst = 0.0
        for sign in SIGNS3:
            lhs = cov_derivative(conn, sign, a, mf.wedge(x, y))
            rhs = mf.add(mf.wedge(cov_derivative(conn, sign, a, x), y),
                         mf.wedge(x, cov_derivative(conn, sign, a, y)))
            worst = worst_of(worst, field_residual(lhs, rhs, pts))
        return worst

    run.check("cov-wedge-leibniz", "CDM.5", cov_wedge, draws=2)

    def pairing(rng, pts):
        a, x, y = rv(rng), rx(rng), rx(rng)
        lhs = ex.add(mf.scalar_product(cov_derivative(conn, "+", a, x), y),
                     mf.scalar_product(x, cov_derivative(conn, "-", a, y)))
        rhs = _flat_scalar(a, mf.scalar_product(x, y))
        return expr_residual([(lhs, rhs)], pts)

    run.check("cov-pairing", "CDM.6", pairing)

    def zero_avg(rng, pts):
        a, x = rv(rng), rx(rng)
        lhs = cov_derivative(conn, "0", a, x)
        rhs = mf.scale(0.5, mf.add(cov_derivative(conn, "+", a, x),
                                   cov_derivative(conn, "-", a, x)))
        return field_residual(lhs, rhs, pts)

    run.check("cov-zero-average", "CDM.7", zero_avg, draws=2)

    def zero_pairing(rng, pts):
        a, x, y = rv(rng), rx(rng), rx(rng)
        lhs = ex.add(mf.scalar_product(cov_derivative(conn, "0", a, x), y),
                     mf.scalar_product(x, cov_derivative(conn, "0", a, y)))
        rhs = _flat_scalar(a, mf.scalar_product(x, y))
        return expr_residual([(lhs, rhs)], pts)

    run.check("cov-zero-pairing", "CDM.9", zero_pairing)

    _product_derivation_checks(run, "cov-zero-leibniz", "CDM.10",
                               lambda a, x: cov_derivative(conn, "0", a, x))

    def co_additive(rng, pts):
        a, a2, b, b2 = rv(rng), rv(rng), rv(rng), rv(rng)
        worst = 0.0
        for sign in ("+", "-"):
            lhs = cov_derivative(conn, sign, mf.add(a, a2), b)
            rhs = mf.add(cov_derivative(conn, sign, a, b), cov_derivative(conn, sign, a2, b))
            worst = worst_of(worst, field_residual(lhs, rhs, pts))
            lhs = cov_derivative(conn, sign, a, mf.add(b, b2))
            rhs = mf.add(cov_derivative(conn, sign, a, b), cov_derivative(conn, sign, a, b2))
            worst = worst_of(worst, field_residual(lhs, rhs, pts))
        return worst

    run.check("connection-op-additivity", "CO.2a", co_additive, draws=2)

    def co_f_first(rng, pts):
        a, b = rv(rng), rv(rng)
        f = rand_scalar(dim, rng)
        worst = 0.0
        for sign in ("+", "-"):
            lhs = cov_derivative(conn, sign, mf.scale(f, a), b)
            rhs = mf.scale(f, cov_derivative(conn, sign, a, b))
            worst = worst_of(worst, field_residual(lhs, rhs, pts))
        return worst

    run.check("connection-op-first-slot", "CO.2c", co_f_first, draws=2)

    def co_f_second(rng, pts):
        a, b = rv(rng), rv(rng)
        f = rand_scalar(dim, rng)
        df = _flat_scalar(a, f)
        worst = 0.0
        for sign in ("+", "-"):
            lhs = cov_derivative(conn, sign, a, mf.scale(f, b))
            rhs = mf.add(mf.scale(df, b), mf.scale(f, cov_derivative(conn, sign, a, b)))
            worst = worst_of(worst, field_residual(lhs, rhs, pts))
        return worst

    run.check("connection-op-second-slot", "CO.2d", co_f_second, draws=2)

    def co_pairing(rng, pts):
        a, b, c = rv(rng), rv(rng), rv(rng)
        lhs = ex.add(mf.scalar_product(cov_derivative(conn, "+", a, b), c),
                     mf.scalar_product(b, cov_derivative(conn, "-", a, c)))
        rhs = _flat_scalar(a, mf.scalar_product(b, c))
        return expr_residual([(lhs, rhs)], pts)

    run.check("connection-op-pairing", "CO.3", co_pairing)

    def cde1_k1(rng, pts):
        a, x1, x = rv(rng), rv(rng), rx(rng)
        t = rand_ext11(dim, rng)
        worst = 0.0
        for s1 in SIGNS3:
            for s in SIGNS3:
                lhs = mf.scalar_product(cov_derivative_extensor(conn, (s1, s), t, a, (x1,)), x)
                rhs = ex.sub(
                    ex.sub(_flat_scalar(a, mf.scalar_product(t.apply(x1), x)),
                           mf.scalar_product(t.apply(cov_derivative(conn, s1, a, x1)), x)),
                    mf.scalar_product(t.apply(x1), cov_derivative(conn, s, a, x)))
                worst = worst_of(worst, expr_residual([(lhs, rhs)], pts))
        return worst

    run.check("extensor-derivative-defining", "CDE.1", cde1_k1, draws=2)

    def cde1_k2(rng, pts):
        a, x1, x2, x = rv(rng), rv(rng), rv(rng), rx(rng)
        t = rand_kextensor2(dim, rng)
        worst = 0.0
        for signs in (("+", "-", "+"), ("-", "0", "-"), ("0", "+", "0")):
            lhs = mf.scalar_product(
                cov_derivative_extensor(conn, signs, t, a, (x1, x2)), x)
            rhs = _flat_scalar(a, mf.scalar_product(t(x1, x2), x))
            rhs = ex.sub(rhs, mf.scalar_product(t(cov_derivative(conn, signs[0], a, x1), x2), x))
            rhs = ex.sub(rhs, mf.scalar_product(t(x1, cov_derivative(conn, signs[1], a, x2)), x))
            rhs = ex.sub(rhs, mf.scalar_product(t(x1, x2), cov_derivative(conn, signs[2], a, x)))
            worst = worst_of(worst, expr_residual([(lhs, rhs)], pts))
        return worst

    run.check("extensor-derivative-defining-k2", "CDE.1", cde1_k2, draws=1)

    def cde2(rng, pts):
        a, x1 = rv(rng), rv(rng)
        t, u = rand_ext11(dim, rng), rand_ext11(dim, rng)
        f = rand_scalar(dim, rng)
        df = _flat_scalar(a, f)
        worst = 0.0
        for signs in (("+", "-"), ("0", "+")):
            lhs = cov_derivative_extensor(conn, signs, _ext_sum(t, u), a, (x1,))
            rhs = mf.add(cov_derivative_extensor(conn, signs, t, a, (x1,)),
                         cov_derivative_extensor(conn, signs, u, a, (x1,)))
            worst = worst_of(worst, field_residual(lhs, rhs, pts))
            scaled = ExtensorFieldK(dim, 1, lambda v, f=f, t=t: mf.scale(f, t.apply(v)))
            lhs = cov_derivative_extensor(conn, signs, scaled, a, (x1,))
            rhs = mf.add(mf.scale(df, t.apply(x1)),
                         mf.scale(f, cov_derivative_extensor(conn, signs, t, a, (x1,))))
            worst = worst_of(worst, field_residual(lhs, rhs, pts))
        return worst

    run.check("extensor-derivative-linearity", "CDE.2", cde2, draws=2)

    def cde3(rng, pts):
        a = rv(rng)
        t = rand_ext11(dim, rng)
        worst = 0.0
        for s1 in SIGNS3:
            for s in SIGNS3:
                lhs = ext_adjoint(resolve11(extensor_cov_derivative(conn, (s1, s), t, a)))
                rhs = resolve11(extensor_cov_derivative(conn, (s, s1), ext_adjoint(t), a))
                pairs = [(lhs.entries[i][j], rhs.entries[i][j])
                         for i in range(dim) for j in range(dim)]
                worst = worst_of(worst, expr_residual(pairs, pts))
        return worst

    run.check("extensor-adjoint-commutation", "CDE.3", cde3, draws=2)

    def deform_scalar(rng, pts):
        a = rv(rng)
        lam = rand_lambda(dim, rng)
        f = mf.scalar_field(dim, rand_scalar(dim, rng, degree=2))
        flat = mf.directional_derivative(a, f)
        return worst_of(*(field_residual(deform(conn, lam, s, a, f), flat, pts)
                          for s in ("+", "-")))

    run.check("deform-scalar-field", "CDM.11", deform_scalar, draws=2)

    def deform_pairing(rng, pts):
        a, x, y = rv(rng), rx(rng), rx(rng)
        lam = rand_lambda(dim, rng)
        lhs = ex.add(mf.scalar_product(deform(conn, lam, "+", a, x), y),
                     mf.scalar_product(x, deform(conn, lam, "-", a, y)))
        rhs = _flat_scalar(a, mf.scalar_product(x, y))
        return expr_residual([(lhs, rhs)], pts)

    run.check("deform-pairing", "CDM.11", deform_pairing, draws=2)

    def gauge_frame_indep(rng, pts):
        a = rv(rng)
        frame = rand_frame(dim, rng)
        return field_residual(gauge_bivector(conn, a),
                              gauge_bivector(conn, a, frame), pts)

    run.check("gauge-frame-independence", "PS.2a", gauge_frame_indep, draws=2)

    def gen_frame_indep(rng, pts):
        a, x = rv(rng), rx(rng)
        frame = rand_frame(dim, rng)
        return field_residual(generalized_apply(conn, a, x),
                              generalized_apply(conn, a, x, frame), pts)

    run.check("generalized-frame-independence", "PS.3", gen_frame_indep, draws=2)

    return run.results


def _product_derivation_checks(run: _SuiteRun, prefix: str, tag: str, op) -> None:
    """Leibniz rule of a derivation over each multivector product."""
    dim = run.dim

    products = {
        "wedge": mf.wedge,
        "clifford": mf.clifford,
        "lcontr": lambda x, y: mf.contract(x, y, "left"),
        "rcontr": lambda x, y: mf.contract(x, y, "right"),
    }

    for label, product in products.items():
        def leibniz(rng, pts, product=product):
            a = rand_vector(dim, rng)
            x = rand_mvf(dim, rng)
            y = rand_mvf(dim, rng)
            lhs = op(a, product(x, y))
            rhs = mf.add(product(op(a, x), y), product(x, op(a, y)))
            return field_residual(lhs, rhs, pts)

        run.check(f"{prefix}-{label}", tag, leibniz, draws=2)

    def leibniz_scalar(rng, pts):
        a = rand_vector(dim, rng)
        x = rand_mvf(dim, rng)
        y = rand_mvf(dim, rng)
        lhs = op(a, mf.scalar_field(dim, mf.scalar_product(x, y)))
        rhs = ex.add(mf.scalar_product(op(a, x), y), mf.scalar_product(x, op(a, y)))
        return expr_residual([(lhs.component(0), rhs)], pts)

    run.check(f"{prefix}-scalar", tag, leibniz_scalar, draws=2)


# ---------------------------------------------------------------------------
# Cartan suite: torsion, curvature, Cartan fields, structure equations
# ---------------------------------------------------------------------------


def cartan_suite(fix: FixtureConfig, seed: int, samples: int, tol: float) -> list[CheckResult]:
    run = _SuiteRun(fix, seed, samples, tol)
    conn, dim = run.conn, run.dim
    zero = mf.mvf(dim, {})
    symmetric = is_symmetric(conn, run.points(10))

    def rv(rng, degree=1):
        return rand_vector(dim, rng, degree)

    def torsion_equiv(rng, pts):
        a, b = rv(rng), rv(rng)
        return field_residual(torsion(conn, a, b), torsion_operator_form(conn, a, b), pts)

    run.check("torsion-equivalence", "TCF.1a", torsion_equiv, draws=2)

    def torsion_antisym(rng, pts):
        a, b = rv(rng), rv(rng)
        return field_residual(torsion(conn, a, b), mf.scale(-1.0, torsion(conn, b, a)), pts)

    run.check("torsion-antisymmetry", "TCF.1b", torsion_antisym, draws=2)

    def torsion_tensorial(rng, pts):
        a, b = rv(rng), rv(rng)
        f, g = rand_scalar(dim, rng), rand_scalar(dim, rng)
        lhs = torsion(conn, mf.scale(f, a), mf.scale(g, b))
        rhs = mf.scale(ex.mul(f, g), torsion(conn, a, b))
        return field_residual(lhs, rhs, pts)

    run.check("torsion-tensoriality", "TCF.1b", torsion_tensorial, draws=2)

    def curv_antisym(rng, pts):
        a, b, c = rv(rng), rv(rng), rv(rng)
        return field_residual(curvature(conn, a, b, c),
                              mf.scale(-1.0, curvature(conn, b, a, c)), pts)

    run.check("curvature-antisymmetry", "TCF.3", curv_antisym, draws=2)

    def curv_tensorial(rng, pts):
        a, b, c = rv(rng), rv(rng), rv(rng)
        f = rand_scalar(dim, rng)
        base = curvature(conn, a, b, c)
        worst = field_residual(curvature(conn, mf.scale(f, a), b, c), mf.scale(f, base), pts)
        worst = worst_of(worst, field_residual(curvature(conn, a, mf.scale(f, b), c),
                                          mf.scale(f, base), pts))
        worst = worst_of(worst, field_residual(curvature(conn, a, b, mf.scale(f, c)),
                                          mf.scale(f, base), pts))
        return worst

    run.check("curvature-tensoriality", "TCF.2a", curv_tensorial, draws=1)

    riem = riemann_coefficients(conn)

    def curv_classical(rng, pts):
        del rng
        pairs = []
        for a in range(dim):
            for b in range(dim):
                for g in range(dim):
                    value = curvature(conn, mf.basis(dim, a), mf.basis(dim, b), mf.basis(dim, g))
                    for d in range(dim):
                        pairs.append((value.component(1 << d), riem[d][g][a][b]))
        return expr_residual(pairs, pts)

    run.check("curvature-classical-coefficients", "TCF.2b", curv_classical, draws=1)

    def theta_roundtrip(rng, pts):
        a, b = rv(rng), rv(rng)
        recovered = invert_cartan_torsion(lambda c: cartan_torsion(conn, c), a, b)
        return field_residual(recovered, torsion(conn, a, b), pts)

    run.check("cartan-torsion-roundtrip", "CF.1a", theta_roundtrip, draws=2)

    def omega_roundtrip(rng, pts):
        a, b, c = rv(rng), rv(rng), rv(rng)
        recovered = invert_cartan_curvature(
            lambda cc, dd: cartan_curvature(conn, cc, dd), a, b, c)
        return field_residual(recovered, curvature(conn, a, b, c), pts)

    run.check("cartan-curvature-roundtrip", "CF.2a", omega_roundtrip, draws=2)

    def theta_frame_indep(rng, pts):
        c = rv(rng)
        frame = rand_frame(dim, rng)
        return field_residual(cartan_torsion(conn, c), cartan_torsion(conn, c, frame), pts)

    run.check("cartan-torsion-frame-independence", "CF.1", theta_frame_indep, draws=2)

    def omega_frame_indep(rng, pts):
        c, d = rv(rng), rv(rng)
        frame = rand_frame(dim, rng)
        return field_residual(cartan_curvature(conn, c, d),
                              cartan_curvature(conn, c, d, frame), pts)

    run.check("cartan-curvature-frame-independence", "CF.2", omega_frame_indep, draws=2)

    if symmetric:
        def torsion_vanishes(rng, pts):
            a, b = rv(rng), rv(rng)
            return worst_of(field_residual(torsion(conn, a, b), zero, pts),
                            field_residual(cartan_torsion(conn, a), zero, pts))

        run.check("torsion-vanishes", "SPS.3", torsion_vanishes, draws=2)

    def first_kind_linear(rng, pts):
        b, c = rv(rng), rv(rng)
        f = rand_scalar(dim, rng)
        lhs = cartan_connection(conn, "first", b, mf.scale(f, c))
        rhs = mf.scale(f, cartan_connection(conn, "first", b, c))
        worst = field_residual(lhs, rhs, pts)
        lhs = cartan_connection(conn, "first", mf.scale(f, b), c)
        grad_f = mf.gradient_field(f, dim)
        rhs = mf.add(mf.scale(mf.scalar_product(b, c), grad_f),
                     mf.scale(f, cartan_connection(conn, "first", b, c)))
        return worst_of(worst, field_residual(lhs, rhs, pts))

    run.check("cartan-first-linearity", "CSE.3", first_kind_linear, draws=2)

    def second_kind_linear(rng, pts):
        b, c = rv(rng), rv(rng)
        f = rand_scalar(dim, rng)
        lhs = cartan_connection(conn, "second", mf.scale(f, b), c)
        rhs = mf.scale(f, cartan_connection(conn, "second", b, c))
        worst = field_residual(lhs, rhs, pts)
        lhs = cartan_connection(conn, "second", b, mf.scale(f, c))
        grad_f = mf.gradient_field(f, dim)
        rhs = mf.add(mf.scale(mf.scalar_product(b, c), grad_f),
                     mf.scale(f, cartan_connection(conn, "second", b, c)))
        return worst_of(worst, field_residual(lhs, rhs, pts))

    run.check("cartan-second-linearity", "CSE.4", second_kind_linear, draws=2)

    def cartan_pairing(rng, pts):
        b, c = rv(rng), rv(rng)
        lhs = mf.add(cartan_connection(conn, "first", b, c),
                     cartan_connection(conn, "second", b, c))
        rhs = mf.gradient_field(mf.scalar_product(b, c), dim)
        return field_residual(lhs, rhs, pts)

    run.check("cartan-pairing", "CSE.5", cartan_pairing)

    struct_pts = run.points(max(10, math.ceil(run.samples / 4)))
    first_args = [(rand_vector(dim, run.rng),) for _ in range(3)]
    first_args.append((mf.constant(_rand_const_vector(dim, run.rng)),))
    run.results.append(check_structure_equation(conn, "first", first_args, struct_pts, tol))

    second_args = [(rand_vector(dim, run.rng), rand_vector(dim, run.rng)) for _ in range(3)]
    second_args.append((mf.constant(_rand_const_vector(dim, run.rng)),
                        mf.constant(_rand_const_vector(dim, run.rng))))
    run.results.append(check_structure_equation(conn, "second", second_args, struct_pts, tol))

    return run.results


def bianchi_suite(fix: FixtureConfig, seed: int, samples: int, tol: float) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    n_points = max(10, math.ceil(samples / 3))
    points = fix.domain.sample(n_points, rng)
    return [
        check_cyclic(fix.conn, points, tol, seed=seed + 1),
        check_bianchi(fix.conn, points, tol, seed=seed + 2),
    ]


# ---------------------------------------------------------------------------
# Bridge suite: classical component formulas in the fixture's own chart
# ---------------------------------------------------------------------------


def bridge_suite(fix: FixtureConfig, seed: int, samples: int, tol: float) -> list[CheckResult]:
    run = _SuiteRun(fix, seed, samples, tol)
    conn, dim = run.conn, run.dim

    def classical_contra(rng, pts):
        v = rand_vector(dim, rng, degree=2)
        table = classical_cov_derivative(conn, v.vector_components(), "contra")
        pairs = []
        for mu in range(dim):
            ga = cov_derivative(conn, "+", mf.basis(dim, mu), v)
            for lam in range(dim):
                pairs.append((ga.component(1 << lam), table[lam][mu]))
        return expr_residual(pairs, pts)

    run.check("classical-vector-contra", "A10", classical_contra, draws=2)

    def classical_co(rng, pts):
        v = rand_vector(dim, rng, degree=2)
        table = classical_cov_derivative(conn, v.vector_components(), "co")
        pairs = []
        for mu in range(dim):
            ga = cov_derivative(conn, "-", mf.basis(dim, mu), v)
            for nu in range(dim):
                pairs.append((ga.component(1 << nu), table[nu][mu]))
        return expr_residual(pairs, pts)

    run.check("classical-vector-co", "A11", classical_co, draws=2)

    def classical_t_coco(rng, pts):
        t = rand_ext11(dim, rng)
        comps = [[t.entries[b][a] for b in range(dim)] for a in range(dim)]  # t_ab = t(e_a).e_b
        table = classical_cov_derivative(conn, comps, ("co", "co"))
        pairs = []
        for mu in range(dim):
            dt = extensor_cov_derivative(conn, ("+", "+"), t, mf.basis(dim, mu))
            for a in range(dim):
                value = dt(mf.basis(dim, a))
                for b in range(dim):
                    pairs.append((value.component(1 << b), table[a][b][mu]))
        return expr_residual(pairs, pts)

    run.check("classical-tensor-co-co", "A24", classical_t_coco, draws=2)

    def classical_t_mixed(rng, pts):
        t = rand_ext11(dim, rng)
        comps = [[t.entries[b][a] for b in range(dim)] for a in range(dim)]
        table = classical_cov_derivative(conn, comps, ("co", "contra"))
        pairs = []
        for mu in range(dim):
            dt = extensor_cov_derivative(conn, ("+", "-"), t, mf.basis(dim, mu))
            for a in range(dim):
                value = dt(mf.basis(dim, a))
                for b in range(dim):
                    pairs.append((value.component(1 << b), table[a][b][mu]))
        return expr_residual(pairs, pts)

    run.check("classical-tensor-mixed", "A25", classical_t_mixed, draws=2)

    return run.results


# ---------------------------------------------------------------------------
# Transform suite: coordinate-map laws (used by `transform`)
# ---------------------------------------------------------------------------


def transform_suite(fix: FixtureConfig, cmap: CoordinateMap, seed: int, samples: int,
                    tol: float) -> list[CheckResult]:
    conn = fix.conn
    dim = cmap.dim
    if conn.dim != dim:
        raise ValueError("fixture and map dimensions differ")
    rng = np.random.default_rng(seed)
    n_points = max(10, samples)
    pts = cmap.domain_primed.sample(n_points, rng)
    results: list[CheckResult] = []

    def record(name, tag, worst, count=n_points):
        results.append(CheckResult(name, tag, count, worst, tol))

    # chart consistency
    composed = [ex.substitute(f, cmap.inverse) for f in cmap.forward]
    record("map-roundtrip", "-",
           expr_residual([(c, ex.Var(i)) for i, c in enumerate(composed)], pts))

    jinv = inverse_jacobian(cmap)
    kfwd = forward_jacobian_primed(cmap)
    pairs = []
    for i in range(dim):
        for j in range(dim):
            prod = ex.ZERO
            for k in range(dim):
                prod = ex.add(prod, ex.mul(kfwd[i][k], jinv[k][j]))
            pairs.append((prod, ex.ONE if i == j else ex.ZERO))
    record("map-jacobian-inverse", "-", expr_residual(pairs, pts))

    covariant, contravariant = coordinate_frames(cmap)
    pairs = []
    for m in range(dim):
        for n_ in range(dim):
            pairs.append((mf.scalar_product(covariant[m], contravariant[n_]),
                          ex.ONE if m == n_ else ex.ZERO))
    record("frame-reciprocity", "A.1", expr_residual(pairs, pts))

    # connection transformation law, two independent routes
    by_operator = christoffel(conn, cmap)
    by_law = transform_connection(conn, cmap)
    pairs = [(by_operator.gamma[g][a][b], by_law.gamma[g][a][b])
             for g in range(dim) for a in range(dim) for b in range(dim)]
    record("christoffel-vs-law", "A3", expr_residual(pairs, pts))

    # vector laws: reconstruct the field from transformed components
    worst_co = worst_contra = 0.0
    for _ in range(3):
        v = rand_vector(dim, rng)
        composed_v = [ex.substitute(c, cmap.inverse) for c in v.vector_components()]
        co = transform_vector_components(v.vector_components(), cmap, "co")
        contra = transform_vector_components(v.vector_components(), cmap, "contra")
        rebuilt_co = [ex.ZERO] * dim
        rebuilt_contra = [ex.ZERO] * dim
        for alpha in range(dim):
            up = contravariant[alpha].vector_components()
            down = covariant[alpha].vector_components()
            for i in range(dim):
                rebuilt_co[i] = ex.add(rebuilt_co[i], ex.mul(co[alpha], up[i]))
                rebuilt_contra[i] = ex.add(rebuilt_contra[i], ex.mul(contra[alpha], down[i]))
        worst_co = worst_of(worst_co, expr_residual(list(zip(rebuilt_co, composed_v)), pts))
        worst_contra = worst_of(worst_contra,
                                expr_residual(list(zip(rebuilt_contra, composed_v)), pts))
    record("vector-law-co", "A8", worst_co, 3 * n_points)
    record("vector-law-contra", "A9", worst_contra, 3 * n_points)

    # tensor laws: invariant contraction with probe vectors
    tensor_cases = {
        "tensor-law-co-co": ("A20", ("co", "co"), ("contra", "contra")),
        "tensor-law-contra-contra": ("A21", ("contra", "contra"), ("co", "co")),
        "tensor-law-co-contra": ("A22", ("co", "contra"), ("contra", "co")),
        "tensor-law-contra-co": ("A23", ("contra", "co"), ("co", "contra")),
    }
    for name, (tag, variances, probe_variances) in tensor_cases.items():
        worst = 0.0
        for _ in range(3):
            t = rand_ext11(dim, rng)
            u = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
            w = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
            comps = [[t.entries[b][a] for b in range(dim)] for a in range(dim)]
            law = transform_tensor2_components(comps, cmap, variances)
            u_t = transform_vector_components(u, cmap, probe_variances[0])
            w_t = transform_vector_components(w, cmap, probe_variances[1])
            lhs = ex.ZERO
            for m in range(dim):
                for n_ in range(dim):
                    lhs = ex.add(lhs, ex.mul(law[m][n_], ex.mul(u_t[m], w_t[n_])))
            rhs = ex.ZERO
            for i in range(dim):
                for j in range(dim):
                    rhs = ex.add(rhs, ex.mul(ex.substitute(t.entries[i][j], cmap.inverse),
                                             ex.mul(ex.const(u[j]), ex.const(w[i]))))
            worst = worst_of(worst, expr_residual([(lhs, rhs)], pts))
        record(name, tag, worst, 3 * n_points)

    # directional derivative along frame vectors vs primed-chart partials
    worst = 0.0
    for _ in range(3):
        f = rand_scalar(dim, rng, degree=2)
        grads = [ex.substitute(ex.diff(f, i), cmap.inverse) for i in range(dim)]
        composed_f = ex.substitute(f, cmap.inverse)
        pairs = []
        for alpha in range(dim):
            b_comp = covariant[alpha].vector_components()
            lhs = ex.ZERO
            for i in range(dim):
                lhs = ex.add(lhs, ex.mul(b_comp[i], grads[i]))
            pairs.append((lhs, ex.diff(composed_f, alpha)))
        worst = worst_of(worst, expr_residual(pairs, pts))
    record("directional-chain-rule", "A.1", worst, 3 * n_points)

    # transforming there and back recovers the connection
    if cmap.domain_canonical is not None:
        swapped = CoordinateMap(dim, cmap.inverse, cmap.forward,
                                cmap.domain_canonical, cmap.domain_primed)
        back = transform_connection(transform_connection(conn, cmap), swapped)
        back_pts = cmap.domain_canonical.sample(n_points, rng)
        pairs = [(back.gamma[g][a][b], conn.gamma[g][a][b])
                 for g in range(dim) for a in range(dim) for b in range(dim)]
        record("transform-roundtrip", "A3", expr_residual(pairs, back_pts))

    return results


# ---------------------------------------------------------------------------
# Entry point used by the CLI and the acceptance tests
# ---------------------------------------------------------------------------


def run_fixture_checks(fix: FixtureConfig, suite: str = "all", seed: int | None = None,
                       samples: int | None = None, tol: float | None = None) -> Report:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    seed = fix.seed if seed is None else seed
    samples = fix.samples if samples is None else samples
    tol = fix.tolerance if tol is None else tol

    checks: list[CheckResult] = []
    if suite in ("all", "core"):
        checks += core_suite(fix, seed, samples, tol)
    if suite in ("all", "cartan"):
        checks += cartan_suite(fix, seed + 101, samples, tol)
    if suite == "bianchi":
        checks += bianchi_suite(fix, seed + 202, samples, tol)
    elif suite == "all":
        rng = np.random.default_rng(seed)
        probe = fix.domain.sample(10, rng)
        if is_symmetric(fix.conn, probe):
            checks += bianchi_suite(fix, seed + 202, samples, tol)
    if suite in ("all", "bridge"):
        checks += bridge_suite(fix, seed + 303, samples, tol)
    return Report(fix.name, seed, checks)


def run_transform_checks(fix: FixtureConfig, cmap: CoordinateMap, seed: int | None = None,
                         samples: int | None = None, tol: float | None = None) -> Report:
    seed = fix.seed if seed is None else seed
    samples = fix.samples if samples is None else samples
    tol = fix.tolerance if tol is None else tol
    return Report(fix.name, seed, transform_suite(fix, cmap, seed, samples, tol))
