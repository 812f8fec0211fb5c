"""Torsion and curvature of a parallelism structure, and Cartan's theory.

Torsion comes from the antisymmetrized connection map, curvature from the
commutator of plus-derivatives.  Both repackage into bivector-valued
extensor fields through double frame sums, with exact inversion formulas,
and satisfy the two structure equations; for symmetric (torsionless)
structures the cyclic and differential curvature identities hold as well.
Vector-derivative sums are realized as frame sums over a reciprocal pair
(canonical frame by default).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from . import fields as mf
from .algebra import Frame
from .connection import (
    ConnectionField,
    ExtensorFieldK,
    const_frames,
    cov_derivative,
    cov_derivative_extensor,
    gamma_apply,
    is_symmetric,
)
from .fields import MultivectorField
from .report import CheckResult, field_residual, worst_of


class NotSymmetricError(ValueError):
    """Raised when an identity that needs a torsionless structure is asked
    of a connection with torsion."""


def torsion(conn: ConnectionField, a: MultivectorField, b: MultivectorField) -> MultivectorField:
    """tau(a, b) = gamma_a(b) - gamma_b(a); antisymmetric and tensorial."""
    return mf.sub(gamma_apply(conn, a, b), gamma_apply(conn, b, a))


def torsion_operator_form(conn: ConnectionField, a: MultivectorField,
                          b: MultivectorField) -> MultivectorField:
    """Equivalent operator route: cov+ along a of b, antisymmetrized, minus [a, b]."""
    return mf.sub(
        mf.sub(cov_derivative(conn, "+", a, b), cov_derivative(conn, "+", b, a)),
        mf.lie_bracket(a, b),
    )


def curvature(conn: ConnectionField, a: MultivectorField, b: MultivectorField,
              c: MultivectorField) -> MultivectorField:
    """rho(a, b, c) = [cov+_a, cov+_b] c - cov+_{[a,b]} c."""
    ab = cov_derivative(conn, "+", a, cov_derivative(conn, "+", b, c))
    ba = cov_derivative(conn, "+", b, cov_derivative(conn, "+", a, c))
    lie = cov_derivative(conn, "+", mf.lie_bracket(a, b), c)
    return mf.sub(mf.sub(ab, ba), lie)


def curvature_extensor(conn: ConnectionField) -> ExtensorFieldK:
    """rho as an arity-3 evaluator (for signed extensor derivatives)."""
    return ExtensorFieldK(conn.dim, 3, lambda a, b, c: curvature(conn, a, b, c))


def cartan_torsion(conn: ConnectionField, c: MultivectorField,
                   frame: Frame | None = None) -> MultivectorField:
    """Bivector-valued torsion: half double frame sum of e^m ^ e^n (tau(e_m, e_n) . c)."""
    down, up = const_frames(conn.dim, frame)
    out = MultivectorField(conn.dim, {}, c.domain or conn.domain)
    for m in range(conn.dim):
        for n in range(conn.dim):
            if m == n:
                continue
            coeff = mf.scalar_product(torsion(conn, down[m], down[n]), c)
            out = mf.add(out, mf.scale(coeff, mf.wedge(up[m], up[n])))
    return mf.scale(0.5, out)


def invert_cartan_torsion(theta: Callable[[MultivectorField], MultivectorField],
                          a: MultivectorField, b: MultivectorField,
                          frame: Frame | None = None) -> MultivectorField:
    """Recover tau(a, b) from the bivector map: sum_m ((a^b) . theta(e_m)) e^m."""
    down, up = const_frames(a.dim, frame)
    ab = mf.wedge(a, b)
    out = MultivectorField(a.dim, {}, a.domain or b.domain)
    for m in range(a.dim):
        coeff = mf.scalar_product(ab, theta(down[m]))
        out = mf.add(out, mf.scale(coeff, up[m]))
    return out


def cartan_curvature(conn: ConnectionField, c: MultivectorField, d: MultivectorField,
                     frame: Frame | None = None) -> MultivectorField:
    """Bivector-valued curvature: half double frame sum of e^m ^ e^n (rho(e_m, e_n, c) . d)."""
    down, up = const_frames(conn.dim, frame)
    out = MultivectorField(conn.dim, {}, c.domain or conn.domain)
    for m in range(conn.dim):
        for n in range(conn.dim):
            if m == n:
                continue
            coeff = mf.scalar_product(curvature(conn, down[m], down[n], c), d)
            out = mf.add(out, mf.scale(coeff, mf.wedge(up[m], up[n])))
    return mf.scale(0.5, out)


def invert_cartan_curvature(omega: Callable[[MultivectorField, MultivectorField], MultivectorField],
                            a: MultivectorField, b: MultivectorField, c: MultivectorField,
                            frame: Frame | None = None) -> MultivectorField:
    """Recover rho(a, b, c): sum_m ((a^b) . omega(c, e_m)) e^m."""
    down, up = const_frames(a.dim, frame)
    ab = mf.wedge(a, b)
    out = MultivectorField(a.dim, {}, a.domain or b.domain)
    for m in range(a.dim):
        coeff = mf.scalar_product(ab, omega(c, down[m]))
        out = mf.add(out, mf.scale(coeff, up[m]))
    return out


def cartan_connection(conn: ConnectionField, kind: str, b: MultivectorField,
                      c: MultivectorField, frame: Frame | None = None) -> MultivectorField:
    """Cartan connection operators.

    first:  sum_m ((cov+_{e_m} b) . c) e^m
    second: sum_m (b . (cov-_{e_m} c)) e^m
    """
    if kind not in ("first", "second"):
        raise ValueError(f"kind must be 'first' or 'second', got {kind!r}")
    down, up = const_frames(conn.dim, frame)
    out = MultivectorField(conn.dim, {}, b.domain or c.domain or conn.domain)
    for m in range(conn.dim):
        if kind == "first":
            coeff = mf.scalar_product(cov_derivative(conn, "+", down[m], b), c)
        else:
            coeff = mf.scalar_product(b, cov_derivative(conn, "-", down[m], c))
        out = mf.add(out, mf.scale(coeff, up[m]))
    return out


def first_structure_lhs(conn: ConnectionField, c: MultivectorField) -> MultivectorField:
    return cartan_torsion(conn, c)


def first_structure_rhs(conn: ConnectionField, c: MultivectorField) -> MultivectorField:
    """d_o ^ c plus the frame sum of e^m ^ (second-kind operator of (e_m, c))."""
    down, up = const_frames(conn.dim, None)
    out = mf.curl(c)
    for m in range(conn.dim):
        out = mf.add(out, mf.wedge(up[m], cartan_connection(conn, "second", down[m], c)))
    return out


def second_structure_lhs(conn: ConnectionField, c: MultivectorField,
                         d: MultivectorField) -> MultivectorField:
    return cartan_curvature(conn, c, d)


def second_structure_rhs(conn: ConnectionField, c: MultivectorField,
                         d: MultivectorField) -> MultivectorField:
    """d_o ^ (first kind of (c,d)) plus sum_m first(c, e^m) ^ second(e_m, d)."""
    down, up = const_frames(conn.dim, None)
    out = mf.curl(cartan_connection(conn, "first", c, d))
    for m in range(conn.dim):
        out = mf.add(out, mf.wedge(cartan_connection(conn, "first", c, up[m]),
                                   cartan_connection(conn, "second", down[m], d)))
    return out


def check_structure_equation(conn: ConnectionField, which: str, args: Sequence,
                             points, tol: float) -> CheckResult:
    """Max residual of a structure equation, both sides built independently.

    ``args`` is a sequence of argument tuples: (c,) for the first equation,
    (c, d) for the second.
    """
    if which not in ("first", "second"):
        raise ValueError(f"which must be 'first' or 'second', got {which!r}")
    worst = 0.0
    total = 0
    for tup in args:
        if which == "first":
            (c,) = tup
            lhs, rhs = first_structure_lhs(conn, c), first_structure_rhs(conn, c)
        else:
            c, d = tup
            lhs, rhs = second_structure_lhs(conn, c, d), second_structure_rhs(conn, c, d)
        worst = worst_of(worst, field_residual(lhs, rhs, points))
        total += len(points)
    name = "structure-first" if which == "first" else "structure-second"
    eq = "FCE.1" if which == "first" else "SCE.1"
    return CheckResult(name, eq, total, worst, tol)


def _require_symmetric(conn: ConnectionField, points) -> None:
    if not is_symmetric(conn, points):
        raise NotSymmetricError(
            "connection is not symmetric: identity only holds for torsionless structures"
        )


def check_cyclic(conn: ConnectionField, points, tol: float, seed: int = 0,
                 arg_draws: int = 4) -> CheckResult:
    """Cyclic curvature sum rho(a,b,c) + rho(b,c,a) + rho(c,a,b) over random fields."""
    _require_symmetric(conn, points)
    rng = np.random.default_rng(seed)
    worst = 0.0
    total = 0
    zero = MultivectorField(conn.dim, {})
    for k in range(arg_draws):
        a, b, c = (_rand_poly_vector(conn.dim, rng, constant=(k == 0)) for _ in range(3))
        total_field = mf.add(mf.add(curvature(conn, a, b, c), curvature(conn, b, c, a)),
                             curvature(conn, c, a, b))
        worst = worst_of(worst, field_residual(total_field, zero, points))
        total += len(points)
    return CheckResult("curvature-cyclic", "SPS.4", total, worst, tol)


def check_bianchi(conn: ConnectionField, points, tol: float, seed: int = 0,
                  arg_draws: int = 3) -> CheckResult:
    """Cyclic sum of the (+,+,+,-) signed derivative of curvature over random fields."""
    _require_symmetric(conn, points)
    rng = np.random.default_rng(seed)
    rho = curvature_extensor(conn)
    signs = ("+", "+", "+", "-")
    worst = 0.0
    total = 0
    zero = MultivectorField(conn.dim, {})
    for k in range(arg_draws):
        a, b, c, d = (_rand_poly_vector(conn.dim, rng, constant=(k == 0)) for _ in range(4))
        s = cov_derivative_extensor(conn, signs, rho, d, (a, b, c))
        s = mf.add(s, cov_derivative_extensor(conn, signs, rho, a, (b, d, c)))
        s = mf.add(s, cov_derivative_extensor(conn, signs, rho, b, (d, a, c)))
        worst = worst_of(worst, field_residual(s, zero, points))
        total += len(points)
    return CheckResult("curvature-bianchi", "SPS.5", total, worst, tol)


def _rand_poly_vector(dim: int, rng: np.random.Generator, constant: bool = False) -> MultivectorField:
    comps = []
    for _ in range(dim):
        e = ex.const(rng.uniform(-1.0, 1.0))
        if not constant:
            for i in range(dim):
                e = ex.add(e, ex.mul(ex.const(rng.uniform(-1.0, 1.0)), ex.Var(i)))
        comps.append(e)
    return mf.vector(dim, comps)
