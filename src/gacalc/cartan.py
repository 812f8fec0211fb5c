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

from typing import Callable

from . import fields as mf
from .algebra import Frame
from .connection import (
    ConnectionField,
    ExtensorFieldK,
    const_frames,
    cov_derivative,
    cov_derivative_extensor,
    gamma_apply,
)
from .fields import MultivectorField


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


def _half_double_frame_sum(conn: ConnectionField, coeff, frame: Frame | None):
    """Half the double frame sum of coeff(e_m, e_n) e^m ^ e^n over m != n."""
    down, up = const_frames(conn.dim, frame)
    out = MultivectorField(conn.dim, {})
    for m in range(conn.dim):
        for n in range(conn.dim):
            if m != n:
                out = mf.add(out, mf.scale(coeff(down[m], down[n]), mf.wedge(up[m], up[n])))
    return mf.scale(0.5, out)


def _wedge_frame_sum(a: MultivectorField, b: MultivectorField, bivector,
                     frame: Frame | None) -> MultivectorField:
    """sum_m ((a^b) . bivector(e_m)) e^m."""
    down, up = const_frames(a.dim, frame)
    ab = mf.wedge(a, b)
    out = MultivectorField(a.dim, {})
    for m in range(a.dim):
        out = mf.add(out, mf.scale(mf.scalar_product(ab, bivector(down[m])), up[m]))
    return out


def cartan_torsion(conn: ConnectionField, c: MultivectorField,
                   frame: Frame | None = None) -> MultivectorField:
    """Bivector-valued torsion: half double frame sum of e^m ^ e^n (tau(e_m, e_n) . c)."""
    return _half_double_frame_sum(conn, lambda a, b: mf.scalar_product(torsion(conn, a, b), c),
                                  frame)


def invert_cartan_torsion(theta: Callable[[MultivectorField], MultivectorField],
                          a: MultivectorField, b: MultivectorField,
                          frame: Frame | None = None) -> MultivectorField:
    """Recover tau(a, b) from the bivector map: sum_m ((a^b) . theta(e_m)) e^m."""
    return _wedge_frame_sum(a, b, theta, frame)


def cartan_curvature(conn: ConnectionField, c: MultivectorField, d: MultivectorField,
                     frame: Frame | None = None) -> MultivectorField:
    """Bivector-valued curvature: half double frame sum of e^m ^ e^n (rho(e_m, e_n, c) . d)."""
    return _half_double_frame_sum(conn, lambda a, b: mf.scalar_product(curvature(conn, a, b, c), d),
                                  frame)


def invert_cartan_curvature(omega: Callable[[MultivectorField, MultivectorField], MultivectorField],
                            a: MultivectorField, b: MultivectorField, c: MultivectorField,
                            frame: Frame | None = None) -> MultivectorField:
    """Recover rho(a, b, c): sum_m ((a^b) . omega(c, e_m)) e^m."""
    return _wedge_frame_sum(a, b, lambda e: omega(c, e), frame)


def cartan_connection(conn: ConnectionField, kind: str, b: MultivectorField,
                      c: MultivectorField, frame: Frame | None = None) -> MultivectorField:
    """Cartan connection operators.

    first:  sum_m ((cov+_{e_m} b) . c) e^m
    second: sum_m (b . (cov-_{e_m} c)) e^m
    """
    if kind not in ("first", "second"):
        raise ValueError(f"kind must be 'first' or 'second', got {kind!r}")
    down, up = const_frames(conn.dim, frame)
    out = MultivectorField(conn.dim, {})
    for m in range(conn.dim):
        if kind == "first":
            coeff = mf.scalar_product(cov_derivative(conn, "+", down[m], b), c)
        else:
            coeff = mf.scalar_product(b, cov_derivative(conn, "-", down[m], c))
        out = mf.add(out, mf.scale(coeff, up[m]))
    return out


def first_structure_rhs(conn: ConnectionField, c: MultivectorField) -> MultivectorField:
    """d_o ^ c plus the frame sum of e^m ^ (second-kind operator of (e_m, c))."""
    down, up = const_frames(conn.dim, None)
    out = mf.curl(c)
    for m in range(conn.dim):
        out = mf.add(out, mf.wedge(up[m], cartan_connection(conn, "second", down[m], c)))
    return out


def second_structure_rhs(conn: ConnectionField, c: MultivectorField,
                         d: MultivectorField) -> MultivectorField:
    """d_o ^ (first kind of (c,d)) plus sum_m first(c, e^m) ^ second(e_m, d)."""
    down, up = const_frames(conn.dim, None)
    out = mf.curl(cartan_connection(conn, "first", c, d))
    for m in range(conn.dim):
        out = mf.add(out, mf.wedge(cartan_connection(conn, "first", c, up[m]),
                                   cartan_connection(conn, "second", down[m], d)))
    return out


# which -> the two sides
_STRUCTURE_EQUATIONS = {
    "first": (cartan_torsion, first_structure_rhs),
    "second": (cartan_curvature, second_structure_rhs),
}


def check_structure_equation(conn: ConnectionField, which: str,
                             *args: MultivectorField) -> tuple[MultivectorField, MultivectorField]:
    """Both sides of a structure equation, built independently, at the
    arguments (c,) of the first equation or (c, d) of the second."""
    if which not in _STRUCTURE_EQUATIONS:
        raise ValueError(f"which must be 'first' or 'second', got {which!r}")
    lhs, rhs = _STRUCTURE_EQUATIONS[which]
    return lhs(conn, *args), rhs(conn, *args)


def check_cyclic(conn: ConnectionField, a: MultivectorField, b: MultivectorField,
                 c: MultivectorField) -> tuple[MultivectorField, MultivectorField]:
    """The cyclic curvature sum rho(a,b,c) + rho(b,c,a) + rho(c,a,b) and the
    zero it equals on a symmetric structure."""
    total = mf.add(mf.add(curvature(conn, a, b, c), curvature(conn, b, c, a)),
                   curvature(conn, c, a, b))
    return total, MultivectorField(conn.dim, {})


def check_bianchi(conn: ConnectionField, a: MultivectorField, b: MultivectorField,
                  c: MultivectorField, d: MultivectorField) -> tuple[MultivectorField, MultivectorField]:
    """The cyclic sum of the (+,+,+,-) signed derivative of curvature and the
    zero it equals on a symmetric structure."""
    rho = curvature_extensor(conn)
    signs = ("+", "+", "+", "-")
    total = cov_derivative_extensor(conn, signs, rho, d, (a, b, c))
    total = mf.add(total, cov_derivative_extensor(conn, signs, rho, a, (b, d, c)))
    total = mf.add(total, cov_derivative_extensor(conn, signs, rho, b, (d, a, c)))
    return total, MultivectorField(conn.dim, {})
