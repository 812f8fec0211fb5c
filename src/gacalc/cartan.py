"""Torsion and curvature of a parallelism structure, and Cartan's theory.

Torsion comes from the antisymmetrized connection map, curvature from the
commutator of plus-derivatives.  Both repackage into bivector-valued
extensor fields through double frame sums, with exact inversion formulas,
and satisfy the two structure equations; for symmetric (torsionless)
structures the cyclic and differential curvature identities hold as well.
Every vector-derivative sum here, single or double, is one
`fields.frame_sum` over a reciprocal pair (canonical frame by default).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from . import fields as mf
from .algebra import Frame
from .connection import (
    ConnectionField,
    cov_derivative,
    cov_derivative_extensor,
    gamma_apply,
)
from .fields import MultivectorField, frame_sum, memo


class NotSymmetricError(ValueError):
    """Raised when an identity that needs a torsionless structure is asked
    of a connection with torsion."""


@memo
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


@memo
def curvature(conn: ConnectionField, a: MultivectorField, b: MultivectorField,
              c: MultivectorField) -> MultivectorField:
    """rho(a, b, c) = [cov+_a, cov+_b] c - cov+_{[a,b]} c."""
    ab = cov_derivative(conn, "+", a, cov_derivative(conn, "+", b, c))
    ba = cov_derivative(conn, "+", b, cov_derivative(conn, "+", a, c))
    lie = cov_derivative(conn, "+", mf.lie_bracket(a, b), c)
    return mf.sub(mf.sub(ab, ba), lie)


def _half_double_frame_sum(dim: int, coeff, frame: Frame | None) -> MultivectorField:
    """Half the double frame sum of coeff(e_m, e_n) e^m ^ e^n over m != n; the
    m = n term is known by its frame field and skipped before coeff is called."""
    empty = MultivectorField(dim, {})

    def row(e_m: MultivectorField, up_m: MultivectorField) -> MultivectorField:
        return frame_sum(dim, lambda e_n, up_n: empty if e_n is e_m else
                         mf.scale(coeff(e_m, e_n), mf.wedge(up_m, up_n)), frame)

    return mf.scale(0.5, frame_sum(dim, row, frame))


def cartan_torsion(conn: ConnectionField, c: MultivectorField,
                   frame: Frame | None = None) -> MultivectorField:
    """Bivector-valued torsion: half double frame sum of e^m ^ e^n (tau(e_m, e_n) . c)."""
    return _half_double_frame_sum(
        conn.dim, lambda a, b: mf.scalar_product(torsion(conn, a, b), c), frame)


def invert_cartan_torsion(theta: Callable[[MultivectorField], MultivectorField],
                          a: MultivectorField, b: MultivectorField) -> MultivectorField:
    """Recover tau(a, b) from the bivector map: sum_m ((a^b) . theta(e_m)) e^m."""
    ab = mf.wedge(a, b)
    return frame_sum(a.dim, lambda e, e_up: mf.scale(mf.scalar_product(ab, theta(e)), e_up))


def cartan_curvature(conn: ConnectionField, c: MultivectorField, d: MultivectorField,
                     frame: Frame | None = None) -> MultivectorField:
    """Bivector-valued curvature: half double frame sum of e^m ^ e^n (rho(e_m, e_n, c) . d)."""
    return _half_double_frame_sum(
        conn.dim, lambda a, b: mf.scalar_product(curvature(conn, a, b, c), d), frame)


def invert_cartan_curvature(omega: Callable[[MultivectorField, MultivectorField], MultivectorField],
                            a: MultivectorField, b: MultivectorField,
                            c: MultivectorField) -> MultivectorField:
    """Recover rho(a, b, c): sum_m ((a^b) . omega(c, e_m)) e^m."""
    return invert_cartan_torsion(lambda e: omega(c, e), a, b)


def cartan_connection(conn: ConnectionField, kind: str, b: MultivectorField,
                      c: MultivectorField) -> MultivectorField:
    """Cartan connection operators.

    first:  sum_m ((cov+_{e_m} b) . c) e^m
    second: sum_m (b . (cov-_{e_m} c)) e^m
    """
    if kind not in ("first", "second"):
        raise ValueError(f"kind must be 'first' or 'second', got {kind!r}")

    def term(e: MultivectorField, e_up: MultivectorField) -> MultivectorField:
        if kind == "first":
            return mf.scale(mf.scalar_product(cov_derivative(conn, "+", e, b), c), e_up)
        return mf.scale(mf.scalar_product(b, cov_derivative(conn, "-", e, c)), e_up)

    return frame_sum(conn.dim, term)


def first_structure_rhs(conn: ConnectionField, c: MultivectorField) -> MultivectorField:
    """d_o ^ c plus the frame sum of e^m ^ (second-kind operator of (e_m, c))."""
    return mf.add(mf.curl(c), frame_sum(
        conn.dim, lambda e, e_up: mf.wedge(e_up, cartan_connection(conn, "second", e, c))))


def second_structure_rhs(conn: ConnectionField, c: MultivectorField,
                         d: MultivectorField) -> MultivectorField:
    """d_o ^ (first kind of (c,d)) plus sum_m first(c, e^m) ^ second(e_m, d)."""
    return mf.add(mf.curl(cartan_connection(conn, "first", c, d)), frame_sum(
        conn.dim, lambda e, e_up: mf.wedge(cartan_connection(conn, "first", c, e_up),
                                           cartan_connection(conn, "second", e, d))))


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
    rho = partial(curvature, conn)
    signs = ("+", "+", "+", "-")
    total = cov_derivative_extensor(conn, signs, rho, d, (a, b, c))
    total = mf.add(total, cov_derivative_extensor(conn, signs, rho, a, (b, d, c)))
    total = mf.add(total, cov_derivative_extensor(conn, signs, rho, b, (d, a, c)))
    return total, MultivectorField(conn.dim, {})
