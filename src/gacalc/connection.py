"""Parallelism structure on a chart: connection field and covariant derivatives.

A connection field holds n^3 symbolic coefficients G^g_{ab}(x) against the
canonical orthonormal frame (index order: output, direction slot, argument
slot).  From it we build the directional connection map, its gauge
bivector, the grade-preserving generalized extensor, the plus/minus/zero
covariant derivative operators, their deformation by a non-singular vector
map at any n <= 6, and covariant derivatives of k-extensor fields.  A
k-extensor field is any function of k vector fields; an `ExtensorField11`,
a matrix of expressions, is one for k = 1.  Every frame sum here is one
`fields.frame_sum`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from . import fields as mf
from .algebra import Frame, LinearMap11, same_dim
from .fields import MultivectorField, frame_sum, memo

SIGNS = ("+", "-", "0")
_DUAL = {"+": "-", "-": "+", "0": "0"}

# asymmetry's bound on a constant difference G^g_ab - G^g_ba
SYMMETRY_TOL = 1e-10


def _check_sign(sign: str, allowed=SIGNS) -> None:
    if sign not in allowed:
        raise ValueError(f"invalid derivative sign {sign!r}; expected one of {allowed}")


class ConnectionField:
    """Coefficients gamma[out][direction][argument] as scalar expressions.

    ``nonzero`` lists the (out, direction, argument, coefficient) entries
    that are not a constant 0, in index order; contractions iterate it.
    """

    __slots__ = ("dim", "gamma", "nonzero", "__weakref__")  # a `memo` key, held weakly

    def __init__(self, dim: int, gamma: tuple[tuple[tuple[ex.Expr, ...], ...], ...]):
        g = tuple(tuple(tuple(row) for row in plane) for plane in gamma)
        if len(g) != dim or any(len(p) != dim or any(len(r) != dim for r in p) for p in g):
            raise ValueError(f"connection coefficients must form an {dim}x{dim}x{dim} array")
        self.dim, self.gamma = dim, g
        self.nonzero = tuple((out, a, b, c) for out, plane in enumerate(g)
                             for a, row in enumerate(plane) for b, c in enumerate(row)
                             if not ex.is_zero(c))

    @classmethod
    def zero(cls, dim: int) -> ConnectionField:
        z = tuple(tuple((ex.ZERO,) * dim for _ in range(dim)) for _ in range(dim))
        return cls(dim, z)

    @classmethod
    def from_entries(cls, dim: int,
                     entries: dict[tuple[int, int, int], ex.Expr]) -> ConnectionField:
        g = [[[ex.ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for (out, a, b), e in entries.items():
            g[out][a][b] = e
        return cls(dim, g)


def asymmetry(conn: ConnectionField):
    """The first pair whose G^g_ab and G^g_ba are not proved equal, as ((g, a, b),
    proved), a < b; None if every pair is.  Nothing is evaluated at a point: a
    pair whose trees share one tape slot is symmetric, and so is one whose
    difference folds to a constant within `SYMMETRY_TOL`.  ``proved`` is True
    for the first larger constant, else False: two different expressions."""
    n, gamma = conn.dim, conn.gamma
    pairs = [(g, a, b) for g in range(n) for a in range(n) for b in range(a + 1, n)]
    slots = ex.Tape(gamma[g][i][j] for g, a, b in pairs for i, j in ((a, b), (b, a))).roots
    diffs = {(g, a, b): ex.sub(gamma[g][a][b], gamma[g][b][a])
             for (g, a, b), ab, ba in zip(pairs, slots[::2], slots[1::2]) if ab != ba}
    for index, d in diffs.items():
        if type(d) is ex.Const and abs(d.value) > SYMMETRY_TOL:
            return index, True
    return next(((index, False) for index, d in diffs.items()  # a NaN constant is not proved
                 if not (type(d) is ex.Const and abs(d.value) <= SYMMETRY_TOL)), None)


class ExtensorField11:
    """Vector-to-vector extensor field; entries[i][j] = component i of the image of e_{j+1}.

    ``nonzero`` lists the (i, j, entry) entries not a constant 0, in index order.
    No slots: the instance dict holds `nonzero`, `_tape` and `_minors`.
    """

    def __init__(self, dim: int, entries: tuple[tuple[ex.Expr, ...], ...]):
        rows = tuple(tuple(ex.as_expr(c) for c in row) for row in entries)
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ValueError(f"expected {dim}x{dim} entries")
        self.dim, self.entries = dim, rows

    @classmethod
    def identity(cls, dim: int) -> ExtensorField11:
        return cls(dim, tuple(tuple(ex.ONE if i == j else ex.ZERO for j in range(dim))
                              for i in range(dim)))

    @classmethod
    def from_matrix(cls, matrix) -> ExtensorField11:
        rows = [list(r) for r in matrix]
        return cls(len(rows), tuple(tuple(ex.as_expr(c) for c in r) for r in rows))

    @memo
    def __call__(self, v: MultivectorField) -> MultivectorField:
        """The image of the vector field v, one object per (map, v)."""
        same_dim(v, self)
        if not v.is_vector():
            raise ValueError("a (1,1)-extensor field applies to vector fields")
        comps = v.vector_components()
        out = [ex.ZERO] * self.dim
        for i, j, entry in self.nonzero:
            if not ex.is_zero(comps[j]):
                out[i] = ex.add(out[i], ex.mul(entry, comps[j]))
        return mf.vector(self.dim, out)

    @cached_property
    def nonzero(self) -> tuple[tuple[int, int, ex.Expr], ...]:
        return tuple((i, j, c) for i, row in enumerate(self.entries) for j, c in enumerate(row)
                     if not ex.is_zero(c))

    @cached_property
    def _tape(self) -> ex.Tape:
        """All entries lowered once, row by row (a field is never changed)."""
        return ex.Tape(c for row in self.entries for c in row)

    @cached_property
    def _minors(self) -> _Minors:
        """The minor table of the entries, shared by every call on this map."""
        return _Minors(self.entries)

    def at(self, point) -> LinearMap11:
        """The map at one point, as `expr.evaluate` gives each entry."""
        if len(point) != self.dim:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.dim}")
        return LinearMap11(self.dim, np.reshape(self._tape.at(point), (self.dim, self.dim)))


def _owning11(dim: int, rows) -> ExtensorField11:
    """An extensor field around expression rows this module just built: no check."""
    t = object.__new__(ExtensorField11)
    t.__dict__.update(dim=dim, entries=rows)
    return t


def ext_adjoint(t: ExtensorField11) -> ExtensorField11:
    return _owning11(t.dim, tuple(zip(*t.entries)))


def ext_add(t: ExtensorField11, u: ExtensorField11) -> ExtensorField11:
    same_dim(t, u)
    rows = tuple(tuple(ex.add(a, b) for a, b in zip(ra, rb))
                 for ra, rb in zip(t.entries, u.entries))
    return _owning11(t.dim, rows)


def ext_scale(f, t: ExtensorField11) -> ExtensorField11:
    f = ex.as_expr(f)
    rows = tuple(tuple(ex.mul(f, c) for c in row) for row in t.entries)
    return _owning11(t.dim, rows)


def ext_sym(t: ExtensorField11) -> ExtensorField11:
    return ext_scale(0.5, ext_add(t, ext_adjoint(t)))


def ext_skew(t: ExtensorField11) -> ExtensorField11:
    return ext_scale(0.5, ext_add(t, ext_scale(-1.0, ext_adjoint(t))))


class _Minors(dict):
    """The square minors of a matrix by (row mask, column mask), each built on first
    use along its first row, signs alternating by column.  Minor (M, J) of t is
    entry [M, J] of the compound matrix C_k(t), t's outermorphism on grade k;
    Jacobi's complementary minors give C_k(t^-1) (Horn & Johnson 2013, 0.8.4)."""

    def __init__(self, rows):
        super().__init__({(0, 0): ex.ONE})
        self.rows, self.full = rows, (1 << len(rows)) - 1

    def __missing__(self, key: tuple[int, int]) -> ex.Expr:
        rows, cols = key
        first, rest = self.rows[(rows & -rows).bit_length() - 1], rows & (rows - 1)
        minor = first[cols.bit_length() - 1]  # a 1 x 1 minor is its entry
        if rest:
            minor = ex.ZERO
            for position, j in enumerate(j for j in range(len(first)) if cols >> j & 1):
                term = ex.mul(first[j], self[rest, cols ^ 1 << j])
                minor = ex.add(minor, ex.neg(term) if position % 2 else term)
        self[key] = minor
        return minor

    def inverse(self, rows: int, cols: int) -> ex.Expr:
        """Minor (rows, cols) of the inverse: +-minor(cols', rows') / det, ' the complement."""
        if not rows:
            return ex.ONE
        minor = self[self.full ^ cols, self.full ^ rows]
        odd = ((rows ^ cols) & 0xAAAA).bit_count() % 2  # the parity of the index sum
        return ex.div(ex.neg(minor) if odd else minor, self[self.full, self.full])


def outermorphism_apply(t: ExtensorField11, x: MultivectorField,
                        inverse: bool = False) -> MultivectorField:
    """Grade-preserving extension of t, or of t^-1 if ``inverse``, on x: blade J
    maps to the sum of C_k[M, J] e_M over the grade-k blades M."""
    n = same_dim(t, x)
    entry = t._minors.inverse if inverse else lambda m, j: t._minors[m, j]
    out: dict[int, ex.Expr] = {}
    for j, c in x.coeffs.items():
        for m in range(1 << n):
            if m.bit_count() == j.bit_count() and not ex.is_zero(e := entry(m, j)):
                out[m] = ex.add(out.get(m, ex.ZERO), ex.mul(c, e))
    return mf._owning(n, out)


def ext_det(t: ExtensorField11) -> ex.Expr:
    """The paper's extensor determinant of t, the scalar field with t(I) = det(t) I for
    the pseudoscalar I: the full minor of its entries.  Public API; nothing here calls it."""
    return t._minors[t._minors.full, t._minors.full]


def ext_inverse(t: ExtensorField11) -> ExtensorField11:
    """Pointwise inverse: signed complementary minors over the determinant."""
    n = t.dim
    rows = tuple(tuple(t._minors.inverse(1 << i, 1 << j) for j in range(n)) for i in range(n))
    return _owning11(n, rows)


@memo
def gamma_apply(conn: ConnectionField, a: MultivectorField, b: MultivectorField) -> MultivectorField:
    """Directional connection value gamma(a, b), bilinear over scalar fields."""
    if a.dim != conn.dim or b.dim != conn.dim:
        raise ValueError("dimension mismatch between connection and arguments")
    if not (a.is_vector() and b.is_vector()):
        raise ValueError("gamma takes two vector fields")
    ac = a.vector_components()
    bc = b.vector_components()
    out = [ex.ZERO] * conn.dim
    for g, i, j, coeff in conn.nonzero:
        if not (ex.is_zero(ac[i]) or ex.is_zero(bc[j])):
            out[g] = ex.add(out[g], ex.mul(coeff, ex.mul(ac[i], bc[j])))
    return mf.vector(conn.dim, out)


@memo
def gamma_matrix(conn: ConnectionField, a: MultivectorField) -> ExtensorField11:
    """The direction-a connection map as a (1,1)-extensor field."""
    if not a.is_vector():
        raise ValueError("direction must be a vector field")
    n, ac = conn.dim, a.coeffs
    rows = [[ex.ZERO] * n for _ in range(n)]
    for g, i, j, coeff in conn.nonzero:  # for each (g, j): i ascending, as in the sum
        if not ex.is_zero(ai := ac.get(1 << i, ex.ZERO)):
            rows[g][j] = ex.add(rows[g][j], ex.mul(ai, coeff))
    return _owning11(n, tuple(map(tuple, rows)))


@memo
def gauge_bivector(conn: ConnectionField, a: MultivectorField,
                   frame: Frame | None = None) -> MultivectorField:
    """Gauge bivector: half the frame sum of gamma(a, e^mu) ^ e_mu."""
    return mf.scale(0.5, frame_sum(
        conn.dim, lambda e, e_up: mf.wedge(gamma_apply(conn, a, e_up), e), frame))


def _generalized(gmap: ExtensorField11, x: MultivectorField,
                 frame: Frame | None = None) -> MultivectorField:
    """Frame sum of gmap(e^mu) ^ (e_mu . X); an empty gmap(e^mu) contracts nothing."""
    if not gmap.nonzero:
        return mf._owning(gmap.dim, {})

    def term(e_mu: MultivectorField, e_up: MultivectorField) -> MultivectorField:
        column = gmap(e_up)
        return mf.wedge(column, mf.contract(e_mu, x, "left")) if column.coeffs else column

    return frame_sum(gmap.dim, term, frame)


def generalized_apply(conn: ConnectionField, a: MultivectorField, x: MultivectorField,
                      frame: Frame | None = None) -> MultivectorField:
    """Grade-preserving extension of the direction-a connection map to all grades."""
    if x.dim != conn.dim:
        raise ValueError("dimension mismatch between connection and field")
    return _generalized(gamma_matrix(conn, a), x, frame)


def generalized_adjoint_apply(conn: ConnectionField, a: MultivectorField, x: MultivectorField,
                              frame: Frame | None = None) -> MultivectorField:
    """Generalized extension of the adjoint of the direction-a connection map."""
    return _generalized(ext_adjoint(gamma_matrix(conn, a)), x, frame)


def generalized_skew_apply(conn: ConnectionField, a: MultivectorField,
                           x: MultivectorField) -> MultivectorField:
    """Generalized extension of the skew part of the direction-a connection map."""
    return _generalized(ext_skew(gamma_matrix(conn, a)), x)


def generalized_sym_apply(conn: ConnectionField, a: MultivectorField,
                          x: MultivectorField) -> MultivectorField:
    return _generalized(ext_sym(gamma_matrix(conn, a)), x)


@memo
def cov_derivative(conn: ConnectionField, sign: str, a: MultivectorField,
                   x: MultivectorField) -> MultivectorField:
    """Plus, minus or zero covariant derivative of a multivector field.

    plus:  a.d_o X + G_a(X)          minus: a.d_o X - adj(G_a)(X)
    zero:  a.d_o X + Omega(a) x X  (the commutator-product route)
    """
    _check_sign(sign)
    flat = mf.directional_derivative(a, x)
    if sign == "+":
        return mf.add(flat, generalized_apply(conn, a, x))
    if sign == "-":
        return mf.sub(flat, generalized_adjoint_apply(conn, a, x))
    return mf.add(flat, mf.commutator(gauge_bivector(conn, a), x))


def deform(conn: ConnectionField, lam: ExtensorField11, sign: str, a: MultivectorField,
           x: MultivectorField) -> MultivectorField:
    """Deformation of the derivative pair by a non-singular vector map.

    plus:  ext(lam) . cov+ . ext(lam)^-1
    minus: ext(lam*) . cov- . ext(adj lam),   lam* = (adj lam)^-1

    Since ext(t)^-1 = ext(t^-1), each sign reads the minor table of one
    map: lam for plus, its adjoint (transpose) for minus.
    """
    _check_sign(sign, ("+", "-"))
    t = lam if sign == "+" else ext_adjoint(lam)
    inner = outermorphism_apply(t, x, sign == "+")
    return outermorphism_apply(t, cov_derivative(conn, sign, a, inner), sign == "-")


def cov_derivative_extensor(conn: ConnectionField, signs: Sequence[str],
                            t: Callable[..., MultivectorField], a: MultivectorField,
                            args: Sequence[MultivectorField]) -> MultivectorField:
    """Signed covariant derivative of a k-extensor field t, a function of the
    k vector fields ``args``, evaluated on them.

    With signs (s_1 .. s_k, s), the value is the dual(s) derivative of
    t(args) minus the sum of t with one argument replaced by its s_i
    derivative, where dual swaps + and - and fixes 0.
    """
    signs = tuple(signs)
    if len(signs) != len(args) + 1:
        raise ValueError(f"expected {len(args) + 1} signs for {len(args)} argument(s), "
                         f"got {len(signs)}")
    for s in signs:
        _check_sign(s)
    out = cov_derivative(conn, _DUAL[signs[-1]], a, t(*args))
    for i, s in enumerate(signs[:-1]):
        replaced = list(args)
        replaced[i] = cov_derivative(conn, s, a, args[i])
        out = mf.sub(out, t(*replaced))
    return out


def extensor_cov_derivative(conn: ConnectionField, signs: Sequence[str], t: ExtensorField11,
                            a: MultivectorField) -> ExtensorField11:
    """The signed derivative of a vector map as a vector map: column j is its value on e_j.
    The e_j are the canonical frame's shared fields and t(e_j) is one object per
    column, so the memo of `cov_derivative` serves every sign pair of one t and a."""
    cols = [cov_derivative_extensor(conn, signs, t, a, (mf.basis(t.dim, j),)).vector_components()
            for j in range(t.dim)]
    return ExtensorField11(t.dim, tuple(zip(*cols)))
