"""Parallelism structure on a chart: connection field and covariant derivatives.

A connection field holds n^3 symbolic coefficients G^g_{ab}(x) against the
canonical orthonormal frame (index order: output, direction slot, argument
slot).  From it we build the directional connection map, its gauge
bivector, the grade-preserving generalized extensor, the plus/minus/zero
covariant derivative operators, their deformation by a non-singular vector
map, and covariant derivatives of k-extensor fields (k <= 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from . import fields as mf
from .algebra import Frame, LinearMap11, canonical_frame, reciprocal_frame
from .fields import Box, MultivectorField

SIGNS = ("+", "-", "0")
_DUAL = {"+": "-", "-": "+", "0": "0"}

MAX_DEFORM_DIM = 4
MAX_EXTENSOR_ARITY = 3


def _check_sign(sign: str, allowed=SIGNS) -> None:
    if sign not in allowed:
        raise ValueError(f"invalid derivative sign {sign!r}; expected one of {allowed}")


@dataclass(frozen=True, eq=False)
class ConnectionField:
    """Coefficients gamma[out][direction][argument] as scalar expressions."""

    dim: int
    gamma: tuple[tuple[tuple[ex.Expr, ...], ...], ...]
    domain: Box

    def __post_init__(self):
        g = tuple(tuple(tuple(row) for row in plane) for plane in self.gamma)
        n = self.dim
        if len(g) != n or any(len(p) != n or any(len(r) != n for r in p) for p in g):
            raise ValueError(f"connection coefficients must form an {n}x{n}x{n} array")
        object.__setattr__(self, "gamma", g)

    @classmethod
    def zero(cls, dim: int, domain: Box) -> ConnectionField:
        z = tuple(tuple((ex.ZERO,) * dim for _ in range(dim)) for _ in range(dim))
        return cls(dim, z, domain)

    @classmethod
    def from_entries(cls, dim: int, entries: dict[tuple[int, int, int], ex.Expr],
                     domain: Box) -> ConnectionField:
        g = [[[ex.ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for (out, a, b), e in entries.items():
            g[out][a][b] = e
        return cls(dim, tuple(tuple(tuple(r) for r in p) for p in g), domain)

    def coefficient(self, out: int, direction: int, argument: int) -> ex.Expr:
        return self.gamma[out][direction][argument]


def is_symmetric(conn: ConnectionField, points, tol: float = 1e-10) -> bool:
    """Coefficient symmetry in the two lower slots, checked at sample points."""
    n = conn.dim
    for g in range(n):
        for a in range(n):
            for b in range(a + 1, n):
                d = ex.sub(conn.gamma[g][a][b], conn.gamma[g][b][a])
                if isinstance(d, ex.Const):
                    if abs(d.value) > tol:
                        return False
                    continue
                if np.max(np.abs(ex.compile_fn(d)(points))) > tol:
                    return False
    return True


@dataclass(frozen=True, eq=False)
class ExtensorField11:
    """Vector-to-vector extensor field; entries[i][j] = component i of the image of e_{j+1}."""

    dim: int
    entries: tuple[tuple[ex.Expr, ...], ...]
    domain: Box | None = None

    def __post_init__(self):
        rows = tuple(tuple(_as_expr(c) for c in row) for row in self.entries)
        if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
            raise ValueError(f"expected {self.dim}x{self.dim} entries")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def identity(cls, dim: int) -> ExtensorField11:
        return cls(dim, tuple(tuple(ex.ONE if i == j else ex.ZERO for j in range(dim))
                              for i in range(dim)))

    @classmethod
    def from_matrix(cls, matrix) -> ExtensorField11:
        rows = [list(r) for r in matrix]
        return cls(len(rows), tuple(tuple(_as_expr(c) for c in r) for r in rows))

    def apply(self, v: MultivectorField) -> MultivectorField:
        if v.dim != self.dim:
            raise ValueError(f"dimension mismatch: {v.dim} vs {self.dim}")
        if not v.is_vector():
            raise ValueError("a (1,1)-extensor field applies to vector fields")
        comps = v.vector_components()
        out = [ex.ZERO] * self.dim
        for i in range(self.dim):
            for j in range(self.dim):
                out[i] = ex.add(out[i], ex.mul(self.entries[i][j], comps[j]))
        return mf.vector(self.dim, out, v.domain or self.domain)

    def at(self, point) -> LinearMap11:
        m = np.array([[ex.evaluate(c, point) for c in row] for row in self.entries])
        return LinearMap11(self.dim, m)


def _as_expr(c) -> ex.Expr:
    return c if isinstance(c, ex.Expr) else ex.const(c)


def ext_adjoint(t: ExtensorField11) -> ExtensorField11:
    return ExtensorField11(t.dim, tuple(zip(*t.entries)), t.domain)


def ext_add(t: ExtensorField11, u: ExtensorField11) -> ExtensorField11:
    rows = tuple(tuple(ex.add(a, b) for a, b in zip(ra, rb))
                 for ra, rb in zip(t.entries, u.entries))
    return ExtensorField11(t.dim, rows, t.domain or u.domain)


def ext_scale(f, t: ExtensorField11) -> ExtensorField11:
    f = _as_expr(f)
    return ExtensorField11(t.dim, tuple(tuple(ex.mul(f, c) for c in row) for row in t.entries), t.domain)


def ext_sym(t: ExtensorField11) -> ExtensorField11:
    return ext_scale(0.5, ext_add(t, ext_adjoint(t)))


def ext_skew(t: ExtensorField11) -> ExtensorField11:
    return ext_scale(0.5, ext_add(t, ext_scale(-1.0, ext_adjoint(t))))


def ext_det(t: ExtensorField11) -> ex.Expr:
    return _det([list(row) for row in t.entries])


def _det(m: list[list[ex.Expr]]) -> ex.Expr:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = ex.ZERO
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = ex.mul(m[0][j], _det(minor))
        total = ex.add(total, term if j % 2 == 0 else ex.neg(term))
    return total


def ext_inverse(t: ExtensorField11) -> ExtensorField11:
    """Pointwise inverse via adjugate over determinant (small dimensions)."""
    n = t.dim
    if n > MAX_DEFORM_DIM:
        raise ValueError(f"symbolic inversion restricted to dim <= {MAX_DEFORM_DIM}")
    det = ext_det(t)
    m = [list(row) for row in t.entries]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(m) if k != j]
            cof = _det(minor) if minor else ex.ONE
            if (i + j) % 2:
                cof = ex.neg(cof)
            row.append(ex.div(cof, det))
        rows.append(tuple(row))
    return ExtensorField11(n, tuple(rows), t.domain)


def outermorphism_apply(t: ExtensorField11, x: MultivectorField) -> MultivectorField:
    """Grade-preserving extension of t: blades map to wedges of column images."""
    if x.dim != t.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {t.dim}")
    images = [mf.vector(t.dim, [t.entries[i][j] for i in range(t.dim)]) for j in range(t.dim)]
    out = MultivectorField(x.dim, {}, x.domain or t.domain)
    for m, c in x.coeffs.items():
        if m == 0:
            out = mf.add(out, mf.scalar_field(x.dim, c))
            continue
        blade = None
        for j in range(x.dim):
            if m >> j & 1:
                blade = images[j] if blade is None else mf.wedge(blade, images[j])
        out = mf.add(out, mf.scale(c, blade))
    return out


def const_frames(dim: int, frame: Frame | None):
    """Constant frame fields and their reciprocals (canonical by default)."""
    if frame is None:
        # the canonical frame is orthonormal, so its own reciprocal
        down = [mf.constant(v) for v in canonical_frame(dim).vectors]
        return down, down
    down = [mf.constant(v) for v in frame.vectors]
    up = [mf.constant(v) for v in reciprocal_frame(frame).vectors]
    return down, up


def gamma_apply(conn: ConnectionField, a: MultivectorField, b: MultivectorField) -> MultivectorField:
    """Directional connection value gamma(a, b), bilinear over scalar fields."""
    if a.dim != conn.dim or b.dim != conn.dim:
        raise ValueError("dimension mismatch between connection and arguments")
    if not (a.is_vector() and b.is_vector()):
        raise ValueError("gamma takes two vector fields")
    ac = a.vector_components()
    bc = b.vector_components()
    out = []
    for g in range(conn.dim):
        total = ex.ZERO
        for i in range(conn.dim):
            for j in range(conn.dim):
                coeff = conn.gamma[g][i][j]
                total = ex.add(total, ex.mul(coeff, ex.mul(ac[i], bc[j])))
        out.append(total)
    return mf.vector(conn.dim, out, a.domain or b.domain or conn.domain)


def gamma_matrix(conn: ConnectionField, a: MultivectorField) -> ExtensorField11:
    """The direction-a connection map as a (1,1)-extensor field."""
    if not a.is_vector():
        raise ValueError("direction must be a vector field")
    ac = a.vector_components()
    rows = []
    for g in range(conn.dim):
        row = []
        for j in range(conn.dim):
            total = ex.ZERO
            for i in range(conn.dim):
                total = ex.add(total, ex.mul(ac[i], conn.gamma[g][i][j]))
            row.append(total)
        rows.append(tuple(row))
    return ExtensorField11(conn.dim, tuple(rows), a.domain or conn.domain)


def gauge_bivector(conn: ConnectionField, a: MultivectorField,
                   frame: Frame | None = None) -> MultivectorField:
    """Gauge bivector: half the frame sum of gamma(a, e^mu) ^ e_mu."""
    down, up = const_frames(conn.dim, frame)
    out = MultivectorField(conn.dim, {}, a.domain or conn.domain)
    for e_mu, e_up in zip(down, up):
        out = mf.add(out, mf.wedge(gamma_apply(conn, a, e_up), e_mu))
    return mf.scale(0.5, out)


def _generalized(gmap: ExtensorField11, x: MultivectorField, frame: Frame | None) -> MultivectorField:
    down, up = const_frames(gmap.dim, frame)
    out = MultivectorField(gmap.dim, {}, x.domain)
    for e_mu, e_up in zip(down, up):
        out = mf.add(out, mf.wedge(gmap.apply(e_up), mf.contract(e_mu, x, "left")))
    return out


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


def generalized_skew_apply(conn: ConnectionField, a: MultivectorField, x: MultivectorField,
                           frame: Frame | None = None) -> MultivectorField:
    """Generalized extension of the skew part of the direction-a connection map."""
    return _generalized(ext_skew(gamma_matrix(conn, a)), x, frame)


def generalized_sym_apply(conn: ConnectionField, a: MultivectorField, x: MultivectorField,
                          frame: Frame | None = None) -> MultivectorField:
    return _generalized(ext_sym(gamma_matrix(conn, a)), x, frame)


def cov_derivative(conn: ConnectionField, sign: str, a: MultivectorField,
                   x: MultivectorField, frame: Frame | None = None) -> MultivectorField:
    """Plus, minus or zero covariant derivative of a multivector field.

    plus:  a.d_o X + G_a(X)          minus: a.d_o X - adj(G_a)(X)
    zero:  a.d_o X + Omega(a) x X  (the commutator-product route)
    """
    _check_sign(sign)
    flat = mf.directional_derivative(a, x)
    if sign == "+":
        return mf.add(flat, generalized_apply(conn, a, x, frame))
    if sign == "-":
        return mf.sub(flat, generalized_adjoint_apply(conn, a, x, frame))
    return mf.add(flat, mf.commutator(gauge_bivector(conn, a, frame), x))


def connection_operator(conn: ConnectionField, sign: str, a: MultivectorField,
                        b: MultivectorField) -> MultivectorField:
    """Vector-valued operator (a, b) -> cov. derivative of b along a."""
    _check_sign(sign, ("+", "-"))
    if not b.is_vector():
        raise ValueError("connection operators act on vector fields")
    return cov_derivative(conn, sign, a, b)


def deform(conn: ConnectionField, lam: ExtensorField11, sign: str, a: MultivectorField,
           x: MultivectorField) -> MultivectorField:
    """Deformation of the derivative pair by a non-singular vector map.

    plus:  ext(lam) . cov+ . ext(lam)^-1
    minus: ext(lam*) . cov- . ext(adj lam),   lam* = (adj lam)^-1
    """
    _check_sign(sign, ("+", "-"))
    if conn.dim > MAX_DEFORM_DIM:
        raise ValueError(f"deformation restricted to dim <= {MAX_DEFORM_DIM}")
    if sign == "+":
        inner = outermorphism_apply(ext_inverse(lam), x)
        return outermorphism_apply(lam, cov_derivative(conn, "+", a, inner))
    inner = outermorphism_apply(ext_adjoint(lam), x)
    star = ext_inverse(ext_adjoint(lam))
    return outermorphism_apply(star, cov_derivative(conn, "-", a, inner))


@dataclass(frozen=True, eq=False)
class ExtensorFieldK:
    """k-extensor field given by its evaluator on multivector fields."""

    dim: int
    arity: int
    func: Callable[..., MultivectorField]

    def __post_init__(self):
        if not 1 <= self.arity <= MAX_EXTENSOR_ARITY:
            raise ValueError(f"extensor arity must be 1..{MAX_EXTENSOR_ARITY}, got {self.arity}")

    def __call__(self, *args: MultivectorField) -> MultivectorField:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        return self.func(*args)


def as_extensor(t: ExtensorField11 | ExtensorFieldK) -> ExtensorFieldK:
    if isinstance(t, ExtensorFieldK):
        return t
    return ExtensorFieldK(t.dim, 1, t.apply)


def cov_derivative_extensor(conn: ConnectionField, signs: Sequence[str],
                            t: ExtensorField11 | ExtensorFieldK, a: MultivectorField,
                            args: Sequence[MultivectorField]) -> MultivectorField:
    """Signed covariant derivative of a k-extensor field, evaluated on args.

    With signs (s_1 .. s_k, s), the value is the dual(s) derivative of
    t(args) minus the sum of t with one argument replaced by its s_i
    derivative, where dual swaps + and - and fixes 0.
    """
    ext = as_extensor(t)
    signs = tuple(signs)
    if len(signs) != ext.arity + 1:
        raise ValueError(f"expected {ext.arity + 1} signs for arity {ext.arity}, got {len(signs)}")
    for s in signs:
        _check_sign(s)
    if len(args) != ext.arity:
        raise ValueError(f"expected {ext.arity} arguments, got {len(args)}")
    out = cov_derivative(conn, _DUAL[signs[-1]], a, ext(*args))
    for i, s in enumerate(signs[:-1]):
        replaced = list(args)
        replaced[i] = cov_derivative(conn, s, a, args[i])
        out = mf.sub(out, ext(*replaced))
    return out


def extensor_cov_derivative(conn: ConnectionField, signs: Sequence[str],
                            t: ExtensorField11 | ExtensorFieldK,
                            a: MultivectorField) -> ExtensorFieldK:
    """The signed derivative as a k-extensor field in its own right."""
    ext = as_extensor(t)

    def func(*args: MultivectorField) -> MultivectorField:
        return cov_derivative_extensor(conn, signs, ext, a, args)

    return ExtensorFieldK(ext.dim, ext.arity, func)


def resolve11(t: ExtensorFieldK | ExtensorField11) -> ExtensorField11:
    """Matrix of a (1,1)-extensor evaluator, resolved against the canonical frame."""
    if isinstance(t, ExtensorField11):
        return t
    if t.arity != 1:
        raise ValueError("resolve11 needs an arity-1 extensor")
    cols = [t(mf.basis(t.dim, j)).vector_components() for j in range(t.dim)]
    rows = tuple(tuple(cols[j][i] for j in range(t.dim)) for i in range(t.dim))
    return ExtensorField11(t.dim, rows)
