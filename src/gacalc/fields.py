"""Multivector fields on a chart of R^n: blade-indexed symbolic coefficients.

A field stores a sparse map from blade bitmask to a scalar expression in
the chart coordinates, and no sampling domain.  A `Box` (an axis-aligned
box with per-axis open exclusions shielding coordinate singularities) is
the domain of a fixture or of a coordinate map, and sampling reads it
there.  The chart frame is the canonical orthonormal one, so e^mu = e_mu
and the flat directional derivative is coefficient-wise: a sum of partials
along a constant direction, a forward pass along a varying one.  It is
the one flat derivative: `curl`, `gradient_field` and every
vector-derivative sum of `connection` and `cartan` are one `fields.frame_sum`.
`memo` makes a pure operator on fields a memo function, keyed weakly on the
identity of its arguments; `lie_bracket` and the connection operators are.
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property, wraps
from typing import Callable, Protocol

import numpy as np

from . import expr as ex
from .algebra import (INVOLUTIONS, Frame, Multivector, blade_table, canonical_frame, grade_of,
                      reciprocal_frame, same_dim)
from .algebra import _owning as _owning_multivector

# Box.sample gives up after this many draws per requested point.
SAMPLE_TRIES = 1000


class _Level(weakref.WeakKeyDictionary):
    """One argument position of a `memo` table.  An object is a weak key, by
    identity (no field type defines ``==``); an argument that takes no weak
    reference (a sign string, None) is a key of ``values``, by value."""

    def __init__(self):
        super().__init__()
        self.values: dict = {}

    def table(self, arg):
        return self if type(arg).__weakrefoffset__ else self.values


def memo(fn):
    """``fn`` computed once per argument set: the same argument objects give
    the very same result object (a memo function; Michie, *Nature* 218, 1968).

    Each argument as passed is one nested level, the first keyed by the
    number of arguments, so an entry dies with any object it is keyed on
    and the memo keeps nothing alive.  ``fn`` must be pure and return no
    argument of its own.  A call with keyword arguments is not memoized.
    """
    by_arity: dict[int, _Level] = {}

    @wraps(fn)
    def memoized(*args, **kwargs):
        if kwargs:
            return fn(*args, **kwargs)
        level = by_arity.get(len(args))
        if level is None:
            level = by_arity[len(args)] = _Level()
        for arg in args[:-1]:
            table = level.table(arg)
            inner = table.get(arg)
            if inner is None:
                inner = table[arg] = _Level()
            level = inner
        table = level.table(args[-1])
        result = table.get(args[-1])
        if result is None:
            result = table[args[-1]] = fn(*args)
        return result

    return memoized


class Uniform(Protocol):
    """What `Box.sample` draws from: `suites.KeyedStream` (stdlib MT19937), a
    numpy ``Generator``, or any other object with this method."""

    def uniform(self, low, high, size=None): ...


class Box(ex.Record):
    """Open axis-aligned sampling box, minus margins around excluded values."""

    __slots__ = ("lo", "hi", "exclusions", "margin")

    def __init__(self, lo: tuple[float, ...], hi: tuple[float, ...],
                 exclusions: tuple[tuple[int, float], ...] = (), margin: float = 0.05):
        self.lo, self.hi = tuple(float(v) for v in lo), tuple(float(v) for v in hi)
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same length")
        if not all(math.isfinite(v) for v in self.lo + self.hi):
            raise ValueError(f"box bounds must be finite, got lo={self.lo}, hi={self.hi}")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box bounds must satisfy lo < hi on every axis")
        self.exclusions = tuple((int(a), float(v)) for a, v in exclusions)
        self.margin = margin
        if any(not 0 <= a < self.dim for a, _ in self.exclusions):
            raise ValueError(f"exclusion axis out of range for dimension {self.dim}")
        if not all(math.isfinite(v) for _, v in self.exclusions):
            raise ValueError(f"exclusion values must be finite, got {self.exclusions}")
        if not self.margin >= 0.0:
            raise ValueError(f"margin must be a non-negative number, got {self.margin}")
        for axis in range(self.dim):
            cut = sorted((v - self.margin, v + self.margin)
                         for a, v in self.exclusions if a == axis)
            reach = self.lo[axis]  # (lo, reach] is covered by exclusions
            for start, end in cut:
                if start > reach:
                    break
                reach = max(reach, end)
            else:
                if reach >= self.hi[axis]:
                    raise ValueError(f"exclusions with margin {self.margin} cover all "
                                     f"of axis {axis}; no point can be sampled")
    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, point) -> bool:
        if len(point) != self.dim:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.dim}")
        for i, (a, b) in enumerate(zip(self.lo, self.hi)):
            if not a < point[i] < b:
                return False
        for axis, value in self.exclusions:
            if abs(point[axis] - value) <= self.margin:
                return False
        return True

    def sample(self, count: int, rng: Uniform) -> np.ndarray:
        """Rejection-sample ``count`` points, one uniform draw of ``dim`` values
        per try, ``rng.uniform(lo, hi, size=(tries, dim))`` with the box's
        bounds as arrays.  Each shortfall is drawn as one block of tries, never
        more than are still needed, so the points and the generator state
        after are those of drawing one try at a time."""
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        out = [np.empty((0, self.dim))]
        got = tries = 0
        while got < count:
            if tries == SAMPLE_TRIES * count:
                raise ValueError(f"drew {got} of {count} points in {tries} tries: "
                                 "the exclusions leave too little of the box")
            n = min(count - got, SAMPLE_TRIES * count - tries)
            tries += n
            block = rng.uniform(lo, hi, size=(n, self.dim))
            for axis, value in self.exclusions:
                block = block[np.abs(block[:, axis] - value) > self.margin]
            out.append(block)
            got += len(block)
        return np.concatenate(out)


class MultivectorField:
    """Blade index -> coefficient expression, constant zeros dropped; no slots, for `_tape`."""

    def __init__(self, dim: int, coeffs: dict[int, ex.Expr]):
        clean = {int(m): ex.as_expr(c) for m, c in coeffs.items()}
        clean = {m: c for m, c in clean.items() if not ex.is_zero(c)}
        for m in clean:
            if not 0 <= m < (1 << dim):
                raise ValueError(f"blade index {m} out of range for dim {dim}")
        self.dim, self.coeffs = dim, clean

    def grades(self) -> set[int]:
        return {grade_of(m) for m in self.coeffs}

    def is_vector(self) -> bool:
        return self.grades() <= {1}

    def component(self, mask: int) -> ex.Expr:
        return self.coeffs.get(mask, ex.ZERO)

    def vector_components(self) -> list[ex.Expr]:
        return [self.component(1 << i) for i in range(self.dim)]

    @cached_property
    def _tangents(self) -> dict:
        """The tangent memo of this field as a direction (`expr.tangent`): it dies with the field."""
        return {}

    @cached_property
    def _tape(self) -> tuple[ex.Tape, np.ndarray]:
        """All coefficients lowered once (a field is never changed), and their blade indices."""
        return ex.Tape(self.coeffs.values()), np.fromiter(self.coeffs, np.intp, len(self.coeffs))

    def at(self, point) -> Multivector:
        """The field at one point: its tape's `expr.Tape.at`, bit for bit the
        point's row of `expr.Tape.__call__`, written into the coefficients."""
        if len(point) != self.dim:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.dim}")
        tape, masks = self._tape
        c = np.zeros(1 << self.dim)
        c[masks] = tape.at(point)
        return _owning_multivector(self.dim, c)


def mvf(dim: int, coeffs: dict) -> MultivectorField:
    return MultivectorField(dim, coeffs)


def vector(dim: int, components) -> MultivectorField:
    comps = list(components)
    if len(comps) != dim:
        raise ValueError(f"expected {dim} components, got {len(comps)}")
    return MultivectorField(dim, {1 << i: ex.as_expr(c) for i, c in enumerate(comps)})


def basis(dim: int, i: int) -> MultivectorField:
    """e_i of the canonical frame: the very field `frame_sum` sums over, one object per (dim, i)."""
    if not 0 <= i < dim:
        raise ValueError(f"basis index {i} out of range for dim {dim}")
    return const_frames(dim, None)[0][i]


def constant(x: Multivector) -> MultivectorField:
    return MultivectorField(x.dim, {int(m): ex.const(x.coeffs[m]) for m in np.nonzero(x.coeffs)[0]})


def scalar_field(dim: int, e: ex.Expr) -> MultivectorField:
    return MultivectorField(dim, {0: e})


def _owning(dim: int, coeffs: dict[int, ex.Expr]) -> MultivectorField:
    """A field around coefficients this module just built: constant zeros dropped, no check."""
    x = object.__new__(MultivectorField)
    x.__dict__.update(dim=dim, coeffs={m: c for m, c in coeffs.items() if not ex.is_zero(c)})
    return x


def add(x: MultivectorField, y: MultivectorField) -> MultivectorField:
    same_dim(x, y)
    out = dict(x.coeffs)
    for m, c in y.coeffs.items():
        out[m] = ex.add(out.get(m, ex.ZERO), c)
    return _owning(x.dim, out)


def sub(x: MultivectorField, y: MultivectorField) -> MultivectorField:
    same_dim(x, y)
    out = dict(x.coeffs)
    for m, c in y.coeffs.items():
        out[m] = ex.sub(out.get(m, ex.ZERO), c)
    return _owning(x.dim, out)


def scale(f, x: MultivectorField) -> MultivectorField:
    f = ex.as_expr(f)
    return _owning(x.dim, {m: ex.mul(f, c) for m, c in x.coeffs.items()})


def _product(x: MultivectorField, y: MultivectorField, kind: str) -> MultivectorField:
    """Sum every coefficient pair's signed product onto its target blade,
    looping over x's blades and then y's, as `algebra` sums numerically."""
    table = blade_table(same_dim(x, y))
    signs, targets = table.sign[kind], table.target
    out: dict[int, ex.Expr] = {}
    for a, ca in x.coeffs.items():
        sign_row, target_row = signs[a].tolist(), targets[a].tolist()
        for b, cb in y.coeffs.items():
            sign = sign_row[b]
            if sign:
                m = target_row[b]
                term = ex.mul(ca, cb)
                out[m] = (ex.sub if sign < 0 else ex.add)(out.get(m, ex.ZERO), term)
    return _owning(x.dim, out)


def wedge(x: MultivectorField, y: MultivectorField) -> MultivectorField:
    return _product(x, y, "wedge")


def clifford(x: MultivectorField, y: MultivectorField) -> MultivectorField:
    return _product(x, y, "clifford")


def contract(x: MultivectorField, y: MultivectorField, side: str = "left") -> MultivectorField:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _product(x, y, side)


def scalar_product(x: MultivectorField, y: MultivectorField) -> ex.Expr:
    same_dim(x, y)
    return ex.total(ex.mul(ca, y.coeffs[m]) for m, ca in x.coeffs.items() if m in y.coeffs)


def commutator(a: MultivectorField, x: MultivectorField) -> MultivectorField:
    """Commutator product (aX - Xa)/2 in one pass over the blade pairs.

    A pair that commutes is dropped exactly and one that anticommutes gives
    a single term, so a grade the law excludes (a bivector's commutator
    keeps grades; Hestenes & Sobczyk 1984, ch. 1) is never left behind as a
    rounding residue of two products that cancel only numerically.
    """
    return _product(a, x, "commutator")


def involute(x: MultivectorField, kind: str) -> MultivectorField:
    if kind not in INVOLUTIONS:
        raise ValueError(f"unknown involution {kind!r}")
    signs = blade_table(x.dim).involution[kind].tolist()
    out = {m: (ex.neg(c) if signs[m] < 0 else c) for m, c in x.coeffs.items()}
    return _owning(x.dim, out)


def grade_project(x: MultivectorField, k: int) -> MultivectorField:
    return _owning(x.dim, {m: c for m, c in x.coeffs.items() if grade_of(m) == k})


def directional_derivative(a: MultivectorField, x: MultivectorField) -> MultivectorField:
    """Flat derivative a.d_o X, coefficient by coefficient.

    Along a constant direction (every component a `Const`: a frame vector)
    it is the sum of a^i dX/dx_i over the components not 0, from the
    partials `expr.diff` stores on each node.  Along a varying one it is one
    forward pass per coefficient, `expr.tangent`, memoized on the direction.
    The canonical frame's fields live as long as the process, so a memo on
    them would keep every tree differentiated along them alive; a partial
    dies with its node and serves every constant direction.
    """
    same_dim(a, x)
    if not a.is_vector():
        raise ValueError("direction must be a vector field")
    comps = {i: ai for i, ai in enumerate(a.vector_components()) if not ex.is_zero(ai)}
    if any(type(ai) is not ex.Const for ai in comps.values()):
        memo = a._tangents
        return _owning(x.dim, {m: ex.tangent(c, comps, memo) for m, c in x.coeffs.items()})
    return _owning(x.dim, {m: ex.total(ex.mul(ai, ex.diff(c, i)) for i, ai in comps.items())
                           for m, c in x.coeffs.items()})


@memo
def lie_bracket(a: MultivectorField, b: MultivectorField) -> MultivectorField:
    """[a, b] = a.d_o b - b.d_o a on vector fields."""
    if not (a.is_vector() and b.is_vector()):
        raise ValueError("lie_bracket takes vector fields")
    return sub(directional_derivative(a, b), directional_derivative(b, a))


@memo
def const_frames(dim: int, frame: Frame | None) -> tuple[tuple[MultivectorField, ...], ...]:
    """Constant frame fields and their reciprocals, as tuples (canonical by default),
    built once per frame, so that every sum over one frame sees the same fields."""
    if frame is None:  # the canonical frame is orthonormal, so its own reciprocal
        down = tuple(constant(v) for v in canonical_frame(dim).vectors)
        return down, down
    return tuple(tuple(constant(v) for v in f.vectors) for f in (frame, reciprocal_frame(frame)))


def frame_sum(dim: int, term: Callable[[MultivectorField, MultivectorField], MultivectorField],
              frame: Frame | None = None) -> MultivectorField:
    """Sum of term(e_mu, e^mu) over a reciprocal frame pair, folded left from the
    empty field, empty terms skipped: a vector-derivative sum, the same in every
    frame (Hestenes & Sobczyk 1984)."""
    out = _owning(dim, {})
    for e_mu, e_up in zip(*const_frames(dim, frame)):
        t = term(e_mu, e_up)
        if t.coeffs:
            out = add(out, t)
    return out


def curl(x: MultivectorField) -> MultivectorField:
    """Grade-raising derivative d_o ^ X: the frame sum of e^mu ^ (e_mu . d_o X)."""
    return frame_sum(x.dim, lambda e, e_up: wedge(e_up, directional_derivative(e, x)))


def gradient_field(f: ex.Expr, dim: int) -> MultivectorField:
    """d_o f as a vector field: the curl of the scalar field f."""
    return curl(scalar_field(dim, f))


def compiled_evaluator(x: MultivectorField):
    """The points (N, dim) -> (N, 2**dim) coefficients function of ``x``'s tape.

    It evaluates every distinct node of ``x`` once over all points, on the
    tape that `MultivectorField.at` uses, and raises DomainError as
    `expr.Tape` describes.
    """
    tape, masks = x._tape
    size = 1 << x.dim

    def at(points) -> np.ndarray:
        out = np.zeros((len(points), size))
        out[:, masks] = tape(points)
        return out

    return at
