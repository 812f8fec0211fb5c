"""Multivector fields on a chart of R^n: blade-indexed symbolic coefficients.

A field stores a sparse map from blade bitmask to a scalar expression in
the chart coordinates, plus an optional sampling domain (an axis-aligned
box with per-axis open exclusions shielding coordinate singularities).
The chart frame is the canonical orthonormal one, so e^mu = e_mu and the
flat directional derivative reduces to coefficient-wise partials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .algebra import Multivector, grade_of, reorder_sign

# Box.sample gives up after this many draws per requested point.
SAMPLE_TRIES = 1000


@dataclass(frozen=True)
class Box:
    """Open axis-aligned sampling box, minus margins around excluded values."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    exclusions: tuple[tuple[int, float], ...] = ()
    margin: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same length")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box bounds must satisfy lo < hi on every axis")
        object.__setattr__(self, "exclusions",
                           tuple((int(a), float(v)) for a, v in self.exclusions))
        if any(not 0 <= a < self.dim for a, _ in self.exclusions):
            raise ValueError(f"exclusion axis out of range for dimension {self.dim}")
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
        for i, (a, b) in enumerate(zip(self.lo, self.hi)):
            if not a < point[i] < b:
                return False
        for axis, value in self.exclusions:
            if abs(point[axis] - value) <= self.margin:
                return False
        return True

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Rejection-sample ``count`` points, one uniform draw per try."""
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        out = []
        tries = 0
        while len(out) < count:
            if tries == SAMPLE_TRIES * count:
                raise ValueError(f"drew {len(out)} of {count} points in {tries} tries: "
                                 "the exclusions leave too little of the box")
            tries += 1
            p = rng.uniform(lo, hi)
            if all(abs(p[axis] - value) > self.margin for axis, value in self.exclusions):
                out.append(p)
        return np.array(out)


def _coerce(c) -> ex.Expr:
    return c if isinstance(c, ex.Expr) else ex.const(c)


@dataclass(frozen=True, eq=False)
class MultivectorField:
    dim: int
    coeffs: dict[int, ex.Expr]
    domain: Box | None = None

    def __post_init__(self):
        clean = {int(m): _coerce(c) for m, c in self.coeffs.items()
                 if not (isinstance(c, ex.Const) and c.value == 0.0)}
        for m in clean:
            if not 0 <= m < (1 << self.dim):
                raise ValueError(f"blade index {m} out of range for dim {self.dim}")
        object.__setattr__(self, "coeffs", clean)

    def grades(self) -> set[int]:
        return {grade_of(m) for m in self.coeffs}

    def is_vector(self) -> bool:
        return self.grades() <= {1}

    def component(self, mask: int) -> ex.Expr:
        return self.coeffs.get(mask, ex.ZERO)

    def vector_components(self) -> list[ex.Expr]:
        return [self.component(1 << i) for i in range(self.dim)]

    def at(self, point) -> Multivector:
        c = np.zeros(1 << self.dim)
        for m, e in self.coeffs.items():
            c[m] = ex.evaluate(e, point)
        return Multivector(self.dim, c)

    def __add__(self, other: MultivectorField) -> MultivectorField:
        return add(self, other)

    def __sub__(self, other: MultivectorField) -> MultivectorField:
        return sub(self, other)

    def __neg__(self) -> MultivectorField:
        return scale(ex.const(-1.0), self)


def mvf(dim: int, coeffs: dict, domain: Box | None = None) -> MultivectorField:
    return MultivectorField(dim, coeffs, domain)


def vector(dim: int, components, domain: Box | None = None) -> MultivectorField:
    comps = list(components)
    if len(comps) != dim:
        raise ValueError(f"expected {dim} components, got {len(comps)}")
    return MultivectorField(dim, {1 << i: _coerce(c) for i, c in enumerate(comps)}, domain)


def basis(dim: int, i: int) -> MultivectorField:
    return MultivectorField(dim, {1 << i: ex.ONE})


def constant(x: Multivector, domain: Box | None = None) -> MultivectorField:
    return MultivectorField(x.dim, {int(m): ex.const(x.coeffs[m]) for m in np.nonzero(x.coeffs)[0]}, domain)


def scalar_field(dim: int, e: ex.Expr, domain: Box | None = None) -> MultivectorField:
    return MultivectorField(dim, {0: e}, domain)


def _same_dim(x: MultivectorField, y: MultivectorField) -> None:
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")


def _domain(x: MultivectorField, y: MultivectorField | None = None) -> Box | None:
    if x.domain is not None:
        return x.domain
    return y.domain if y is not None else None


def add(x: MultivectorField, y: MultivectorField) -> MultivectorField:
    _same_dim(x, y)
    out = dict(x.coeffs)
    for m, c in y.coeffs.items():
        out[m] = ex.add(out.get(m, ex.ZERO), c)
    return MultivectorField(x.dim, out, _domain(x, y))


def sub(x: MultivectorField, y: MultivectorField) -> MultivectorField:
    _same_dim(x, y)
    out = dict(x.coeffs)
    for m, c in y.coeffs.items():
        out[m] = ex.sub(out.get(m, ex.ZERO), c)
    return MultivectorField(x.dim, out, _domain(x, y))


def scale(f, x: MultivectorField) -> MultivectorField:
    f = _coerce(f)
    return MultivectorField(x.dim, {m: ex.mul(f, c) for m, c in x.coeffs.items()}, x.domain)


def wedge(x: MultivectorField, y: MultivectorField) -> MultivectorField:
    _same_dim(x, y)
    out: dict[int, ex.Expr] = {}
    for a, ca in x.coeffs.items():
        for b, cb in y.coeffs.items():
            if a & b:
                continue
            m = a | b
            term = ex.mul(ca, cb)
            if reorder_sign(a, b) < 0:
                term = ex.neg(term)
            out[m] = ex.add(out.get(m, ex.ZERO), term)
    return MultivectorField(x.dim, out, _domain(x, y))


def clifford(x: MultivectorField, y: MultivectorField) -> MultivectorField:
    _same_dim(x, y)
    out: dict[int, ex.Expr] = {}
    for a, ca in x.coeffs.items():
        for b, cb in y.coeffs.items():
            m = a ^ b
            term = ex.mul(ca, cb)
            if reorder_sign(a, b) < 0:
                term = ex.neg(term)
            out[m] = ex.add(out.get(m, ex.ZERO), term)
    return MultivectorField(x.dim, out, _domain(x, y))


def contract(x: MultivectorField, y: MultivectorField, side: str = "left") -> MultivectorField:
    _same_dim(x, y)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    out: dict[int, ex.Expr] = {}
    for a, ca in x.coeffs.items():
        for b, cb in y.coeffs.items():
            keep = (a & ~b) == 0 if side == "left" else (b & ~a) == 0
            if not keep:
                continue
            m = a ^ b
            term = ex.mul(ca, cb)
            if reorder_sign(a, b) < 0:
                term = ex.neg(term)
            out[m] = ex.add(out.get(m, ex.ZERO), term)
    return MultivectorField(x.dim, out, _domain(x, y))


def scalar_product(x: MultivectorField, y: MultivectorField) -> ex.Expr:
    _same_dim(x, y)
    total = ex.ZERO
    for m, ca in x.coeffs.items():
        if m in y.coeffs:
            total = ex.add(total, ex.mul(ca, y.coeffs[m]))
    return total


def commutator(a: MultivectorField, x: MultivectorField) -> MultivectorField:
    return scale(0.5, sub(clifford(a, x), clifford(x, a)))


def involute(x: MultivectorField, kind: str) -> MultivectorField:
    signs = {
        "hat": lambda k: k % 2,
        "tilde": lambda k: (k * (k - 1) // 2) % 2,
        "bar": lambda k: (k * (k + 1) // 2) % 2,
    }
    if kind not in signs:
        raise ValueError(f"unknown involution {kind!r}")
    flip = signs[kind]
    out = {m: (ex.neg(c) if flip(grade_of(m)) else c) for m, c in x.coeffs.items()}
    return MultivectorField(x.dim, out, x.domain)


def grade_project(x: MultivectorField, k: int) -> MultivectorField:
    return MultivectorField(x.dim, {m: c for m, c in x.coeffs.items() if grade_of(m) == k}, x.domain)


def directional_derivative(a: MultivectorField, x: MultivectorField) -> MultivectorField:
    """Flat derivative a.d_o X: coefficient-wise sum of a^i dX/dx_i."""
    _same_dim(a, x)
    if not a.is_vector():
        raise ValueError("direction must be a vector field")
    comps = a.vector_components()
    out: dict[int, ex.Expr] = {}
    for m, c in x.coeffs.items():
        total = ex.ZERO
        for i, ai in enumerate(comps):
            total = ex.add(total, ex.mul(ai, ex.diff(c, i)))
        out[m] = total
    return MultivectorField(x.dim, out, _domain(x, a))


def lie_bracket(a: MultivectorField, b: MultivectorField) -> MultivectorField:
    """[a, b] = a.d_o b - b.d_o a on vector fields."""
    if not (a.is_vector() and b.is_vector()):
        raise ValueError("lie_bracket takes vector fields")
    return sub(directional_derivative(a, b), directional_derivative(b, a))


def curl(x: MultivectorField) -> MultivectorField:
    """Grade-raising derivative d_o ^ X = sum_mu e_mu ^ dX/dx_mu."""
    out: dict[int, ex.Expr] = {}
    for m, c in x.coeffs.items():
        for i in range(x.dim):
            bit = 1 << i
            if m & bit:
                continue
            term = ex.diff(c, i)
            if reorder_sign(bit, m) < 0:
                term = ex.neg(term)
            key = m | bit
            out[key] = ex.add(out.get(key, ex.ZERO), term)
    return MultivectorField(x.dim, out, x.domain)


def gradient_field(f: ex.Expr, dim: int, domain: Box | None = None) -> MultivectorField:
    """d_o f as a vector field (canonical orthonormal frame)."""
    return vector(dim, [ex.diff(f, i) for i in range(dim)], domain)


def compiled_evaluator(x: MultivectorField):
    """Lower all coefficients of ``x`` to one shared `expr.Tape`.

    The returned function maps an (N, dim) points array to the (N, 2**dim)
    coefficient array, evaluating every distinct node once over all
    points; it raises DomainError as `expr.Tape` describes.
    """
    masks = list(x.coeffs)
    tape = ex.Tape(x.coeffs.values())
    size = 1 << x.dim

    def at(points) -> np.ndarray:
        out = np.zeros((len(points), size))
        out[:, masks] = tape(points)
        return out

    return at
