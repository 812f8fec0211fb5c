"""Dense multivector algebra over Euclidean R^n with blade-bitmask storage.

Basis blades are indexed by bitmask: bit i set means basis vector e_{i+1}
is a factor, so e.g. mask 0b011 is e1^e2.  The product of blades a and b
lands on blade a ^ b with the sign of the transpositions that sort their
concatenated generators; with the Euclidean scalar product every repeated
generator squares to +1, so that one sign serves the geometric product,
and the outer product and both contractions are the pairs it keeps.
`blade_table` holds these targets and signs, with each blade's grade and
involution signs, once per dimension (the bitmap representation of Dorst,
Fontijne & Mann, *Geometric Algebra for Computer Science*, 2007, ch. 19).
The numeric products here and the symbolic ones in `fields` both read it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_DIM = 6
PRODUCTS = ("clifford", "wedge", "left", "right")
INVOLUTIONS = ("hat", "tilde", "bar")


def _check_dim(dim: int) -> None:
    if not 2 <= dim <= MAX_DIM:
        raise ValueError(f"dimension must be between 2 and {MAX_DIM}, got {dim}")


def same_dim(x, y) -> int:
    """The common dimension of two multivectors or multivector fields."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return x.dim


def grade_of(mask: int) -> int:
    """Grade of a basis blade, i.e. the number of generators in it."""
    return int(mask).bit_count()


class BladeTable:
    """Products and involutions of the 2**dim basis blades of one dimension.

    ``target[a, b]`` is the blade that a product of blades a and b lands on
    and ``sign[p][a, b]`` its sign under product ``p`` (one of `PRODUCTS`),
    0.0 where that product drops the pair; ``sign["commutator"][a, b]`` is
    (s(a, b) - s(b, a))/2 for the geometric sign s, 0.0 exactly where the
    two blades commute.  ``grade[m]`` is the grade of blade m and
    ``involution[k][m]`` its sign under involution ``k`` (one of
    `INVOLUTIONS`).  The arrays are read-only, since one table serves every
    caller.  `kept_pairs` lists, from it, the pairs each product keeps.
    """

    __slots__ = ("dim", "grade", "target", "sign", "involution")

    def __init__(self, dim: int, grade: np.ndarray, target: np.ndarray,
                 sign: dict[str, np.ndarray], involution: dict[str, np.ndarray]):
        self.dim, self.grade, self.target, self.sign, self.involution = (
            dim, grade, target, sign, involution)


@lru_cache(maxsize=None)
def blade_table(dim: int) -> BladeTable:
    """The `BladeTable` of ``dim``, built on first use."""
    _check_dim(dim)
    masks = np.arange(1 << dim)
    grade = np.array([grade_of(m) for m in masks])
    a, b = masks[:, None], masks[None, :]
    # one transposition for every generator of a above a generator of b
    swaps = sum(grade[(a >> shift) & b] for shift in range(1, dim))
    geometric = np.where(swaps % 2, -1.0, 1.0)
    keep = {"clifford": True, "wedge": (a & b) == 0, "left": (a & ~b) == 0,
            "right": (b & ~a) == 0}
    sign = {p: np.where(keep[p], geometric, 0.0) for p in PRODUCTS}
    sign["commutator"] = (geometric - geometric.T) / 2
    flips = {"hat": grade, "tilde": grade * (grade - 1) // 2, "bar": grade * (grade + 1) // 2}
    involution = {k: np.where(flips[k] % 2, -1.0, 1.0) for k in INVOLUTIONS}
    target = a ^ b
    for arr in (grade, target, *sign.values(), *involution.values()):
        arr.setflags(write=False)
    return BladeTable(dim, grade, target, sign, involution)


@lru_cache(maxsize=None)
def kept_pairs(dim: int, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pairs that ``kind`` (a product or "commutator") keeps, built on first use.

    ``(a, b, target[a, b], sign[kind][a, b])`` of `blade_table(dim)` over
    the pairs where ``sign[kind]`` is nonzero, in row-major order, the order
    of the flattened table.  A symbolic-only run never builds them.
    """
    table = blade_table(dim)
    a, b = np.nonzero(table.sign[kind])
    pairs = (a, b, table.target[a, b], table.sign[kind][a, b])
    for arr in pairs:
        arr.setflags(write=False)
    return pairs


class Multivector:
    """Element of the 2^n-dimensional Clifford algebra of Euclidean R^n."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: np.ndarray):
        _check_dim(dim)
        arr = np.asarray(coeffs, dtype=float)
        if arr.shape != (1 << dim,):
            raise ValueError(f"expected {1 << dim} coefficients for dim {dim}, got {arr.shape}")
        self.dim, self.coeffs = dim, arr.copy()  # the caller keeps its own array

    @classmethod
    def zero(cls, dim: int) -> Multivector:
        return cls(dim, np.zeros(1 << dim))

    @classmethod
    def scalar(cls, dim: int, value: float) -> Multivector:
        return cls.blade(dim, 0, value)

    @classmethod
    def blade(cls, dim: int, mask: int, coeff: float = 1.0) -> Multivector:
        _check_dim(dim)
        if not 0 <= mask < 1 << dim:
            raise ValueError(f"blade mask {mask} out of range for dim {dim}")
        c = np.zeros(1 << dim)
        c[mask] = coeff
        return cls(dim, c)

    @classmethod
    def basis_vector(cls, dim: int, i: int) -> Multivector:
        if not 0 <= i < dim:
            raise ValueError(f"basis index {i} out of range for dim {dim}")
        return cls.blade(dim, 1 << i)

    @classmethod
    def from_vector(cls, components) -> Multivector:
        comps = np.asarray(components, dtype=float)
        dim = len(comps)
        c = np.zeros(1 << dim)
        for i, v in enumerate(comps):
            c[1 << i] = v
        return cls(dim, c)

    def vector_components(self) -> np.ndarray:
        return np.array([self.coeffs[1 << i] for i in range(self.dim)])

    def grades(self) -> set[int]:
        return {grade_of(m) for m in np.nonzero(self.coeffs)[0]}

    def __add__(self, other: Multivector) -> Multivector:
        same_dim(self, other)
        return _owning(self.dim, self.coeffs + other.coeffs)

    def __sub__(self, other: Multivector) -> Multivector:
        same_dim(self, other)
        return _owning(self.dim, self.coeffs - other.coeffs)

    def __neg__(self) -> Multivector:
        return _owning(self.dim, -self.coeffs)

    def __rmul__(self, scalar: float) -> Multivector:
        return _owning(self.dim, float(scalar) * self.coeffs)

    __mul__ = __rmul__

    def __repr__(self) -> str:
        return f"Multivector({self.dim}, {format_multivector(self)})"


def _owning(dim: int, coeffs: np.ndarray) -> Multivector:
    """A Multivector around a float array this module just built: no check, no copy."""
    x = object.__new__(Multivector)
    x.dim, x.coeffs = dim, coeffs
    return x


def allclose(x: Multivector, y: Multivector, atol: float = 1e-12) -> bool:
    same_dim(x, y)
    return bool(np.allclose(x.coeffs, y.coeffs, rtol=0.0, atol=atol))


def grade_project(x: Multivector, k: int) -> Multivector:
    return _owning(x.dim, np.where(blade_table(x.dim).grade == k, x.coeffs, 0.0))


def _product(x: Multivector, y: Multivector, kind: str) -> Multivector:
    """Sum the signed product of every pair the product keeps onto its target blade.

    Only the pairs of `kept_pairs` are multiplied, and `np.bincount` adds
    them in flattened (a, b) order, the order of a double loop over x's
    blades and then y's.  For finite operands the result is
    bit for bit the sum over all pairs with the dropped ones signed 0.0:
    those pairs added only ±0.0 to a sum that starts at +0.0, which never
    changed it.  A dropped pair is never multiplied, so an infinite
    coefficient makes no NaN through it; a kept pair of inf and 0 still does.
    """
    a, b, target, sign = kept_pairs(same_dim(x, y), kind)
    weights = x.coeffs[a] * y.coeffs[b]
    weights *= sign
    return _owning(x.dim, np.bincount(target, weights=weights, minlength=len(x.coeffs)))


def wedge(x: Multivector, y: Multivector) -> Multivector:
    """Exterior product; blades with shared generators annihilate."""
    return _product(x, y, "wedge")


def clifford(x: Multivector, y: Multivector) -> Multivector:
    """Geometric (Clifford) product with Euclidean signature e_i e_i = 1."""
    return _product(x, y, "clifford")


def scalar_product(x: Multivector, y: Multivector) -> float:
    """Euclidean multivector scalar product, <reverse(X) Y>_0.

    Distinct basis blades are orthogonal and every blade has unit square,
    so this reduces to the dot product of coefficient arrays; on same-grade
    blades it agrees with det(v_i . w_j).
    """
    same_dim(x, y)
    return float(np.dot(x.coeffs, y.coeffs))


def contraction(x: Multivector, y: Multivector, side: str = "left") -> Multivector:
    """Left (x lowers y) or right (y lowers x) interior product."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _product(x, y, side)


def commutator(a: Multivector, x: Multivector) -> Multivector:
    """Commutator product A x X = (AX - XA)/2, in one pass over the blade pairs:
    a pair that commutes is dropped exactly, not left to cancel by rounding."""
    return _product(a, x, "commutator")


def involution(x: Multivector, kind: str) -> Multivector:
    """Grade involution ('hat'), reversion ('tilde') or conjugation ('bar')."""
    if kind not in INVOLUTIONS:
        raise ValueError(f"unknown involution {kind!r}")
    return _owning(x.dim, x.coeffs * blade_table(x.dim).involution[kind])


class LinearMap11:
    """Pointwise linear map on vectors; column j is the image of e_{j+1}."""

    __slots__ = ("dim", "matrix")

    def __init__(self, dim: int, matrix: np.ndarray):
        _check_dim(dim)
        m = np.asarray(matrix, dtype=float)
        if m.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {m.shape}")
        self.dim, self.matrix = dim, m.copy()

    @classmethod
    def identity(cls, dim: int) -> LinearMap11:
        return cls(dim, np.eye(dim))

    def apply(self, v: Multivector) -> Multivector:
        if v.dim != self.dim:
            raise ValueError(f"dimension mismatch: {v.dim} vs {self.dim}")
        if v.grades() - {1}:
            raise ValueError("a (1,1)-extensor applies to vectors")
        return Multivector.from_vector(self.matrix @ v.vector_components())


def adjoint(t: LinearMap11) -> LinearMap11:
    """Adjoint wrt the Euclidean scalar product: matrix transpose."""
    return LinearMap11(t.dim, t.matrix.T)


def outermorphism(t: LinearMap11, x: Multivector) -> Multivector:
    """Extend t to all grades: blades map to wedges of images, scalars pass."""
    if x.dim != t.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {t.dim}")
    images = [Multivector.from_vector(t.matrix[:, j]) for j in range(t.dim)]
    out = Multivector.zero(x.dim)
    for m in np.nonzero(x.coeffs)[0]:
        c = x.coeffs[m]
        if m == 0:
            out = out + Multivector.scalar(x.dim, c)
            continue
        blade = None
        for j in range(x.dim):
            if m >> j & 1:
                blade = images[j] if blade is None else wedge(blade, images[j])
        out = out + c * blade
    return out


class Frame:
    """Ordered tuple of n linearly independent vectors of R^n."""

    __slots__ = ("dim", "vectors", "__weakref__")  # a `fields.memo` key, held weakly

    def __init__(self, dim: int, vectors: tuple[Multivector, ...]):
        _check_dim(dim)
        vs = tuple(vectors)
        if len(vs) != dim:
            raise ValueError(f"frame needs {dim} vectors, got {len(vs)}")
        for v in vs:
            if v.dim != dim or v.grades() - {1}:
                raise ValueError("frame vectors must be grade-1 multivectors of matching dimension")
        self.dim, self.vectors = dim, vs

    @classmethod
    def from_matrix(cls, matrix) -> Frame:
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"frame matrix must be square, got shape {m.shape}")
        return cls(m.shape[0], tuple(Multivector.from_vector(m[:, j]) for j in range(m.shape[0])))

    @property
    def matrix(self) -> np.ndarray:
        return np.column_stack([v.vector_components() for v in self.vectors])


def canonical_frame(dim: int) -> Frame:
    return Frame(dim, tuple(Multivector.basis_vector(dim, i) for i in range(dim)))


def reciprocal_frame(frame: Frame) -> Frame:
    """Frame {e^mu} with e_mu . e^nu = delta; solves the Gram system."""
    gram = frame.matrix.T @ frame.matrix
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        raise ValueError("singular Gram matrix: frame vectors are linearly dependent") from None
    recip = frame.matrix @ inv
    return Frame.from_matrix(recip)


def biv(t: LinearMap11, frame: Frame | None = None) -> Multivector:
    """Bivector of a vector map: sum over t(e^mu) ^ e_mu, frame independent."""
    if frame is None:
        frame = canonical_frame(t.dim)
    recip = reciprocal_frame(frame)
    out = Multivector.zero(t.dim)
    for e_mu, e_up in zip(frame.vectors, recip.vectors):
        out = out + wedge(t.apply(e_up), e_mu)
    return out


@lru_cache(maxsize=None)
def blade_name(dim: int, mask: int) -> str:
    return "e" + "".join(str(i + 1) for i in range(dim) if mask >> i & 1) if mask else ""


def format_multivector(x: Multivector, tol: float = 0.0) -> str:
    """Blade-coefficient expansion like '0.75 e1 - 1.25 e12' (12 digits); '0' when empty."""
    masks = [m for m in np.nonzero(x.coeffs)[0] if not abs(x.coeffs[m]) <= tol]  # NaN prints
    masks.sort(key=lambda m: (grade_of(m), m))
    if not masks:
        return "0"
    parts: list[str] = []
    for m in masks:
        c = x.coeffs[m]
        mag = f"{abs(c):.12g}"
        name = blade_name(x.dim, m)
        term = f"{mag} {name}".strip()
        if not parts:
            parts.append(f"-{term}" if c < 0 else term)
        else:
            parts.append(f"- {term}" if c < 0 else f"+ {term}")
    return " ".join(parts)
