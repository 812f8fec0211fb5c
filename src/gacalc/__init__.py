"""Geometric calculus on a single chart of Euclidean R^n.

Numeric multivector algebra (`algebra`), a scalar-field expression DSL
with exact differentiation (`expr`), symbolic multivector fields
(`fields`), connection fields and covariant derivatives (`connection`),
torsion/curvature and Cartan's structure equations (`cartan`), the
classical component-calculus bridge (`bridge`), and runnable identity
suites (`suites`) with a CLI (`cli`).
"""

from __future__ import annotations

from .algebra import (
    Frame,
    LinearMap11,
    Multivector,
    adjoint,
    allclose,
    biv,
    canonical_frame,
    clifford,
    commutator,
    contraction,
    format_multivector,
    grade_project,
    involution,
    outermorphism,
    reciprocal_frame,
    scalar_product,
    wedge,
)
from .connection import ConnectionField, ExtensorField11, ExtensorFieldK, cov_derivative
from .expr import DomainError, ParseError, diff, evaluate, parse, simplify, to_str
from .fields import Box, MultivectorField

__version__ = "0.1.0"

__all__ = [
    "Box",
    "ConnectionField",
    "DomainError",
    "ExtensorField11",
    "ExtensorFieldK",
    "Frame",
    "LinearMap11",
    "Multivector",
    "MultivectorField",
    "ParseError",
    "adjoint",
    "allclose",
    "biv",
    "canonical_frame",
    "clifford",
    "commutator",
    "contraction",
    "cov_derivative",
    "diff",
    "evaluate",
    "format_multivector",
    "grade_project",
    "involution",
    "outermorphism",
    "parse",
    "reciprocal_frame",
    "scalar_product",
    "simplify",
    "to_str",
    "wedge",
    "__version__",
]
