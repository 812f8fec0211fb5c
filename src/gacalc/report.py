"""Residual-check records and report rendering (text table and JSON).

`worst_residual` is the one residual path: one `expr.Tape` for a check's pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import fields as mf


def batch_residual(lhs, rhs) -> float:
    """Largest residual over a batch of (lhs, rhs) values.

    The last axis of the two arrays holds the coefficients of one item
    (e.g. one point of a multivector field); an item's residual is
    max|l - r| / max(1, max|l|, max|r|), and the result is the max over
    items.  A NaN anywhere makes the result NaN.
    """
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    num = np.max(np.abs(lhs - rhs), axis=-1)
    den = np.maximum(1.0, np.maximum(np.max(np.abs(lhs), axis=-1), np.max(np.abs(rhs), axis=-1)))
    return float(np.max(num / den))


def worst_of(*residuals: float) -> float:
    """The largest of some residuals; unlike the builtin max, NaN wins."""
    return float(np.max(residuals))


def worst_residual(pairs, points) -> float:
    """`worst_of` the residuals of (lhs, rhs) pairs over an (N, dim) points array.

    All the pairs, which may come from a generator, are lowered onto one
    `expr.Tape` (every coefficient of a pair of multivector fields, both
    sides of a pair of scalar expressions) and evaluated in one pass, so a
    subtree the pairs share is evaluated once.  A pair of fields is then
    normalized per point over its coefficients; a pair of scalars on its
    own, in one batch with the other scalar pairs.  No pairs give 0.0.
    """
    roots: list[ex.Expr] = []
    field_pairs = []  # (dim, lhs blades, rhs blades, column of the first lhs value)
    scalar_columns = []  # column of each scalar pair's lhs value; its rhs is next
    for lhs, rhs in pairs:
        if isinstance(lhs, mf.MultivectorField):
            field_pairs.append((lhs.dim, list(lhs.coeffs), list(rhs.coeffs), len(roots)))
            roots += lhs.coeffs.values()
            roots += rhs.coeffs.values()
        else:
            scalar_columns.append(len(roots))
            roots += (lhs, rhs)
    values = ex.Tape(roots)(points)
    worst = 0.0
    for dim, lhs_blades, rhs_blades, column in field_pairs:
        split = column + len(lhs_blades)
        lhs_values, rhs_values = np.zeros((2, len(values), 1 << dim))
        lhs_values[:, lhs_blades] = values[:, column:split]
        rhs_values[:, rhs_blades] = values[:, split:split + len(rhs_blades)]
        worst = worst_of(worst, batch_residual(lhs_values, rhs_values))
    if scalar_columns:
        lhs_columns = np.array(scalar_columns)
        worst = worst_of(worst, batch_residual(values[:, lhs_columns].T[..., None],
                                               values[:, lhs_columns + 1].T[..., None]))
    return worst


@dataclass
class CheckResult:
    name: str
    paper_eq: str
    samples: int
    max_residual: float
    tolerance: float

    def __post_init__(self):
        self.samples = int(self.samples)
        self.max_residual = float(self.max_residual)
        self.tolerance = float(self.tolerance)

    @property
    def passed(self) -> bool:
        # False for NaN too, which compares false with everything
        return self.max_residual < self.tolerance

    def to_dict(self) -> dict:
        finite = math.isfinite(self.max_residual)
        return {
            "name": self.name,
            "paper_eq": self.paper_eq,
            "samples": self.samples,
            "max_residual": self.max_residual if finite else None,  # strict JSON has no NaN
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class Report:
    fixture: str
    seed: int
    checks: list[CheckResult]

    def __post_init__(self):
        self.checks = sorted(self.checks, key=lambda c: c.name)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "fixture": self.fixture,
            "seed": self.seed,
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"

    def to_text(self) -> str:
        name_w = max([len(c.name) for c in self.checks] + [5])
        eq_w = max([len(c.paper_eq) for c in self.checks] + [3])
        lines = [
            f"fixture: {self.fixture}   seed: {self.seed}",
            f"{'check':<{name_w}}  {'eq':<{eq_w}}  {'samples':>7}  {'max residual':>13}  {'tolerance':>10}  status",
        ]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{c.name:<{name_w}}  {c.paper_eq:<{eq_w}}  {c.samples:>7}  "
                f"{c.max_residual:>13.3e}  {c.tolerance:>10.1e}  {status}"
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"
