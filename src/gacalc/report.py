"""Residual-check records and report rendering (text table and JSON)."""

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


def field_residual(lhs: mf.MultivectorField, rhs: mf.MultivectorField, points) -> float:
    """`batch_residual` of two multivector fields over an (N, dim) points array."""
    return batch_residual(mf.compiled_evaluator(lhs)(points), mf.compiled_evaluator(rhs)(points))


def worst_of(*residuals: float) -> float:
    """The largest of some residuals; unlike the builtin max, NaN wins."""
    return float(np.max(residuals))


def worst_residual(pairs, points) -> float:
    """`worst_of` the residuals of (lhs, rhs) pairs over an (N, dim) points array.

    Each pair is evaluated as it is drawn from ``pairs``, which may be a
    generator that builds it only then.  A pair of multivector fields is
    normalized per point over its coefficients (`field_residual`); a pair
    of scalar expressions is normalized on its own, in one batch with the
    other scalar pairs once their values are all in.  No pairs give 0.0.
    """
    worst = 0.0
    lhs_values, rhs_values = [], []
    for lhs, rhs in pairs:
        if isinstance(lhs, mf.MultivectorField):
            worst = worst_of(worst, field_residual(lhs, rhs, points))
        else:
            lhs_values.append(ex.compile_fn(lhs)(points))
            rhs_values.append(ex.compile_fn(rhs)(points))
    if lhs_values:
        worst = worst_of(worst, batch_residual(np.stack(lhs_values)[..., None],
                                               np.stack(rhs_values)[..., None]))
    return worst


def expr_residual(pairs, points) -> float:
    """`worst_residual` of (lhs, rhs) scalar expression pairs, each normalized on its own."""
    return worst_residual(pairs, points)


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
