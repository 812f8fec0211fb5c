"""Residual-check records and report rendering (text table and JSON).

`worst_residual` is the one residual rule: a scalar pair is a pair of fields
on blade 0, and all pairs of a call (a check's one draw) on one `expr.Tape`.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import expr as ex
from . import fields as mf


# the points of one tape call: on zero6 core at 20,000 samples, one CPU, 256
# doubles the wall time and 4,096 holds 2.6x the peak (BENCH_bounded_memory.json)
CHUNK = 1024


def worst_residual(pairs, points) -> float:
    """The worst residual of (lhs, rhs) pairs over an (N, dim) points array.

    A pair of scalar expressions is a pair of fields on blade 0, so one rule
    scores every pair at every point: max|l - r| / max(1, max|l|, max|r|)
    over the blades either side holds.  All the pairs, which may come from a
    generator, are lowered onto one `expr.Tape`, each blade as two
    neighbouring roots (its lhs coefficient, then its rhs one, a side without
    it reading `expr.ZERO`), and evaluated in one pass per `CHUNK` points, so a
    subtree the pairs share is evaluated once and no array is longer.  The
    result is the worst over pairs and points, NaN winning; a pair with no
    blade, like no pairs at all, scores 0.0.
    """
    roots: list[ex.Expr] = []
    starts: list[int] = []  # the first blade of each pair that has any
    for lhs, rhs in pairs:
        if isinstance(lhs, mf.MultivectorField):
            lhs, rhs = lhs.coeffs, rhs.coeffs
        else:
            lhs, rhs = {0: lhs}, {0: rhs}
        blades = lhs.keys() | rhs.keys()
        if blades:
            starts.append(len(roots) // 2)
            roots += [side.get(blade, ex.ZERO) for blade in blades for side in (lhs, rhs)]
    tape = ex.Tape(roots)
    if not starts:
        return 0.0
    worst = []
    for k in range(0, len(points), CHUNK):
        values = tape(points[k:k + CHUNK])
        left, right = values[:, 0::2], values[:, 1::2]
        gap = np.subtract(left, right)
        np.abs(gap, out=gap)
        scale = np.maximum(np.abs(left, out=left), np.abs(right, out=right), out=left)
        residual = np.maximum.reduceat(gap, starts, axis=1)
        bound = np.maximum.reduceat(scale, starts, axis=1)
        residual /= np.maximum(bound, 1.0, out=bound)
        worst.append(np.max(residual))
    return float(np.max(worst))


class CheckResult(ex.Record):
    __slots__ = ("name", "paper_eq", "samples", "max_residual", "tolerance")
    __hash__ = None  # its fields are not frozen

    def __init__(self, name: str, paper_eq: str, samples: int, max_residual: float,
                 tolerance: float):
        self.name, self.paper_eq, self.samples = name, paper_eq, int(samples)
        self.max_residual, self.tolerance = float(max_residual), float(tolerance)
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


class Report(ex.Record):
    __slots__ = ("fixture", "seed", "checks")
    __hash__ = None  # its fields are not frozen

    def __init__(self, fixture: str, seed: int, checks: list[CheckResult]):
        self.fixture, self.seed = fixture, seed
        self.checks = sorted(checks, key=lambda c: c.name)
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
