"""The library-kernels workload: one long-lived process calling gacalc's numeric layers.

One batch is a fixed mix: one `clifford`, one `wedge` and one left
`contraction` on seeded dense multivectors at each dim 2..6 (15 products),
and point queries through `MultivectorField.at` (the `gacalc eval` path,
through `expr.evaluate`) on four fields: the curvature rho(e1, e2, e2) and
the Cartan curvature omega(e2, e1) of `sphere` and of `polar_from_zero`.
A given number of batches runs back to back (closed loop), and the mean
batch time is reported.  Between batches, at evenly spaced points, the
process times the given number of calibration processes (calibrate.py),
which run.py uses to scale the batch time to the reference host speed.

Every result is checked against an answer the program does not compute:
products against the reference tables below, built from the blade rules
alone, and point values against closed forms (sin^2(theta) e1 and
sin^2(theta) e12 on the unit sphere; zero on the flat polar chart).

    python3 perfbench/kernels.py --seed N --batches B [--calibrations K] [--trace OUT.json]

prints one JSON object.  With --trace, the first half of the batches runs
untraced and the second half under `tracer.Tracer`, whose aggregates go
to OUT.json.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

DIMS = range(2, 7)
KERNELS = ("clifford", "wedge", "contraction")
POOL = 8            # seeded operand pairs per dim, used in turn
POINTS_PER_FIELD = 10
PRODUCT_TOL = 1e-12
POINT_TOL = 1e-9


def blade_sign(a: int, b: int) -> int:
    """Sign of e_A e_B after sorting into canonical order (Euclidean metric).

    Counts inversions of the concatenated generator lists directly.
    """
    left = [i for i in range(a.bit_length()) if a >> i & 1]
    right = [j for j in range(b.bit_length()) if b >> j & 1]
    inversions = sum(1 for i in left for j in right if i > j)
    return -1 if inversions % 2 else 1


def reference_tables(dim: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per kernel: (target blade, sign) for every (a, b) pair, sign 0 if the pair drops."""
    n = 1 << dim
    target = np.array([a ^ b for a in range(n) for b in range(n)])
    sign = np.array([blade_sign(a, b) for a in range(n) for b in range(n)], dtype=float)
    keep_wedge = np.array([(a & b) == 0 for a in range(n) for b in range(n)])
    keep_left = np.array([(a & ~b) == 0 for a in range(n) for b in range(n)])
    return {
        "clifford": (target, sign),
        "wedge": (target, sign * keep_wedge),
        "contraction": (target, sign * keep_left),
    }


def reference_product(table, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    target, sign = table
    return np.bincount(target, weights=sign * np.outer(x, y).ravel(), minlength=len(x))


def misfit(value: np.ndarray, expected: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(value))), float(np.max(np.abs(expected))))
    return float(np.max(np.abs(value - expected))) / scale


class Kernels:
    def __init__(self, seed: int, fixtures_dir: Path):
        from gacalc import algebra, cartan, fields as mf, fixtures

        self.algebra = algebra
        rng = np.random.default_rng(seed)
        self.operands = {}
        self.expected = {}
        for dim in DIMS:
            tables = reference_tables(dim)
            pairs = [(rng.uniform(-1.0, 1.0, 1 << dim), rng.uniform(-1.0, 1.0, 1 << dim))
                     for _ in range(POOL)]
            self.operands[dim] = [(algebra.Multivector(dim, x), algebra.Multivector(dim, y))
                                  for x, y in pairs]
            self.expected[dim] = [{k: reference_product(tables[k], x, y) for k in KERNELS}
                                  for x, y in pairs]
        e1, e2 = mf.basis(2, 0), mf.basis(2, 1)
        sphere = fixtures.load_fixture_file(fixtures_dir / "sphere.json")
        flat = fixtures.load_fixture_file(fixtures_dir / "polar_from_zero.json")

        def sin2(mask):
            def closed_form(p):
                out = np.zeros(4)
                out[mask] = math.sin(p[0]) ** 2
                return out
            return closed_form

        def zero(p):
            return np.zeros(4)

        # (field, sample points, closed-form value at a point)
        self.queries = []
        for fix, rho_answer, omega_answer in ((sphere, sin2(0b01), sin2(0b11)),
                                              (flat, zero, zero)):
            points = fix.domain.sample(POOL * POINTS_PER_FIELD, rng)
            self.queries.append((cartan.curvature(fix.conn, e1, e2, e2), points, rho_answer))
            self.queries.append((cartan.cartan_curvature(fix.conn, e2, e1), points, omega_answer))

    def batch(self, index: int):
        """Run one batch; return (product seconds, point seconds, failures, checks)."""
        algebra = self.algebra
        slot = index % POOL
        products = []
        t0 = time.perf_counter()
        for dim in DIMS:
            x, y = self.operands[dim][slot]
            products.append((dim, "clifford", algebra.clifford(x, y)))
            products.append((dim, "wedge", algebra.wedge(x, y)))
            products.append((dim, "contraction", algebra.contraction(x, y)))
        t1 = time.perf_counter()
        values = []
        lo, hi = slot * POINTS_PER_FIELD, (slot + 1) * POINTS_PER_FIELD
        for field, points, answer in self.queries:
            for p in points[lo:hi]:
                values.append((field.at(p), answer(p)))
        t2 = time.perf_counter()
        failures = sum(misfit(mv.coeffs, self.expected[dim][slot][kernel]) >= PRODUCT_TOL
                       for dim, kernel, mv in products)
        failures += sum(not misfit(mv.coeffs, want) < POINT_TOL for mv, want in values)
        return t1 - t0, t2 - t1, failures, len(products) + len(values)

    def run(self, batches: int, calibrations: int = 0) -> dict:
        product_s, point_s, calibration_s = [], [], []
        failed = attempted = 0
        calibrate_before = {k * batches // calibrations for k in range(calibrations)}
        for index in range(batches):
            if index in calibrate_before:
                t0 = time.perf_counter()
                subprocess.run([sys.executable, str(Path(__file__).with_name("calibrate.py"))],
                               check=True)
                calibration_s.append(time.perf_counter() - t0)
            dp, dq, bad, count = self.batch(index)
            product_s.append(dp)
            point_s.append(dq)
            failed += bad
            attempted += count
        products = len(DIMS) * len(KERNELS) * batches
        points = len(self.queries) * POINTS_PER_FIELD * batches
        return {
            "batches": batches,
            "batch_s": (sum(product_s) + sum(point_s)) / batches,
            "calibration_samples": calibration_s,
            "products_per_s": products / sum(product_s),
            "points_per_s": points / sum(point_s),
            "attempted": attempted,
            "failed": failed,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batches", type=int, required=True)
    parser.add_argument("--calibrations", type=int, default=0)
    parser.add_argument("--trace", default=None, help="write traced aggregates here")
    args = parser.parse_args(argv)
    kernels = Kernels(args.seed, Path("fixtures"))
    if args.trace is None:
        result = kernels.run(args.batches, args.calibrations)
    else:
        from tracer import Tracer

        result = kernels.run(args.batches // 2)
        tracer = Tracer()
        tracer.install()
        result["traced"] = kernels.run(args.batches // 2)
        tracer.dump(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
