"""Per-layer tracing of gacalc from outside the package.

`Tracer.install()` replaces public functions of each gacalc layer with
timing wrappers, in every gacalc module that binds the name (``suites``
imports ``curvature`` and ``cov_derivative`` by name, for example).  A
layer's time counts only at its outermost entry, so recursion (``diff``
re-enters itself millions of times on large trees) is timed once; its
call count still counts every entry.  Aggregates and the coarse spans are
kept in memory and written out once, by `Tracer.dump`.

The node counts of every expression handed to ``expr.compile_fn`` come
from a walk the tracer makes itself; its time is taken out of every layer
open around the call and reported apart, as ``trace.count_nodes_s``.

Run as a script it is the traced stand-in for one ``gacalc`` process::

    python3 perfbench/tracer.py OUT.json cli check --config fixtures/zero.json --json
    python3 perfbench/tracer.py OUT.json probe SEED

``cli`` runs ``gacalc.cli.main`` on the given arguments and exits with
its code; ``probe`` runs the fixed layer probe described in `run_probe`.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import fields as dc_fields
from pathlib import Path

perf_counter = time.perf_counter

# key -> [(module, attribute), ...]; the first module defines the name.
TARGETS = {
    "fixtures.load": [("gacalc.fixtures", "load_fixture_file"), ("gacalc.fixtures", "load_map_file")],
    "expr.parse": [("gacalc.expr", "parse")],
    "expr.diff": [("gacalc.expr", "diff")],
    "expr.substitute": [("gacalc.expr", "substitute")],
    # Point queries: MultivectorField.at drives expr.evaluate; wrapping evaluate
    # itself would put every node of every tree through a wrapper.
    "expr.evaluate": [("gacalc.fields.MultivectorField", "at")],
    "fields.products": [("gacalc.fields", "wedge"), ("gacalc.fields", "clifford"),
                        ("gacalc.fields", "contract"), ("gacalc.fields", "scalar_product")],
    "fields.directional_derivative": [("gacalc.fields", "directional_derivative")],
    "fields.compiled_evaluator": [("gacalc.fields", "compiled_evaluator")],
    "connection.gamma_matrix": [("gacalc.connection", "gamma_matrix")],
    "connection.cov_derivative": [("gacalc.connection", "cov_derivative")],
    "connection.deform": [("gacalc.connection", "deform")],
    "connection.cov_derivative_extensor": [("gacalc.connection", "cov_derivative_extensor")],
    "cartan.curvature": [("gacalc.cartan", "curvature")],
    "cartan.structure": [("gacalc.cartan", "check_structure_equation")],
    "cartan.cyclic_bianchi": [("gacalc.cartan", "check_cyclic"), ("gacalc.cartan", "check_bianchi")],
    "bridge.transform_connection": [("gacalc.bridge", "transform_connection")],
    "bridge.classical": [("gacalc.bridge", "classical_cov_derivative")],
    "suites": [("gacalc.suites", "run_fixture_checks"), ("gacalc.suites", "run_transform_checks")],
    "report.render": [("gacalc.report.Report", "to_text"), ("gacalc.report.Report", "to_json")],
}
# Keys whose outermost entries are also kept as spans (few, long calls).
SPAN_KEYS = {"fixtures.load", "suites", "report.render", "connection.deform",
             "cartan.structure", "cartan.cyclic_bianchi", "bridge.transform_connection",
             "bridge.classical"}
ALGEBRA_KERNELS = ("clifford", "wedge", "contraction")
ALGEBRA_DIMS = range(2, 7)


class Acc:
    """Outermost-entry accounting for one layer key."""

    __slots__ = ("depth", "calls", "entries", "seconds")

    def __init__(self):
        self.depth = 0
        self.calls = 0
        self.entries = 0
        self.seconds = 0.0


def count_nodes(root) -> tuple[int, int]:
    """(tree nodes, structurally distinct nodes) of one expression.

    Tree nodes count a shared subtree once per occurrence; the walk is
    memoized by object identity, so it stays linear in the number of
    objects.  Distinct nodes are found by giving every object a canonical
    number keyed on its type, its own fields and its children's numbers.
    The root keeps every visited object alive, so identities stay valid.
    """
    size: dict[int, int] = {}
    canon: dict[int, int] = {}
    table: dict[tuple, int] = {}
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        key_id = id(node)
        if key_id in size:
            continue
        parts = [getattr(node, f.name) for f in dc_fields(node)]
        kids = [p for p in parts if hasattr(p, "__dataclass_fields__")]
        if not ready:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in size)
            continue
        size[key_id] = 1 + sum(size[id(k)] for k in kids)
        struct = (type(node).__name__,) + tuple(
            ("#", canon[id(p)]) if hasattr(p, "__dataclass_fields__") else p for p in parts)
        canon[key_id] = table.setdefault(struct, len(table))
    return size[id(root)], len(table)


class Tracer:
    """Layer accumulators of one traced process."""

    def __init__(self):
        self.acc = {key: Acc() for key in TARGETS}
        self.acc["expr.compile_fn"] = Acc()
        self.acc["expr.compiled_call"] = Acc()
        self.suite_compile_s = 0.0
        self.suite_eval_s = 0.0
        self.suite_checks = 0
        self.tree_nodes = 0
        self.unique_nodes = 0
        self.max_tree_nodes = 0
        self.algebra = {(k, d): [0, 0.0] for k in ALGEBRA_KERNELS for d in ALGEBRA_DIMS}
        self.spans: list[tuple[str, float, float, str | None]] = []
        self._open_spans: list[str] = []
        self.import_s = 0.0
        self.count_s = 0.0

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, key: str, fn):
        acc = self.acc[key]
        spans = self.spans if key in SPAN_KEYS else None
        open_spans = self._open_spans
        suites_acc = self.acc["suites"]
        in_suite_eval = key == "expr.evaluate"
        counts_checks = key == "suites"

        def wrapper(*args, **kwargs):
            acc.calls += 1
            if acc.depth:
                acc.depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    acc.depth -= 1
            acc.depth = 1
            acc.entries += 1
            parent = open_spans[-1] if open_spans else None
            if spans is not None:
                open_spans.append(key)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                acc.seconds += t1 - t0
                acc.depth = 0
                if spans is not None:
                    open_spans.pop()
                    spans.append((key, t0, t1, parent))
                if in_suite_eval and suites_acc.depth:
                    self.suite_eval_s += t1 - t0
            if counts_checks:
                self.suite_checks += len(result.checks)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_compile_fn(self, fn):
        acc = self.acc["expr.compile_fn"]
        call_acc = self.acc["expr.compiled_call"]
        suites_acc = self.acc["suites"]

        def timed_call(compiled):
            def call(point):
                t0 = perf_counter()
                try:
                    return compiled(point)
                finally:
                    dt = perf_counter() - t0
                    call_acc.seconds += dt
                    call_acc.calls += 1
                    if suites_acc.depth:
                        self.suite_eval_s += dt
            return call

        def compile_fn(e):
            t0 = perf_counter()
            tree, unique = count_nodes(e)
            self.tree_nodes += tree
            self.unique_nodes += unique
            self.max_tree_nodes = max(self.max_tree_nodes, tree)
            # The walk is the tracer's own work: take it out of every layer
            # that is open around this call, and keep it apart.
            dt = perf_counter() - t0
            self.count_s += dt
            for open_acc in self.acc.values():
                if open_acc.depth:
                    open_acc.seconds -= dt
            t0 = perf_counter()
            compiled = fn(e)
            dt = perf_counter() - t0
            acc.seconds += dt
            acc.calls += 1
            if suites_acc.depth:
                self.suite_compile_s += dt
            return timed_call(compiled)

        compile_fn.__wrapped__ = fn
        return compile_fn

    def _wrap_algebra(self, kernel: str, fn):
        table = self.algebra

        def product(x, y, *args, **kwargs):
            t0 = perf_counter()
            result = fn(x, y, *args, **kwargs)
            slot = table.get((kernel, x.dim))
            if slot is not None:
                slot[0] += 1
                slot[1] += perf_counter() - t0
            return result

        product.__wrapped__ = fn
        return product

    def install(self) -> None:
        """Wrap every target in every loaded gacalc module that binds it."""
        t0 = perf_counter()
        import gacalc.cli  # noqa: F401  (loads every layer)
        self.import_s = perf_counter() - t0
        modules = [m for name, m in list(sys.modules.items())
                   if name == "gacalc" or name.startswith("gacalc.")]
        replacements = []
        for key, targets in TARGETS.items():
            for owner_path, attr in targets:
                owner = _resolve(owner_path)
                original = getattr(owner, attr)
                replacements.append((original, self._wrap(key, original)))
        expr_mod = sys.modules["gacalc.expr"]
        replacements.append((expr_mod.compile_fn, self._wrap_compile_fn(expr_mod.compile_fn)))
        algebra_mod = sys.modules["gacalc.algebra"]
        for kernel in ALGEBRA_KERNELS:
            original = getattr(algebra_mod, kernel)
            replacements.append((original, self._wrap_algebra(kernel, original)))
        by_id = {id(orig): new for orig, new in replacements}
        owners = list(modules)
        for mod in modules:
            owners.extend(v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__ == mod.__name__)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                new = by_id.get(id(value))
                if new is not None:
                    setattr(owner, attr, new)

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        out = {"cli.import_s": self.import_s, "trace.count_nodes_s": self.count_s}
        for key, acc in self.acc.items():
            out[f"{key}.s"] = acc.seconds
            out[f"{key}.calls"] = acc.calls
            out[f"{key}.entries"] = acc.entries
        out["suites.compile_s"] = self.suite_compile_s
        out["suites.eval_s"] = self.suite_eval_s
        out["suites.checks"] = self.suite_checks
        out["expr.tree_nodes"] = self.tree_nodes
        out["expr.unique_nodes"] = self.unique_nodes
        out["expr.max_tree_nodes"] = self.max_tree_nodes
        for (kernel, dim), (calls, seconds) in self.algebra.items():
            out[f"algebra.{kernel}.calls.d{dim}"] = calls
            out[f"algebra.{kernel}.s.d{dim}"] = seconds
        return out

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({"summary": self.summary(), "spans": self.spans}))


def _resolve(path: str):
    """'gacalc.fields.MultivectorField' -> the class; 'gacalc.expr' -> the module."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is not None:
            obj = mod
            for name in parts[cut:]:
                obj = getattr(obj, name)
            return obj
    raise LookupError(path)


# -- the layer probe ---------------------------------------------------------

def run_probe(seed: int, fixtures_dir: Path) -> None:
    """Enter every traced layer once, on small fixed inputs.

    Every traced run ends with this probe, so that each layer metric is
    measured on every workload, also where the workload never enters that
    layer; the probe's own share is reported beside the totals.  It loads
    polar_from_zero (parse, transform_connection, substitute), runs the
    whole suite on the dim-2 zero connection (suites, compile, every
    construction layer, report), queries the sphere curvature field at a
    few points (evaluate) and runs a few dense products per dim (algebra).
    """
    import numpy as np

    from gacalc import algebra, cartan, fields as mf, fixtures, suites

    fixtures.load_fixture_file(fixtures_dir / "polar_from_zero.json")
    report = suites.run_fixture_checks(fixtures.zero_fixture(2), "all", seed=seed, samples=10)
    report.to_text()
    if not report.passed:
        raise SystemExit("probe: the dim-2 zero connection failed a check")
    sphere = fixtures.load_fixture_file(fixtures_dir / "sphere.json")
    e1, e2 = mf.basis(2, 0), mf.basis(2, 1)
    rho = cartan.curvature(sphere.conn, e1, e2, e2)
    rng = np.random.default_rng(seed)
    for point in sphere.domain.sample(50, rng):
        if abs(rho.at(point).coeffs[1] - np.sin(point[0]) ** 2) > 1e-9:  # rho(e1,e2)e2 = sin^2 e1
            raise SystemExit("probe: sphere curvature off its closed form")
    for dim in ALGEBRA_DIMS:
        for _ in range(3):
            x = algebra.Multivector(dim, rng.uniform(-1.0, 1.0, 1 << dim))
            y = algebra.Multivector(dim, rng.uniform(-1.0, 1.0, 1 << dim))
            algebra.clifford(x, y)
            algebra.wedge(x, y)
            algebra.contraction(x, y)


def main(argv: list[str]) -> int:
    out_path, mode, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    code = 0
    if mode == "cli":
        from gacalc import cli
        code = cli.main(rest)
    elif mode == "probe":
        run_probe(int(rest[0]), Path("fixtures"))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
