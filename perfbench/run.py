"""gacalc benchmark: time to verdict, set-up time and memory on four workloads.

    python3 perfbench/run.py --workload NAME --seconds S [--seed N] [--trace 0|1]

Run from the root of a gacalc source tree; the program runs from `src/`
as it is, with nothing installed.  Every suite operation is a fresh
`python3 -m gacalc` process given the arguments a user would type, run
one after another by a single closed-loop client: an operation starts
when the previous verdict is in.  A run of a suite workload is one pass,
every operation of the workload once: a fixed amount of work that took
about BENCHMARK.json's run_seconds on the first baseline's machine, so
--seconds does not change it.  `library-kernels` is instead one
long-lived process (see kernels.py) that runs BATCHES_PER_SECOND batches
per second of --seconds and reports the mean batch.  Comparisons take
medians across runs.

Host speed.  The shared 2-vCPU machine of the first baseline changed
speed by up to 2x from one minute to the next, so the wall time of a
multi-second operation says as much about the neighbours as about
gacalc.  In the gaps between operations the client therefore times, in
turn, a set-up process (load.py: import gacalc, load the workload's
configs) and a calibration process (calibrate.py: a fixed pure-Python
job that shares no code with gacalc), SETUP_REPEATS of each;
library-kernels also times 2 * SETUP_REPEATS calibration processes among
its batches.  verdict_s (the pass's wall time, or the mean batch) and
setup_s (the mean set-up time) are scaled by CAL_REF_S / (mean time of
the calibration processes run among them: those in the gaps for set-up
and a suite pass, those among the batches for library-kernels): seconds
on the host running at the speed it had when CAL_REF_S was taken.  A
change to gacalc moves them as it moves the wall time; a busy host
moves both the wall time and the calibration.  The wall times are kept
in the detail line.

Every operation is checked against its known answer (known_answers.json)
independently of the program's own PASS: the exit code; the check names,
equation tags, sample counts and tolerances; every residual finite and
below its tolerance; the --json report parsed strictly.  Every operation
runs under a time limit; a timed-out one is killed, counts as failed and
enters verdict_s at the full limit.  A miss makes the run fail (exit 1).

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced
and one traced pass (tracer.py, run in place of each gacalc process,
wraps each layer's public functions), then the fixed layer probe, and
prints the per-layer metrics.  The last stdout line is the result JSON;
the line before it gives per-operation detail.  Outputs go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")
DEFAULT_SEED = 1
SETUP_REPEATS = 9
# The calibration time that defines the reference host speed: about what
# calibrate.py took on the first baseline's machine in a quiet spell.
CAL_REF_S = 0.15
# A library-kernels batch and its checks took about 30 ms on the first baseline's machine.
BATCHES_PER_SECOND = 30

# Operation: (id, gacalc arguments, time limit in seconds).  Limits are
# about eight times the operation's time at the first baseline (floor 10 s);
# a pass of timed-out operations still ends within the 180-second budget.
ZERO = "fixtures/zero.json"
ZERO6 = str(OUT / "configs" / "zero6.json")
ZERO4 = str(OUT / "configs" / "zero4.json")


def check(config, suite):
    return ["check", "--config", config, "--suite", suite]


WORKLOADS = {
    # A few huge differentiated trees: most time goes to expr.to_python_source
    # + eval behind compile_fn, the mechanism a DAG evaluator replaces.
    "deep-trees": {
        "ops": [("zero.all", check(ZERO, "all"), 75),
                ("polar_from_zero.cartan", check("fixtures/polar_from_zero.json", "cartan"), 15)],
        "configs": [ZERO, "fixtures/polar_from_zero.json"],
    },
    # ~250 checks over small trees at 50 samples: per-expression and
    # per-point overhead dominate, so a batched evaluator's set-up cost shows.
    # Also covers bridge, transform and the refusal path (exit 2).
    "shallow-2d": {
        "ops": [("sphere.all", check("fixtures/sphere.json", "all"), 20),
                ("sphere_metric.all", check("fixtures/sphere_metric.json", "all"), 25),
                ("polar.all", check("fixtures/polar.json", "all"), 15),
                ("torsionful.all", check("fixtures/torsionful.json", "all"), 10),
                ("torsionful.bianchi", check("fixtures/torsionful.json", "bianchi"), 10),
                ("polar.transform", ["transform", "--config", "fixtures/polar.json",
                                     "--map", "fixtures/maps/polar_map.json"], 10)],
        "configs": ["fixtures/sphere.json", "fixtures/sphere_metric.json", "fixtures/polar.json",
                    "fixtures/torsionful.json", "--map", "fixtures/maps/polar_map.json"],
    },
    # Symbolic construction over 64 blades dominates; compile is a minority.
    "high-dim": {
        "ops": [("zero6.cartan", check(ZERO6, "cartan"), 50),
                ("zero6.bianchi", check(ZERO6, "bianchi"), 25),
                ("zero6.bridge", check(ZERO6, "bridge"), 10)],
        "configs": [ZERO6],
    },
    # Numeric algebra and the domain-checked interpreter carry the load.
    "library-kernels": {
        "ops": None,
        "configs": ["fixtures/sphere.json", "fixtures/polar_from_zero.json"],
    },
    # Not a listed workload: dim 4 is inside the documented scope, but the
    # core suite does not finish there at the first baseline, so every run
    # of this one fails until that is fixed.
    "dim4-core": {
        "ops": [("zero4.core", check(ZERO4, "core"), 30)],
        "configs": [ZERO4],
    },
}

class Failure(Exception):
    """An operation missed its known answer."""


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON")
    return json.loads(text, parse_constant=reject)


def gate(op_id: str, known: dict, seed: int, code: int, stdout: str, stderr: str) -> None:
    """Raise Failure unless the operation's output matches its known answer."""
    if code != known["exit"]:
        raise Failure(f"{op_id}: exit {code}, expected {known['exit']}: {stderr.strip()[-300:]}")
    if known["exit"] != 0:
        if stdout or known["stderr"] not in stderr:
            raise Failure(f"{op_id}: expected refusal {known['stderr']!r}, got {stderr!r}")
        return
    try:
        report = strict_json(stdout)
    except ValueError as err:
        raise Failure(f"{op_id}: invalid --json output: {err}") from None
    if set(report) != {"fixture", "seed", "checks", "pass"} or report["seed"] != seed:
        raise Failure(f"{op_id}: unexpected report header {sorted(report)}")
    shape = [[c["name"], c["paper_eq"], c["samples"], c["tolerance"]] for c in report["checks"]]
    if shape != known["checks"]:
        raise Failure(f"{op_id}: check list differs from the known answer")
    for c in report["checks"]:
        r = c["max_residual"]
        if not (isinstance(r, (int, float)) and math.isfinite(r) and 0 <= r < c["tolerance"]):
            raise Failure(f"{op_id}: {c['name']} residual {r!r} not below {c['tolerance']}")
        if c["pass"] is not True:
            raise Failure(f"{op_id}: {c['name']} reported as failing")
    if report["pass"] is not True:
        raise Failure(f"{op_id}: report not passing")


class Runner:
    def __init__(self, workload: str, seed: int, env: dict):
        self.workload = workload
        self.seed = seed
        self.env = env
        self.known = json.loads((HERE / "known_answers.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outputs: dict[str, str] = {}  # op id -> stdout of its latest run

    def spawn(self, argv, limit: float):
        """Run a child; return (seconds, exit code or None on timeout, stdout, stderr)."""
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=self.env, text=True) as proc:
            try:
                out, err = proc.communicate(timeout=limit)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
                return limit, None, out, err
        return time.perf_counter() - t0, proc.returncode, out, err

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)

    def run_op(self, op, traced_out: Path | None = None) -> float:
        op_id, args, limit = op
        args = args + ["--json", "--seed", str(self.seed)]
        if traced_out is None:
            argv = [sys.executable, "-m", "gacalc"] + args
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(traced_out), "cli"] + args
        seconds, code, out, err = self.spawn(argv, limit)
        self.attempted += 1
        self.outputs[op_id] = out
        try:
            if code is None:
                raise Failure(f"{op_id}: timed out after {limit} s")
            gate(op_id, self.known[op_id], self.seed, code, out, err)
        except Failure as fail:
            self.fail(str(fail))
        return seconds

    def run_pass(self, ops, trace_dir: Path | None = None) -> dict[str, float]:
        times = {}
        for op in ops:
            out = None if trace_dir is None else trace_dir / f"{op[0]}.json"
            times[op[0]] = self.run_op(op, out)
        return times

    def sample(self, script: str, *args: str) -> float:
        """Wall time of one fresh process running a script of the benchmark."""
        seconds, code, _, err = self.spawn([sys.executable, str(HERE / script), *args], 60)
        if code != 0:
            raise SystemExit(f"{script} failed: {err.strip()}")
        return seconds

    def kernels(self, seconds: float, trace_out: Path | None = None) -> dict:
        argv = [sys.executable, str(HERE / "kernels.py"), "--seed", str(self.seed),
                "--batches", str(round(BATCHES_PER_SECOND * seconds))]
        if trace_out is None:
            argv += ["--calibrations", str(2 * SETUP_REPEATS)]
        else:
            argv += ["--trace", str(trace_out)]
        _, code, out, err = self.spawn(argv, 4 * seconds + 60)
        if code != 0:
            raise SystemExit(f"library-kernels failed: {err.strip()[-500:]}")
        result = json.loads(out.strip().splitlines()[-1])
        self.attempted += result["attempted"]
        if result["failed"]:
            self.fail(f"library-kernels: {result['failed']} results off their known answers",
                      result["failed"])
        return result


def scaled(seconds: float, calibration: list[float]) -> float:
    """Seconds measured while the calibration samples were taken, at the reference host speed."""
    return seconds * CAL_REF_S * len(calibration) / sum(calibration)


def write_configs() -> None:
    base = json.loads(Path(ZERO).read_text())
    (OUT / "configs").mkdir(parents=True, exist_ok=True)
    for dim in (4, 6):
        cfg = dict(base, dim=dim, coordinates=[f"x{i}" for i in range(dim)],
                   domain={"lo": [-1.5] * dim, "hi": [1.5] * dim})
        (OUT / "configs" / f"zero{dim}.json").write_text(json.dumps(cfg, indent=2) + "\n")


def sum_summaries(paths) -> dict:
    total: dict[str, float] = {}
    for path in paths:
        summary = json.loads(Path(path).read_text())["summary"]
        for key, value in summary.items():
            if key == "expr.max_tree_nodes":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from summed tracer aggregates: name -> (value, unit)."""
    m = {
        "cli.import_s": (t["cli.import_s"], "s"),
        "fixtures.load_s": (t["fixtures.load.s"], "s"),
        "expr.parse_s": (t["expr.parse.s"], "s"),
        "suites.s": (t["suites.s"], "s"),
        "suites.checks": (t["suites.checks"], "count"),
        "suites.build_s": (t["suites.s"] - t["suites.compile_s"] - t["suites.eval_s"], "s"),
        "suites.compile_s": (t["suites.compile_s"], "s"),
        "suites.eval_s": (t["suites.eval_s"], "s"),
        "expr.compile_fn.calls": (t["expr.compile_fn.calls"], "count"),
        "expr.compile_fn.s": (t["expr.compile_fn.s"], "s"),
        "expr.tree_nodes": (t["expr.tree_nodes"], "count"),
        "expr.unique_nodes": (t["expr.unique_nodes"], "count"),
        "expr.unique_ratio": (ratio(t["expr.unique_nodes"], t["expr.tree_nodes"]), "ratio"),
        "expr.max_tree_nodes": (t["expr.max_tree_nodes"], "count"),
        "expr.compiled_call.points": (t["expr.compiled_call.calls"], "count"),
        "expr.compiled_call.s": (t["expr.compiled_call.s"], "s"),
        "expr.diff.calls": (t["expr.diff.calls"], "count"),
        "expr.diff.s": (t["expr.diff.s"], "s"),
        "expr.substitute.s": (t["expr.substitute.s"], "s"),
        "expr.evaluate.points": (t["expr.evaluate.entries"], "count"),
        "expr.evaluate.us_per_point": (1e6 * ratio(t["expr.evaluate.s"], t["expr.evaluate.entries"]),
                                       "us"),
        "fields.products.calls": (t["fields.products.calls"], "count"),
        "fields.products.s": (t["fields.products.s"], "s"),
        "fields.directional_derivative.s": (t["fields.directional_derivative.s"], "s"),
        "fields.compiled_evaluator.s": (t["fields.compiled_evaluator.s"], "s"),
        "connection.gamma_matrix.s": (t["connection.gamma_matrix.s"], "s"),
        "connection.cov_derivative.s": (t["connection.cov_derivative.s"], "s"),
        "connection.deform.s": (t["connection.deform.s"], "s"),
        "connection.cov_derivative_extensor.s": (t["connection.cov_derivative_extensor.s"], "s"),
        "cartan.curvature.s": (t["cartan.curvature.s"], "s"),
        "cartan.structure.s": (t["cartan.structure.s"], "s"),
        "cartan.cyclic_bianchi.s": (t["cartan.cyclic_bianchi.s"], "s"),
        "bridge.transform_connection.s": (t["bridge.transform_connection.s"], "s"),
        "bridge.classical.s": (t["bridge.classical.s"], "s"),
    }
    for kernel in ("clifford", "wedge", "contraction"):
        for dim in range(2, 7):
            calls = t[f"algebra.{kernel}.calls.d{dim}"]
            m[f"algebra.{kernel}.us.d{dim}"] = (1e6 * ratio(t[f"algebra.{kernel}.s.d{dim}"], calls), "us")
    m["report.render_s"] = (t["report.render.s"], "s")
    m["trace.count_nodes_s"] = (t["trace.count_nodes_s"], "s")
    return m


def traced_run(runner: Runner, spec: dict, seconds: float) -> tuple[dict, dict]:
    trace_dir = OUT / "trace" / f"{runner.workload}-seed{runner.seed}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    detail: dict = {}
    if spec["ops"] is None:
        result = runner.kernels(seconds, trace_dir / "kernels.json")
        untraced, traced = result["batch_s"], result["traced"]["batch_s"]
        workload_files = [trace_dir / "kernels.json"]
        detail["batches"] = [result["batches"], result["traced"]["batches"]]
    else:
        untraced_ops = runner.run_pass(spec["ops"])
        if runner.failed:  # a broken program would also time out under tracing
            raise SystemExit("; ".join(runner.errors))
        untraced_out = dict(runner.outputs)
        traced_ops = runner.run_pass(spec["ops"], trace_dir)
        for op_id, out in untraced_out.items():
            if runner.outputs[op_id] != out:
                runner.fail(f"{op_id}: traced report differs from the untraced one")
        untraced, traced = sum(untraced_ops.values()), sum(traced_ops.values())
        workload_files = [trace_dir / f"{op[0]}.json" for op in spec["ops"]]
        detail["op_s"] = untraced_ops
        detail["traced_op_s"] = traced_ops
    probe = trace_dir / "probe.json"
    code = runner.spawn([sys.executable, str(HERE / "tracer.py"), str(probe), "probe",
                         str(runner.seed)], 120)[1]
    if code != 0:
        raise SystemExit("layer probe failed")
    workload = sum_summaries(workload_files)
    metrics = layer_metrics(sum_summaries(workload_files + [probe]))
    metrics["trace.overhead"] = (traced / untraced - 1.0, "ratio")
    if spec["ops"] is not None:
        # The layers that partition a traced gacalc process, and the tracer's
        # node-count walk; the rest of the traced pass is interpreter
        # start-up, argument parsing and output.
        detail["traced_pass_s"] = traced
        detail["accounted_s"] = sum(workload[k] for k in (
            "cli.import_s", "fixtures.load.s", "suites.s", "report.render.s",
            "trace.count_nodes_s"))
    detail["workload_only"] = {k: v for k, (v, _) in layer_metrics(workload).items()}
    detail["probe_only"] = {k: v for k, (v, _) in layer_metrics(sum_summaries([probe])).items()}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path("src/gacalc/cli.py").is_file() and Path(ZERO).is_file()):
        print("error: run from the root of a gacalc source tree (src/gacalc, fixtures/)",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    write_configs()
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    runner = Runner(args.workload, args.seed, env)
    spec = WORKLOADS[args.workload]

    if args.trace:
        metrics, detail = traced_run(runner, spec, args.seconds)
    else:
        # Set-up and calibration samples go in the gaps between the
        # operations, so that they see the host as the operations did.
        configs = WORKLOADS[args.workload]["configs"]
        runner.sample("load.py", *configs)  # warms the file cache
        steps = [None] if spec["ops"] is None else spec["ops"]
        gaps = len(steps) + 1
        quotas = [SETUP_REPEATS // gaps + (i < SETUP_REPEATS % gaps) for i in range(gaps)]
        setup, cal, op_s = [], [], {}
        for i, quota in enumerate(quotas):
            for _ in range(quota):
                setup.append(runner.sample("load.py", *configs))
                cal.append(runner.sample("calibrate.py"))
            if i == len(steps):
                break
            if steps[i] is None:
                result = runner.kernels(args.seconds)
            else:
                op_s[steps[i][0]] = runner.run_op(steps[i])
        if spec["ops"] is None:
            detail = {k: result[k] for k in ("batches", "batch_s", "products_per_s", "points_per_s")}
            verdict = scaled(result["batch_s"], result["calibration_samples"])
            detail["batch_calibration_samples"] = result["calibration_samples"]
        else:
            detail = {"op_s": op_s, "pass_wall_s": sum(op_s.values())}
            verdict = scaled(detail["pass_wall_s"], cal)
        detail.update(setup_samples=setup, calibration_samples=cal)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {"verdict_s": (verdict, "s"), "setup_s": (scaled(sum(setup) / len(setup), cal), "s"),
                   "peak_rss_mb": (rss_kb / 1024.0, "MB")}

    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, errors=runner.errors)
    print(json.dumps({"detail": detail}))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
