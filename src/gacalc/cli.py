"""Command-line front end.

Subcommands::

    check       run identity suites against a fixture config
    eval        evaluate a geometric object at a point
    christoffel print the connection-coefficient table
    transform   verify the coordinate transformation laws under a map

Exit codes: 0 all checks pass, 1 an identity check failed, 2 config or
usage error.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys
from typing import NoReturn

from . import expr as ex
from . import fields as mf
from .algebra import format_multivector
from .bridge import transform_connection
from .cartan import (
    NotSymmetricError,
    cartan_curvature,
    cartan_torsion,
    curvature,
    torsion,
)
from .connection import cov_derivative, gauge_bivector
from .expr import DomainError, ParseError
from .fixtures import ConfigError, check_map_dim, load_fixture_file, load_map_file
from .suites import SUITES, run_fixture_checks, run_transform_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

# --what -> (number of vector arguments, builder of the field from the
# connection and those vectors); each builder looks its layer function up in
# this module's globals when it runs, so a wrapper bound here after import sees the call
_OBJECTS = {
    "torsion": (2, lambda conn, a, b: torsion(conn, a, b)),
    "curvature": (3, lambda conn, a, b, c: curvature(conn, a, b, c)),
    "theta": (1, lambda conn, c: cartan_torsion(conn, c)),
    "cartan-curvature": (2, lambda conn, c, d: cartan_curvature(conn, c, d)),
    "gauge": (1, lambda conn, a: gauge_bivector(conn, a)),
    "cov-plus": (2, lambda conn, a, x: cov_derivative(conn, "+", a, x)),
    "cov-minus": (2, lambda conn, a, x: cov_derivative(conn, "-", a, x)),
    "cov-zero": (2, lambda conn, a, x: cov_derivative(conn, "0", a, x)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gacalc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run_options = argparse.ArgumentParser(add_help=False)  # the options of a checking run
    run_options.add_argument("--config", required=True, help="fixture config (JSON)")
    run_options.add_argument("--seed", type=int, default=None)
    run_options.add_argument("--tol", type=float, default=None)
    run_options.add_argument("--samples", type=int, default=None)
    run_options.add_argument("--json", action="store_true", help="emit the JSON report")

    p_check = sub.add_parser("check", parents=[run_options],
                             help="run identity suites against a fixture")
    p_check.add_argument("--suite", default="all", help=f"one of {', '.join(SUITES)}")

    p_eval = sub.add_parser("eval", help="evaluate a geometric object at a point")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--what", required=True, choices=sorted(_OBJECTS))
    p_eval.add_argument("--at", required=True, help="point, e.g. '2.0,0.785'")
    p_eval.add_argument("--args", nargs="*", action="extend", default=[],
                        help="vector arguments, each as comma-joined component expressions")

    p_chr = sub.add_parser("christoffel", help="print the coefficient table")
    p_chr.add_argument("--config", required=True)
    p_chr.add_argument("--map", dest="map_path", default=None,
                       help="coordinate map (JSON); table is then given in the primed chart")
    p_chr.add_argument("--at", default=None, help="optional point for numeric values")

    p_tr = sub.add_parser("transform", parents=[run_options],
                          help="verify transformation laws under a map")
    p_tr.add_argument("--map", dest="map_path", required=True)

    return parser


# a value that starts with '-': a negative number, or an expression such as -x0 or -sin(x1)
_NEGATIVE_VALUE = re.compile(r"-([\d.(]|x\d|[a-z]+\()")


def _attach_values(argv: list[str]) -> list[str]:
    """``--at -1,0`` as ``--at=-1,0``, and each value of ``--args`` as its own
    ``--args=-1,0``: argparse takes a value that starts with '-' for an
    option unless the whole value is one negative number."""
    out: list[str] = []
    vectors = False  # reading the values of --args
    for arg in argv:
        if vectors and (not arg.startswith("-") or _NEGATIVE_VALUE.match(arg)):
            out.append(f"--args={arg}")
            continue
        vectors = arg == "--args" or arg.startswith("--args=")
        if out and out[-1] == "--at" and _NEGATIVE_VALUE.match(arg):
            out[-1] = f"--at={arg}"
        else:
            out.append(arg)
    return out


def _parse_point(text: str, dim: int):
    parts = text.split(",")
    if len(parts) != dim:
        raise ConfigError(f"point {text!r} needs {dim} coordinates, got {len(parts)}")
    try:
        point = [float(p) for p in parts]
    except ValueError as err:
        raise ConfigError(f"bad point {text!r}: {err}") from None
    if not all(math.isfinite(v) for v in point):
        raise ConfigError(f"bad point {text!r}: point coordinates must be finite")
    return point


def _parse_vector_arg(text: str, dim: int) -> mf.MultivectorField:
    parts = text.split(",")
    if len(parts) != dim:
        raise ConfigError(f"vector argument needs {dim} components, got {len(parts)}")
    return mf.vector(dim, [ex.parse(p, dim) for p in parts])


def _cmd_check(args) -> int:
    fix = load_fixture_file(args.config)
    report = run_fixture_checks(fix, args.suite, seed=args.seed, samples=args.samples,
                                tol=args.tol)
    return _write_report(report, args.json)


def _cmd_eval(args) -> int:
    fix = load_fixture_file(args.config)
    point = _parse_point(args.at, fix.dim)
    if not fix.domain.contains(point):
        raise ConfigError(f"point {args.at} is outside the fixture domain")
    arity, build = _OBJECTS[args.what]
    if len(args.args) != arity:
        raise ConfigError(f"{args.what} takes {arity} vector argument(s), got {len(args.args)}")
    vectors = [_parse_vector_arg(a, fix.dim) for a in args.args]
    value = build(fix.conn, *vectors).at(point)
    print(format_multivector(value, tol=1e-300))
    return EXIT_OK


def _cmd_christoffel(args) -> int:
    fix = load_fixture_file(args.config)
    conn = fix.conn
    names = fix.coordinates
    if args.map_path is not None:
        cmap = load_map_file(args.map_path)
        check_map_dim(cmap, fix.dim)
        conn = transform_connection(conn, cmap)
        names = tuple(f"x{i}'" for i in range(fix.dim))
    point = _parse_point(args.at, fix.dim) if args.at else None
    lines = []  # printed only once all are built, so a failure prints none
    for g in range(fix.dim):
        for a in range(fix.dim):
            for b in range(fix.dim):
                e = ex.simplify(conn.gamma[g][a][b])
                line = f"Gamma^{names[g]}_{{{names[a]} {names[b]}}} = {ex.to_str(e)}"
                if point is not None:
                    line += f" = {ex.evaluate(e, point):.12g}"
                lines.append(line + "\n")
    sys.stdout.write("".join(lines))
    return EXIT_OK


def _cmd_transform(args) -> int:
    fix = load_fixture_file(args.config)
    cmap = load_map_file(args.map_path)
    report = run_transform_checks(fix, cmap, seed=args.seed, samples=args.samples,
                                  tol=args.tol)
    return _write_report(report, args.json)


def _write_report(report, as_json: bool) -> int:
    sys.stdout.write(report.to_json() if as_json else report.to_text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def run() -> NoReturn:
    """The program entry: `main`, then a flushed hard exit.

    Once stdout and stderr are flushed, nothing the process holds needs
    tearing down: every config file is read in a ``with`` block, forked row
    workers have already left, and nothing registers an atexit handler.  So
    the process leaves through ``os._exit`` and skips freeing every tree,
    field and memo entry it is about to drop anyway.  A flush that fails (a
    reader closed the pipe) leaves through ``sys.exit`` as before.  `main` is
    the entry that returns its exit code.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector off: expression trees,
    fields and their memo entries hold no reference cycles, so reference
    counting frees them and a collection pass would find nothing.  The
    collector is left as it was found."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else list(argv)))
    handlers = {
        "check": _cmd_check,
        "eval": _cmd_eval,
        "christoffel": _cmd_christoffel,
        "transform": _cmd_transform,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ParseError, DomainError, NotSymmetricError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MemoryError:  # numpy's message names an array size, not the run's cause
        print("error: the run ran out of memory", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    run()
