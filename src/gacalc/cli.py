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
import sys

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
from .fixtures import ConfigError, load_fixture_file, load_map_file
from .suites import SUITES, run_fixture_checks, run_transform_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

_OBJECT_ARITY = {
    "torsion": 2,
    "curvature": 3,
    "theta": 1,
    "cartan-curvature": 2,
    "gauge": 1,
    "cov-plus": 2,
    "cov-minus": 2,
    "cov-zero": 2,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gacalc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run identity suites against a fixture")
    p_check.add_argument("--config", required=True, help="fixture config (JSON)")
    p_check.add_argument("--suite", default="all", help=f"one of {', '.join(SUITES)}")
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--tol", type=float, default=None)
    p_check.add_argument("--samples", type=int, default=None)
    p_check.add_argument("--json", action="store_true", help="emit the JSON report")

    p_eval = sub.add_parser("eval", help="evaluate a geometric object at a point")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--what", required=True, choices=sorted(_OBJECT_ARITY))
    p_eval.add_argument("--at", required=True, help="point, e.g. '2.0,0.785'")
    p_eval.add_argument("--args", nargs="*", default=[],
                        help="vector arguments, each as comma-joined component expressions")

    p_chr = sub.add_parser("christoffel", help="print the coefficient table")
    p_chr.add_argument("--config", required=True)
    p_chr.add_argument("--map", dest="map_path", default=None,
                       help="coordinate map (JSON); table is then given in the primed chart")
    p_chr.add_argument("--at", default=None, help="optional point for numeric values")

    p_tr = sub.add_parser("transform", help="verify transformation laws under a map")
    p_tr.add_argument("--config", required=True)
    p_tr.add_argument("--map", dest="map_path", required=True)
    p_tr.add_argument("--seed", type=int, default=None)
    p_tr.add_argument("--tol", type=float, default=None)
    p_tr.add_argument("--samples", type=int, default=None)
    p_tr.add_argument("--json", action="store_true")

    return parser


def _parse_point(text: str, dim: int):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != dim:
        raise ConfigError(f"point needs {dim} coordinates, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as err:
        raise ConfigError(f"bad point {text!r}: {err}") from None


def _parse_vector_arg(text: str, dim: int) -> mf.MultivectorField:
    parts = text.split(",")
    if len(parts) != dim:
        raise ConfigError(f"vector argument needs {dim} components, got {len(parts)}")
    return mf.vector(dim, [ex.parse(p, dim) for p in parts])


def _cmd_check(args) -> int:
    fix = load_fixture_file(args.config)
    report = run_fixture_checks(fix, args.suite, seed=args.seed, samples=args.samples,
                                tol=args.tol)
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_eval(args) -> int:
    fix = load_fixture_file(args.config)
    point = _parse_point(args.at, fix.dim)
    if not fix.domain.contains(point):
        raise ConfigError(f"point {args.at} is outside the fixture domain")
    arity = _OBJECT_ARITY[args.what]
    if len(args.args) != arity:
        raise ConfigError(f"{args.what} takes {arity} vector argument(s), got {len(args.args)}")
    vectors = [_parse_vector_arg(a, fix.dim) for a in args.args]
    conn = fix.conn
    if args.what == "torsion":
        field = torsion(conn, *vectors)
    elif args.what == "curvature":
        field = curvature(conn, *vectors)
    elif args.what == "theta":
        field = cartan_torsion(conn, *vectors)
    elif args.what == "cartan-curvature":
        field = cartan_curvature(conn, *vectors)
    elif args.what == "gauge":
        field = gauge_bivector(conn, *vectors)
    else:
        sign = {"cov-plus": "+", "cov-minus": "-", "cov-zero": "0"}[args.what]
        field = cov_derivative(conn, sign, vectors[0], vectors[1])
    value = field.at(point)
    print(format_multivector(value, sig=12, tol=1e-300))
    return EXIT_OK


def _cmd_christoffel(args) -> int:
    fix = load_fixture_file(args.config)
    conn = fix.conn
    names = fix.coordinates
    if args.map_path is not None:
        cmap = load_map_file(args.map_path)
        if cmap.dim != fix.dim:
            raise ConfigError("fixture and map dimensions differ")
        conn = transform_connection(conn, cmap)
        names = tuple(f"x{i}'" for i in range(fix.dim))
    point = _parse_point(args.at, fix.dim) if args.at else None
    for g in range(fix.dim):
        for a in range(fix.dim):
            for b in range(fix.dim):
                e = ex.simplify(conn.gamma[g][a][b])
                line = f"Gamma^{names[g]}_{{{names[a]} {names[b]}}} = {ex.to_str(e)}"
                if point is not None:
                    line += f" = {ex.evaluate(e, point):.12g}"
                print(line)
    return EXIT_OK


def _cmd_transform(args) -> int:
    fix = load_fixture_file(args.config)
    cmap = load_map_file(args.map_path)
    report = run_transform_checks(fix, cmap, seed=args.seed, samples=args.samples,
                                  tol=args.tol)
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
    except RecursionError:
        # the tree walkers recurse once per level, within the default limit
        print("error: expression nested too deeply (maximum recursion depth exceeded)",
              file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
