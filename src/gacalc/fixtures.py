"""Fixture and coordinate-map configs, and the built-ins as configs.

A config can give connection coefficients directly, derive them from a
metric, or transform another fixture through a coordinate map.  The
built-in fixtures cover the four regimes of interest: flat (zero
connection), flat in a curvilinear chart (polar), genuinely curved (unit
sphere chart) and torsionful (constant coefficients).  Each of them, and
`polar_map`, is a config read by `load_fixture` or `load_map`, the loader
of every JSON config under `fixtures/`, so it states only what differs
from the loader's defaults (50 samples, tolerance 1e-8, the [-1.5, 1.5]^n
box, coordinates x0, x1, ...).
"""

from __future__ import annotations

import json
import math

from . import expr as ex
from .algebra import MAX_DIM
from .bridge import CoordinateMap, levi_civita_from_metric, transform_connection
from .connection import ConnectionField
from .fields import Box


class ConfigError(ValueError):
    """Malformed fixture or map configuration."""


MAX_SAMPLES = 100_000  # the most points a run may ask for, so that it ends in bounded time


class FixtureConfig:
    __slots__ = ("name", "dim", "coordinates", "conn", "domain", "samples", "seed", "tolerance")

    def __init__(self, name: str, dim: int, coordinates: tuple[str, ...], conn: ConnectionField,
                 domain: Box, samples: int, seed: int, tolerance: float):
        self.name, self.dim, self.coordinates, self.conn = name, dim, coordinates, conn
        self.domain, self.samples, self.seed, self.tolerance = domain, samples, seed, tolerance

    def settings(self, seed: int | None = None, samples: int | None = None,
                 tol: float | None = None) -> tuple[int, int, float]:
        """A run's seed, sample count and tolerance: each one given, else the
        fixture's own.  A negative seed, a sample count below 1 or past
        `MAX_SAMPLES`, or a tolerance that is not a positive finite number, is
        a `ConfigError` naming the setting."""
        seed = self.seed if seed is None else seed
        samples = self.samples if samples is None else samples
        tol = self.tolerance if tol is None else tol
        if seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {seed}")
        if samples < 1:
            raise ConfigError(f"samples must be at least 1, got {samples}")
        if samples > MAX_SAMPLES:
            raise ConfigError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
        if not 0.0 < tol < math.inf:
            raise ConfigError(f"tolerance must be a positive finite number, got {tol}")
        return seed, samples, tol


_MISSING = object()  # a config key that is absent and has no default


def _shown(value) -> str:
    return "nothing" if value is _MISSING else json.dumps(value, default=repr)


def _checked(value, name: str, kind: type):
    """``value`` as ``kind``: a JSON integer if ``kind`` is int, any JSON number
    if float (true and false are neither), else a `ConfigError` naming ``name``."""
    if type(value) is not int and (kind is int or type(value) is not float):
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {_shown(value)}")
    return kind(value)


def _dim(value, name: str) -> int:
    """``value`` as a dimension of the documented scope, 2 to `MAX_DIM`, else a
    `ConfigError` naming ``name``."""
    dim = _checked(value, name, int)
    if not 2 <= dim <= MAX_DIM:
        raise ConfigError(f"{name} must be between 2 and {MAX_DIM}, got {dim}")
    return dim


def _number(obj: dict, key: str, kind: type, default=_MISSING):
    """obj[key], else ``default``, read by `_checked`'s rule."""
    return _checked(obj.get(key, default), key, kind)


def _array(value, name: str, length: int | None = None) -> list:
    """``value`` if it is a JSON array (of ``length`` entries if given), else a
    `ConfigError` naming ``name``."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        size = "" if length is None else f" of {length} entries"
        raise ConfigError(f"{name} must be a list{size}, got {_shown(value)}")
    return value


def _load_box(obj, dim: int, name: str) -> Box:
    """The box config ``obj``, every number checked; ``name`` is its key."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be an object with 'lo' and 'hi' lists, got {_shown(obj)}")
    lo, hi = (tuple(_checked(v, f"{name} {key}[{i}]", float)
                    for i, v in enumerate(_array(obj.get(key, _MISSING), f"{name} {key}", dim)))
              for key in ("lo", "hi"))
    exclusions = []
    for i, pair in enumerate(_array(obj.get("exclusions", []), f"{name} exclusions")):
        axis, value = _array(pair, f"{name} exclusions[{i}]", 2)
        exclusions.append((_checked(axis, f"{name} exclusions[{i}] axis", int),
                           _checked(value, f"{name} exclusions[{i}] value", float)))
    return Box(lo, hi, tuple(exclusions),
               _checked(obj.get("margin", 0.05), f"{name} margin", float))


def _parse_expr(src, dim: int) -> ex.Expr:
    if not isinstance(src, str):
        raise ConfigError(f"expected an expression string, got {src!r}")
    return ex.parse(src, dim)


def load_map(obj) -> CoordinateMap:
    try:
        dim, forward_src, inverse_src, domain = (
            obj[key] for key in ("dim", "forward", "inverse", "domain"))
    except (KeyError, TypeError) as err:
        raise ConfigError(f"map needs 'dim', 'forward', 'inverse' and 'domain': {err}") from None
    dim = _dim(dim, "map dim")
    forward = tuple(_parse_expr(s, dim) for s in _array(forward_src, "map forward", dim))
    inverse = tuple(_parse_expr(s, dim) for s in _array(inverse_src, "map inverse", dim))
    canonical = obj.get("domain_canonical", _MISSING)
    return CoordinateMap(dim, forward, inverse, _load_box(domain, dim, "map domain"),
                         None if canonical is _MISSING else
                         _load_box(canonical, dim, "map domain_canonical"))


def check_map_dim(cmap: CoordinateMap, dim: int) -> None:
    """Refuse a map whose dim is not the fixture's ``dim`` (a `ConfigError`)."""
    if cmap.dim != dim:
        raise ConfigError(f"map dim must be the fixture's dim {dim}, got {cmap.dim}")


def _read_json(path):
    """The JSON value in the file at ``path``.  Invalid JSON, and JSON nested
    past the depth the decoder recurses to, are a `ConfigError` naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as err:
            raise ConfigError(f"invalid JSON in {path}: {err}") from None


def load_map_file(path) -> CoordinateMap:
    return load_map(_read_json(path))


def _load_connection(spec, dim: int) -> ConnectionField:
    """A connection spec; a 'transform' spec applies its map to its 'base',
    which is a spec or the name of a built-in fixture."""
    chain = {}  # id -> transform spec, outermost first
    while isinstance(spec, dict) and spec.get("kind") == "transform":
        if id(spec) in chain:
            raise ConfigError("transform chain contains itself")
        chain[id(spec)] = spec
        spec = spec.get("base")
    if chain and isinstance(spec, str):
        try:
            conn = BUILTIN_FIXTURES[spec]().conn
        except KeyError:
            raise ConfigError(f"unknown base fixture {spec!r}") from None
        if conn.dim != dim:
            raise ConfigError(f"base fixture {spec!r} has dim {conn.dim}, expected {dim}")
    elif not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("connection spec must be an object with a 'kind'")
    elif spec["kind"] == "coefficients":
        entries, keys = {}, {}  # (g, a, b) -> its expression, and the key that gave it
        coefficients = spec.get("coefficients", {})
        if not isinstance(coefficients, dict):
            raise ConfigError("coefficients must be an object of 'g,a,b': expression entries, "
                              f"got {_shown(coefficients)}")
        for key, src in coefficients.items():
            try:
                g, a, b = (int(part) for part in key.split(","))
            except ValueError:
                raise ConfigError(f"bad coefficient key {key!r}; expected 'g,a,b'") from None
            if not all(0 <= idx < dim for idx in (g, a, b)):
                raise ConfigError(f"coefficient index {key!r} out of range for dim {dim}")
            if (g, a, b) in keys:
                raise ConfigError(f"coefficient keys {keys[g, a, b]!r} and {key!r} "
                                  f"both name ({g}, {a}, {b})")
            keys[g, a, b] = key
            entries[g, a, b] = _parse_expr(src, dim)
        conn = ConnectionField.from_entries(dim, entries)
    elif spec["kind"] == "metric":
        matrix = _array(spec.get("matrix", _MISSING), "metric matrix", dim)
        rows = [[_parse_expr(c, dim) for c in _array(row, f"metric matrix[{i}]", dim)]
                for i, row in enumerate(matrix)]
        conn = levi_civita_from_metric(rows)
    else:
        raise ConfigError(f"unknown connection kind {spec['kind']!r}")
    for outer in reversed(chain.values()):
        cmap = load_map(outer.get("map"))
        check_map_dim(cmap, dim)
        conn = transform_connection(conn, cmap)
    return conn


def load_fixture(obj) -> FixtureConfig:
    if not isinstance(obj, dict):
        raise ConfigError("fixture config must be a JSON object")
    dim, seed = _dim(obj.get("dim", _MISSING), "dim"), _number(obj, "seed", int)
    domain = _load_box(obj.get("domain", {"lo": [-1.5] * dim, "hi": [1.5] * dim}), dim,
                       "domain")
    conn = _load_connection(obj.get("connection", {"kind": "coefficients"}), dim)
    tolerance = _number(obj, "tolerance", float, 1e-8)
    coordinates = tuple(_array(obj.get("coordinates", [f"x{i}" for i in range(dim)]),
                               "coordinates", dim))
    if not all(isinstance(c, str) for c in coordinates):
        raise ConfigError(f"coordinates must be {dim} names, got {_shown(coordinates)}")
    if not isinstance(name := obj.get("name", "fixture"), str):
        raise ConfigError(f"name must be a string, got {_shown(name)}")
    fix = FixtureConfig(name, dim, coordinates, conn, domain,
                        _number(obj, "samples", int, 50), seed, tolerance)
    fix.settings()  # refuses the config's own seed, samples or tolerance if bad
    return fix


def load_fixture_file(path) -> FixtureConfig:
    return load_fixture(_read_json(path))


def zero_fixture(dim: int = 3) -> FixtureConfig:
    return load_fixture({"name": "zero", "dim": dim, "seed": 12021})


def polar_fixture() -> FixtureConfig:
    """Flat plane in polar coordinates (r, theta), r bounded away from 0."""
    return load_fixture({
        "name": "polar", "dim": 2, "coordinates": ["r", "theta"], "seed": 23031,
        "connection": {"kind": "coefficients", "coefficients": {
            "0,1,1": "-x0", "1,0,1": "1/x0", "1,1,0": "1/x0"}},
        "domain": {"lo": [0.1, -3.0], "hi": [3.0, 3.0]}})


def sphere_fixture() -> FixtureConfig:
    """Unit-sphere chart (theta, phi) with theta away from the poles."""
    return load_fixture({
        "name": "sphere", "dim": 2, "coordinates": ["theta", "phi"], "seed": 34041,
        "connection": {"kind": "coefficients", "coefficients": {
            "0,1,1": "-(sin(x0)*cos(x0))", "1,0,1": "cos(x0)/sin(x0)",
            "1,1,0": "cos(x0)/sin(x0)"}},
        "domain": {"lo": [0.1, -3.0], "hi": [3.0415926535897933, 3.0]}})


def torsionful_fixture() -> FixtureConfig:
    """Constant-coefficient connection with torsion (one asymmetric entry)."""
    return load_fixture({"name": "torsionful", "dim": 2, "seed": 45051, "connection": {
        "kind": "coefficients", "coefficients": {"0,0,1": "1"}}})


def polar_map() -> CoordinateMap:
    """Right half-plane to polar coordinates; forward needs atan, so the
    primed angle stays inside the principal branch."""
    return load_map({"dim": 2, "forward": ["sqrt(x0^2+x1^2)", "atan(x1/x0)"],
                     "inverse": ["x0*cos(x1)", "x0*sin(x1)"],
                     "domain": {"lo": [0.2, -1.3], "hi": [3.0, 1.3]},
                     "domain_canonical": {"lo": [0.3, -1.0], "hi": [3.0, 1.0]}})


BUILTIN_FIXTURES = {
    "zero": zero_fixture,
    "polar": polar_fixture,
    "sphere": sphere_fixture,
    "torsionful": torsionful_fixture,
}
