"""Fixture configs: transform chains of any length, JSON the decoder refuses,
and config values of the wrong JSON type."""

import json
from pathlib import Path

import pytest

from gacalc import expr as ex
from gacalc.fixtures import ConfigError, load_fixture, load_fixture_file, load_map, load_map_file

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
MAPS = FIXTURES / "maps"
IDENTITY = json.loads((MAPS / "identity2.json").read_text())
BASE = {"kind": "coefficients", "coefficients": {"0,1,1": "x0"}}


def chain(base, maps):
    """A transform spec applying ``maps`` in order, the first one innermost."""
    spec = base
    for cmap in maps:
        spec = {"kind": "transform", "base": spec, "map": cmap}
    return spec


def fixture(connection):
    return {"name": "chain", "dim": 2, "seed": 1, "connection": connection}


class TestTransformChain:
    def test_long_identity_chain_loads(self):
        fix = load_fixture(fixture(chain(BASE, [IDENTITY] * 1500)))
        assert fix.conn.gamma[0][1][1] == ex.Var(0)

    def test_deepest_chain_the_json_decoder_reads_loads(self, tmp_path):
        # one JSON object level per link: the decoder's own limit is the only one
        path = tmp_path / "chain.json"
        link = '{"kind": "transform", "map": %s, "base": ' % json.dumps(IDENTITY)
        for depth in range(1000, 0, -10):
            path.write_text('{"dim": 2, "seed": 1, "connection": %s%s%s}'
                            % (link * depth, json.dumps(BASE), "}" * depth))
            try:
                fix = load_fixture_file(path)
            except ConfigError as err:
                assert "recursion" in str(err)
                continue
            assert depth >= 900
            assert fix.conn.gamma[0][1][1] == ex.Var(0)
            return
        pytest.fail("no chain decoded")

    def test_a_polar_chain_keeps_its_sharing(self):
        # substitute rebuilds structurally equal subtrees once, as one object,
        # so the depth-5 chain holds ~4.7k distinct node objects, where a
        # rebuild memoized on identity held 196,299
        polar = json.loads((FIXTURES / "polar.json").read_text())["connection"]
        polar_map = json.loads((MAPS / "polar_map.json").read_text())
        conn = load_fixture(fixture(chain(polar, [polar_map] * 5))).conn
        seen, stack = set(), [c for p in conn.gamma for row in p for c in row]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                fields = (getattr(node, name) for name in node.__dataclass_fields__)
                stack += [f for f in fields if isinstance(f, ex.Expr)]
        assert len(seen) <= 10_000

    def test_chain_that_contains_itself_is_refused(self):
        spec = {"kind": "transform", "map": IDENTITY}
        spec["base"] = spec
        with pytest.raises(ConfigError, match="contains itself"):
            load_fixture(fixture(spec))

    def test_base_fails_before_any_map_loads(self):
        spec = chain({"kind": "bogus"}, [{}, {}])
        with pytest.raises(ConfigError, match="unknown connection kind 'bogus'"):
            load_fixture(fixture(spec))

    def test_maps_load_from_the_innermost_outward(self):
        inner, outer = (dict(IDENTITY, forward=[f"x{i}", "x1"]) for i in (9, 8))
        with pytest.raises(ex.ParseError, match="variable index 9"):
            load_fixture(fixture(chain(BASE, [inner, outer])))

    @pytest.mark.parametrize("base, message", [
        ("polar", None),
        ("bogus", "unknown base fixture 'bogus'"),
        ("zero", "base fixture 'zero' has dim 3, expected 2"),
    ])
    def test_named_base_fixture(self, base, message):
        if message is None:
            assert load_fixture(fixture(chain(base, [IDENTITY] * 3))).conn.dim == 2
        else:
            with pytest.raises(ConfigError, match=message):
                load_fixture(fixture(chain(base, [IDENTITY])))

    def test_named_base_needs_a_transform(self):
        with pytest.raises(ConfigError, match="must be an object with a 'kind'"):
            load_fixture(fixture("polar"))


class TestJsonFiles:
    @pytest.mark.parametrize("load", [load_fixture_file, load_map_file])
    @pytest.mark.parametrize("text, reason", [
        ("{", "Expecting property name"),
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["truncated", "nested-past-the-decoder"])
    def test_unreadable_json_names_the_file(self, tmp_path, load, text, reason):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=reason) as err:
            load(path)
        assert str(err.value).startswith(f"invalid JSON in {path}: ")


POLAR = json.loads((MAPS.parent / "polar.json").read_text())
POLAR_MAP = json.loads((MAPS / "polar_map.json").read_text())


def edited(obj, path, value):
    """A deep copy of ``obj`` with the entry at key ``path`` set to ``value``."""
    obj = json.loads(json.dumps(obj))
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return obj


class TestConfigTypes:
    """Every config number and container is read by one rule: a value of the
    wrong JSON type is a `ConfigError` naming its key and the value (the
    containers of a fixture are also checked through the command line, in
    `test_cli.py`)."""

    @pytest.mark.parametrize("path, value, message", [
        (("domain", "exclusions"), [[0.7, 0.5]], "domain exclusions[0] axis must be an integer, "
                                                 "got 0.7"),
        (("domain", "lo"), [True, -3], "domain lo[0] must be a number, got true"),
        (("domain", "lo"), [0.1, "-3"], 'domain lo[1] must be a number, got "-3"'),
        (("domain", "margin"), "x", 'domain margin must be a number, got "x"'),
        (("domain", "exclusions"), [[0, "abc"]],
         'domain exclusions[0] value must be a number, got "abc"'),
        (("coordinates",), ["r", 1], 'coordinates must be 2 names, got ["r", 1]'),
    ], ids=["exclusion-axis-float", "lo-bool", "lo-string", "margin-string",
            "exclusion-value-string", "coordinate-not-a-name"])
    def test_fixture_value_of_the_wrong_type(self, path, value, message):
        with pytest.raises(ConfigError) as err:
            load_fixture(edited(POLAR, path, value))
        assert str(err.value) == message

    @pytest.mark.parametrize("key, value, message", [
        ("dim", 2.7, "map dim must be an integer, got 2.7"),
        ("dim", True, "map dim must be an integer, got true"),
        ("forward", "x0", 'map forward must be a list of 2 entries, got "x0"'),
        ("inverse", ["x0"], 'map inverse must be a list of 2 entries, got ["x0"]'),
        ("dim", 1, "map dim must be between 2 and 6, got 1"),
        ("dim", 7, "map dim must be between 2 and 6, got 7"),
    ])
    def test_map_value_of_the_wrong_type(self, key, value, message):
        with pytest.raises(ConfigError) as err:
            load_map(edited(POLAR_MAP, (key,), value))
        assert str(err.value) == message

    @pytest.mark.parametrize("value, message", [
        (0, "map domain_canonical must be an object with 'lo' and 'hi' lists, got 0"),
        (False, "map domain_canonical must be an object with 'lo' and 'hi' lists, got false"),
        ([], "map domain_canonical must be an object with 'lo' and 'hi' lists, got []"),
        ({}, "map domain_canonical lo must be a list of 2 entries, got nothing"),
    ], ids=["zero", "false", "empty-list", "empty-object"])
    def test_falsy_domain_canonical_is_refused(self, value, message):
        # present but empty is not absent: the round-trip row would be skipped silently
        with pytest.raises(ConfigError) as err:
            load_map(edited(POLAR_MAP, ("domain_canonical",), value))
        assert str(err.value) == message

    def test_absent_domain_canonical_loads_as_none(self):
        obj = {key: v for key, v in POLAR_MAP.items() if key != "domain_canonical"}
        assert load_map(obj).domain_canonical is None

    def test_well_typed_values_still_load(self):
        fix = load_fixture(edited(POLAR, ("domain", "exclusions"), [[0, 1], [1, 0.5]]))
        assert fix.domain.exclusions == ((0, 1.0), (1, 0.5))
        cmap = load_map(edited(POLAR_MAP, ("domain", "lo"), [1, -1]))
        assert cmap.domain_primed.lo == (1.0, -1.0)
