"""Command-line contract: exit codes, output formats, determinism."""

import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gacalc import cli
from gacalc import expr as ex
from gacalc import fields as mf
from gacalc.algebra import format_multivector
from gacalc.connection import cov_derivative
from gacalc.fixtures import load_fixture_file

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"
GOLDEN = REPO / "tests" / "golden"


def run_cli(*args, **kwargs):
    """``python -m gacalc`` in a child that finds the package in ``src``."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "gacalc", *args], capture_output=True,
                          text=True, cwd=REPO, env=dict(os.environ, PYTHONPATH=path), **kwargs)


class TestCheckCommand:
    def test_zero_fixture_all_suite_passes(self):
        res = run_cli("check", "--config", str(FIXTURES / "zero.json"),
                      "--suite", "core", "--samples", "30", "--tol", "1e-12")
        assert res.returncode == 0, res.stdout + res.stderr
        assert "overall: PASS" in res.stdout

    def test_core_suite_deforms_at_dim_5(self, tmp_path):
        cfg = json.loads((FIXTURES / "zero.json").read_text())
        cfg.update(dim=5, coordinates=[f"x{i}" for i in range(5)],
                   domain={"lo": [-1.5] * 5, "hi": [1.5] * 5})
        path = tmp_path / "zero5.json"
        path.write_text(json.dumps(cfg))
        res = run_cli("check", "--config", str(path), "--suite", "core")
        assert res.returncode == 0, res.stdout + res.stderr
        assert "deform-pairing" in res.stdout
        assert "overall: PASS" in res.stdout

    def test_sphere_bianchi_suite(self):
        res = run_cli("check", "--config", str(FIXTURES / "sphere.json"),
                      "--suite", "bianchi", "--samples", "30")
        assert res.returncode == 0, res.stdout + res.stderr
        assert "curvature-bianchi" in res.stdout

    def test_failure_exit_code(self):
        # an unreachable tolerance forces identity failures -> exit 1
        res = run_cli("check", "--config", str(FIXTURES / "sphere.json"),
                      "--suite", "bridge", "--samples", "20", "--tol", "1e-30")
        assert res.returncode == 1
        assert "FAIL" in res.stdout

    def test_bad_variable_in_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "name": "bad", "dim": 2, "seed": 1,
            "connection": {"kind": "coefficients", "coefficients": {"0,1,1": "x9"}},
            "domain": {"lo": [-1, -1], "hi": [1, 1]},
        }))
        res = run_cli("check", "--config", str(cfg))
        assert res.returncode == 2
        assert "variable index 9 out of range" in res.stderr

    @pytest.mark.parametrize("coefficient,domain,subexpr", [
        # overflows to inf, and a residual's inf - inf is NaN: never a PASS
        ("(x0*1e200)*(x0*1e200)*x1", {"lo": [0.5, -1], "hi": [1, 1]}, "x0*1e+200*(x0*1e+200)"),
        ("exp(exp(exp(10*x0)))", {"lo": [-1, -1], "hi": [1, 1]}, "exp(exp(10*x0))"),
        ("sqrt(x0)", {"lo": [-1, -1], "hi": [1, 1]}, "sqrt(x0)"),
    ])
    def test_unevaluable_coefficient_exits_2_naming_it(self, tmp_path, coefficient, domain,
                                                        subexpr):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "name": "bad", "dim": 2, "seed": 1,
            "connection": {"kind": "coefficients", "coefficients": {"0,1,1": coefficient}},
            "domain": domain,
        }))
        res = run_cli("check", "--config", str(cfg), "--suite", "cartan")
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stdout == ""
        assert f"'{subexpr}'" in res.stderr
        assert "Traceback" not in res.stderr

    def test_domain_with_no_room_to_sample_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "name": "bad", "dim": 2, "seed": 1,
            "domain": {"lo": [0, 0], "hi": [1, 1], "exclusions": [[0, 0.5]], "margin": 1.0},
        }))
        res = run_cli("check", "--config", str(cfg), "--suite", "cartan", timeout=60)
        assert res.returncode == 2
        assert "cover all of axis 0" in res.stderr

    def test_unknown_suite_exits_2(self):
        res = run_cli("check", "--config", str(FIXTURES / "polar.json"), "--suite", "bogus")
        assert res.returncode == 2
        assert "unknown suite" in res.stderr

    def test_unreadable_config_exits_2(self):
        res = run_cli("check", "--config", "no/such/file.json")
        assert res.returncode == 2

    def test_config_nested_past_the_json_decoder_exits_2_naming_it(self, tmp_path):
        cfg = tmp_path / "nested.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        res = run_cli("check", "--config", str(cfg))
        assert res.returncode == 2
        assert f"invalid JSON in {cfg}" in res.stderr
        assert "Traceback" not in res.stderr

    def test_bianchi_on_torsionful_exits_2(self):
        res = run_cli("check", "--config", str(FIXTURES / "torsionful.json"),
                      "--suite", "bianchi")
        assert res.returncode == 2
        assert "not symmetric" in res.stderr

    def test_json_report_schema_and_determinism(self):
        args = ("check", "--config", str(FIXTURES / "torsionful.json"),
                "--suite", "bridge", "--samples", "20", "--json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout  # byte-identical
        report = json.loads(first.stdout)
        assert set(report) == {"fixture", "seed", "checks", "pass"}
        assert report["fixture"] == "torsionful"
        assert report["pass"] is True
        names = [c["name"] for c in report["checks"]]
        assert names == sorted(names)
        for c in report["checks"]:
            assert set(c) == {"name", "paper_eq", "samples", "max_residual", "tolerance", "pass"}

    def test_seed_override_changes_report(self):
        a = run_cli("check", "--config", str(FIXTURES / "torsionful.json"),
                    "--suite", "bridge", "--samples", "20", "--json", "--seed", "1")
        b = run_cli("check", "--config", str(FIXTURES / "torsionful.json"),
                    "--suite", "bridge", "--samples", "20", "--json", "--seed", "2")
        assert json.loads(a.stdout)["seed"] == 1
        assert json.loads(b.stdout)["seed"] == 2


class TestEvalCommand:
    def test_sphere_curvature_value(self):
        res = run_cli("eval", "--config", str(FIXTURES / "sphere.json"),
                      "--what", "curvature", "--at", "1.0471975511965976,0.2",
                      "--args", "1,0", "0,1", "0,1")
        assert res.returncode == 0
        assert res.stdout.strip() == "0.75 e1"

    def test_polar_gauge_value(self):
        res = run_cli("eval", "--config", str(FIXTURES / "polar.json"),
                      "--what", "gauge", "--at", "2,0.7853981633974483", "--args", "0,1")
        assert res.returncode == 0
        assert res.stdout.strip() == "-1.25 e12"

    def test_torsion_of_equal_args_is_zero(self):
        res = run_cli("eval", "--config", str(FIXTURES / "polar.json"),
                      "--what", "torsion", "--at", "2,0.5", "--args", "1,0", "1,0")
        assert res.returncode == 0
        assert res.stdout.strip() == "0"

    def test_wrong_argument_count_exits_2(self):
        res = run_cli("eval", "--config", str(FIXTURES / "polar.json"),
                      "--what", "torsion", "--at", "2,0.5", "--args", "1,0")
        assert res.returncode == 2
        assert "takes 2 vector argument" in res.stderr

    def test_point_outside_domain_exits_2(self):
        res = run_cli("eval", "--config", str(FIXTURES / "polar.json"),
                      "--what", "gauge", "--at", "0.01,0", "--args", "0,1")
        assert res.returncode == 2
        assert "outside" in res.stderr

    @pytest.mark.parametrize("command", [("eval", "--what", "gauge", "--args", "0,1"),
                                         ("christoffel",)])
    @pytest.mark.parametrize("at", ["1.0,,0", "1.0,0,", ",1.0"])
    def test_empty_coordinate_exits_2_naming_the_point(self, capsys, command, at):
        code = cli.main([command[0], "--config", str(FIXTURES / "polar.json"), *command[1:],
                         "--at", at])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert f"point {at!r}" in err

    def test_expression_arguments(self):
        res = run_cli("eval", "--config", str(FIXTURES / "polar.json"),
                      "--what", "cov-plus", "--at", "2,1", "--args", "1,0", "0,1")
        assert res.returncode == 0
        assert res.stdout.strip() == "0.5 e2"

    @pytest.mark.parametrize("tail", [
        ("--args", "-1,0", "0,1"),
        ("--args=-1,0", "0,1"),
        ("--args", "-1,0", "--args", "0,1"),
        ("--args", "1,x1", "-sin(x0),-x1"),
    ])
    def test_vector_arguments_may_start_with_minus(self, tail):
        fix = load_fixture_file(FIXTURES / "torsionful.json")
        vectors = [v.removeprefix("--args=") for v in tail if v != "--args"]
        a, b = (mf.vector(2, [ex.parse(c, 2) for c in v.split(",")]) for v in vectors)
        want = format_multivector(cov_derivative(fix.conn, "+", a, b).at([0.5, 0.5]), tol=1e-300)
        res = run_cli("eval", "--config", str(FIXTURES / "torsionful.json"),
                      "--what", "cov-plus", "--at", "0.5,0.5", *tail)
        assert res.returncode == 0, res.stderr
        assert res.stdout == want + "\n" != "0\n"

    @pytest.mark.parametrize("what,layer,sign", [
        ("torsion", "torsion", None),
        ("curvature", "curvature", None),
        ("theta", "cartan_torsion", None),
        ("cartan-curvature", "cartan_curvature", None),
        ("gauge", "gauge_bivector", None),
        ("cov-plus", "cov_derivative", "+"),
        ("cov-minus", "cov_derivative", "-"),
        ("cov-zero", "cov_derivative", "0"),
    ])
    def test_each_object_calls_its_layer_function_through_the_module(
            self, monkeypatch, capsys, what, layer, sign):
        # a wrapper bound in gacalc.cli after import, as a tracer binds one, sees the call
        calls = []
        original = getattr(cli, layer)

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, layer, spy)
        arity, _ = cli._OBJECTS[what]
        code = cli.main(["eval", "--config", str(FIXTURES / "polar.json"), "--what", what,
                         "--at", "2,0.5", "--args", *["1,x0"] * arity])
        assert code == 0, capsys.readouterr().err
        assert len(calls) == 1 and len(calls[0]) == arity + 1 + (sign is not None)
        assert sign is None or calls[0][1] == sign

    def test_unknown_object_exits_2(self):
        res = run_cli("eval", "--config", str(FIXTURES / "polar.json"),
                      "--what", "holonomy", "--at", "2,1")
        assert res.returncode == 2


class TestChristoffelCommand:
    def test_polar_table(self):
        res = run_cli("christoffel", "--config", str(FIXTURES / "polar.json"),
                      "--at", "2,0.5")
        assert res.returncode == 0
        assert "Gamma^r_{theta theta} = -x0 = -2" in res.stdout
        assert "Gamma^theta_{r theta} = 1/x0 = 0.5" in res.stdout

    def test_sphere_cot_vanishes_at_equator(self):
        res = run_cli("christoffel", "--config", str(FIXTURES / "sphere.json"),
                      "--at", "1.5707963267948966,0.0")
        assert res.returncode == 0
        line = [l for l in res.stdout.splitlines() if l.startswith("Gamma^phi_{theta phi}")][0]
        value = float(line.split("=")[-1])
        assert abs(value) < 1e-12

    def test_zero_fixture_table_is_zero(self):
        res = run_cli("christoffel", "--config", str(FIXTURES / "zero.json"))
        assert res.returncode == 0
        assert res.stdout.count("= 0") == 27  # all 3^3 coefficients are zero

    def test_identity_map_echoes_coefficients(self):
        res = run_cli("christoffel", "--config", str(FIXTURES / "polar.json"),
                      "--map", str(FIXTURES / "maps" / "identity2.json"), "--at", "2,0.5")
        assert res.returncode == 0
        row = [l for l in res.stdout.splitlines() if l.startswith("Gamma^x0'_{x1' x1'}")][0]
        assert float(row.split("=")[-1]) == pytest.approx(-2.0)

    @pytest.mark.parametrize("golden, args", [
        ("christoffel_polar_from_zero.txt", ["--config", "fixtures/polar_from_zero.json"]),
        ("christoffel_cylindrical3_from_zero.txt",
         ["--config", "fixtures/cylindrical3_from_zero.json"]),
        ("christoffel_polar_under_polar_map.txt",
         ["--config", "fixtures/polar.json", "--map", "fixtures/maps/polar_map.json",
          "--at", "1.1,0.4"]),
    ])
    def test_printed_table_is_the_golden_text(self, golden, args):
        # the whole table as printed: simplify, substitute and to_str of the
        # mapped and transformed trees, character for character
        res = run_cli("christoffel", *args)
        assert res.returncode == 0, res.stderr
        assert res.stdout == (GOLDEN / golden).read_text()

    def test_deeply_nested_parentheses_print_their_table(self, tmp_path):
        # 3000 levels, past the default recursion limit: nothing recurses per level
        cfg = tmp_path / "deep.json"
        cfg.write_text(json.dumps({
            "name": "deep", "dim": 2, "seed": 1,
            "connection": {"kind": "coefficients",
                           "coefficients": {"0,1,1": "(" * 3000 + "x0" + ")" * 3000}},
        }))
        res = run_cli("christoffel", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        assert "Gamma^x0_{x1 x1} = x0\n" in res.stdout

    @pytest.mark.parametrize("coefficient,printed", [
        ("-" * 3000 + "x0", "x0"),
        ("sin(" * 3000 + "x0" + ")" * 3000, "sin(" * 3000 + "x0" + ")" * 3000),
    ])
    def test_deeply_nested_prefixes_print_their_table(self, tmp_path, coefficient, printed):
        cfg = tmp_path / "deep.json"
        cfg.write_text(json.dumps({
            "name": "deep", "dim": 2, "seed": 1,
            "connection": {"kind": "coefficients", "coefficients": {"0,1,1": coefficient}},
        }))
        res = run_cli("christoffel", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        assert f"Gamma^x0_{{x1 x1}} = {printed}\n" in res.stdout

    @pytest.mark.parametrize("coefficient,command,stderr", [
        ("x0^\u00b2", ["christoffel"], "offset 3: expected integer exponent"),
        ("x0", ["eval", "--what", "gauge", "--at", "0.5,0.5", "--args", "x\u00b2,1"],
         "offset 0: unknown function 'x'"),
    ])
    def test_non_ascii_digit_is_a_syntax_error(self, tmp_path, coefficient, command, stderr):
        # '\u00b2' passes str.isdigit but not int()
        cfg = tmp_path / "sup.json"
        cfg.write_text(json.dumps({
            "name": "sup", "dim": 2, "seed": 1,
            "connection": {"kind": "coefficients", "coefficients": {"0,1,1": coefficient}},
        }))
        res = run_cli(command[0], "--config", str(cfg), *command[1:])
        assert res.returncode == 2
        assert res.stderr == f"error: syntax error at {stderr}\n"

    @pytest.mark.parametrize("coefficient,offset", [
        ("x" + "1" * 5000, 1),
        ("x0^" + "2" * 5000, 3),
        ("x0^-" + "2" * 5000, 4),
    ], ids=["variable", "exponent", "negative-exponent"])
    def test_digit_run_past_the_int_limit_is_a_syntax_error(self, tmp_path, coefficient, offset):
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps({
            "name": "long", "dim": 2, "seed": 1,
            "connection": {"kind": "coefficients", "coefficients": {"0,1,1": coefficient}},
        }))
        res = run_cli("christoffel", "--config", str(cfg))
        assert res.returncode == 2
        assert res.stderr == (f"error: syntax error at offset {offset}: "
                              "integer of 5000 digits is too long\n")

    @pytest.mark.parametrize("command", [
        ("christoffel", "--at", "0.9,0.5"),
        ("check", "--suite", "cartan"),
        ("transform", "--map", str(FIXTURES / "maps" / "polar_map.json")),
    ], ids=["christoffel", "check", "transform"])
    def test_exponent_past_the_float_range_is_a_syntax_error(self, tmp_path, command):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({
            "name": "huge", "dim": 2, "seed": 1,
            "connection": {"kind": "coefficients", "coefficients": {"0,1,1": "x0^" + "9" * 400}},
        }))
        res = run_cli(command[0], "--config", str(cfg), *command[1:])
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == ("error: syntax error at offset 3: "
                              "exponent of 400 digits is too large\n")

    def test_long_sum_prints_its_table(self, tmp_path):
        # a left-deep tree of 3000 terms, past the default recursion limit
        total = " + ".join(["x0*x1"] * 3000)
        cfg = tmp_path / "deep.json"
        cfg.write_text(json.dumps({
            "name": "deep", "dim": 2, "seed": 1,
            "connection": {"kind": "coefficients", "coefficients": {"0,1,1": total}},
        }))
        res = run_cli("christoffel", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        assert f"Gamma^x0_{{x1 x1}} = {total}\n" in res.stdout

    def test_infinite_constant_prints_and_its_point_query_exits_2(self, tmp_path):
        cfg = overflow_config(tmp_path, "1e309*x0")
        res = run_cli("christoffel", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        assert "Gamma^x0_{x1 x1} = 1e999*x0\n" in res.stdout
        res = run_cli("christoffel", "--config", str(cfg), "--at", "0.9,0")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "overflow to a non-finite value in '1e999'" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("args", [
        ("eval", "--what", "cov-plus", "--args", "1,x1", "x0,1"),
        ("christoffel",),
    ])
    def test_negative_first_coordinate_needs_no_equals_sign(self, args):
        cfg = str(FIXTURES / "torsionful.json")
        spaced = run_cli(args[0], "--config", cfg, *args[1:], "--at", "-1,0.5")
        joined = run_cli(args[0], "--config", cfg, *args[1:], "--at=-1,0.5")
        assert spaced.returncode == joined.returncode == 0, spaced.stderr
        assert spaced.stdout == joined.stdout != ""

    def test_failing_coefficient_prints_no_partial_table(self, tmp_path):
        cfg = tmp_path / "sin_of_inf.json"
        cfg.write_text(json.dumps({
            "name": "sin_of_inf", "dim": 2, "seed": 1,
            "connection": {"kind": "coefficients",
                           "coefficients": {"0,1,1": "sin(x0*1e308*10)"}},
            "domain": {"lo": [0.5, -1], "hi": [1, 1]},
        }))
        res = run_cli("christoffel", "--config", str(cfg), "--at", "0.9,0")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "'x0*1e+308*10'" in res.stderr

    @pytest.mark.parametrize("at", ["nan,0", "1,inf", "0.5,-inf"])
    def test_non_finite_point_exits_2(self, at):
        res = run_cli("christoffel", "--config", str(FIXTURES / "polar.json"), "--at", at)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "point coordinates must be finite" in res.stderr

    def test_map_dimension_mismatch_exits_2(self):
        res = run_cli("christoffel", "--config", str(FIXTURES / "zero.json"),
                      "--map", str(FIXTURES / "maps" / "identity2.json"))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: map dim must be the fixture's dim 3, got 2\n"

    def test_singular_jacobian_point_exits_2(self, tmp_path):
        cfg = tmp_path / "flat2.json"
        cfg.write_text(json.dumps({
            "name": "flat2", "dim": 2, "seed": 1,
            "connection": {"kind": "coefficients", "coefficients": {}},
            "domain": {"lo": [0.2, -1.3], "hi": [3.0, 1.3]},
        }))
        res = run_cli("christoffel", "--config", str(cfg),
                      "--map", str(FIXTURES / "maps" / "polar_map.json"), "--at", "0,0")
        assert res.returncode == 2
        assert "division by zero" in res.stderr


POINT_QUERIES = [
    ("christoffel", "--at", "0.9,0"),
    ("eval", "--what", "cov-plus", "--at", "0.9,0", "--args", "0,1", "0,1"),
]


def overflow_config(tmp_path, coefficient):
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({
        "name": "overflow", "dim": 2, "seed": 1,
        "connection": {"kind": "coefficients", "coefficients": {"0,1,1": coefficient}},
        "domain": {"lo": [0.5, -1], "hi": [1, 1]},
    }))
    return cfg


class TestPointEvaluationOverflow:
    """`eval` (through `MultivectorField.at`) and `christoffel --at` (through
    `expr.evaluate`) run one-point tapes, so an overflow in any node, a
    function or plain arithmetic, exits 2 naming the node that overflowed."""

    @pytest.mark.parametrize("args", POINT_QUERIES)
    def test_overflowing_coefficient_exits_2_naming_it(self, tmp_path, args):
        cfg = overflow_config(tmp_path, "exp(exp(exp(10*x0)))")
        res = run_cli(args[0], "--config", str(cfg), *args[1:])
        assert res.returncode == 2, res.stdout + res.stderr
        assert "overflow" in res.stderr
        assert "'exp(exp(10*x0))'" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("args", POINT_QUERIES)
    def test_overflowing_product_exits_2_naming_it(self, tmp_path, args):
        cfg = overflow_config(tmp_path, "x0*1e308*10")
        res = run_cli(args[0], "--config", str(cfg), *args[1:])
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stdout == ""
        assert "overflow to a non-finite value in 'x0*1e+308*10'" in res.stderr

    def test_constant_power_past_the_float_range_is_kept_unfolded(self, tmp_path):
        # 2.0 ** 5000 raises OverflowError where a product would give inf
        cfg = overflow_config(tmp_path, "2^5000*x0")
        res = run_cli("christoffel", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        assert "Gamma^x0_{x1 x1} = 2^5000*x0\n" in res.stdout
        res = run_cli("christoffel", "--config", str(cfg), "--at", "0.5,0.5")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: overflow to a non-finite value in '2^5000'\n"

    def test_metric_whose_derivative_folds_a_huge_power_exits_2(self, tmp_path):
        # diff of 2^5000*x0^2 asks powi(2, 4999) of the folded constant
        cfg = tmp_path / "metric.json"
        cfg.write_text(json.dumps({
            "name": "huge", "dim": 2, "seed": 1,
            "connection": {"kind": "metric", "matrix": [["2^5000*x0^2+1", "0"], ["0", "1"]]},
            "domain": {"lo": [0.5, -1], "hi": [1, 1]},
        }))
        res = run_cli("check", "--config", str(cfg), "--suite", "cartan")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: overflow to a non-finite value in '2^5000'\n"


class TestTransformCommand:
    def test_polar_map_laws_pass(self):
        res = run_cli("transform", "--config", str(FIXTURES / "polar.json"),
                      "--map", str(FIXTURES / "maps" / "polar_map.json"))
        assert res.returncode == 0, res.stdout + res.stderr
        assert "christoffel-vs-law" in res.stdout
        assert "overall: PASS" in res.stdout

    def test_identity_map_passes(self):
        res = run_cli("transform", "--config", str(FIXTURES / "torsionful.json"),
                      "--map", str(FIXTURES / "maps" / "identity2.json"))
        assert res.returncode == 0

    def test_map_without_inverse_exits_2(self, tmp_path):
        bad = tmp_path / "noinv.json"
        bad.write_text(json.dumps({
            "dim": 2, "forward": ["x0", "x1"],
            "domain": {"lo": [-1, -1], "hi": [1, 1]},
        }))
        res = run_cli("transform", "--config", str(FIXTURES / "polar.json"),
                      "--map", str(bad))
        assert res.returncode == 2
        assert "inverse" in res.stderr

    def test_map_dimension_mismatch_exits_2(self):
        res = run_cli("transform", "--config", str(FIXTURES / "zero.json"),
                      "--map", str(FIXTURES / "maps" / "identity2.json"))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: map dim must be the fixture's dim 3, got 2\n"


class TestRunSettings:
    """A bad seed, tolerance or domain bound is refused before any check runs."""

    COMMANDS = {"check": ("check", "--config", str(FIXTURES / "polar.json"), "--suite", "bridge"),
                "transform": ("transform", "--config", str(FIXTURES / "polar.json"),
                              "--map", str(FIXTURES / "maps" / "polar_map.json"))}

    def refused(self, capsys, argv, setting):
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {setting} must be ")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, command, tol):
        self.refused(capsys, (*self.COMMANDS[command], "--tol", tol), "tolerance")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_seed_must_be_non_negative(self, capsys, command):
        self.refused(capsys, (*self.COMMANDS[command], "--seed", "-1"), "seed")

    def test_core_suite_names_a_negative_seed(self, capsys):
        self.refused(capsys, ("check", "--config", str(FIXTURES / "polar.json"),
                              "--suite", "core", "--seed", "-1"), "seed")

    @pytest.mark.parametrize("key,value", [("tolerance", math.nan), ("tolerance", -1.0),
                                           ("seed", -1)])
    def test_config_settings_are_checked_alike(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**json.loads((FIXTURES / "polar.json").read_text()),
                                   key: value}))
        self.refused(capsys, ("check", "--config", str(cfg), "--suite", "bridge"), key)

    @pytest.mark.parametrize("key,value,message", [
        ("samples", "abc", 'samples must be an integer, got "abc"'),
        ("samples", 2.7, "samples must be an integer, got 2.7"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", True, "seed must be an integer, got true"),
        ("dim", "2", 'dim must be an integer, got "2"'),
        ("tolerance", "x", 'tolerance must be a number, got "x"'),
        ("tolerance", False, "tolerance must be a number, got false"),
        ("coordinates", "rt", 'coordinates must be a list of 2 entries, got "rt"'),
        ("connection", {"kind": "coefficients", "coefficients": [["0,1,1", "-x0"]]},
         """coefficients must be an object of 'g,a,b': expression entries, """
         """got [["0,1,1", "-x0"]]"""),
        ("connection", {"kind": "metric", "matrix": ["10", "01"]},
         'metric matrix[0] must be a list of 2 entries, got "10"'),
        ("domain", {"lo": [0.1, -3.0], "hi": [3.0, 3.0], "exclusions": [0, 1.0]},
         "domain exclusions[0] must be a list of 2 entries, got 0"),
    ])
    def test_config_setting_of_the_wrong_json_type_exits_2(self, capsys, tmp_path, key, value,
                                                             message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**json.loads((FIXTURES / "polar.json").read_text()),
                                   key: value}))
        code = cli.main(["check", "--config", str(cfg), "--suite", "bridge"])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")

    def test_nan_exclusion_exits_2_naming_it(self, capsys, tmp_path):
        obj = json.loads((FIXTURES / "polar.json").read_text())
        obj["domain"]["exclusions"] = [[0, math.nan]]
        cfg = tmp_path / "polar.json"
        cfg.write_text(json.dumps(obj))
        self.refused(capsys, ("check", "--config", str(cfg), "--suite", "bridge"),
                     "exclusion values")

    @pytest.mark.parametrize("bound,axis,value", [("lo", 0, math.nan), ("hi", 1, math.inf)])
    def test_non_finite_domain_bound_exits_2(self, capsys, tmp_path, bound, axis, value):
        obj = json.loads((FIXTURES / "sphere.json").read_text())
        obj["domain"][bound][axis] = value
        cfg = tmp_path / "sphere.json"
        cfg.write_text(json.dumps(obj))
        self.refused(capsys, ("check", "--config", str(cfg), "--suite", "bridge"), "box bounds")

    def test_non_finite_map_domain_bound_exits_2(self, capsys, tmp_path):
        obj = json.loads((FIXTURES / "maps" / "polar_map.json").read_text())
        obj["domain"]["hi"][0] = math.inf
        bad = tmp_path / "map.json"
        bad.write_text(json.dumps(obj))
        self.refused(capsys, ("transform", "--config", str(FIXTURES / "polar.json"),
                              "--map", str(bad)), "box bounds")


    def test_falsy_map_domain_canonical_exits_2(self, capsys, tmp_path):
        obj = json.loads((FIXTURES / "maps" / "polar_map.json").read_text())
        obj["domain_canonical"] = 0
        bad = tmp_path / "map.json"
        bad.write_text(json.dumps(obj))
        self.refused(capsys, ("transform", "--config", str(FIXTURES / "polar.json"),
                              "--map", str(bad)), "map domain_canonical")


class TestCollectorPolicy:
    """`cli.main` runs a command with the cyclic collector off and leaves it as it found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv", [
        ("check", "--config", str(FIXTURES / "polar.json"), "--suite", "bridge"),
        ("check", "--config", str(FIXTURES / "polar.json"), "--suite", "nope"),
        ("transform", "--config", str(FIXTURES / "polar.json"),
         "--map", str(FIXTURES / "maps" / "polar_map.json")),
    ], ids=["pass", "exit-2", "transform"])
    def test_main_leaves_the_collector_as_it_found_it(self, capsys, monkeypatch, enabled, argv):
        seen = []
        run = cli._main

        def spy(args):
            seen.append(gc.isenabled())
            return run(args)

        monkeypatch.setattr(cli, "_main", spy)
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            cli.main(list(argv))
            assert (seen, gc.isenabled()) == ([False], enabled)
        finally:
            (gc.enable if before else gc.disable)()
        capsys.readouterr()

    def test_usage_error_leaves_the_collector_on(self, capsys):
        assert gc.isenabled()
        with pytest.raises(SystemExit):
            cli.main(["check"])
        assert gc.isenabled()
        capsys.readouterr()


class TestConfigKinds:
    def test_metric_fixture_equals_explicit(self):
        res = run_cli("check", "--config", str(FIXTURES / "sphere_metric.json"),
                      "--suite", "bridge", "--samples", "20")
        assert res.returncode == 0

    def test_transform_fixture_loads_and_passes(self):
        res = run_cli("check", "--config", str(FIXTURES / "polar_from_zero.json"),
                      "--suite", "bridge", "--samples", "20")
        assert res.returncode == 0


class TestDimensionScope:
    """A config or transform map of a dim outside 2..6 is refused as it loads."""

    @staticmethod
    def zero_config(tmp_path, dim, connection=None):
        cfg = json.loads((FIXTURES / "zero.json").read_text())
        cfg.update(dim=dim, coordinates=[f"x{i}" for i in range(dim)],
                   domain={"lo": [-1.5] * dim, "hi": [1.5] * dim})
        if connection is not None:
            cfg["connection"] = connection
        path = tmp_path / f"zero{dim}.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    @pytest.mark.parametrize("dim", [0, 1, 7])
    @pytest.mark.parametrize("command", ["check", "eval", "christoffel"])
    def test_a_dim_out_of_scope_exits_2(self, tmp_path, dim, command):
        point = ",".join(["0.5"] * dim)
        tail = {"check": ["--suite", "bianchi"],
                "eval": ["--what", "torsion", "--at", point, "--args", point, point],
                "christoffel": []}[command]
        res = run_cli(command, "--config", self.zero_config(tmp_path, dim), *tail)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"error: dim must be between 2 and 6, got {dim}\n"

    @pytest.mark.parametrize("dim, map_name, map_dim", [
        (2, "cylindrical3.json", 3),
        (3, "identity2.json", 2),
    ])
    def test_a_transform_map_of_another_dim_exits_2(self, tmp_path, dim, map_name, map_dim):
        spec = {"kind": "transform", "base": {"kind": "coefficients"},
                "map": json.loads((FIXTURES / "maps" / map_name).read_text())}
        res = run_cli("check", "--config", self.zero_config(tmp_path, dim, spec))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"error: map dim must be the fixture's dim {dim}, got {map_dim}\n"
