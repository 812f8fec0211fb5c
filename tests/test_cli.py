"""Command-line contract: exit codes, output formats, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "gacalc", *args],
                          capture_output=True, text=True, cwd=REPO, **kwargs)


class TestCheckCommand:
    def test_zero_fixture_all_suite_passes(self):
        res = run_cli("check", "--config", str(FIXTURES / "zero.json"),
                      "--suite", "core", "--samples", "30", "--tol", "1e-12")
        assert res.returncode == 0, res.stdout + res.stderr
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

    def test_expression_arguments(self):
        res = run_cli("eval", "--config", str(FIXTURES / "polar.json"),
                      "--what", "cov-plus", "--at", "2,1", "--args", "1,0", "0,1")
        assert res.returncode == 0
        assert res.stdout.strip() == "0.5 e2"

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

    def test_too_deeply_nested_expression_exits_2(self, tmp_path):
        cfg = tmp_path / "deep.json"
        cfg.write_text(json.dumps({
            "name": "deep", "dim": 2, "seed": 1,
            "connection": {"kind": "coefficients",
                           "coefficients": {"0,1,1": " + ".join(["x0*x1"] * 3000)}},
        }))
        res = run_cli("christoffel", "--config", str(cfg))
        assert res.returncode == 2
        assert "nested too deeply" in res.stderr
        assert "Traceback" not in res.stderr

    def test_map_dimension_mismatch_exits_2(self):
        res = run_cli("christoffel", "--config", str(FIXTURES / "zero.json"),
                      "--map", str(FIXTURES / "maps" / "identity2.json"))
        assert res.returncode == 2
        assert "dimensions differ" in res.stderr

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


class TestConfigKinds:
    def test_metric_fixture_equals_explicit(self):
        res = run_cli("check", "--config", str(FIXTURES / "sphere_metric.json"),
                      "--suite", "bridge", "--samples", "20")
        assert res.returncode == 0

    def test_transform_fixture_loads_and_passes(self):
        res = run_cli("check", "--config", str(FIXTURES / "polar_from_zero.json"),
                      "--suite", "bridge", "--samples", "20")
        assert res.returncode == 0
