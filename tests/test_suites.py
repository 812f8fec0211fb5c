"""Suite runner: coverage of the check registry, overrides, determinism."""

import json
import math

import pytest

from gacalc.cartan import NotSymmetricError
from gacalc.report import CheckResult, Report, worst_of
from gacalc.suites import run_fixture_checks

CORE_CHECKS = {
    "gen-grade-preserving",
    "gen-involution-hat",
    "gen-involution-tilde",
    "gen-involution-bar",
    "gen-scalar-kills",
    "gen-vector-agrees",
    "gen-wedge-derivation",
    "gen-adjoint-pairing",
    "gen-sym-skew-parts",
    "gauge-factorization",
    "skew-derivation-wedge",
    "skew-derivation-clifford",
    "skew-derivation-lcontr",
    "skew-derivation-rcontr",
    "skew-derivation-scalar",
    "cov-grade-preserving",
    "cov-direction-linearity",
    "cov-scalar-field",
    "cov-additivity",
    "cov-scalar-leibniz",
    "cov-wedge-leibniz",
    "cov-pairing",
    "cov-zero-average",
    "cov-zero-pairing",
    "cov-zero-leibniz-wedge",
    "cov-zero-leibniz-clifford",
    "cov-zero-leibniz-lcontr",
    "cov-zero-leibniz-rcontr",
    "cov-zero-leibniz-scalar",
    "connection-op-additivity",
    "connection-op-first-slot",
    "connection-op-second-slot",
    "connection-op-pairing",
    "extensor-derivative-defining",
    "extensor-derivative-defining-k2",
    "extensor-derivative-linearity",
    "extensor-adjoint-commutation",
    "deform-scalar-field",
    "deform-pairing",
    "gauge-frame-independence",
    "generalized-frame-independence",
}

CARTAN_CHECKS = {
    "torsion-equivalence",
    "torsion-antisymmetry",
    "torsion-tensoriality",
    "curvature-antisymmetry",
    "curvature-tensoriality",
    "curvature-classical-coefficients",
    "cartan-torsion-roundtrip",
    "cartan-curvature-roundtrip",
    "cartan-torsion-frame-independence",
    "cartan-curvature-frame-independence",
    "cartan-first-linearity",
    "cartan-second-linearity",
    "cartan-pairing",
    "structure-first",
    "structure-second",
}

BRIDGE_CHECKS = {
    "classical-vector-contra",
    "classical-vector-co",
    "classical-tensor-co-co",
    "classical-tensor-mixed",
}

SYMMETRIC_ONLY = {"torsion-vanishes", "curvature-cyclic", "curvature-bianchi"}


class TestSuiteCoverage:
    def test_all_suite_on_symmetric_fixture_covers_everything(self, sphere):
        report = run_fixture_checks(sphere, "all", samples=20)
        names = {c.name for c in report.checks}
        expected = CORE_CHECKS | CARTAN_CHECKS | BRIDGE_CHECKS | SYMMETRIC_ONLY
        assert names == expected
        assert report.passed

    def test_all_suite_on_torsionful_skips_symmetric_identities(self, torsionful):
        report = run_fixture_checks(torsionful, "all", samples=20)
        names = {c.name for c in report.checks}
        assert names == CORE_CHECKS | CARTAN_CHECKS | BRIDGE_CHECKS
        assert report.passed

    def test_single_suites_partition(self, torsionful):
        core = {c.name for c in run_fixture_checks(torsionful, "core", samples=20).checks}
        bridge = {c.name for c in run_fixture_checks(torsionful, "bridge", samples=20).checks}
        assert core == CORE_CHECKS
        assert bridge == BRIDGE_CHECKS

    def test_bianchi_suite_requires_symmetry(self, torsionful):
        with pytest.raises(NotSymmetricError):
            run_fixture_checks(torsionful, "bianchi", samples=20)

    def test_unknown_suite_rejected(self, sphere):
        with pytest.raises(ValueError, match="unknown suite"):
            run_fixture_checks(sphere, "everything")


class TestSuiteOverrides:
    def test_same_seed_same_report(self, polar):
        a = run_fixture_checks(polar, "bridge", seed=5, samples=20)
        b = run_fixture_checks(polar, "bridge", seed=5, samples=20)
        assert a.to_dict() == b.to_dict()

    def test_report_sorted_and_names_unique(self, sphere):
        report = run_fixture_checks(sphere, "cartan", samples=20)
        names = [c.name for c in report.checks]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_tolerance_override_can_fail_report(self, sphere):
        report = run_fixture_checks(sphere, "bridge", samples=20, tol=1e-30)
        assert not report.passed
        assert all(c.tolerance == 1e-30 for c in report.checks)

    def test_samples_reported_at_least_requested(self, torsionful):
        report = run_fixture_checks(torsionful, "core", samples=50)
        assert all(c.samples >= 50 for c in report.checks)


class TestNonFiniteResiduals:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_residual_fails(self, value):
        check = CheckResult("c", "-", 10, value, 1e-8)
        assert not check.passed
        report = Report("f", 1, [check, CheckResult("b", "-", 10, 0.0, 1e-8)])
        assert not report.passed

        def reject(token):
            raise ValueError(f"non-finite {token} in JSON")

        parsed = json.loads(report.to_json(), parse_constant=reject)
        assert parsed["pass"] is False
        entry = next(c for c in parsed["checks"] if c["name"] == "c")
        assert entry["max_residual"] is None
        assert set(entry) == {"name", "paper_eq", "samples", "max_residual", "tolerance", "pass"}
        assert "FAIL" in report.to_text()

    def test_worst_of_keeps_nan(self):
        assert math.isnan(worst_of(0.0, math.nan))
        assert worst_of(1e-9, 2e-9, 0.0) == 2e-9
