"""Suite runner: coverage of the check registry, overrides, determinism."""

import gc
import json
import math
import random
import warnings
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

from gacalc import fields as mf
from gacalc import suites
from gacalc.cartan import NotSymmetricError
from gacalc.fixtures import load_fixture, load_fixture_file, load_map_file, zero_fixture
from gacalc.report import CheckResult, Report
from gacalc.suites import KeyedStream, _SuiteRun, run_fixture_checks, run_transform_checks

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"

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
        with pytest.raises(NotSymmetricError, match="connection is not symmetric"):
            run_fixture_checks(torsionful, "bianchi", samples=20)

    def test_the_refusal_names_the_pair(self, torsionful):
        # G^0_01 = 1 against G^0_10 = 0: decided from the trees, at no point
        with pytest.raises(NotSymmetricError) as err:
            run_fixture_checks(torsionful, "bianchi", samples=20)
        assert str(err.value) == ("connection is not symmetric: G^g_ab and G^g_ba differ for "
                                  "(g, a, b) = (0, 0, 1); identity only holds for torsionless "
                                  "structures")

    def test_an_undecided_refusal_names_the_pair(self):
        # G^0_01 = x0 against G^0_10 = 0: different expressions, decided at no point
        fix = load_fixture({"dim": 2, "seed": 1, "connection": {
            "kind": "coefficients", "coefficients": {"0,0,1": "x0"}}})
        with pytest.raises(NotSymmetricError) as err:
            run_fixture_checks(fix, "bianchi", seed=3, samples=1)
        assert str(err.value) == (
            "connection is not proved symmetric: G^g_ab and G^g_ba are different expressions "
            "for (g, a, b) = (0, 0, 1); identity only holds for torsionless structures")

    def test_core_suite_at_the_largest_deformation_dim(self):
        # deformation is documented for every n <= 6; the core suite
        # (deform-pairing among it) must finish at the top dims and pass
        for dim in (4, 5, 6):
            report = run_fixture_checks(zero_fixture(dim), "core")
            assert {c.name for c in report.checks} == CORE_CHECKS
            failed = [c.name for c in report.checks if not c.passed]
            assert failed == [], dim

    def test_unknown_suite_rejected(self, sphere):
        with pytest.raises(ValueError, match="unknown suite"):
            run_fixture_checks(sphere, "everything")


class TestOneSymmetryDecision:
    """A connection whose torsion is below 1e-10 on most of its box but not all
    of it: G^0_01 = exp(-200 (x0 + 1.5)) against G^0_10 = 0 on [-1.5, 1.5]^2.
    Judged at sample points, it once passed the Bianchi suite, and its `all`
    report followed the seed.  Decided from the expressions, it is not proved
    symmetric at every seed: `bianchi` is refused, and `cartan` and `all`
    leave out every symmetric-only row."""

    BORDERLINE = {"name": "borderline", "dim": 2, "seed": 1, "connection": {
        "kind": "coefficients", "coefficients": {"0,0,1": "exp(-200*(x0+1.5))"}}}

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_symmetric_only_rows_stand_or_fall_together(self, seed):
        fix = load_fixture(self.BORDERLINE)
        names = {c.name for c in run_fixture_checks(fix, "all", seed=seed, samples=1).checks}
        assert names == CORE_CHECKS | CARTAN_CHECKS | BRIDGE_CHECKS
        cartan = {c.name for c in run_fixture_checks(fix, "cartan", seed=seed, samples=1).checks}
        assert cartan == CARTAN_CHECKS
        with pytest.raises(NotSymmetricError, match="connection is not proved symmetric"):
            run_fixture_checks(fix, "bianchi", seed=seed, samples=1)

    def test_every_seed_gets_one_verdict(self):
        fix = load_fixture(self.BORDERLINE)
        verdicts = {frozenset(SYMMETRIC_ONLY & {c.name for c in run_fixture_checks(
            fix, "all", seed=seed, samples=1).checks}) for seed in (1, 2, 5, 6, 9)}
        assert verdicts == {frozenset()}


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


# each check's argument draws, read from the row tables; at samples=1 every
# row samples 10 points per draw, so it reports 10 x its draws
DRAWS = {
    "core": {
        "connection-op-additivity": 2, "connection-op-first-slot": 2,
        "connection-op-pairing": 5, "connection-op-second-slot": 2,
        "cov-additivity": 2, "cov-direction-linearity": 2, "cov-grade-preserving": 2,
        "cov-pairing": 5, "cov-scalar-field": 5, "cov-scalar-leibniz": 2,
        "cov-wedge-leibniz": 2, "cov-zero-average": 2, "cov-zero-leibniz-clifford": 2,
        "cov-zero-leibniz-lcontr": 2, "cov-zero-leibniz-rcontr": 2,
        "cov-zero-leibniz-scalar": 2, "cov-zero-leibniz-wedge": 2, "cov-zero-pairing": 5,
        "deform-pairing": 2, "deform-scalar-field": 2, "extensor-adjoint-commutation": 2,
        "extensor-derivative-defining": 2, "extensor-derivative-defining-k2": 1,
        "extensor-derivative-linearity": 2, "gauge-factorization": 2,
        "gauge-frame-independence": 2, "gen-adjoint-pairing": 2, "gen-grade-preserving": 2,
        "gen-involution-bar": 2, "gen-involution-hat": 2, "gen-involution-tilde": 2,
        "gen-scalar-kills": 5, "gen-sym-skew-parts": 2, "gen-vector-agrees": 5,
        "gen-wedge-derivation": 2, "generalized-frame-independence": 2,
        "skew-derivation-clifford": 2, "skew-derivation-lcontr": 2,
        "skew-derivation-rcontr": 2, "skew-derivation-scalar": 2,
        "skew-derivation-wedge": 2,
    },
    "cartan": {
        "cartan-curvature-frame-independence": 2, "cartan-curvature-roundtrip": 2,
        "cartan-first-linearity": 2, "cartan-pairing": 5, "cartan-second-linearity": 2,
        "cartan-torsion-frame-independence": 2, "cartan-torsion-roundtrip": 2,
        "curvature-antisymmetry": 2, "curvature-classical-coefficients": 1,
        "curvature-tensoriality": 1, "structure-first": 4, "structure-second": 4,
        "torsion-antisymmetry": 2, "torsion-equivalence": 2, "torsion-tensoriality": 2,
        "torsion-vanishes": 2,
    },
    "bianchi": {"curvature-bianchi": 3, "curvature-cyclic": 4},
    "bridge": {
        "classical-tensor-co-co": 2, "classical-tensor-mixed": 2,
        "classical-vector-co": 2, "classical-vector-contra": 2,
    },
    "transform": {
        "christoffel-vs-law": 1, "directional-chain-rule": 3, "frame-reciprocity": 1,
        "map-jacobian-inverse": 1, "map-roundtrip": 1, "tensor-law-co-co": 3,
        "tensor-law-co-contra": 3, "tensor-law-contra-co": 3, "tensor-law-contra-contra": 3,
        "transform-roundtrip": 1, "vector-law-co": 3, "vector-law-contra": 3,
    },
}
DRAW_SAMPLES = {suite: {name: 10 * draws for name, draws in rows.items()}
                for suite, rows in DRAWS.items()}


def samples_at_one(fix, suite):
    return {c.name: c.samples for c in run_fixture_checks(fix, suite, seed=1, samples=1).checks}


class TestDrawCounts:
    """Each check's number of argument draws, pinned in its row table and
    through its sample count."""

    def test_the_row_tables_hold_the_draws(self, zero2, polar, pmap):
        # every row of `all` on a symmetric 2-D fixture, and every transform row
        run = _SuiteRun(zero2, 1, 50, 1e-8)
        tables = {"core": suites.core_rows(run), "cartan": suites.cartan_rows(run, True),
                  "bianchi": suites.bianchi_rows(run), "bridge": suites.bridge_rows(run),
                  "transform": suites.transform_rows(_SuiteRun(polar, 1, 50, 1e-8), pmap)}
        for suite, rows in tables.items():
            assert len(rows) == len(DRAWS[suite]), suite
            assert {name: draws for name, _, draws, *_ in rows} == DRAWS[suite], suite

    @pytest.mark.parametrize("suite", ["core", "cartan", "bianchi", "bridge"])
    def test_fixture_suite(self, zero2, suite):
        assert samples_at_one(zero2, suite) == DRAW_SAMPLES[suite]

    def test_transform_suite(self, polar, pmap):
        report = run_transform_checks(polar, pmap, seed=1, samples=1)
        assert {c.name: c.samples for c in report.checks} == DRAW_SAMPLES["transform"]


class TestKeyedStream:
    """The seeded draws: MT19937 words of a stream keyed by seed and name."""

    def test_the_words_are_mt19937(self):
        # the first outputs of MT19937 seeded by init_by_array({0x123, 0x234, 0x345,
        # 0x456}) (Matsumoto & Nishimura 1998, mt19937ar.out)
        rng = random.Random(0x456 << 96 | 0x345 << 64 | 0x234 << 32 | 0x123)
        assert [rng.getrandbits(32) for _ in range(5)] == [
            1067595299, 955945823, 477289528, 4107218783, 4228976476]
        # a row's stream is that generator seeded with seed << 32 | crc32(name)
        key = random.Random(7 << 32 | zlib.crc32(b"cov-pairing"))
        assert KeyedStream(7, "cov-pairing").uniform(0.0, 1.0, size=3).tolist() == [
            key.getrandbits(32) * 2.0**-32 for _ in range(3)]

    @pytest.mark.parametrize("seed, name", [(1, "cov-pairing"), (0, ""), (2**64 + 7, "bianchi")])
    def test_array_and_scalar_draws_give_the_same_bits(self, seed, name):
        whole = KeyedStream(seed, name).uniform(-1.0, 1.0, size=(4, 5))
        one = KeyedStream(seed, name)
        assert whole.tolist() == [[one.uniform(-1.0, 1.0) for _ in range(5)] for _ in range(4)]
        # an array continues the stream where scalars left it, and the other way round
        mixed = KeyedStream(seed, name)
        drawn = [mixed.uniform(-1.0, 1.0) for _ in range(3)]
        drawn += mixed.uniform(-1.0, 1.0, size=7).tolist()
        drawn += [mixed.uniform(-1.0, 1.0) for _ in range(2)]
        assert drawn == KeyedStream(seed, name).uniform(-1.0, 1.0, size=12).tolist()

    def test_the_first_draws_of_a_row_are_pinned(self, zero2):
        rng = _SuiteRun(zero2, 1, 50, 1e-8).rng("cov-pairing")
        assert rng.uniform(0.0, 1.0, size=4).tolist() == [
            0.6317737034987658, 0.39190630870871246, 0.5984712955541909, 0.37681681266985834]

    def test_every_seed_word_and_the_name_key_the_stream(self):
        keys = [(1, "cov-pairing"), (1 + 2**64, "cov-pairing"), (2**64, "cov-pairing"),
                (1 + 2**128, "cov-pairing"), (2, "cov-pairing"), (1, "cov-additivity"),
                (1, "bianchi"), (0, "cov-pairing")]
        firsts = {tuple(KeyedStream(seed, name).uniform(0.0, 1.0, size=4)) for seed, name in keys}
        assert len(firsts) == len(keys)
        with pytest.raises(ValueError, match="non-negative"):
            KeyedStream(-1, "cov-pairing")

    def test_uniform_takes_the_asked_shape_within_the_bounds(self):
        rng = KeyedStream(3, "uniform")
        for _ in range(1000):
            x = rng.uniform(-0.5, 0.5)
            assert isinstance(x, float) and -0.5 <= x < 0.5
        assert rng.uniform(-2, 2, size=9).shape == (9,)
        frame = rng.uniform(-0.4, 0.4, size=(3, 3))
        assert frame.shape == (3, 3) and frame.dtype == np.float64
        # the array bounds `Box.sample` passes, one per axis
        lo, hi = np.array([0.3, -3.0, 10.0]), np.array([2.84, 3.0, 10.5])
        block = rng.uniform(lo, hi, size=(5000, 3))
        assert block.shape == (5000, 3)
        assert np.all(block >= lo) and np.all(block < hi)
        assert np.all(block.min(axis=0) < lo + 0.01) and np.all(block.max(axis=0) > hi - 0.01)
        assert rng.uniform(lo, hi, size=(0, 3)).shape == (0, 3)

    def test_box_sample_draws_from_the_stream(self, sphere):
        points = sphere.domain.sample(200, KeyedStream(1, "sample"))
        assert points.shape == (200, 2)
        assert all(sphere.domain.contains(p) for p in points)

    @pytest.mark.parametrize("high", [1, 2, 3, 6, 7])
    def test_integers_stay_in_range(self, high):
        rng = KeyedStream(5, "integers")
        drawn = [rng.integers(high) for _ in range(500)]
        assert all(isinstance(i, int) for i in drawn)
        assert set(drawn) == set(range(high))
        with pytest.raises(ValueError):
            rng.integers(0)

    def test_nothing_warns(self):
        # huge seeds, large arrays, array bounds and integers draw without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (0, 1, 2**64 - 1, 2**200 + 3):
                rng = KeyedStream(seed, "warn")
                rng.uniform(-1.0, 1.0, size=(20000, 6))
                rng.uniform(np.zeros(2), np.ones(2), size=(10, 2))
                [rng.uniform(-1.0, 1.0) for _ in range(100)]
                [rng.integers(6) for _ in range(100)]


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


class TestShippedCurvedFixtures:
    def test_sphere3_metric_passes_every_suite(self):
        # the unit S^3 metric: curved, with a gauge bivector in every direction
        report = run_fixture_checks(load_fixture_file(FIXTURES / "sphere3_metric.json"), "all")
        assert {c.name for c in report.checks} == (
            CORE_CHECKS | CARTAN_CHECKS | BRIDGE_CHECKS | SYMMETRIC_ONLY)
        assert len(report.checks) == 63
        failed = [(c.name, c.max_residual) for c in report.checks if not c.passed]
        assert failed == []

    def test_cylindrical3_from_zero_passes_every_suite(self):
        # the flat connection in cylindrical coordinates: 6 nonzero coefficients,
        # so every direction's connection map is a non-empty 3x3 extensor
        config = load_fixture_file(FIXTURES / "cylindrical3_from_zero.json")
        assert config.dim == 3 and len(config.conn.nonzero) == 6
        report = run_fixture_checks(config, "all")
        assert {c.name for c in report.checks} == (
            CORE_CHECKS | CARTAN_CHECKS | BRIDGE_CHECKS | SYMMETRIC_ONLY)
        failed = [(c.name, c.max_residual) for c in report.checks if not c.passed]
        assert failed == []


class TestOneDrawPerTape:
    def test_a_draw_dies_before_the_next_draw_is_built(self, polar, monkeypatch):
        # every core row: each argument field that rand_vector or rand_mvf made
        # in a draw, and each coefficient tree a draw yielded, is dead when the
        # row's next draw begins (by reference counting alone, the collector
        # off as in cli.main), unless it outlives the row too (a constant, a
        # coordinate, a connection coefficient)
        drawn: list = []
        for name in ("rand_vector", "rand_mvf"):
            def recorded(*args, _make=getattr(suites, name), **kwargs):
                field = _make(*args, **kwargs)
                drawn.append(weakref.ref(field))
                return field
            monkeypatch.setattr(suites, name, recorded)
        run = _SuiteRun(polar, 1, 20, 1e-8)
        live_at_draw = []

        def watched(build):
            def build_draw(rng, draw):
                live_at_draw.append({i for i, ref in enumerate(drawn) if ref() is not None})
                for pair in build(rng, draw):
                    for side in pair:
                        trees = side.coeffs.values() if isinstance(side, mf.MultivectorField) else [side]
                        drawn.extend(map(weakref.ref, trees))
                    yield pair
            return build_draw

        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for name, tag, draws, build, *points in suites.core_rows(run):
                del drawn[:], live_at_draw[:]
                assert run.check(name, tag, draws, watched(build), *points).passed
                outlive = {i for i, ref in enumerate(drawn) if ref() is not None}
                assert len(live_at_draw) == draws
                assert all(live <= outlive for live in live_at_draw), name
        finally:
            if enabled:
                gc.enable()


class TestNoCyclicGarbage:
    """`cli.main` runs with the cyclic collector off, which is sound only while
    the trees, fields and memo entries of a run form no reference cycle.  The
    run takes one worker, so every row's garbage is in this process."""

    @pytest.mark.parametrize("name", ["sphere", "zero", "polar_from_zero"])
    def test_a_suite_run_leaves_nothing_for_the_collector(self, name, monkeypatch):
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            report = run_fixture_checks(load_fixture_file(FIXTURES / f"{name}.json"), "all")
            assert report.passed
            del report
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


# Operations of the benchmark's shipped-fixture workloads (deep-trees and
# shallow-2d): "<fixture>.<suite>", or "<fixture>.transform" under the polar map.
KNOWN_OPS = ("zero.all", "polar_from_zero.cartan", "sphere.all", "sphere_metric.all",
             "polar.all", "torsionful.all", "torsionful.bianchi", "polar.transform")


def known_op(op_id):
    """The report of a known-answer operation at seed 1."""
    fixture, suite = op_id.split(".")
    fix = load_fixture_file(FIXTURES / f"{fixture}.json")
    if suite == "transform":
        return run_transform_checks(fix, load_map_file(FIXTURES / "maps" / "polar_map.json"),
                                    seed=1)
    return run_fixture_checks(fix, suite, seed=1)


class TestBenchmarkKnownAnswers:
    """The in-process reports at seed 1 against `perfbench/known_answers.json`,
    so a check that is dropped, renamed or re-tagged fails here.

    The known answers' samples are draws * max(10, ceil(50 / draws)), which
    reads 50 for 2 draws and for 5; a redraw shows at samples=1, where a
    check samples 10 x its draws, as `TestDrawCounts` pins them.
    """

    @pytest.fixture(scope="class")
    def known(self):
        return json.loads((REPO / "perfbench" / "known_answers.json").read_text())

    @pytest.mark.parametrize("op_id", KNOWN_OPS)
    def test_report_matches_known_answer(self, known, op_id):
        answer = known[op_id]
        if answer["exit"] != 0:
            with pytest.raises(NotSymmetricError, match=answer["stderr"]):
                known_op(op_id)
            return
        report = known_op(op_id)
        shape = [[c.name, c.paper_eq, c.samples, c.tolerance] for c in report.checks]
        assert shape == answer["checks"]
        for c in report.checks:
            assert math.isfinite(c.max_residual) and 0 <= c.max_residual < c.tolerance, c.name

    def test_a_redraw_shows_only_at_one_sample(self, known, zero2, monkeypatch):
        # gen-vector-agrees with 2 draws in place of its 5
        check = _SuiteRun.check

        def redrawn(run, name, tag, draws, build, points=None):
            draws = 2 if name == "gen-vector-agrees" else draws
            return check(run, name, tag, draws, build, points)

        monkeypatch.setattr(_SuiteRun, "check", redrawn)
        answer = known["zero.all"]
        report = known_op("zero.all")
        assert [[c.name, c.paper_eq, c.samples, c.tolerance] for c in report.checks] == (
            answer["checks"])  # 2 x 25 = 5 x 10 samples
        drawn = samples_at_one(zero2, "core")  # the comparison of TestDrawCounts
        assert drawn != DRAW_SAMPLES["core"]
        assert (drawn["gen-vector-agrees"], DRAW_SAMPLES["core"]["gen-vector-agrees"]) == (20, 50)
