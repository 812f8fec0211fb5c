"""The row pool of `suites._SuiteRun.check_rows`: one forked worker per usable
CPU, each row drawing from a generator keyed by its name.

A report does not depend on how many workers ran it, nor on which rows ran
beside a row; a row that raises in a worker raises again in the caller, with
its own error; a worker that dies leaves its rows to the caller; and no
worker outlives a run, whether the run passed or raised.
"""

import json
import os
from pathlib import Path

import pytest

from gacalc import cli, suites
from gacalc.expr import DomainError, Var
from gacalc.fixtures import load_fixture_file, load_map_file
from gacalc.suites import _SuiteRun, run_fixture_checks, run_transform_checks

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def report_json(op: str, workers: int, monkeypatch) -> str:
    """The --json report of ``op`` ("<fixture>.<suite>", or "polar.transform")
    at seed 1, run on ``workers`` workers."""
    monkeypatch.setattr(suites, "_usable_cpus", lambda: workers)
    fixture, suite = op.split(".")
    fix = load_fixture_file(FIXTURES / f"{fixture}.json")
    if suite == "transform":
        report = run_transform_checks(fix, load_map_file(FIXTURES / "maps" / "polar_map.json"),
                                      seed=1)
    else:
        report = run_fixture_checks(fix, suite, seed=1)
    return report.to_json()


def no_worker_left():
    with pytest.raises(ChildProcessError):  # this process has no child, running or not reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def parent_takes_no_rows(monkeypatch):
    """Every row runs first in a forked worker: this process takes none from
    the queue, so it runs only the rows left without a result."""
    parent = os.getpid()
    pull = _SuiteRun._pull
    monkeypatch.setattr(_SuiteRun, "_pull",
                        lambda run, rows, queue: {} if os.getpid() == parent
                        else pull(run, rows, queue))
    return parent


@pytest.mark.parametrize("op", ["sphere.all", "torsionful.all", "polar.transform"])
def test_one_worker_and_the_pool_give_one_report(op, monkeypatch):
    # three workers on any host, more than this one's CPUs
    assert report_json(op, 3, monkeypatch) == report_json(op, 1, monkeypatch)
    no_worker_left()


def test_this_process_runs_no_row_a_worker_ran(tmp_path, monkeypatch, parent_takes_no_rows):
    ran = tmp_path / "ran"
    check = _SuiteRun.check

    def logged(run, name, tag, draws, build, points=None):
        with ran.open("a") as log:
            log.write(f"{os.getpid()}\n")
        return check(run, name, tag, draws, build, points)

    monkeypatch.setattr(_SuiteRun, "check", logged)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 3)
    report = run_fixture_checks(load_fixture_file(FIXTURES / "sphere.json"), "core", seed=1)
    pids = [int(line) for line in ran.read_text().split()]
    assert len(pids) == len(report.checks) and parent_takes_no_rows not in pids
    no_worker_left()


def test_a_row_that_raises_in_a_worker_raises_again_here(tmp_path, monkeypatch,
                                                         parent_takes_no_rows):
    ran = tmp_path / "ran"
    check = _SuiteRun.check

    def faulty(run, name, tag, draws, build, points=None):
        if name == "cov-pairing":
            with ran.open("a") as log:
                log.write(f"{os.getpid()}\n")
            raise DomainError("division by zero", Var(0))
        return check(run, name, tag, draws, build, points)

    monkeypatch.setattr(_SuiteRun, "check", faulty)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 3)
    with pytest.raises(DomainError, match=r"^division by zero in 'x0'$"):
        run_fixture_checks(load_fixture_file(FIXTURES / "sphere.json"), "core", seed=1)
    pids = [int(line) for line in ran.read_text().split()]
    assert pids[0] != parent_takes_no_rows and pids[-1] == parent_takes_no_rows
    no_worker_left()


def test_the_first_failing_row_in_table_order_wins(monkeypatch, parent_takes_no_rows):
    check = _SuiteRun.check

    def faulty(run, name, tag, draws, build, points=None):
        if name in ("gen-involution-hat", "deform-pairing"):
            raise ValueError(name)
        return check(run, name, tag, draws, build, points)

    monkeypatch.setattr(_SuiteRun, "check", faulty)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 3)
    with pytest.raises(ValueError, match="^gen-involution-hat$"):
        run_fixture_checks(load_fixture_file(FIXTURES / "sphere.json"), "core", seed=1)
    no_worker_left()


def test_a_worker_that_dies_leaves_a_full_report(monkeypatch, parent_takes_no_rows):
    expected = report_json("sphere.all", 1, monkeypatch)
    check = _SuiteRun.check

    def dying(run, name, tag, draws, build, points=None):
        if name == "cartan-pairing" and os.getpid() != parent_takes_no_rows:
            os._exit(3)
        return check(run, name, tag, draws, build, points)

    monkeypatch.setattr(_SuiteRun, "check", dying)
    assert report_json("sphere.all", 3, monkeypatch) == expected
    no_worker_left()


def test_a_fork_that_fails_leaves_the_rows_to_this_process(monkeypatch):
    expected = report_json("torsionful.all", 1, monkeypatch)

    def no_process(*args):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    assert report_json("torsionful.all", 3, monkeypatch) == expected


def test_an_exit_2_run_prints_one_error_and_leaves_no_worker(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 3)
    cfg = tmp_path / "metric.json"
    cfg.write_text(json.dumps({
        "name": "huge", "dim": 2, "seed": 1,
        "connection": {"kind": "metric", "matrix": [["2^5000*x0^2+1", "0"], ["0", "1"]]},
        "domain": {"lo": [0.5, -1], "hi": [1, 1]},
    }))
    assert cli.main(["check", "--config", str(cfg), "--suite", "cartan"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: overflow to a non-finite value in '2^5000'\n")
    no_worker_left()


def test_a_row_draws_the_same_without_the_rows_before_it(monkeypatch):
    fix = load_fixture_file(FIXTURES / "sphere.json")
    full = {c.name: c.max_residual for c in run_fixture_checks(fix, "core", seed=1).checks}
    rows = suites.core_rows
    monkeypatch.setattr(suites, "core_rows", lambda run: rows(run)[1:])
    fewer = {c.name: c.max_residual for c in run_fixture_checks(fix, "core", seed=1).checks}
    dropped = set(full) - set(fewer)
    assert dropped == {"gen-grade-preserving"}  # the first row of the table
    assert fewer == {name: r for name, r in full.items() if name not in dropped}
