"""Which rows compare a representation with itself, on every shipped fixture.

A row is listed when every blade pair it yields lowers both sides to one slot
of one `expr.Tape` (a blade one side lacks reads the constant 0), or when it
yields no blade at all: its residual is 0 by construction, whatever the
points, so its sample count says nothing about the law.  The rows are those of
`core_rows`, `cartan_rows`, `bridge_rows` and, on a symmetric connection,
`bianchi_rows`, drawn at seed 1 from the streams the runner gives them (the
sample points first, as `_SuiteRun.check` draws them).  The lists are pinned,
so a change that makes a row compare a tree with itself shows here.
"""

import itertools
import operator
from pathlib import Path

import pytest

from gacalc import expr as ex
from gacalc import fields as mf
from gacalc import suites
from gacalc.connection import asymmetry
from gacalc.fixtures import load_fixture_file

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# the grade rows and gen-scalar-kills guard the representation: no other route exists
GUARDS = ["cov-grade-preserving", "gen-grade-preserving", "gen-scalar-kills"]
CURVED = sorted(["classical-vector-co", "classical-vector-contra", *GUARDS])

SELF_COMPARED = {
    "cylindrical3_from_zero": GUARDS,
    "polar": CURVED,
    "polar_from_zero": GUARDS,
    "sphere": CURVED,
    "sphere3_metric": GUARDS,
    "sphere_metric": CURVED,
    "torsionful": sorted([*CURVED, "curvature-classical-coefficients", "gen-involution-tilde",
                          "gen-vector-agrees"]),
    "zero": [
        "cartan-curvature-frame-independence", "cartan-torsion-frame-independence",
        "cartan-torsion-roundtrip", "classical-tensor-co-co", "classical-tensor-mixed",
        "classical-vector-co", "classical-vector-contra", "connection-op-second-slot",
        "cov-additivity", "cov-grade-preserving", "cov-scalar-leibniz",
        "curvature-classical-coefficients", "extensor-adjoint-commutation",
        "gauge-factorization", "gauge-frame-independence", "gen-adjoint-pairing",
        "gen-grade-preserving", "gen-involution-bar", "gen-involution-hat",
        "gen-involution-tilde", "gen-scalar-kills", "gen-sym-skew-parts", "gen-vector-agrees",
        "gen-wedge-derivation", "generalized-frame-independence", "skew-derivation-clifford",
        "skew-derivation-lcontr", "skew-derivation-rcontr", "skew-derivation-scalar",
        "skew-derivation-wedge", "structure-first", "torsion-antisymmetry",
        "torsion-tensoriality", "torsion-vanishes"],
}


def fixture_rows(fix) -> tuple[suites._SuiteRun, list]:
    """The run at seed 1 and every row a `check --suite all` of ``fix`` runs."""
    run = suites._SuiteRun(fix, *fix.settings(1))
    symmetric = asymmetry(fix.conn) is None
    rows = suites.core_rows(run) + suites.cartan_rows(run, symmetric)
    if symmetric:
        rows += suites.bianchi_rows(run)
    return run, rows + suites.bridge_rows(run)


def compares_itself(run: suites._SuiteRun, name: str, draws: int, build, points=None) -> bool:
    """True if every blade pair of the row lowers both sides to one slot of one tape."""
    rng = run.rng(name)
    if points is None:
        run.points(run.fix.domain, rng, draws)
    roots, pairs = [], []
    for lhs, rhs in itertools.chain.from_iterable(build(rng, draw) for draw in range(draws)):
        if isinstance(lhs, mf.MultivectorField):
            lhs, rhs = lhs.coeffs, rhs.coeffs
        else:  # a pair of scalar expressions is a pair of fields on blade 0
            lhs, rhs = {0: lhs}, {0: rhs}
        for blade in lhs.keys() | rhs.keys():
            pairs.append((len(roots), len(roots) + 1))
            roots += [lhs.get(blade, ex.ZERO), rhs.get(blade, ex.ZERO)]
    tape = ex.Tape(roots)
    # `expr.add` spells a + (-b) as a - b, so no sum on a row's tape reads a negation
    assert not any(fn is operator.add and tape.program[b][0] is operator.neg
                   for fn, _, b, _ in tape.program), name
    return all(tape.roots[i] == tape.roots[j] for i, j in pairs)


@pytest.mark.parametrize("name", sorted(SELF_COMPARED))
def test_the_rows_that_compare_a_tree_with_itself_are_pinned(name):
    fix = load_fixture_file(FIXTURES / f"{name}.json")
    run, rows = fixture_rows(fix)
    assert sorted(row[0] for row in rows if compares_itself(run, row[0], *row[2:])) == \
        SELF_COMPARED[name]


def test_every_shipped_fixture_is_in_the_census():
    assert sorted(path.stem for path in FIXTURES.glob("*.json")) == sorted(SELF_COMPARED)

