"""Coordinate bridge: frames, transformation laws, classical derivatives."""

import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gacalc import expr as ex
from gacalc import fields as mf
from gacalc.bridge import (
    CoordinateMap,
    christoffel,
    classical_cov_derivative,
    levi_civita_from_metric,
    riemann_coefficients,
    transform_components,
    transform_connection,
)
from gacalc.cartan import NotSymmetricError
from gacalc.connection import (
    ConnectionField,
    ExtensorField11,
    asymmetry,
    cov_derivative,
    ext_inverse,
    extensor_cov_derivative,
)
from gacalc.fields import Box
from gacalc.fixtures import load_fixture, load_fixture_file, load_map_file, polar_map
from gacalc.report import worst_residual
from gacalc.suites import rand_scalar, run_fixture_checks

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def eval_gamma(conn, g, a, b, p):
    return ex.evaluate(conn.gamma[g][a][b], p)


@pytest.fixture(scope="module")
def zero2_conn():
    return ConnectionField.zero(2)


class TestCoordinateMap:
    def test_identity_map_frames(self):
        cmap = CoordinateMap.identity(2, Box((-1, -1), (1, 1)))
        cov, contra = cmap.frames
        for i in range(2):
            assert_allclose(cov[i].at((0.3, 0.4)).vector_components(), np.eye(2)[i])
            assert_allclose(contra[i].at((0.3, 0.4)).vector_components(), np.eye(2)[i])

    def test_polar_frames(self, pmap):
        cov, _ = pmap.frames
        assert_allclose(cov[0].at((2.0, 0.0)).vector_components(), [1.0, 0.0], atol=1e-14)
        assert_allclose(cov[1].at((2.0, 0.0)).vector_components(), [0.0, 2.0], atol=1e-14)

    def test_reciprocity(self, pmap, rng):
        cov, contra = pmap.frames
        pts = pmap.domain_primed.sample(10, rng)
        pairs = [(mf.scalar_product(cov[m], contra[n]),
                  ex.ONE if m == n else ex.ZERO) for m in range(2) for n in range(2)]
        assert worst_residual(pairs, pts) < 1e-10

    def test_round_trip_and_jacobians(self, pmap, rng):
        pts = pmap.domain_primed.sample(10, rng)
        composed = ex.substitute(pmap.forward, pmap.inverse)
        assert worst_residual([(c, ex.Var(i)) for i, c in enumerate(composed)], pts) < 1e-10
        jinv, kfwd = pmap.inverse_jacobian, pmap.forward_jacobian
        pairs = []
        for i in range(2):
            for j in range(2):
                prod = ex.ZERO
                for k in range(2):
                    prod = ex.add(prod, ex.mul(kfwd[i][k], jinv[k][j]))
                pairs.append((prod, ex.ONE if i == j else ex.ZERO))
        assert worst_residual(pairs, pts) < 1e-10

    def test_component_count_validated(self):
        with pytest.raises(ValueError, match="forward and inverse"):
            CoordinateMap(2, (ex.Var(0),), (ex.Var(0), ex.Var(1)), Box((0, 0), (1, 1)))


class TestConnectionTransform:
    def test_identity_map_echoes(self, polar, rng):
        cmap = CoordinateMap.identity(2, polar.domain)
        out = transform_connection(polar.conn, cmap)
        pts = polar.domain.sample(8, rng)
        pairs = [(out.gamma[g][a][b], polar.conn.gamma[g][a][b])
                 for g in range(2) for a in range(2) for b in range(2)]
        assert worst_residual(pairs, pts) < 1e-13

    def test_zero_to_polar_coefficients(self, zero2_conn, pmap, rng):
        out = transform_connection(zero2_conn, pmap)
        pts = pmap.domain_primed.sample(20, rng)
        r = ex.Var(0)
        expected = {
            (0, 1, 1): ex.neg(r),
            (1, 0, 1): ex.div(ex.ONE, r),
            (1, 1, 0): ex.div(ex.ONE, r),
        }
        pairs = []
        for g in range(2):
            for a in range(2):
                for b in range(2):
                    pairs.append((out.gamma[g][a][b], expected.get((g, a, b), ex.ZERO)))
        assert worst_residual(pairs, pts) < 1e-12
        assert eval_gamma(out, 0, 1, 1, (2.0, 0.3)) == pytest.approx(-2.0)

    def test_operator_route_agrees_with_law(self, zero2_conn, polar, pmap, rng):
        pts = pmap.domain_primed.sample(10, rng)
        for conn in (zero2_conn, polar.conn):
            a_route = christoffel(conn, pmap)
            b_route = transform_connection(conn, pmap)
            pairs = [(a_route.gamma[g][a][b], b_route.gamma[g][a][b])
                     for g in range(2) for a in range(2) for b in range(2)]
            assert worst_residual(pairs, pts) < 1e-9

    def test_there_and_back(self, zero2_conn, pmap, rng):
        swapped = CoordinateMap(2, pmap.inverse, pmap.forward,
                                pmap.domain_canonical, pmap.domain_primed)
        once = transform_connection(zero2_conn, pmap)
        back = transform_connection(once, swapped)
        pts = pmap.domain_canonical.sample(10, rng)
        pairs = [(back.gamma[g][a][b], ex.ZERO) for g in range(2) for a in range(2)
                 for b in range(2)]
        assert worst_residual(pairs, pts) < 1e-9


@pytest.fixture(scope="module")
def cyl():
    from pathlib import Path

    from gacalc.fixtures import load_map_file

    return load_map_file(Path(__file__).resolve().parents[1]
                         / "fixtures" / "maps" / "cylindrical3.json")


class TestCylindrical3D:
    """3-dimensional chart change: flat connection in cylindrical coordinates."""

    def test_known_coefficients(self, cyl, rng):
        conn = transform_connection(ConnectionField.zero(3), cyl)
        pts = cyl.domain_primed.sample(15, rng)
        rho = ex.Var(0)
        expected = {(0, 1, 1): ex.neg(rho),
                    (1, 0, 1): ex.div(ex.ONE, rho),
                    (1, 1, 0): ex.div(ex.ONE, rho)}
        pairs = []
        for g in range(3):
            for a in range(3):
                for b in range(3):
                    pairs.append((conn.gamma[g][a][b], expected.get((g, a, b), ex.ZERO)))
        assert worst_residual(pairs, pts) < 1e-12

    def test_operator_route_and_flatness(self, cyl, rng):
        from gacalc.cartan import curvature
        from gacalc.suites import rand_vector

        zero3 = ConnectionField.zero(3)
        conn = transform_connection(zero3, cyl)
        pts = cyl.domain_primed.sample(10, rng)
        ch = christoffel(zero3, cyl)
        pairs = [(ch.gamma[g][a][b], conn.gamma[g][a][b])
                 for g in range(3) for a in range(3) for b in range(3)]
        assert worst_residual(pairs, pts) < 1e-10

        derived = ConnectionField(3, conn.gamma)
        rho_field = curvature(derived, rand_vector(3, rng), rand_vector(3, rng),
                              rand_vector(3, rng))
        assert worst_residual([(rho_field, mf.mvf(3, {}))], pts) < 1e-9


class TestComponentTransforms:
    def test_identity_map_unchanged(self, rng):
        cmap = CoordinateMap.identity(2, Box((-1, -1), (1, 1)))
        comps = [ex.parse("x0*x1", 2), ex.parse("x0^2", 2)]
        for variance in ("co", "contra"):
            out = transform_components(comps, cmap, (variance,))
            pts = rng.uniform(-1, 1, size=(8, 2))
            assert worst_residual(list(zip(out, comps)), pts) < 1e-14

    def test_constant_vector_under_polar(self, pmap):
        # e1 has polar components v^r = cos(theta), v^theta = -sin(theta)/r
        out = transform_components([ex.ONE, ex.ZERO], pmap, ("contra",))
        r, th = 1.7, 0.4
        assert ex.evaluate(out[0], (r, th)) == pytest.approx(math.cos(th))
        assert ex.evaluate(out[1], (r, th)) == pytest.approx(-math.sin(th) / r)

    def test_variance_validated(self, pmap):
        with pytest.raises(ValueError, match="variance"):
            transform_components([ex.ONE, ex.ZERO], pmap, ("mixed",))


class TestClassicalCovariantDerivatives:
    def test_zero_connection_gives_partials(self, zero2_conn, rng):
        v = [ex.parse("x0^2*x1", 2), ex.parse("sin(x0)", 2)]
        out = classical_cov_derivative(zero2_conn, v, ("contra",))
        pts = rng.uniform(0.4, 1.0, size=(8, 2))
        pairs = [(out[l][m], ex.diff(v[l], m)) for l in range(2) for m in range(2)]
        assert worst_residual(pairs, pts) < 1e-14

    def test_sphere_example_values(self, sphere):
        # v = (1, 0): contra derivative along phi gives (0, cot(theta))
        out = classical_cov_derivative(sphere.conn, [ex.ONE, ex.ZERO], ("contra",))
        th = 0.9
        assert ex.evaluate(out[0][1], (th, 0.1)) == pytest.approx(0.0)
        assert ex.evaluate(out[1][1], (th, 0.1)) == pytest.approx(1.0 / math.tan(th))

    @pytest.mark.parametrize("variance,sign", [("contra", "+"), ("co", "-")])
    def test_vector_oracle_equality(self, sphere, rng, variance, sign):
        pts = sphere.domain.sample(10, rng)
        comps = [ex.parse("x0*x1 + 1", 2), ex.parse("sin(x0)*x1", 2)]
        v = mf.vector(2, comps)
        table = classical_cov_derivative(sphere.conn, comps, (variance,))
        pairs = []
        for mu in range(2):
            ga = cov_derivative(sphere.conn, sign, mf.basis(2, mu), v)
            for l in range(2):
                pairs.append((ga.component(1 << l), table[l][mu]))
        assert worst_residual(pairs, pts) < 1e-10

    @pytest.mark.parametrize("variance,signs", [(("co", "co"), ("+", "+")),
                                                (("co", "contra"), ("+", "-"))])
    def test_tensor_oracle_equality(self, sphere, rng, variance, signs):
        pts = sphere.domain.sample(10, rng)
        t = ExtensorField11.from_matrix([[ex.parse("x0", 2), ex.parse("x1", 2)],
                                         [ex.parse("sin(x0)", 2), ex.ONE]])
        comps = [[t.entries[b][a] for b in range(2)] for a in range(2)]
        table = classical_cov_derivative(sphere.conn, comps, variance)
        pairs = []
        for mu in range(2):
            dt = extensor_cov_derivative(sphere.conn, signs, t, mf.basis(2, mu)).entries
            for a in range(2):
                for b in range(2):
                    pairs.append((dt[b][a], table[a][b][mu]))
        assert worst_residual(pairs, pts) < 1e-10


class TestLeviCivita:
    def test_identity_metric_gives_zero(self, rng):
        conn = levi_civita_from_metric([[ex.ONE, ex.ZERO], [ex.ZERO, ex.ONE]])
        pts = rng.uniform(-1, 1, size=(5, 2))
        pairs = [(conn.gamma[g][a][b], ex.ZERO) for g in range(2) for a in range(2)
                 for b in range(2)]
        assert worst_residual(pairs, pts) == 0.0

    def test_polar_metric(self, polar, rng):
        conn = levi_civita_from_metric([[ex.ONE, ex.ZERO], [ex.ZERO, ex.powi(ex.Var(0), 2)]])
        pts = polar.domain.sample(10, rng)
        pairs = [(conn.gamma[g][a][b], polar.conn.gamma[g][a][b])
                 for g in range(2) for a in range(2) for b in range(2)]
        assert worst_residual(pairs, pts) < 1e-12

    def test_sphere_metric(self, sphere, rng):
        g = [[ex.ONE, ex.ZERO], [ex.ZERO, ex.powi(ex.call("sin", ex.Var(0)), 2)]]
        conn = levi_civita_from_metric(g)
        pts = sphere.domain.sample(10, rng)
        pairs = [(conn.gamma[gg][a][b], sphere.conn.gamma[gg][a][b])
                 for gg in range(2) for a in range(2) for b in range(2)]
        assert worst_residual(pairs, pts) < 1e-12

    def test_pullback_agrees_with_transform(self, zero2_conn, pmap, polar, rng):
        # Euclidean metric pulled back through the polar chart = r^2 metric
        conn_metric = levi_civita_from_metric(
            [[ex.ONE, ex.ZERO], [ex.ZERO, ex.powi(ex.Var(0), 2)]])
        conn_map = transform_connection(zero2_conn, pmap)
        pts = pmap.domain_primed.sample(10, rng)
        pairs = [(conn_metric.gamma[g][a][b], conn_map.gamma[g][a][b])
                 for g in range(2) for a in range(2) for b in range(2)]
        assert worst_residual(pairs, pts) < 1e-10

    def test_singular_metric_detected(self):
        conn = levi_civita_from_metric([[ex.Var(0), ex.ZERO], [ex.ZERO, ex.ONE]])
        with pytest.raises(ex.DomainError):
            ex.evaluate(conn.gamma[0][0][0], (0.0, 0.5))

    @pytest.mark.parametrize("matrix, printed", [
        ([["0", "0"], ["0", "1"]], "[[0, 0], [0, 1]]"),
        ([["1", "2"], ["2", "4"]], "[[1, 2], [2, 4]]"),
    ])
    def test_constant_singular_metric_refused_naming_the_matrix(self, matrix, printed):
        # every Christoffel term would fold 1/det away under a zero derivative
        spec = {"name": "m", "dim": 2, "seed": 1,
                "connection": {"kind": "metric", "matrix": matrix}}
        with pytest.raises(ValueError) as err:
            load_fixture(spec)
        assert str(err.value) == f"metric matrix {printed} is singular: its determinant is 0"

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            levi_civita_from_metric([[ex.ONE, ex.ZERO]])

    def test_non_symmetric_matrix_rejected_naming_both_entries(self):
        g = [[ex.const(2.0), ex.Var(0)], [ex.Var(1), ex.const(3.0)]]
        with pytest.raises(ValueError, match=r"metric matrix is not symmetric: "
                                             r"\[0\]\[1\] is x0 and \[1\]\[0\] is x1$"):
            levi_civita_from_metric(g)


def dense_metric(n: int) -> list[list[str]]:
    """A metric whose every entry varies, positive definite on [-0.5, 0.5]^n,
    each off-diagonal entry written once and mirrored."""
    return [[f"3 + 0.2*x{(i + 1) % n}^2" if i == j else
             f"0.1*x{min(i, j)}*x{max(i, j)}" for j in range(n)] for i in range(n)]


def dense_metric_fixture(n: int):
    return load_fixture({"name": f"dense{n}", "dim": n, "seed": 1,
                         "connection": {"kind": "metric", "matrix": dense_metric(n)},
                         "domain": {"lo": [-0.5] * n, "hi": [0.5] * n}})


def under_polar_map(base: str):
    cmap = json.loads((FIXTURES / "maps" / "polar_map.json").read_text())
    return load_fixture({"name": f"{base}-polar", "dim": 2, "seed": 1, "domain": cmap["domain"],
                         "connection": {"kind": "transform", "base": base, "map": cmap}})


def mirrored(conn) -> bool:
    """Whether every entry (g, b, a) is the very object at (g, a, b)."""
    n = conn.dim
    return all(conn.gamma[g][a][b] is conn.gamma[g][b][a]
               for g in range(n) for a in range(n) for b in range(n))


class TestSymmetricBuilders:
    """The metric connection and the transformation law of a symmetric
    connection build one tree per symmetric pair, so `asymmetry` decides them
    from the trees; the operational `christoffel` stays entry by entry."""

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_a_dense_metric_gives_one_tree_per_pair(self, dim):
        conn = dense_metric_fixture(dim).conn
        assert mirrored(conn)
        assert asymmetry(conn) is None

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_a_dense_metric_passes_the_bianchi_suite(self, dim):
        report = run_fixture_checks(dense_metric_fixture(dim), "bianchi", samples=4)
        assert {c.name for c in report.checks} == {"curvature-cyclic", "curvature-bianchi"}
        assert report.passed

    def test_a_mirrored_entry_has_the_value_of_its_own_formula(self, rng):
        n = 3
        g = [[ex.parse(c, n) for c in row] for row in dense_metric(n)]
        conn, ginv = levi_civita_from_metric(g), ext_inverse(ExtensorField11(n, g)).entries

        def formula(c, a, b):
            return ex.mul(ex.const(0.5), functools.reduce(ex.add, (
                ex.mul(ginv[c][s], ex.sub(ex.add(ex.diff(g[s][b], a), ex.diff(g[a][s], b)),
                                          ex.diff(g[a][b], s))) for s in range(n))))

        pairs = [(conn.gamma[c][a][b], formula(c, a, b))
                 for c, a, b in itertools.product(range(n), repeat=3)]
        assert worst_residual(pairs, rng.uniform(-0.5, 0.5, size=(10, n))) < 1e-13

    def test_sphere_under_the_polar_map_keeps_its_symmetry(self):
        fix = under_polar_map("sphere")
        assert mirrored(fix.conn)
        assert asymmetry(fix.conn) is None
        assert run_fixture_checks(fix, "bianchi", samples=4).passed

    def test_the_mirrored_law_agrees_with_christoffel_on_every_entry(self, sphere, pmap):
        law, operational = transform_connection(sphere.conn, pmap), christoffel(sphere.conn, pmap)
        pairs = [(law.gamma[g][a][b], operational.gamma[g][a][b])
                 for g, a, b in itertools.product(range(2), repeat=3)]
        assert worst_residual(pairs, pmap.domain_primed.sample(20, np.random.default_rng(4))) < 1e-10

    def test_christoffel_builds_each_entry_on_its_own(self, sphere, pmap):
        conn = christoffel(sphere.conn, pmap)
        assert all(conn.gamma[g][0][1] is not conn.gamma[g][1][0] for g in range(2))

    def test_torsionful_under_the_polar_map_is_still_refused(self):
        fix = under_polar_map("torsionful")
        assert not mirrored(fix.conn)
        assert asymmetry(fix.conn) == ((0, 0, 1), False)
        with pytest.raises(NotSymmetricError, match="connection is not proved symmetric"):
            run_fixture_checks(fix, "bianchi", samples=4)


# The explicit rank-1 and rank-2 rules that the rank-generic ones replaced,
# kept as their reference: the generic trees must be == to these.

def ref_sum(terms):
    total = ex.ZERO
    for t in terms:
        total = ex.add(total, t)
    return total


def ref_tables(cmap):
    """Inverse Jacobian, forward Jacobian composed into the primed chart, inverse Hessian."""
    n = cmap.dim
    jinv = [[ex.diff(c, j) for j in range(n)] for c in cmap.inverse]
    kfwd = [[ex.substitute([ex.diff(c, j)], cmap.inverse)[0] for j in range(n)]
            for c in cmap.forward]
    hess = [[[ex.diff(ex.diff(cmap.inverse[b], m), k) for k in range(n)] for m in range(n)]
            for b in range(n)]
    return jinv, kfwd, hess


def ref_frames(cmap):
    n = cmap.dim
    jinv, kfwd, _ = ref_tables(cmap)
    return ([mf.vector(n, [jinv[i][m] for i in range(n)]) for m in range(n)],
            [mf.vector(n, [kfwd[l][i] for i in range(n)]) for l in range(n)])


def ref_transform_vector(components, cmap, variance):
    n = cmap.dim
    comps = [ex.substitute([ex.as_expr(c)], cmap.inverse)[0] for c in components]
    jinv, kfwd, _ = ref_tables(cmap)
    if variance == "co":
        return [ref_sum(ex.mul(jinv[b][a], comps[b]) for b in range(n)) for a in range(n)]
    return [ref_sum(ex.mul(kfwd[a][b], comps[b]) for b in range(n)) for a in range(n)]


def ref_transform_tensor2(components, cmap, variances):
    n = cmap.dim
    comps = [[ex.substitute([ex.as_expr(c)], cmap.inverse)[0] for c in row] for row in components]
    jinv, kfwd, _ = ref_tables(cmap)

    def factor(variance, primed, raw):
        return jinv[raw][primed] if variance == "co" else kfwd[primed][raw]

    out = [[ex.ZERO] * n for _ in range(n)]
    for mu in range(n):
        for nu in range(n):
            total = ex.ZERO
            for a in range(n):
                for b in range(n):
                    total = ex.add(total, ex.mul(
                        ex.mul(factor(variances[0], mu, a), factor(variances[1], nu, b)),
                        comps[a][b]))
            out[mu][nu] = total
    return out


def ref_classical(conn, components, variance):
    n, g = conn.dim, conn.gamma
    if variance == "contra":
        v = [ex.as_expr(c) for c in components]
        return [[ref_sum([ex.diff(v[l], m)] + [ex.mul(g[l][m][a], v[a]) for a in range(n)])
                 for m in range(n)] for l in range(n)]
    if variance == "co":
        v = [ex.as_expr(c) for c in components]
        return [[ref_sum([ex.diff(v[nu], m)]
                         + [ex.neg(ex.mul(g[a][m][nu], v[a])) for a in range(n)])
                 for m in range(n)] for nu in range(n)]
    t = [[ex.as_expr(c) for c in row] for row in components]
    if variance == ("co", "co"):
        return [[[ref_sum([ex.diff(t[a][b], m)]
                          + [ex.neg(ex.mul(g[s][m][a], t[s][b])) for s in range(n)]
                          + [ex.neg(ex.mul(g[s][m][b], t[a][s])) for s in range(n)])
                  for m in range(n)] for b in range(n)] for a in range(n)]
    return [[[ref_sum([ex.diff(t[a][b], m)]
                      + [ex.neg(ex.mul(g[s][m][a], t[s][b])) for s in range(n)]
                      + [ex.mul(g[b][m][s], t[a][s]) for s in range(n)])
              for m in range(n)] for b in range(n)] for a in range(n)]


SHIPPED_MAPS = {path.stem: path for path in sorted((FIXTURES / "maps").glob("*.json"))}
SHIPPED_CONFIGS = sorted(path.name for path in FIXTURES.glob("*.json"))
VARIANCE_PAIRS = list(itertools.product(("co", "contra"), repeat=2))


def shipped_map(name):
    return polar_map() if name == "builtin-polar" else load_map_file(SHIPPED_MAPS[name])


def random_components(dim, rng):
    vector = [rand_scalar(dim, rng, degree=2) for _ in range(dim)]
    tensor = [[rand_scalar(dim, rng, degree=2) for _ in range(dim)] for _ in range(dim)]
    return vector, tensor


class TestCompose:
    """`CoordinateMap.compose` takes a table in any nesting and composes it on one tape."""

    @pytest.mark.parametrize("name", [*SHIPPED_MAPS, "builtin-polar"])
    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_each_entry_as_composed_alone_in_the_same_nesting(self, name, rank, rng):
        cmap = shipped_map(name)
        n = cmap.dim

        def table(depth):
            if depth == 0:
                return ex.diff(rand_scalar(n, rng, degree=2), 0)
            return [table(depth - 1) for _ in range(n)]

        def alone(entries):
            if isinstance(entries, ex.Expr):
                return ex.substitute([entries], cmap.inverse)[0]
            return [alone(e) for e in entries]

        entries = table(rank)
        got = cmap.compose(entries)
        assert got == alone(entries)
        assert np.shape(np.array(got, dtype=object)) == (n,) * rank

    def test_equal_subtrees_across_entries_come_back_as_one_object(self, pmap):
        x0, x1 = ex.Var(0), ex.Var(1)
        first = ex.Add(ex.Call("sin", x0), x1)
        second = ex.Mul(ex.Call("sin", x0), x1)
        twin = ex.Add(ex.Call("sin", x0), x1)  # equal to ``first``, another object
        [[a, b], [c, _]] = pmap.compose([[first, second], [twin, x0]])
        assert first.left is not second.left and twin is not first
        assert a.left is b.left and a is c


class TestGenericMatchesExplicit:
    """Trees of the rank-generic rules are == to the explicit rules they replaced."""

    @pytest.mark.parametrize("name", [*SHIPPED_MAPS, "builtin-polar"])
    def test_map_tables(self, name):
        cmap = shipped_map(name)
        jinv, kfwd, hess = ref_tables(cmap)
        assert cmap.inverse_jacobian == jinv
        assert cmap.forward_jacobian == kfwd
        assert cmap.inverse_hessian == hess
        for got, want in zip(cmap.frames, ref_frames(cmap)):
            assert [f.coeffs for f in got] == [f.coeffs for f in want]
        assert cmap.compose(cmap.forward[0]) == ex.substitute([cmap.forward[0]], cmap.inverse)[0]

    @pytest.mark.parametrize("name", [*SHIPPED_MAPS, "builtin-polar"])
    def test_tables_are_built_once(self, name):
        cmap = shipped_map(name)
        for table in ("inverse_jacobian", "forward_jacobian", "inverse_hessian", "frames"):
            assert getattr(cmap, table) is getattr(cmap, table)

    def test_laws_reuse_the_tables(self, pmap, zero2_conn, monkeypatch):
        pmap = CoordinateMap(2, pmap.forward, pmap.inverse, pmap.domain_primed)
        transform_connection(zero2_conn, pmap)
        calls = []
        monkeypatch.setattr(ex, "diff", lambda e, i: calls.append(i))
        transform_connection(zero2_conn, pmap)
        transform_components([[ex.ONE, ex.ZERO], [ex.ZERO, ex.ONE]], pmap, ("co", "contra"))
        assert calls == []  # the second use differentiates nothing

    @pytest.mark.parametrize("name", [*SHIPPED_MAPS, "builtin-polar"])
    def test_component_laws(self, name, rng):
        cmap = shipped_map(name)
        vector, tensor = random_components(cmap.dim, rng)
        for variance in ("co", "contra"):
            assert (transform_components(vector, cmap, (variance,))
                    == ref_transform_vector(vector, cmap, variance))
        for variances in VARIANCE_PAIRS:
            assert (transform_components(tensor, cmap, variances)
                    == ref_transform_tensor2(tensor, cmap, variances))

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS)
    def test_classical_derivatives(self, config, rng):
        conn = load_fixture_file(FIXTURES / config).conn
        vector, tensor = random_components(conn.dim, rng)
        for variance in ("co", "contra"):
            assert (classical_cov_derivative(conn, vector, (variance,))
                    == ref_classical(conn, vector, variance))
        for variances in (("co", "co"), ("co", "contra")):
            assert (classical_cov_derivative(conn, tensor, variances)
                    == ref_classical(conn, tensor, variances))

    def test_unknown_variance_is_named(self, pmap, zero2_conn):
        tensor = [[ex.ONE, ex.ZERO], [ex.ZERO, ex.ONE]]
        for call in (lambda v: transform_components(tensor, pmap, v),
                     lambda v: classical_cov_derivative(zero2_conn, tensor, v)):
            with pytest.raises(ValueError, match="got 'sideways'"):
                call(("co", "sideways"))


def dense_riemann(conn):
    """R^d_{g a b} summed over every s, zero factors included, as the formula reads."""
    n, g = conn.dim, conn.gamma
    out = np.empty((n,) * 4, dtype=object)
    for d, c, a, b in itertools.product(range(n), repeat=4):
        total = ex.sub(ex.diff(g[d][b][c], a), ex.diff(g[d][a][c], b))
        for s in range(n):
            total = ex.add(total, ex.mul(g[d][a][s], g[s][b][c]))
            total = ex.sub(total, ex.mul(g[d][b][s], g[s][a][c]))
        out[d, c, a, b] = total
    return out.tolist()


def sparse_connection(dim, rng):
    """A seeded connection with a few nonzero coefficients: constants, coordinates,
    negated coordinates (whose partials are a constant -0.0) and products."""
    pool = [ex.const(1.5), ex.const(-2.0)] + [ex.Var(i) for i in range(dim)] + [
        ex.Neg(ex.Var(i)) for i in range(dim)] + [ex.parse(f"x0*sin(x{dim - 1})", dim)]
    entries = {}
    for _ in range(2 * dim):
        index = tuple(int(v) for v in rng.integers(0, dim, size=3))
        entries[index] = pool[int(rng.integers(len(pool)))]
    return ConnectionField.from_entries(dim, entries)


class TestRiemannCoefficients:
    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_the_sparse_sum_builds_the_dense_trees(self, dim):
        rng = np.random.default_rng(dim)
        conns = [sparse_connection(dim, rng) for _ in range(3)] + [ConnectionField.zero(dim)]
        if dim == 2:
            conns += [load_fixture_file(FIXTURES / f"{name}.json").conn
                      for name in ("sphere", "polar", "torsionful")]
        if dim == 3:
            conns.append(load_fixture_file(FIXTURES / "sphere3_metric.json").conn)
        for conn in conns:
            assert repr(riemann_coefficients(conn)) == repr(dense_riemann(conn))
