"""Multivector kernel tests against an independent list-based blade oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gacalc.algebra import (
    MAX_DIM,
    PRODUCTS,
    Frame,
    LinearMap11,
    Multivector,
    adjoint,
    allclose,
    biv,
    blade_table,
    canonical_frame,
    clifford,
    commutator,
    contraction,
    format_multivector,
    grade_of,
    grade_project,
    involution,
    kept_pairs,
    outermorphism,
    reciprocal_frame,
    scalar_product,
    wedge,
)


def generators(mask: int) -> list[int]:
    return [i for i in range(8) if mask >> i & 1]


def sort_generators(gens: list[int]) -> tuple[int, int]:
    """Bubble-sort a product of generators, counting swaps and contracting
    equal neighbours (e_i^2 = 1); returns the blade's mask and sign."""
    gens = list(gens)
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(gens) - 1:
            if gens[i] == gens[i + 1]:
                del gens[i:i + 2]
                changed = True
            elif gens[i] > gens[i + 1]:
                gens[i], gens[i + 1] = gens[i + 1], gens[i]
                sign = -sign
                changed = True
            else:
                i += 1
    mask = 0
    for g in gens:
        mask |= 1 << g
    return mask, sign


def blade_mul_oracle(a_mask: int, b_mask: int) -> tuple[int, int]:
    """Multiply basis blades by explicit generator lists."""
    return sort_generators(generators(a_mask) + generators(b_mask))


def rand_mv(dim, rng):
    return Multivector(dim, rng.uniform(-1, 1, size=1 << dim))


DIMS = list(range(2, MAX_DIM + 1))
# the grade, from grade(a) and grade(b), at which each graded part of the
# geometric product keeps the oracle's blade a b
KEPT_GRADE = {"wedge": lambda ga, gb: ga + gb, "left": lambda ga, gb: gb - ga,
              "right": lambda ga, gb: ga - gb}


def assert_graded_part_of_clifford(dim, product, kept_grade):
    """``product`` of blades a and b is the oracle's a b where that blade has
    grade ``kept_grade(grade(a), grade(b))``, and zero elsewhere."""
    for a in range(1 << dim):
        for b in range(1 << dim):
            got = product(Multivector.blade(dim, a), Multivector.blade(dim, b))
            mask, sign = blade_mul_oracle(a, b)
            if grade_of(mask) == kept_grade(grade_of(a), grade_of(b)):
                want = Multivector.blade(dim, mask, sign)
            else:
                want = Multivector.zero(dim)
            assert allclose(got, want), (a, b)


class TestBladeProducts:
    @pytest.mark.parametrize("dim", DIMS)
    def test_clifford_matches_oracle_on_all_blade_pairs(self, dim):
        for a in range(1 << dim):
            for b in range(1 << dim):
                got = clifford(Multivector.blade(dim, a), Multivector.blade(dim, b))
                mask, sign = blade_mul_oracle(a, b)
                want = Multivector.blade(dim, mask, sign)
                assert allclose(got, want), (a, b)

    @pytest.mark.parametrize("dim", DIMS)
    def test_wedge_is_graded_part_of_clifford(self, dim):
        assert_graded_part_of_clifford(dim, wedge, KEPT_GRADE["wedge"])

    @pytest.mark.parametrize("dim, side", [pytest.param(d, "left", id=str(d)) for d in DIMS]
                             + [pytest.param(d, "right", id=f"right-{d}") for d in DIMS])
    def test_left_contraction_is_graded_part_of_clifford(self, dim, side):
        """The left contraction keeps grade(b) - grade(a); the right one, its
        mirror image, grade(a) - grade(b)."""
        assert_graded_part_of_clifford(dim, lambda x, y: contraction(x, y, side), KEPT_GRADE[side])

    @pytest.mark.parametrize("dim", DIMS)
    def test_involutions_and_grade_projections_of_every_blade(self, dim):
        """Reversion reverses the generator list; the grade involution negates
        each generator; conjugation is both; projection keeps its own grade."""
        for m in range(1 << dim):
            gens = generators(m)
            reversed_mask, tilde = sort_generators(gens[::-1])
            assert reversed_mask == m
            hat = (-1) ** len(gens)
            x = Multivector.blade(dim, m)
            for kind, sign in (("hat", hat), ("tilde", tilde), ("bar", hat * tilde)):
                assert allclose(involution(x, kind), Multivector.blade(dim, m, sign)), (m, kind)
            for k in range(dim + 1):
                want = x if k == len(gens) else Multivector.zero(dim)
                assert allclose(grade_project(x, k), want), (m, k)

    def test_basis_examples(self):
        e1 = Multivector.basis_vector(3, 0)
        e2 = Multivector.basis_vector(3, 1)
        e3 = Multivector.basis_vector(3, 2)
        assert allclose(wedge(e1, e2), Multivector.blade(3, 0b011))
        assert allclose(wedge(e1, e1), Multivector.zero(3))
        assert allclose(wedge(e1, wedge(e2, e3)), Multivector.blade(3, 0b111))
        assert allclose(clifford(e1, e1), Multivector.scalar(3, 1.0))
        assert allclose(clifford(e1, e2), Multivector.blade(3, 0b011))
        # e12 e1 = -e2, frozen from the transposition-count oracle
        assert allclose(clifford(Multivector.blade(3, 0b011), e1), -e2)

    def test_commutator_examples(self):
        e1 = Multivector.basis_vector(3, 0)
        e2 = Multivector.basis_vector(3, 1)
        e3 = Multivector.basis_vector(3, 2)
        e12 = wedge(e1, e2)
        assert allclose(commutator(e12, e1), -e2)
        assert allclose(commutator(e12, e12), Multivector.zero(3))
        assert allclose(commutator(e12, e3), Multivector.zero(3))

    @pytest.mark.parametrize("dim", range(2, MAX_DIM + 1))
    def test_commutator_drops_excluded_grades_exactly(self, dim, rng):
        # a bivector's commutator keeps grades, so B x v is a vector with no
        # rounding residue on grade 3, and it is (Bv - vB)/2
        for _ in range(10):
            b = grade_project(Multivector(dim, rng.uniform(-1, 1, 1 << dim)), 2)
            v = grade_project(Multivector(dim, rng.uniform(-1, 1, 1 << dim)), 1)
            out = commutator(b, v)
            assert out.grades() <= {1}
            assert allclose(out, 0.5 * (clifford(b, v) - clifford(v, b)), atol=1e-14)

    def test_scalar_product_examples(self):
        e1 = Multivector.basis_vector(2, 0)
        e12 = Multivector.blade(2, 0b11)
        assert scalar_product(e1, e1) == pytest.approx(1.0)
        assert scalar_product(e12, e12) == pytest.approx(1.0)  # det[[1,0],[0,1]]
        assert scalar_product(e1, e12) == 0.0

    def test_contraction_examples(self):
        e1 = Multivector.basis_vector(3, 0)
        e3 = Multivector.basis_vector(3, 2)
        e12 = Multivector.blade(3, 0b011)
        assert allclose(contraction(e1, e12, "left"), Multivector.basis_vector(3, 1))
        assert allclose(contraction(e1, e1, "left"), Multivector.scalar(3, 1.0))
        assert allclose(contraction(e3, e12, "left"), Multivector.zero(3))

    def test_involution_examples(self):
        e1 = Multivector.basis_vector(2, 0)
        e12 = Multivector.blade(2, 0b11)
        assert allclose(involution(e1, "hat"), -e1)
        assert allclose(involution(e12, "tilde"), -e12)
        assert allclose(involution(e12, "bar"), -e12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            wedge(Multivector.zero(2), Multivector.zero(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            clifford(Multivector.zero(2), Multivector.zero(3))


class TestMultivectorArrays:
    def test_constructor_copies_the_callers_array(self):
        arr = np.array([1.0, 2.0, 3.0, 4.0])
        x = Multivector(2, arr)
        arr[:] = -7.0
        assert x.coeffs.tolist() == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("dim", range(2, MAX_DIM + 1))
    def test_results_own_fresh_float_arrays(self, dim, rng):
        # operations hand their own arrays over uncopied; none may alias an operand
        x = Multivector(dim, rng.normal(size=1 << dim))
        y = Multivector(dim, rng.normal(size=1 << dim))
        results = [x + y, x - y, -x, 2.0 * x, x * 0.5, clifford(x, y), wedge(x, y),
                   contraction(x, y, "left"), contraction(x, y, "right"),
                   grade_project(x, 1)] + [involution(x, k) for k in ("hat", "tilde", "bar")]
        for z in results:
            assert z.dim == dim
            assert z.coeffs.dtype == np.float64 and z.coeffs.shape == (1 << dim,)
            assert not (np.shares_memory(z.coeffs, x.coeffs) or np.shares_memory(z.coeffs, y.coeffs))


class TestBladeTable:
    @staticmethod
    def run_fresh(code):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr

    def test_import_builds_no_table(self):
        self.run_fresh("import gacalc.cli; from gacalc.algebra import blade_table, kept_pairs; "
                       "assert blade_table.cache_info().currsize == 0, blade_table.cache_info(); "
                       "assert kept_pairs.cache_info().currsize == 0, kept_pairs.cache_info()")

    def test_symbolic_products_build_no_pair_list(self):
        # the pair lists cost memory a run of symbolic fields has no use for
        self.run_fresh("from gacalc import fields; from gacalc.algebra import kept_pairs; "
                       "e = [fields.basis(6, i) for i in range(6)]; "
                       "fields.clifford(fields.wedge(e[0], e[1]), e[2]); "
                       "assert kept_pairs.cache_info().currsize == 0, kept_pairs.cache_info()")

    def test_shared_table_is_read_only(self):
        table = blade_table(3)
        assert blade_table(3) is table
        with pytest.raises(ValueError, match="read-only"):
            table.sign["clifford"][1, 1] = -1.0

    @pytest.mark.parametrize("dim", DIMS)
    def test_pair_lists_are_the_nonzero_signs_in_row_major_order(self, dim):
        table = blade_table(dim)
        for kind in (*PRODUCTS, "commutator"):
            a, b, target, sign = kept_pairs(dim, kind)
            assert kept_pairs(dim, kind)[0] is a
            rows, cols = np.nonzero(table.sign[kind])
            assert np.array_equal(a, rows) and np.array_equal(b, cols), kind
            assert np.array_equal(target, table.target[rows, cols]), kind
            assert np.array_equal(sign, table.sign[kind][rows, cols]), kind
            for column in (a, b, target, sign):
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = column[0]


class TestFreshCommands:
    def test_a_check_and_a_transform_never_import_numpy_random(self):
        # the seeded draws are the standard library's (`suites.KeyedStream`): numpy.random
        # would cost every command process its import.  On one CPU every row
        # runs in the process that is asked.
        fixtures = Path(__file__).resolve().parents[1] / "fixtures"
        for argv in (["check", "--config", str(fixtures / "sphere.json"), "--suite", "all"],
                     ["transform", "--config", str(fixtures / "polar.json"),
                      "--map", str(fixtures / "maps" / "polar_map.json")]):
            TestBladeTable.run_fresh(
                "import contextlib, io, sys\n"
                "from gacalc import cli, suites\n"
                "suites._usable_cpus = lambda: 1\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = cli.main({argv!r})\n"
                "assert code == 0, code\n"
                "assert 'numpy.random' not in sys.modules\n")


class TestKeptPairKernel:
    """The products gather only the pairs each keeps; the dense rule over
    every pair, written out here, is the reference they must match bit for bit."""

    KINDS = {"clifford": clifford, "wedge": wedge,
             "left": lambda x, y: contraction(x, y, "left"),
             "right": lambda x, y: contraction(x, y, "right"), "commutator": commutator}

    @pytest.mark.parametrize("dim", DIMS)
    def test_every_product_is_bit_identical_to_the_dense_rule(self, dim, rng):
        table = blade_table(dim)
        for _ in range(8):
            x, y = rand_mv(dim, rng), rand_mv(dim, rng)
            for kind, product in self.KINDS.items():
                weights = (table.sign[kind] * np.outer(x.coeffs, y.coeffs)).ravel()
                dense = np.bincount(table.target.ravel(), weights=weights, minlength=1 << dim)
                assert np.array_equal(product(x, y).coeffs, dense), kind

    def test_a_dropped_pair_never_meets_an_infinite_coefficient(self):
        x = Multivector.blade(2, 0b01, np.inf)
        with np.errstate(invalid="ignore"):
            got = wedge(x, Multivector.basis_vector(2, 0)).coeffs
        # e1^e1 is dropped, so blades 0 and e2 stay 0; the kept pair (e1, 1) still meets 0
        assert got[0] == 0.0 and got[2] == 0.0
        assert np.isnan(got[1]) and np.isnan(got[3])


class TestAlgebraProperties:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_associativity_and_distributivity(self, dim, rng):
        for _ in range(100):
            x, y, z = (rand_mv(dim, rng) for _ in range(3))
            assert allclose(wedge(wedge(x, y), z), wedge(x, wedge(y, z)), atol=1e-12)
            assert allclose(clifford(clifford(x, y), z), clifford(x, clifford(y, z)), atol=1e-12)
            assert allclose(clifford(x, y + z), clifford(x, y) + clifford(x, z), atol=1e-12)
            assert allclose(wedge(x, y + z), wedge(x, y) + wedge(x, z), atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_scalar_product_consistent_with_clifford_reversion(self, dim, rng):
        for _ in range(100):
            x, y = rand_mv(dim, rng), rand_mv(dim, rng)
            via_clifford = clifford(x, involution(y, "tilde")).coeffs[0]
            assert via_clifford == pytest.approx(scalar_product(x, y), abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    def test_scalar_product_of_blades_is_gram_determinant(self, rng, k):
        for _ in range(50):
            vs = [Multivector.from_vector(rng.uniform(-1, 1, size=4)) for _ in range(k)]
            ws = [Multivector.from_vector(rng.uniform(-1, 1, size=4)) for _ in range(k)]
            x = vs[0]
            for v in vs[1:]:
                x = wedge(x, v)
            y = ws[0]
            for w in ws[1:]:
                y = wedge(y, w)
            gram = np.array([[scalar_product(v, w) for w in ws] for v in vs])
            assert scalar_product(x, y) == pytest.approx(np.linalg.det(gram), abs=1e-12)

    def test_vector_contraction_expansion(self, rng):
        # a _| (b ^ c) = (a.b) c - (a.c) b
        for _ in range(50):
            a, b, c = (Multivector.from_vector(rng.uniform(-1, 1, size=3)) for _ in range(3))
            lhs = contraction(a, wedge(b, c), "left")
            rhs = scalar_product(a, b) * c - scalar_product(a, c) * b
            assert allclose(lhs, rhs, atol=1e-12)

    def test_grade_projections_sum_to_identity(self, rng):
        x = rand_mv(4, rng)
        total = Multivector.zero(4)
        for k in range(5):
            total = total + grade_project(x, k)
        assert allclose(total, x)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_contraction_clifford_identity(self, dim, rng):
        # a _| X = (aX - hat(X)a)/2 for a vector a
        for _ in range(50):
            a = Multivector.from_vector(rng.uniform(-1, 1, size=dim))
            x = rand_mv(dim, rng)
            lhs = contraction(a, x, "left")
            rhs = 0.5 * (clifford(a, x) - clifford(involution(x, "hat"), a))
            assert allclose(lhs, rhs, atol=1e-12)

    def test_biv_frame_independence(self, rng):
        for _ in range(50):
            t = LinearMap11(3, rng.uniform(-1, 1, size=(3, 3)))
            m1 = np.eye(3) + rng.uniform(-0.4, 0.4, size=(3, 3))
            m2 = np.eye(3) + rng.uniform(-0.4, 0.4, size=(3, 3))
            if abs(np.linalg.det(m1)) < 0.3 or abs(np.linalg.det(m2)) < 0.3:
                continue
            b1 = biv(t, Frame.from_matrix(m1))
            b2 = biv(t, Frame.from_matrix(m2))
            assert allclose(b1, b2, atol=1e-10)

    def test_biv_examples(self, rng):
        assert allclose(biv(LinearMap11.identity(2)), Multivector.zero(2))
        rot = LinearMap11(2, [[0.0, -1.0], [1.0, 0.0]])
        assert allclose(biv(rot), Multivector.blade(2, 0b11, -2.0))
        for _ in range(20):
            m = rng.uniform(-1, 1, size=(3, 3))
            sym = LinearMap11(3, m + m.T)
            assert allclose(biv(sym), Multivector.zero(3), atol=1e-12)

    def test_adjoint_involution_and_parts(self, rng):
        t = LinearMap11(3, rng.uniform(-1, 1, size=(3, 3)))
        assert_allclose(adjoint(adjoint(t)).matrix, t.matrix)
        # the adjoint fixes the symmetric part of t and negates the skew part
        sym, skew = (LinearMap11(3, 0.5 * (t.matrix + s * adjoint(t).matrix)) for s in (1, -1))
        assert_allclose(adjoint(sym).matrix, sym.matrix)
        assert_allclose(adjoint(skew).matrix, -skew.matrix)
        assert_allclose(adjoint(LinearMap11(2, [[0, 1], [0, 0]])).matrix, [[0, 0], [1, 0]])

    def test_outermorphism_adjoint_pairing(self, rng):
        for _ in range(50):
            t = LinearMap11(3, rng.uniform(-1, 1, size=(3, 3)))
            x, y = rand_mv(3, rng), rand_mv(3, rng)
            lhs = scalar_product(outermorphism(t, x), y)
            rhs = scalar_product(x, outermorphism(adjoint(t), y))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_outermorphism_examples(self):
        lam = LinearMap11(2, np.diag([2.0, 3.0]))
        e12 = Multivector.blade(2, 0b11)
        assert allclose(outermorphism(lam, e12), 6.0 * e12)
        assert allclose(outermorphism(lam, Multivector.scalar(2, 1.0)), Multivector.scalar(2, 1.0))
        rot = LinearMap11(2, [[0.0, -1.0], [1.0, 0.0]])
        assert allclose(outermorphism(rot, e12), e12)  # det = 1


class TestFrames:
    def test_orthonormal_frame_is_self_reciprocal(self):
        f = canonical_frame(3)
        assert_allclose(reciprocal_frame(f).matrix, np.eye(3))

    def test_reciprocal_example(self):
        f = Frame.from_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        r = reciprocal_frame(f)
        assert_allclose(r.matrix, np.array([[1.0, 0.0], [-1.0, 1.0]]), atol=1e-12)

    def test_reciprocity_holds_for_random_frames(self, rng):
        for _ in range(50):
            m = np.eye(3) + rng.uniform(-0.5, 0.5, size=(3, 3))
            if abs(np.linalg.det(m)) < 0.2:
                continue
            f = Frame.from_matrix(m)
            r = reciprocal_frame(f)
            assert_allclose(f.matrix.T @ r.matrix, np.eye(3), atol=1e-12)

    def test_dependent_frame_rejected(self):
        f = Frame.from_matrix(np.array([[1.0, 2.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="singular|dependent"):
            reciprocal_frame(f)

    def test_frame_requires_grade1(self):
        bad = Multivector.blade(2, 0b11)
        with pytest.raises(ValueError, match="grade-1"):
            Frame(2, (bad, Multivector.basis_vector(2, 1)))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,)])
    def test_from_matrix_refuses_a_matrix_that_is_not_square(self, shape):
        m = np.arange(float(np.prod(shape))).reshape(shape)
        with pytest.raises(ValueError, match=rf"square, got shape \({shape[0]},"):
            Frame.from_matrix(m)


class TestRefusals:
    @pytest.mark.parametrize("mask", [-1, 4])
    def test_blade_refuses_a_mask_out_of_range(self, mask):
        with pytest.raises(ValueError, match=f"blade mask {mask} out of range for dim 2"):
            Multivector.blade(2, mask)

    @pytest.mark.parametrize("i", [-1, 2])
    def test_basis_vector_refuses_an_index_out_of_range(self, i):
        with pytest.raises(ValueError, match=f"basis index {i} out of range for dim 2"):
            Multivector.basis_vector(2, i)

    @pytest.mark.parametrize("mask", [0b00, 0b11])
    def test_linear_map_applies_to_vectors_only(self, mask):
        t = LinearMap11.identity(2)
        with pytest.raises(ValueError, match="applies to vectors"):
            t.apply(Multivector.blade(2, mask))
        with pytest.raises(ValueError, match="applies to vectors"):
            t.apply(Multivector.basis_vector(2, 0) + Multivector.blade(2, mask))
        assert allclose(t.apply(Multivector.zero(2)), Multivector.zero(2))


class TestFormatting:
    def test_format_examples(self):
        x = Multivector.zero(2)
        assert format_multivector(x) == "0"
        x = Multivector.blade(2, 0b01, 0.75)
        assert format_multivector(x) == "0.75 e1"
        y = Multivector.blade(2, 0b11, -1.25) + Multivector.scalar(2, 2.0)
        assert format_multivector(y) == "2 - 1.25 e12"

    def test_a_nan_coefficient_prints(self):
        # NaN fails every comparison: it is kept unless abs(c) <= tol, and prints unsigned
        nan = float("nan")
        assert repr(Multivector(2, [nan, 0, 0, 0])) == "Multivector(2, nan)"
        assert format_multivector(Multivector(2, [0, -1, nan, -2]), tol=0.5) == "-1 e1 + nan e2 - 2 e12"
