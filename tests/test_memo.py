"""The connection operators are memo functions (`fields.memo`): the same
argument objects give the very same result object, an equal but distinct
argument is computed again, and no entry outlives an object it is keyed on."""

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from gacalc import expr as ex
from gacalc import fields as mf
from gacalc.cartan import curvature, torsion
from gacalc.connection import (
    SIGNS,
    ConnectionField,
    cov_derivative,
    ext_adjoint,
    extensor_cov_derivative,
    gamma_apply,
    gamma_matrix,
    gauge_bivector,
)
from gacalc.fields import const_frames
from gacalc.fixtures import load_fixture_file
from gacalc.suites import rand_ext11, rand_frame, rand_vector

SPHERE3 = Path(__file__).resolve().parents[1] / "fixtures" / "sphere3_metric.json"

POINT = (0.3, -0.7, 1.1)


def connection() -> ConnectionField:
    """A fresh curved dim-3 connection that only the caller holds."""
    return ConnectionField.from_entries(3, {
        (0, 1, 2): ex.parse("x0*x1", 3),
        (2, 0, 0): ex.parse("sin(x2)", 3),
        (1, 2, 1): ex.parse("x1 + 1", 3),
    })


def vectors(count: int) -> list[mf.MultivectorField]:
    rng = np.random.default_rng(7)
    return [rand_vector(3, rng, 2) for _ in range(count)]


def twin(x: mf.MultivectorField) -> mf.MultivectorField:
    """An equal field that is another object."""
    return mf.MultivectorField(x.dim, dict(x.coeffs))


def value(result) -> np.ndarray:
    """The result at POINT: a field's coefficients or an extensor's matrix."""
    at = result.at(POINT)
    return at.coeffs if isinstance(result, mf.MultivectorField) else at.matrix


# name -> the operator on (connection, a, b, c)
OPERATORS = {
    "gamma_matrix": lambda conn, a, b, c: gamma_matrix(conn, a),
    "gamma_apply": lambda conn, a, b, c: gamma_apply(conn, a, b),
    "gauge_bivector": lambda conn, a, b, c: gauge_bivector(conn, a),
    "cov_derivative": lambda conn, a, b, c: cov_derivative(conn, "+", a, b),
    "torsion": lambda conn, a, b, c: torsion(conn, a, b),
    "curvature": lambda conn, a, b, c: curvature(conn, a, b, c),
    "lie_bracket": lambda conn, a, b, c: mf.lie_bracket(a, b),
    "extensor_apply": lambda conn, a, b, c: gamma_matrix(conn, a)(b),
}


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_the_same_arguments_give_the_same_result_object(name):
    conn, (a, b, c) = connection(), vectors(3)
    op = OPERATORS[name]
    assert op(conn, a, b, c) is op(conn, a, b, c)


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_an_equal_but_distinct_field_is_computed_again(name):
    conn, (a, b, c) = connection(), vectors(3)
    op = OPERATORS[name]
    first = op(conn, a, b, c)
    again = op(conn, twin(a), b, c)
    assert again is not first
    assert np.array_equal(value(again), value(first))


def test_each_sign_is_its_own_entry():
    conn, (a, x) = connection(), vectors(2)
    results = [cov_derivative(conn, sign, a, x) for sign in ("+", "-", "0")]
    assert len({id(r) for r in results}) == 3
    assert [cov_derivative(conn, sign, a, x) for sign in ("+", "-", "0")] == results


def test_gauge_bivector_is_keyed_on_its_arguments_as_passed():
    conn, (a,) = connection(), vectors(1)
    frame = rand_frame(3, np.random.default_rng(8))
    plain, framed, none = gauge_bivector(conn, a), gauge_bivector(conn, a, frame), \
        gauge_bivector(conn, a, None)
    assert len({id(plain), id(framed), id(none)}) == 3
    assert gauge_bivector(conn, a) is plain
    assert gauge_bivector(conn, a, frame) is framed
    assert gauge_bivector(conn, a, None) is none
    by_keyword = gauge_bivector(conn, a, frame=frame)  # a keyword call is not memoized
    assert by_keyword is not framed
    for other in (framed, none, by_keyword):
        assert np.allclose(value(other), value(plain), rtol=1e-12, atol=1e-12)


def test_an_entry_dies_with_any_object_it_is_keyed_on():
    conn, (a, x) = connection(), vectors(2)
    result = weakref.ref(cov_derivative(conn, "+", a, x))
    inner = weakref.ref(gamma_matrix(conn, a))  # keyed on conn and a, not on x
    del x
    gc.collect()
    assert result() is None
    assert inner() is not None
    del a
    gc.collect()
    assert inner() is None


def test_an_entry_on_a_canonical_frame_field_goes_with_its_connection():
    conn = connection()
    down, up = const_frames(3, None)  # kept for the life of the process
    results = [gamma_matrix(conn, down[0]), gamma_apply(conn, down[1], up[2]),
               gauge_bivector(conn, down[2]), cov_derivative(conn, "-", down[0], up[1]),
               torsion(conn, down[0], down[1]), curvature(conn, down[0], down[1], down[2])]
    refs = [weakref.ref(r) for r in results]
    owner = weakref.ref(conn)
    del conn, results
    gc.collect()
    assert owner() is None
    assert [r() for r in refs] == [None] * len(refs)


@pytest.mark.parametrize("make", [lambda rng: rand_frame(3, rng), lambda rng: rand_ext11(3, rng),
                                  lambda rng: connection(), lambda rng: vectors(1)[0]],
                         ids=["Frame", "ExtensorField11", "ConnectionField", "MultivectorField"])
def test_every_memo_argument_type_takes_a_weak_reference(make):
    # a class without a weak-reference slot would be a memo key by value, kept alive
    obj = make(np.random.default_rng(4))
    assert type(obj).__weakrefoffset__
    assert weakref.ref(obj)() is obj


def test_a_const_frames_entry_dies_with_its_frame():
    frame = rand_frame(3, np.random.default_rng(9))
    down, up = const_frames(3, frame)
    assert const_frames(3, frame)[0] is down
    refs = [weakref.ref(f) for f in down + up]
    del frame, down, up
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_reference_counting_alone_frees_an_entry():
    enabled = gc.isenabled()
    gc.disable()
    try:
        conn, (a, b, c) = connection(), vectors(3)
        rho = weakref.ref(curvature(conn, a, b, c))
        owner = weakref.ref(conn)
        del conn
        assert (owner(), rho()) == (None, None)
        bracket = weakref.ref(mf.lie_bracket(a, b))
        del b
        assert bracket() is None
    finally:
        if enabled:
            gc.enable()


def test_extensor_columns_share_the_derivatives_of_every_sign_pair(monkeypatch):
    # one draw of the extensor-adjoint-commutation row: nine sign pairs, both
    # sides, every column on the canonical frame's own fields, so the memo of
    # cov_derivative serves the columns again (108 derivatives on fresh e_j);
    # t(e_j) and adj(t)(e_j) are one object per column too, so their
    # derivatives serve every pair: 9 on the e_j, 9 on t's and 9 on adj(t)'s
    conn = load_fixture_file(SPHERE3).conn
    rng = np.random.default_rng(5)
    a, t = rand_vector(3, rng), rand_ext11(3, rng)
    adjoint = ext_adjoint(t)
    calls = []
    derivative = mf.directional_derivative

    def counted(*args):
        calls.append(args)
        return derivative(*args)

    monkeypatch.setattr(mf, "directional_derivative", counted)
    for s1 in SIGNS:
        for s in SIGNS:
            ext_adjoint(extensor_cov_derivative(conn, (s1, s), t, a))
            extensor_cov_derivative(conn, (s, s1), adjoint, a)
    assert len(calls) == 27
