"""The construction layer's contract: node classes, folding constructors, and
the fields and extensor maps that `fields` and `connection` build unchecked.

Each test compares against a reference kept here: a frozen copy of every
node class, the folding rules written out as isinstance chains, and the
public validating constructors of `MultivectorField` and `ExtensorField11`.
"""

import ast
import dataclasses
import importlib
import inspect
import itertools
import math
import pathlib
import weakref

import numpy as np
import pytest

from gacalc import expr as ex
from gacalc import fields as mf
from gacalc.algebra import INVOLUTIONS, BladeTable, Frame, LinearMap11, Multivector
from gacalc.bridge import CoordinateMap
from gacalc.connection import (
    ConnectionField,
    ExtensorField11,
    cov_derivative,
    ext_add,
    ext_adjoint,
    ext_scale,
    ext_skew,
    ext_sym,
    gamma_matrix,
    generalized_adjoint_apply,
    generalized_apply,
)
from gacalc.fixtures import (
    FixtureConfig,
    polar_fixture,
    sphere_fixture,
    torsionful_fixture,
    zero_fixture,
)
from gacalc.suites import rand_mvf, rand_scalar, rand_vector

SOURCE = pathlib.Path(ex.__file__).parent

# Field names of every node class, in order.
NODE_FIELDS = {
    ex.Var: ("index",),
    ex.Const: ("value",),
    ex.Add: ("left", "right"),
    ex.Sub: ("left", "right"),
    ex.Mul: ("left", "right"),
    ex.Div: ("left", "right"),
    ex.Neg: ("arg",),
    ex.Pow: ("base", "exponent"),
    ex.Call: ("name", "arg"),
}

# A frozen dataclass per node class, with the same name and fields.
REFERENCE = {kind: dataclasses.make_dataclass(kind.__name__, names, frozen=True)
             for kind, names in NODE_FIELDS.items()}


# The classes that were frozen dataclasses, and so immutable by convention
# now: each with a sample instance, whose fields are its slots or, for a
# class that keeps an instance dict for cached properties, what its
# constructor stored there.
FROZEN_SAMPLES = {
    BladeTable: lambda: BladeTable(2, None, None, None, None),
    Multivector: lambda: Multivector.zero(2),
    LinearMap11: lambda: LinearMap11.identity(2),
    Frame: lambda: Frame.from_matrix(np.eye(2)),
    ConnectionField: lambda: ConnectionField.zero(2),
    ExtensorField11: lambda: ExtensorField11.identity(2),
    mf.Box: lambda: mf.Box((0.0, 0.0), (1.0, 1.0)),
    mf.MultivectorField: lambda: mf.basis(2, 0),
    CoordinateMap: lambda: CoordinateMap.identity(2, mf.Box((0.0, 0.0), (1.0, 1.0))),
    FixtureConfig: lambda: zero_fixture(2),
}


def own_fields(obj) -> tuple:
    """The fields of one instance: its class's slots, else its instance dict's keys."""
    names = type(obj).__slots__ if "__slots__" in vars(type(obj)) else tuple(vars(obj))
    return tuple(name for name in names if name != "__weakref__")


def attribute_stores(path):
    """Every store to an attribute in the module at ``path``, as (the enclosing
    defs, outermost first; the expression stored to; the attribute name): an
    assignment or ``del``, a ``setattr`` with a constant name, or a keyword of
    a ``__dict__.update`` call."""
    found = []

    def visit(node, scopes):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scopes = scopes + (node,)
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            found.append((scopes, node.value, node.attr))
        elif isinstance(node, ast.Call):
            func = ast.unparse(node.func)
            if (func in ("setattr", "object.__setattr__") and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)):
                found.append((scopes, node.args[0], node.args[1].value))
            elif func.endswith(".__dict__.update"):
                found.extend((scopes, node.func.value.value, k.arg) for k in node.keywords)
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(ast.parse(path.read_text()), ())
    return found


def constructs_own_field(path, scopes, target, attr) -> bool:
    """True for a store, in a class's own ``__init__``, to a field of the
    instance being built: ``self.<attr>`` where the class declares ``attr``
    in its slots, or has an instance dict, whose fields its constructor sets."""
    if not (len(scopes) > 1 and isinstance(scopes[-2], ast.ClassDef)
            and scopes[-1].name == "__init__" and ast.unparse(target) == "self"):
        return False
    cls = getattr(importlib.import_module(f"gacalc.{path.stem}"), scopes[-2].name)
    return attr in cls.__slots__ if "__slots__" in vars(cls) else True


def node_samples():
    x0, x1 = ex.Var(0), ex.Var(1)
    return [
        x0, x1, ex.Var(0),
        ex.Const(0.0), ex.Const(-0.0), ex.Const(2.0), ex.Const(float("nan")),
        ex.Add(x0, x1), ex.Add(x1, x0), ex.Sub(x0, x1), ex.Mul(x0, x1), ex.Div(x0, x1),
        ex.Neg(x0), ex.Neg(x1), ex.Pow(x0, 2), ex.Pow(x0, -2), ex.Pow(x1, 2),
        ex.Call("sin", x0), ex.Call("cos", x0), ex.Call("sin", ex.Add(x0, x1)),
    ]


def reference(node):
    """The frozen copy of ``node``: same class name, same field values."""
    kind = type(node)
    return REFERENCE[kind](*(getattr(node, name) for name in NODE_FIELDS[kind]))


class TestNodeClasses:
    @pytest.mark.parametrize("kind", list(NODE_FIELDS), ids=lambda k: k.__name__)
    def test_fields_are_the_frozen_ones(self, kind):
        assert kind.__slots__ == NODE_FIELDS[kind]
        assert tuple(inspect.signature(kind).parameters) == NODE_FIELDS[kind]
        assert issubclass(kind, ex.Expr)

    def test_eq_hash_and_repr_match_the_frozen_copy(self):
        """As the frozen copy, but for the constants 0.0 and -0.0, which are two
        expressions; equal nodes hash equal."""
        samples = node_samples()
        for node in samples:
            assert repr(node) == repr(reference(node))
        for a, b in itertools.product(samples, repeat=2):
            signed_zeros = (type(a) is type(b) is ex.Const and a.value == b.value == 0.0
                            and math.copysign(1.0, a.value) != math.copysign(1.0, b.value))
            want = reference(a) == reference(b) and not signed_zeros
            assert (a == b) == want and (a != b) == (not want), (a, b)
            if want:
                assert hash(a) == hash(b), (a, b)

    def test_eq_hash_and_repr_take_any_depth(self):
        # a 5000-term sum nests 4999 Add nodes, far past the recursion limit
        n = 5000
        a, b = (ex.parse("+".join(["x0"] * n), 1) for _ in range(2))
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert repr(a) == ("Add(left=" * (n - 1) + "Var(index=0)"
                           + ", right=Var(index=0))" * (n - 1))
        other = ex.parse("+".join(["x1"] + ["x0"] * (n - 1)), 2)  # differs at the bottom
        assert a != other and not a == other

    def test_eq_and_hash_visit_a_shared_child_once(self, monkeypatch):
        def dag(depth):  # 2^depth leaves as a tree, depth + 1 nodes as a DAG
            e = ex.Var(0)
            for _ in range(depth):
                e = ex.mul(e, e)
            return e

        fields, calls = ex.Record._fields, []

        def counted(node):  # a walk over the tree, not the DAG, stops here at once
            calls.append(node)
            assert len(calls) <= 20 * 201, "a shared child visited again"
            return fields(node)

        a, b = dag(200), dag(200)
        monkeypatch.setattr(ex.Record, "_fields", counted)
        assert a == b and a != ex.mul(b, ex.Var(0))
        assert hash(a) == hash(b)

    def test_eq_is_one_slot_of_one_tape_and_equal_trees_hash_equal(self):
        def trees(seed):
            rng = np.random.default_rng(seed)
            f, g = rand_scalar(3, rng, degree=2), rand_scalar(3, rng, degree=2)
            h = ex.call("sin", ex.mul(f, ex.div(g, ex.add(ex.ONE, ex.powi(f, 2)))))
            return [f, g, h, ex.diff(h, 0), ex.diff(ex.diff(h, 1), 2), ex.parse(ex.to_str(h), 3)]

        first, again, other = trees(1), trees(1), trees(2)
        for a, b, c in zip(first, again, other):  # rebuilt from one seed, and from another
            assert a is not b and a == b and hash(a) == hash(b) and a != c
        for a, b in itertools.product(first + again + other, repeat=2):
            roots = ex.Tape((a, b)).roots
            assert (a == b) == (roots[0] == roots[1]) == (not a != b)
            if a == b:
                assert hash(a) == hash(b)

    def test_signed_zero_constants_are_two_expressions(self):
        x0 = ex.Var(0)
        a, b = ex.Mul(x0, ex.Const(0.0)), ex.Mul(x0, ex.Const(-0.0))
        # at x0 = -1 they are -0.0 and +0.0: one cannot stand for the other on a tape
        assert [math.copysign(1.0, v) for v in ex.Tape((a, b)).at([-1.0])] == [-1.0, 1.0]
        assert a != b and not a == b

    def test_every_node_takes_a_weak_reference(self):
        for node in node_samples():
            assert weakref.ref(node)() is node

    def test_no_module_assigns_to_a_node_field(self):
        """Nodes are immutable by convention: a node class's own ``__init__``
        stores its fields, and only the derivative walk `_derive` stores on a
        node after, in `_diff`.
        Another class's constructor may store a field of the same name on its
        own instance, which is never a node."""
        node_fields = {name for names in NODE_FIELDS.values() for name in names}
        stores, diff_stores = [], set()
        for path in sorted(SOURCE.rglob("*.py")):
            for scopes, target, attr in attribute_stores(path):
                if attr == "_diff":
                    diff_stores.add((path.name, scopes[-1].name if scopes else None))
                elif attr in node_fields and not constructs_own_field(path, scopes, target, attr):
                    stores.append((path.name, [s.name for s in scopes], attr))
        assert not stores
        assert diff_stores == {("expr.py", "_derive")}

    def test_no_module_assigns_to_a_field_of_a_formerly_frozen_class(self):
        """Only a class's own constructor stores its fields, and the `_owning`
        builders theirs, on the object each has just made (not validated)."""
        guarded = {name for sample in FROZEN_SAMPLES.values() for name in own_fields(sample())}
        stores = []
        for path in sorted(SOURCE.rglob("*.py")):
            for scopes, target, attr in attribute_stores(path):
                if (attr in guarded and not constructs_own_field(path, scopes, target, attr)
                        and not (scopes and scopes[-1].name.startswith("_owning"))):
                    stores.append((path.name, [s.name for s in scopes], attr))
        assert not stores


# The folding rules as isinstance chains, in the order the constructors apply them.

def _is_const(e, v):
    return isinstance(e, ex.Const) and e.value == v


def _is_zero(e):
    return isinstance(e, ex.Const) and e.value == 0.0


def ref_add(a, b):
    if isinstance(a, ex.Const) and isinstance(b, ex.Const):
        return ex.Const(a.value + b.value)
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return ex.Add(a, b)


def ref_sub(a, b):
    if isinstance(a, ex.Const) and isinstance(b, ex.Const):
        return ex.Const(a.value - b.value)
    if _is_zero(b):
        return a
    if _is_zero(a):
        return ref_neg(b)
    return ex.Sub(a, b)


def ref_mul(a, b):
    if isinstance(a, ex.Const) and isinstance(b, ex.Const):
        return ex.Const(a.value * b.value)
    if _is_zero(a) or _is_zero(b):
        return ex.ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return ref_neg(b)
    if _is_const(b, -1.0):
        return ref_neg(a)
    return ex.Mul(a, b)


def ref_div(a, b):
    if isinstance(b, ex.Const) and b.value != 0.0 and isinstance(a, ex.Const):
        return ex.Const(a.value / b.value)
    if _is_const(b, 1.0):
        return a
    if _is_const(b, -1.0):
        return ref_neg(a)
    if _is_zero(a):
        return ex.ZERO
    return ex.Div(a, b)


def ref_neg(a):
    if isinstance(a, ex.Const):
        return ex.Const(-a.value)
    if isinstance(a, ex.Neg):
        return a.arg
    return ex.Neg(a)


def operands():
    x = ex.Var(0)
    return [ex.Const(0.0), ex.Const(-0.0), ex.Const(1.0), ex.Const(-1.0), ex.Const(2.0),
            x, ex.Neg(x), ex.Add(ex.Mul(ex.Const(3.0), x), ex.Call("sin", ex.Var(1)))]


def same_result(got, want, operands_):
    # repr tells -0.0 from 0.0 and compares whole trees; an operand passed
    # through must be that very object
    assert type(got) is type(want)
    assert got == want and repr(got) == repr(want)
    for op in operands_:
        if want is op:
            assert got is op
    if isinstance(want, ex.Neg) and any(want.arg is op for op in operands_):
        assert any(got.arg is op for op in operands_)


class TestFoldingConstructors:
    @pytest.mark.parametrize("name", ["add", "sub", "mul", "div"])
    def test_binary_rules_match_the_reference(self, name):
        build, ref = getattr(ex, name), globals()[f"ref_{name}"]
        for a, b in itertools.product(operands(), repeat=2):
            same_result(build(a, b), ref(a, b), (a, b))

    def test_neg_rules_match_the_reference(self):
        for a in operands():
            same_result(ex.neg(a), ref_neg(a), (a, a.arg if isinstance(a, ex.Neg) else a))

    def test_is_zero_matches_the_reference(self):
        for a in operands() + [ex.Const(float("nan")), 0.0, 0]:
            assert ex.is_zero(a) == _is_zero(a)


# Fields built by `fields` and `connection` without re-validation.

def dense3(rng):
    entries = {(g, a, b): rand_scalar(3, rng, degree=2)
               for g in range(3) for a in range(3) for b in range(3)}
    return ConnectionField.from_entries(3, entries)


CONNECTIONS = {
    "polar": lambda rng: polar_fixture().conn,
    "sphere": lambda rng: sphere_fixture().conn,
    "torsionful": lambda rng: torsionful_fixture().conn,
    "zero6": lambda rng: zero_fixture(6).conn,
    "dense3": dense3,
}


def assert_validated(r):
    """``r`` equals the field the public constructor makes of it."""
    assert type(r) is mf.MultivectorField
    v = mf.MultivectorField(r.dim, dict(r.coeffs))
    assert list(r.coeffs.items()) == list(v.coeffs.items())
    assert all(a is b for a, b in zip(r.coeffs.values(), v.coeffs.values()))
    assert r.dim == v.dim


def assert_validated11(t):
    assert type(t) is ExtensorField11
    v = ExtensorField11(t.dim, t.entries)
    assert t.entries == v.entries and t.nonzero == v.nonzero
    assert [[repr(c) for c in row] for row in t.entries] == [[repr(c) for c in row]
                                                            for row in v.entries]


def field_cases(conn, rng):
    """Argument fields of the connection's dimension: polynomial, constant and
    covariant-derivative coefficients."""
    n = conn.dim
    grades = {0, 1, 2} if n > 3 else None
    a, b = rand_vector(n, rng), rand_vector(n, rng, degree=2)
    x = rand_mvf(n, rng, grades=grades)
    k = mf.constant(Multivector(n, np.where(rng.uniform(size=1 << n) < 0.5, 0.0,
                                            rng.uniform(-1, 1, size=1 << n))))
    cov = cov_derivative(conn, "+", a, mf.vector(n, b.vector_components()))
    return a, b, x, k, cov


@pytest.mark.parametrize("name", list(CONNECTIONS))
class TestFieldResults:
    def test_every_fields_operation_equals_its_validated_copy(self, name):
        rng = np.random.default_rng(8080)
        conn = CONNECTIONS[name](rng)
        a, b, x, k, cov = field_cases(conn, rng)
        n = conn.dim
        for p, q in itertools.product((a, b, x, k, cov), repeat=2):
            for op in (mf.add, mf.sub, mf.wedge, mf.clifford, mf.commutator):
                assert_validated(op(p, q))
            assert_validated(mf.contract(p, q, "left"))
            assert_validated(mf.contract(p, q, "right"))
        for p in (a, b, x, k, cov):
            for f in (ex.Var(0), 0.0, -0.0, 1.0, -1.0, 2.0):
                assert_validated(mf.scale(f, p))
            for kind in INVOLUTIONS:
                assert_validated(mf.involute(p, kind))
            for g in range(n + 1):
                assert_validated(mf.grade_project(p, g))
            assert_validated(mf.curl(p))
            for d in (a, b, cov):
                assert_validated(mf.directional_derivative(d, p))
        assert mf.sub(k, k).coeffs == {}
        assert mf.scale(0.0, x).coeffs == {} and mf.scale(-0.0, x).coeffs == {}
        assert_validated(mf.lie_bracket(a, b))
        for sign in ("+", "-", "0"):
            assert_validated(cov_derivative(conn, sign, b, x))

    def test_extensor_maps_equal_their_validated_copies(self, name):
        rng = np.random.default_rng(8081)
        conn = CONNECTIONS[name](rng)
        a, b, _, _, cov = field_cases(conn, rng)
        for d in (a, b, cov):
            t = gamma_matrix(conn, d)
            assert_validated11(t)
            for u in (ext_adjoint(t), ext_add(t, ext_adjoint(t)), ext_scale(0.5, t),
                      ext_scale(0.0, t), ext_sym(t), ext_skew(t)):
                assert_validated11(u)


class TestFieldsCarryNoDomain:
    def test_no_field_type_or_result_has_a_domain(self):
        # sampling reads the fixture's or the coordinate map's box, never a field's
        for cls in (mf.MultivectorField, ExtensorField11, ConnectionField):
            assert "domain" not in inspect.signature(cls).parameters
            assert "domain" not in own_fields(FROZEN_SAMPLES[cls]())
        conn = polar_fixture().conn
        a = rand_vector(2, np.random.default_rng(5))
        for r in (conn, mf.add(a, a), gamma_matrix(conn, a), cov_derivative(conn, "+", a, a)):
            assert not hasattr(r, "domain")


class TestExtensorMapInputs:
    def test_ext_add_of_maps_of_different_dims_raises(self):
        t = ExtensorField11.identity(3)
        u = ExtensorField11.identity(2)
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            ext_add(t, u)
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            ext_add(u, t)


class TestFlatConnectionMaps:
    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_gamma_matrix_of_a_flat_connection_runs_no_validation(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        conn = zero_fixture(dim).conn
        a = rand_vector(dim, rng)
        x = rand_mvf(dim, rng, grades={1, 2})
        want = ExtensorField11(dim, ((ex.ZERO,) * dim,) * dim)
        want_plus = generalized_apply(conn, a, x)
        want_minus = generalized_adjoint_apply(conn, a, x)

        def refuse(self, *args):
            raise AssertionError("ExtensorField11.__init__ ran")

        monkeypatch.setattr(ExtensorField11, "__init__", refuse)
        t = gamma_matrix(conn, a)
        assert t.nonzero == () and t.entries == want.entries
        assert all(c is ex.ZERO for row in t.entries for c in row)
        assert ext_adjoint(t).nonzero == ()
        for got, expected in ((generalized_apply(conn, a, x), want_plus),
                              (generalized_adjoint_apply(conn, a, x), want_minus)):
            assert got.coeffs == expected.coeffs
        cov_derivative(conn, "+", a, x)
        cov_derivative(conn, "-", a, x)


def test_every_exported_name_resolves():
    import gacalc

    assert [name for name in gacalc.__all__ if not hasattr(gacalc, name)] == []
