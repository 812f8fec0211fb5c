"""Scalar-field expression DSL: parser, evaluator and exact differentiation.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | 'x' integer | func '(' expr ')' | '(' expr ')' | '-' base
    func   := sin | cos | tan | exp | ln | sqrt | atan

Coordinates are x0, x1, ...  ASTs are immutable by convention (nothing
assigns to a node's fields once built; slots hold them and the partials
`diff` stores, `_diff`) and closed under `diff` and `tangent`, so repeated
differentiation (needed for curvature and its derivatives) stays exact.
Both are one walk, `_derive`, seeded for a partial or for a direction
(forward mode).  Each binary node type and each function has one row of
rules (`_BINARY`, `_FUNCTIONS`).
`simplify` folds constants and 0/1/-1 identities and writes a + -b as a - b
(a - -b as a + b); a constant call or power folds to the value a `Tape`
computes for it, when that value is finite.  `simplify` and `substitute`
rebuild a `Tape`'s slots in order, so equal subtrees are rebuilt once, as one
object; `to_str` prints from an explicit stack.  `Tape` is the one DAG order
and the one evaluator: it evaluates many trees at many points at once and
raises `DomainError` naming the subexpression that failed; `evaluate` is
`Tape.at`, bit for bit as the same point in an array call, and `compile_fn`
wraps a tape for one tree.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, NamedTuple

import numpy as np


class Record:
    """A class whose ``__slots__`` are its fields, with a frozen dataclass's ``==``,
    ``hash`` and ``repr``: those of the tuple of its fields, compared within one class.
    ``repr`` is a loop over an explicit stack, so an expression of any depth prints;
    `Expr` compares and hashes through a `Tape` instead."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        out, stack = [], [self]  # the pieces still to print, strings and records, next on top
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            pieces = [f"{type(item).__qualname__}("]
            for k, (name, value) in enumerate(zip(item.__slots__, item._fields())):
                pieces += [", " * (k > 0) + f"{name}=",
                           value if isinstance(value, Record) else repr(value)]
            stack += reversed(pieces + [")"])
        return "".join(out)


class Expr(Record):
    """Base of all expression nodes; never assign to a field (`==`, hash and `_diff` rely on it).

    Two expressions are equal when they lower to one slot of one `Tape`: then
    either can stand for the other on any tape without changing a bit (so
    ``Const(0.0) != Const(-0.0)``).  Lowering is memoized on identity, so
    ``==`` and hash take any depth in time linear in a DAG's distinct nodes."""

    __slots__ = ("_diff", "__weakref__")

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        roots = Tape((self, other)).roots
        return roots[0] == roots[1]

    def __hash__(self):
        """The hash of its own tape: per slot, the node's kind, its own fields that
        are not nodes, and an operation's operand slots.  Equal expressions lower
        to equal slots in one order, so they hash equal."""
        tape = Tape((self,))
        return hash(tuple(
            (type(node).__name__, *(f for f in node._fields() if not isinstance(f, Expr)),
             *((a, b) if fn is not None else ()))
            for node, (fn, a, b, _) in zip(tape.nodes, tape.program)))


class Var(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value


class Add(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left, self.right = left, right


class Sub(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left, self.right = left, right


class Mul(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left, self.right = left, right


class Div(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left, self.right = left, right


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        self.base, self.exponent = base, exponent


class Call(Expr):
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        self.name, self.arg = name, arg


ZERO = Const(0.0)
ONE = Const(1.0)


class ParseError(ValueError):
    """Syntax or-range error, with the 0-based source offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at offset {position}: {message}")
        self.position = position


class DomainError(ValueError):
    """Evaluation hit a singular subexpression (1/0, ln<=0, sqrt<0, overflow)."""

    def __init__(self, message: str, subexpr: Expr):
        super().__init__(f"{message} in '{to_str(subexpr)}'")
        self.subexpr = subexpr


def const(value: float) -> Const:
    return Const(float(value))


def as_expr(c) -> Expr:
    """``c`` itself if it is an expression, else the constant ``c``."""
    return c if isinstance(c, Expr) else const(c)


def is_zero(e: Expr) -> bool:
    """True for a constant 0 (either sign): a factor that `mul` folds to ZERO
    and a term that `add` drops."""
    return type(e) is Const and e.value == 0.0


# Smart constructors: fold constants, then 0, 1 and -1 operands (left first),
# so that trees built by differentiation and field arithmetic stay bounded.
# `add` alone spells a difference: a `Neg` or negative constant on the right makes a `Sub`.

def add(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.value + b.value)
        if a.value == 0.0:
            return b
    elif type(b) is Const and b.value <= 0.0:
        return a if b.value == 0.0 else Sub(a, Const(-b.value))
    return Sub(a, b.arg) if type(b) is Neg else Add(a, b)


def total(terms) -> Expr:
    """gacalc's one list sum: ``terms`` folded left from +0 through `add`, ((0 + t1) + t2) + ...,
    so constants fold and zero terms drop as they come, and the terms' order fixes the tree."""
    out = ZERO
    for term in terms:
        out = add(out, term)
    return out


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def mul(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.value * b.value)
        v, other = a.value, b
    elif type(b) is Const:
        v, other = b.value, a
    else:
        return Mul(a, b)
    if v == 0.0:
        return ZERO
    if v == 1.0:
        return other
    return neg(other) if v == -1.0 else Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if type(b) is Const:
        if type(a) is Const and b.value != 0.0:
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
        if b.value == -1.0:
            return neg(a)
    if type(a) is Const and a.value == 0.0:
        return ZERO
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if type(a) is Const:
        return Const(-a.value)
    if type(a) is Neg:
        return a.arg
    return Neg(a)


def powi(base: Expr, exponent: int) -> Expr:
    exponent = int(exponent)
    try:
        float(exponent)  # diff and evaluation take it as a float
    except OverflowError:
        raise ValueError("integer exponent past the float range") from None
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const) and (folded := _fold(_power(exponent), base.value)):
        return folded
    return Pow(base, exponent)


def call(name: str, arg: Expr) -> Expr:
    row = _FUNCTIONS.get(name)
    if row is None:
        raise ValueError(f"unknown function {name!r}")
    if isinstance(arg, Const) and (folded := _fold(row.ufunc, arg.value)):
        return folded
    return Call(name, arg)


def _fold(fn, value: float) -> Const | None:
    """fn of a constant, computed as a `Tape` computes it, if the result is finite;
    a fault or overflow stays unfolded, for evaluation to name."""
    with np.errstate(all="ignore"):
        result = float(fn(np.float64(value)))
    return Const(result) if math.isfinite(result) else None


# The rules: one row per binary node type and one per function name.  A domain
# fault is (message, test of the values of the node's last operand: a divisor, a
# base or an argument).  A derivative rule builds a fresh call, never its node:
# `diff` stores the derivative on the node, and a cycle needs the collector.

_ATOM, _UNARY, _MULDIV, _ADDSUB = 4, 3, 2, 1  # printing precedence


class _Binary(NamedTuple):
    build: Callable  # the folding constructor
    op: Callable  # the tape's callable, an operator.* that numpy runs as a ufunc or on np.float64
    infix: str
    prec: int
    diff: Callable  # (node, left's derivative, right's derivative) -> the node's derivative
    fault: tuple | None = None


class _Function(NamedTuple):
    ufunc: Callable  # a Tape runs it, and folding a constant call runs it too
    diff: Callable  # (node, its operand's derivative) -> the node's derivative
    fault: tuple | None = None


_BINARY = {
    Add: _Binary(add, operator.add, " + ", _ADDSUB, lambda e, dl, dr: add(dl, dr)),
    Sub: _Binary(sub, operator.sub, " - ", _ADDSUB, lambda e, dl, dr: sub(dl, dr)),
    Mul: _Binary(mul, operator.mul, "*", _MULDIV,
                 lambda e, dl, dr: add(mul(dl, e.right), mul(e.left, dr))),
    Div: _Binary(div, operator.truediv, "/", _MULDIV,
                 lambda e, dl, dr: div(sub(mul(dl, e.right), mul(e.left, dr)), powi(e.right, 2)),
                 ("division by zero", lambda v: v == 0.0)),
}

_FUNCTIONS = {
    "sin": _Function(np.sin, lambda e, du: mul(call("cos", e.arg), du)),
    "cos": _Function(np.cos, lambda e, du: neg(mul(call("sin", e.arg), du))),
    "tan": _Function(np.tan, lambda e, du: mul(add(ONE, powi(call("tan", e.arg), 2)), du)),
    "exp": _Function(np.exp, lambda e, du: mul(call("exp", e.arg), du)),
    "ln": _Function(np.log, lambda e, du: div(du, e.arg),
                    ("logarithm of a non-positive value", lambda v: v <= 0.0)),
    "sqrt": _Function(np.sqrt, lambda e, du: div(du, mul(const(2.0), call("sqrt", e.arg))),
                      ("square root of a negative value", lambda v: v < 0.0)),
    "atan": _Function(np.arctan, lambda e, du: div(du, add(ONE, powi(e.arg, 2)))),
}

_NEGATIVE_POWER = ("zero raised to a negative power", lambda v: v == 0.0)

# a tape instruction's callable -> its domain fault; `_power` adds a negative exponent's
_FAULTS = {**{row.op: row.fault for row in _BINARY.values() if row.fault},
           **{row.ufunc: row.fault for row in _FUNCTIONS.values() if row.fault}}


def simplify(e: Expr) -> Expr:
    """Rebuild bottom-up through the folding constructors, which write a + -b as a - b."""
    return _rebuild((e,), lambda v: v)[0]


def substitute(exprs, replacements) -> list[Expr]:
    """Each of ``exprs`` with Var(i) as replacements[i] (composition), on one tape."""
    return _rebuild(exprs, lambda v: replacements[v.index])


def _rebuild(roots, var) -> list[Expr]:
    """``roots`` through the folding constructors, each Var v as var(v): one pass over
    the slots of ``Tape(roots)``, so equal subtrees are rebuilt once, as one object."""
    tape = Tape(roots)
    done: list[Expr] = []  # per slot: its node rebuilt
    for node, (_, a, b, _) in zip(tape.nodes, tape.program):
        kind = type(node)
        if kind in _BINARY:
            done.append(_BINARY[kind].build(done[a], done[b]))
        elif kind is Var:
            done.append(var(node))
        elif kind is Const:
            done.append(node)
        elif kind is Call:
            done.append(call(node.name, done[a]))
        else:
            done.append(powi(done[a], node.exponent) if kind is Pow else neg(done[a]))
    return [done[slot] for slot in tape.roots]


def diff(e: Expr, i: int) -> Expr:
    """Exact partial derivative with respect to coordinate x_i: `_derive` with
    the seed D(x_i) = 1.  Each node keeps its partials in its own ``_diff``
    dict, outside the fields ``==``, ``hash`` and ``repr`` read, so it is
    differentiated by x_i once in its lifetime, whichever call asks."""
    return _derive(e, {i: ONE}, i, None)


def tangent(e: Expr, seeds: dict[int, Expr], memo: dict) -> Expr:
    """Exact derivative along the direction whose x_i component is seeds[i]
    (absent: 0), in one forward pass: `_derive` with the seeds D(x_i) = seeds[i].
    ``memo`` maps id(node) -> (node, its tangent) and belongs to the direction,
    so a node is differentiated along it once in the direction's lifetime."""
    return _derive(e, seeds, None, memo)


def _derive(e: Expr, seeds: dict[int, Expr], i: int | None, memo: dict | None) -> Expr:
    """The one derivative walk, seeded D(x_k) = seeds.get(k, 0) and D(const) = 0;
    every other node takes its row's rule.  Its store is the node's ``_diff[i]``
    for a partial (``memo`` None), else ``memo``, keyed by id(node).

    The walk is iterative (post-order on an explicit stack: any depth).  It
    descends one operand at a time, left before right, and looks each up once:
    a leaf's derivative, or the one stored, goes straight to the node waiting
    for it.
    """
    waiting: list[Expr] = []  # nodes whose operands are being differentiated, innermost last
    lefts: list = []  # per waiting node: its left operand's derivative once done, else None
    node = e
    while True:
        kind = type(node)
        if kind is Var:
            d = seeds.get(node.index, ZERO)
        elif kind is Const:
            d = ZERO
        else:
            if memo is None:
                known = getattr(node, "_diff", None)
                d = None if known is None else known.get(i)
            else:
                known = memo.get(id(node))
                d = None if known is None else known[1]
            if d is None:  # differentiate the operands first, left before right
                waiting.append(node)
                lefts.append(None)
                if kind in _BINARY:
                    node = node.left
                elif kind in (Neg, Pow, Call):
                    node = node.base if kind is Pow else node.arg
                else:
                    raise TypeError(f"not an expression: {node!r}")
                continue
        while waiting:  # d is done: hand it to the node waiting for it
            node = waiting[-1]
            kind = type(node)
            row = _BINARY.get(kind)
            if row is not None:
                left = lefts[-1]
                if left is None:
                    lefts[-1] = d
                    node = node.right
                    break
                d = row.diff(node, left, d)
            elif kind is Call:
                d = _FUNCTIONS[node.name].diff(node, d)
            elif kind is Pow:
                d = mul(mul(const(node.exponent), powi(node.base, node.exponent - 1)), d)
            else:
                d = neg(d)
            waiting.pop()
            lefts.pop()
            if memo is None:
                known = getattr(node, "_diff", None)
                if known is None:
                    node._diff = known = {}
                known[i] = d
            else:  # the memo holds the node, so its id stays its own
                memo[id(node)] = (node, d)
        else:
            return d


# Printing.  Binary operators parenthesize right operands of equal
# precedence, so the printed form reparses to the same tree shape.

def _prec(e: Expr) -> int:
    kind = type(e)
    if kind in _BINARY:
        return _BINARY[kind].prec
    if kind is Neg or kind is Pow or kind is Const and math.copysign(1.0, e.value) < 0:
        return _UNARY
    return _ATOM


def _const_str(v: float) -> str:
    if not math.isfinite(v):  # 1e999 parses back to inf
        return "nan" if v != v else ("1e999" if v > 0 else "-1e999")
    return repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)


def _grouped(e: Expr, prec: int) -> tuple:
    """The pieces of ``e`` as an operand that binds at ``prec``, last first."""
    return (")", e, "(") if _prec(e) < prec else (e,)


def to_str(e: Expr) -> str:
    """Render in the source grammar; parse(to_str(e)) evaluates like e.  An explicit
    stack (any depth) holds the pieces still to print, strings and nodes, next on top."""
    out: list[str] = []
    stack: list = [e]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is str:
            out.append(node)
        elif kind is Var:
            out.append(f"x{node.index}")
        elif kind is Const:
            out.append(_const_str(node.value))
        elif kind in _BINARY:
            row = _BINARY[kind]
            stack += _grouped(node.right, row.prec + 1)
            stack.append(row.infix)
            stack += _grouped(node.left, row.prec)
        elif kind is Call:
            stack += (")", node.arg, f"{node.name}(")
        elif kind is Pow:
            stack.append(f"^{node.exponent}")
            stack += _grouped(node.base, _ATOM)
        elif kind is Neg:  # '^' binds outside a leading '-', so a Pow operand needs parens
            stack += _grouped(node.arg, _ATOM if type(node.arg) is Pow else _UNARY)
            stack.append("-")
        else:
            raise TypeError(f"not an expression: {node!r}")
    return "".join(out)


# Batched evaluation.  A tape holds the distinct nodes of some expressions
# in topological order, one slot each: expressions built by differentiation
# share subtrees by reference and repeat them by structure, so a tree of
# millions of nodes often has only thousands of distinct ones.  Running the
# tape computes every slot once, as an array over all points (the tape
# evaluation of Griewank & Walther, "Evaluating Derivatives", 2008).

# x ** exponent for the exponents an array's ``**`` sends to np.square,
# np.reciprocal, np.positive and np.ones_like, written as the arithmetic those
# run, so that arrays, numpy scalars and floats get the same bits, NaN and
# infinities included (a numpy scalar's ``**`` calls the C library's pow,
# which can differ in the last bit).  ``x ** 0`` is 1.0 for every x and keeps
# an array's shape.  Every other exponent runs np.power.
_POWERS = {2: lambda x: x * x, -1: lambda x: 1.0 / x, 1: lambda x: x, 0: lambda x: x ** 0}
_POWER_MEMO: dict = {}  # exponent -> its one callable, so that a Pow's instruction is its key


def _power(exponent: int):
    """x ** exponent's callable, one per exponent; a negative one's enters `_FAULTS`."""
    if exponent not in _POWER_MEMO:
        fn = _POWER_MEMO[exponent] = _POWERS.get(exponent) or (lambda x: np.power(x, exponent))
        if exponent < 0:
            _FAULTS[fn] = _NEGATIVE_POWER
    return _POWER_MEMO[exponent]


def _returning_float(fn):
    """fn, with its numpy scalar result turned back into a float."""
    return lambda x: float(fn(x))


@np.errstate(all="ignore")  # as a decorator, half the cost of a `with` on each call
def _run(program: list, coordinates) -> list | None:
    """Every slot's value: ``program`` run once, slot by slot, on ``coordinates``
    (arrays of the points' columns, or one point's floats).  Bits 1 and 2 of an
    instruction's mask drop its first and second operand's value once it has run;
    bits 4 and 8 screen that operand, a checked slot, first: a non-finite one ends
    the run with None."""
    values: list = []
    append = values.append
    for fn, a, b, dead in program:
        if fn is None:  # a leaf: a coordinate or a constant
            append(coordinates[a] if b is None else b)
        elif b is None:
            append(fn(values[a]))
        else:
            append(fn(values[a], values[b]))
        if dead:
            if (dead & 4 and not np.isfinite(values[a]).all()
                    or dead & 8 and not np.isfinite(values[b]).all()):
                return None
            if dead & 1:
                values[a] = None
            if dead & 2:
                values[b] = None
    return values


class Tape:
    """The distinct nodes of ``roots`` in topological order, evaluated in one pass.

    Lowering walks each tree once per object (memoized on identity) and
    gives structurally equal nodes one slot; `simplify` and `substitute`
    fold over the slots.  A node is keyed by its instruction (local value
    numbering): (callable, operand slot, operand slot or None), one callable
    per power, or a leaf (None, coordinate index, None) or (None, None,
    constant), a constant keyed with its sign bit instead.  In ``program``
    each instruction also holds the mask of the operands whose last reader it
    is (`_run`), made in one pass at the end of lowering; the roots are never
    dropped.  Calling the tape on an (N, dim) points array runs the program
    once, each slot as one numpy call over all N points, and returns the (N,
    len(roots)) values.  A tape has no dim: it reads coordinates 0..width-1,
    refuses a point with fewer and ignores the rest of a longer one; the
    dim-bearing entries (`MultivectorField.at`, `ExtensorField11.at`,
    `Box.contains`, `gacalc eval`) refuse a wrong length.

    A one-point call (`at`) runs a second decoding of the slots instead,
    the one-point plan, made on the first such call (a tape only ever called
    on arrays, one row included, never makes it).  It runs on Python floats:
    ``+ - * /``, negation and the `_POWERS` table are float arithmetic, the
    same callables as in the array program, and every other power and every
    function runs its ufunc and turns the result back into a float: the same
    IEEE operations, without numpy's scalar dispatch, and every mask 0.
    Python's ``/`` raises ZeroDivisionError at a zero divisor, where numpy
    gives +-inf or NaN; that, or a non-finite root or other checked slot
    (`math.isfinite`), reruns the point as a one-row array call.  So a
    point's values are the bits of its row in an array call, and a fault's
    values and DomainError come from the one array program.

    It raises DomainError naming the subexpression where a denominator is
    0, 0 is raised to a negative power, ln meets a value <= 0 or sqrt a
    value < 0, or, when a root comes out NaN or infinite, the first node
    below the first such root that did.  IEEE arithmetic leaves each of
    those domain faults non-finite in its own slot (x/0 is +-inf or NaN,
    0^-k is +-inf, ln(0) is -inf, ln and sqrt of a negative are NaN), so
    an isfinite of each checked slot as it dies, and of the roots, screens
    a call; only when it trips does the program run again with every mask
    0, for the exact tests, in slot order, and the blame walk below.
    """

    def __init__(self, roots):
        roots = list(roots)
        self.nodes: list[Expr] = []
        self.program: list[tuple] = []  # per slot: (callable, operand, operand, mask) or a leaf
        self.checked: list[int] = []  # the slots a domain fault can occur in
        self.roots: list[int] = []
        self.width = 0  # the coordinates it reads: its highest Var index + 1
        self._plan: tuple | None = None  # the one-point plan and its screen, made by the first `at`
        slot_of: dict[int, int] = {}  # id(node) -> slot; the roots keep the ids valid
        slot_by_key: dict[tuple, int] = {}  # a slot's instruction, or a constant's key
        waiting: list[Expr] = []  # nodes whose operands are being lowered, innermost last
        lefts: list = []  # per waiting node: its left operand's slot once lowered, else None
        for root in roots:
            node = root
            while True:
                slot = slot_of.get(id(node))
                if slot is None:  # wait for its operands, lowered one at a time, left first
                    waiting.append(node)
                    lefts.append(None)
                    kind = type(node)
                    if kind in _BINARY:
                        node = node.left
                        continue
                    if kind is Neg or kind is Call or kind is Pow:
                        node = node.base if kind is Pow else node.arg
                        continue
                    if kind is not Var and kind is not Const:
                        raise TypeError(f"not an expression: {node!r}")
                while waiting:  # the operands are done: give the node waiting for them its slot
                    node = waiting[-1]
                    kind = type(node)
                    row = _BINARY.get(kind)
                    if row is not None:
                        left = lefts[-1]
                        if left is None:
                            lefts[-1] = slot
                            node = node.right
                            break
                        key = (row.op, left, slot)
                    elif kind is Const:  # -0.0 == 0.0: a sign bit joins the key
                        key = (Const, node.value, math.copysign(1.0, node.value))
                    elif kind is Var:
                        key = (None, node.index, None)
                        self.width = max(self.width, node.index + 1)
                    elif kind is Pow:
                        key = (_power(node.exponent), slot, None)
                    else:
                        key = (_FUNCTIONS[node.name].ufunc if kind is Call else operator.neg,
                               slot, None)
                    waiting.pop()
                    lefts.pop()
                    slot = slot_by_key.get(key)
                    if slot is None:
                        slot = slot_by_key[key] = len(self.program)
                        self.program.append(key if kind is not Const else
                                            (None, None, np.float64(node.value)))
                        self.nodes.append(node)
                        if key[0] in _FAULTS:
                            self.checked.append(slot)
                    slot_of[id(node)] = slot
                else:
                    break
            self.roots.append(slot)
        del slot_of, slot_by_key  # so that each key is freed as its instruction replaces it
        program, checked = self.program, set(self.checked)
        read = bytearray(len(program))  # per slot: read later, by a slot or by the call (a root)
        for slot in self.roots:
            read[slot] = 1
        for slot in reversed(range(len(program))):  # backwards, so the first reader met is the last
            fn, a, b = program[slot]
            dead = 0
            if fn is not None:
                if not read[a]:
                    dead = 5 if a in checked else 1
                if b is not None and not read[b]:
                    dead |= 10 if b in checked else 2
                    read[b] = 1
                read[a] = 1
            program[slot] = (fn, a, b, dead)

    def __call__(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError(f"points must be an (N, dim) array, got shape {points.shape}")
        if points.shape[1] < self.width:
            raise self._short(points.shape[1])
        values = _run(self.program, points.T)
        if values is not None and np.isfinite(out := self._gather(values, len(points))).all():
            return out
        # the screen tripped: the exact tests and the blame walk read dropped slots too
        values = _run([(fn, a, b, 0) for fn, a, b, _ in self.program], points.T)
        out = self._gather(values, len(points))
        self._raise(values, out)
        return out

    def _gather(self, values: list, n: int) -> np.ndarray:
        """The (n, len(roots)) values of the roots, from a run's slot values."""
        out = np.empty((n, len(self.roots)))
        for j, slot in enumerate(self.roots):
            out[:, j] = values[slot]
        return out

    def at(self, point) -> list[float]:
        """The roots' values at one point, as floats: the one-point plan's, or,
        where it meets a zero divisor or a non-finite screened slot, those of
        the point as a one-row array call.  Coordinates past ``width`` are
        ignored; a point with fewer raises ValueError."""
        point = np.asarray(point, dtype=float)
        if point.ndim != 1:
            raise ValueError(f"a point must be a (dim,) array, got shape {point.shape}")
        if self._plan is None:
            self._plan = self._decode_plan()
        plan, screen = self._plan
        coordinates = point.tolist()
        if len(coordinates) < self.width:
            raise self._short(len(coordinates))
        try:
            values = _run(plan, coordinates)
        except ZeroDivisionError:
            pass
        else:
            if all(map(math.isfinite, map(values.__getitem__, screen))):
                return [values[s] for s in self.roots]
        return self(point[None, :])[0].tolist()

    def _short(self, length: int) -> ValueError:
        return ValueError(f"point has {length} coordinates, but the tape reads {self.width}")

    def _decode_plan(self) -> tuple[list, list]:
        """The one-point plan (see the class docstring), and the slots it
        screens: the roots and the checked slots, but for the divisions and
        the -1 powers, whose every zero divisor makes Python's ``/`` raise."""
        plan = []
        for node, (fn, a, b, _) in zip(self.nodes, self.program):
            kind = type(node)
            if kind is Const:
                b = float(b)
            elif kind is Call or (kind is Pow and node.exponent not in _POWERS):
                fn = _returning_float(fn)
            plan.append((fn, a, b, 0))  # the rest: a coordinate, `_POWERS` or operator.* on floats
        dividing = (operator.truediv, _POWERS[-1])
        return plan, self.roots + [s for s in self.checked if plan[s][0] not in dividing]

    def _raise(self, values: list, out: np.ndarray) -> None:
        """Raise the DomainError of a call whose screen tripped, if any is due."""
        for slot in self.checked:  # the exact tests, in slot order
            fn, a, b, _ = self.program[slot]
            message, test = _FAULTS[fn]
            if np.any(test(values[a if b is None else b])):
                raise DomainError(message, self.nodes[slot])
        finite = np.isfinite(out).all(axis=0)
        if finite.all():
            return  # a checked slot went non-finite under a finite root, by no fault
        # blame the first node below the first non-finite root that went
        # non-finite, whose inputs were all finite (a node of another root
        # may be non-finite under a finite value of its own, as exp(800*x0)
        # is in 1/exp(800*x0))
        root = self.roots[int(np.argmin(finite))]
        below = {root}
        for slot in range(root, -1, -1):  # children sit before their parents
            fn, a, b, _ = self.program[slot]
            if slot in below and fn is not None:
                below.add(a)
                if b is not None:
                    below.add(b)
        slot = next(s for s in sorted(below) if not np.isfinite(values[s]).all())
        raise DomainError("overflow to a non-finite value", self.nodes[slot])


def compile_fn(e: Expr):
    """Lower ``e`` to a `Tape` once; return points (N, dim) -> values (N,),
    under the tape's `DomainError` contract."""
    tape = Tape((e,))
    return lambda points: tape(points)[:, 0]


def evaluate(e: Expr, point) -> float:
    """Evaluate at one point: `Tape.at`, under the tape's `DomainError` contract.
    The point needs the coordinates ``e`` reads, and any past them are ignored."""
    return Tape((e,)).at(point)[0]


_SPACE = re.compile(r"\s*")
_DIGITS = frozenset("0123456789")
_NUMBER = re.compile(r"[0-9]*(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?")
_INTEGER = re.compile(r"-?[0-9]+")
_INFIX_PRECEDENCE = {row.infix.strip(): (kind, row.prec) for kind, row in _BINARY.items()}


def _integer(text: str, pos: int) -> int:
    """int(text) for the optionally signed integer at offset ``pos`` of the source."""
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        digits = text.lstrip("-")
        raise ParseError(f"integer of {len(digits)} digits is too long",
                         pos + len(text) - len(digits)) from None


def parse(src: str, dim: int) -> Expr:
    """Parse an expression whose variables are x0..x{dim-1}.

    One operator-precedence loop (Dijkstra's shunting-yard) on an explicit
    stack, so any nesting depth parses.  The stack holds `Neg` for a prefix
    '-', the name of an open group ('(' or a function), and
    ``(node type, precedence, left operand)`` for an infix operator waiting
    for its right operand.  Digits are ASCII only.
    """
    stack: list = []
    pos = 0
    while True:
        # an operand: stack prefix '-', '(' and 'name(' up to an atom
        pos = _SPACE.match(src, pos).end()
        ch = src[pos:pos + 1]
        if ch == "-" or ch == "(":
            stack.append(Neg if ch == "-" else ch)
            pos += 1
            continue
        if ch in _DIGITS or ch == ".":
            text = _NUMBER.match(src, pos).group()
            try:
                e = Const(float(text))
            except ValueError:
                raise ParseError(f"bad number {text!r}", pos) from None
            pos += len(text)
        elif ch == "x" and src[pos + 1:pos + 2] in _DIGITS:
            digits = _INTEGER.match(src, pos + 1).group()
            e = Var(_integer(digits, pos + 1))
            if e.index >= dim:
                raise ParseError(f"variable index {e.index} out of range for dimension {dim}", pos)
            pos += 1 + len(digits)
        elif ch.isalpha():
            start = pos
            while src[pos:pos + 1].isalpha():
                pos += 1
            name = src[start:pos]
            if name not in _FUNCTIONS:
                raise ParseError(f"unknown function {name!r}", start)
            pos = _SPACE.match(src, pos).end()
            if not src.startswith("(", pos):
                raise ParseError(f"expected '(' after {name!r}", pos)
            stack.append(name)
            pos += 1
            continue
        else:
            raise ParseError("unexpected end of input" if ch == "" else
                             f"unexpected character {ch!r}", pos)
        while True:
            # e is a whole base: apply its prefix minuses, then '^'
            while stack and stack[-1] is Neg:
                e = Neg(e)
                stack.pop()
            pos = _SPACE.match(src, pos).end()
            if src.startswith("^", pos):
                pos = _SPACE.match(src, pos + 1).end()
                exponent = _INTEGER.match(src, pos)
                if exponent is None:
                    raise ParseError("expected integer exponent",
                                     pos + src.startswith("-", pos))
                e = Pow(e, _integer(exponent.group(), exponent.start()))
                try:
                    float(e.exponent)  # diff and evaluation take it as a float
                except OverflowError:
                    digits = exponent.group().lstrip("-")
                    raise ParseError(f"exponent of {len(digits)} digits is too large",
                                     exponent.end() - len(digits)) from None
                pos = _SPACE.match(src, exponent.end()).end()
            ch = src[pos:pos + 1]
            node, precedence = _INFIX_PRECEDENCE.get(ch, (None, 0))
            while stack and type(stack[-1]) is tuple and stack[-1][1] >= precedence:
                pending, _, left = stack.pop()
                e = pending(left, e)
            if node is not None:
                stack.append((node, precedence, e))
                pos += 1
                break
            if not stack:
                if pos != len(src):
                    raise ParseError(f"unexpected character {ch!r}", pos)
                return e
            if ch != ")":
                raise ParseError("expected ')'", pos)
            group = stack.pop()
            if group != "(":
                e = Call(group, e)
            pos += 1
