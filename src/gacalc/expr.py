"""Scalar-field expression DSL: parser, evaluator and exact differentiation.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | 'x' integer | func '(' expr ')' | '(' expr ')' | '-' base
    func   := sin | cos | tan | exp | ln | sqrt | atan

Coordinates are x0, x1, ...  ASTs are immutable by convention (nothing
assigns to a node's fields once built; slots hold them and the derivatives
`diff` stores, `_diff`) and closed under `diff`, so repeated differentiation
(needed for curvature and its derivatives) stays exact.  Each binary node
type and each function has one row of rules (`_BINARY`, `_FUNCTIONS`).
`simplify` only folds constants and 0/1/-1 identities; a constant call or
power folds to the value a `Tape` computes for it, when that value is
finite.  `simplify` and `substitute` rebuild a `Tape`'s slots in order, so
equal subtrees are rebuilt once, as one object; `to_str` prints from an
explicit stack.  `Tape` is the one DAG order and the one evaluator: it
evaluates many trees at many points at once and raises `DomainError` naming
the subexpression that failed; `evaluate` is a one-point tape, bit for bit
as the same point in an array call, and `compile_fn` wraps one for one tree.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


class Expr:
    """Base of all expression nodes; never assign to a field (hash and `_diff` rely on it)."""

    __slots__ = ("_diff", "__weakref__")


@dataclass(unsafe_hash=True, slots=True)
class Var(Expr):
    index: int


@dataclass(unsafe_hash=True, slots=True)
class Const(Expr):
    value: float


@dataclass(unsafe_hash=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(unsafe_hash=True, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(unsafe_hash=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(unsafe_hash=True, slots=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(unsafe_hash=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(unsafe_hash=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(unsafe_hash=True, slots=True)
class Call(Expr):
    name: str
    arg: Expr


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

def add(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.value + b.value)
        return b if a.value == 0.0 else Add(a, b)
    if type(b) is Const and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if type(b) is Const:
        if type(a) is Const:
            return Const(a.value - b.value)
        return a if b.value == 0.0 else Sub(a, b)
    if type(a) is Const and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


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


def _fault(node: Expr) -> tuple | None:
    """The domain fault ``node`` can raise, or None: its row's, or a negative Pow's."""
    kind = type(node)
    if kind is Call:
        return _FUNCTIONS[node.name].fault
    if kind is Pow:
        return _NEGATIVE_POWER if node.exponent < 0 else None
    return _BINARY[kind].fault if kind in _BINARY else None


def simplify(e: Expr) -> Expr:
    """Rebuild bottom-up through the folding constructors."""
    return _rebuild(e, lambda v: v)


def substitute(e: Expr, replacements) -> Expr:
    """Replace Var(i) by replacements[i] (composition of expressions)."""
    return _rebuild(e, lambda v: replacements[v.index])


def _rebuild(e: Expr, var) -> Expr:
    """``e`` through the folding constructors, each Var v as var(v): one pass over
    the slots of ``Tape((e,))``, so equal subtrees are rebuilt once, as one object."""
    tape = Tape((e,))
    done: list[Expr] = []  # per slot: its node rebuilt
    for node, (_, a, b) in zip(tape.nodes, tape.program):
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
    return done[tape.roots[0]]


def diff(e: Expr, i: int) -> Expr:
    """Exact partial derivative with respect to coordinate x_i.

    The walk is iterative (post-order on an explicit stack: any depth).  It
    descends one operand at a time, left before right, and looks each up once:
    a leaf's derivative, or the one stored on the node, goes straight to the
    node waiting for it.  Each node keeps its derivatives in its own ``_diff``
    dict, outside the fields ``==``, ``hash`` and ``repr`` read, so it is
    differentiated by x_i once in its lifetime, whichever call asks.
    """
    waiting: list[Expr] = []  # nodes whose operands are being differentiated, innermost last
    lefts: list = []  # per waiting node: its left operand's derivative once done, else None
    node = e
    while True:
        kind = type(node)
        if kind is Var:
            d = ONE if node.index == i else ZERO
        elif kind is Const:
            d = ZERO
        else:
            known = getattr(node, "_diff", None)
            d = None if known is None else known.get(i)
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
            known = getattr(node, "_diff", None)
            if known is None:
                node._diff = known = {}
            known[i] = d
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

_POWERS = {2: np.square, -1: np.reciprocal, 1: np.positive, 0: np.ones_like}


def _power(exponent: int):
    """x -> x ** exponent through the ufunc an array's ``**`` picks for it
    (np.square, np.reciprocal, np.positive, np.ones_like or np.power), where a
    numpy scalar's ``**`` calls the C library's pow, which can differ in the last
    bit: a one-point call then gives the bits of the same point in an array call."""
    return _POWERS.get(exponent) or (lambda x: np.power(x, exponent))


class Tape:
    """The distinct nodes of ``roots`` in topological order, evaluated in one pass.

    Lowering walks each tree once per object (memoized on identity) and
    gives structurally equal nodes (same type, own fields and child slots)
    one slot; `simplify` and `substitute` fold over the slots.  Each slot is decoded once, into ``program``: a function
    slot holds (callable, operand slot, operand slot or None), a leaf
    (None, coordinate index, None) or (None, None, constant).  Calling the
    tape on an (N, dim) points array runs the program with no test inside
    the loop and returns the (N, len(roots)) values.  With N = 1 the
    program runs on np.float64 values, where the rows' ``operator.*``
    callables and ``operator.neg`` are scalar arithmetic, not ufuncs: the
    same IEEE operations under the same errstate, without array dispatch,
    so a one-point call gives the values and the DomainError of the same
    point in an array call, at a fraction of the cost.

    It raises DomainError naming the subexpression where a denominator is
    0, 0 is raised to a negative power, ln meets a value <= 0 or sqrt a
    value < 0, or, when a root comes out NaN or infinite, the first node
    below the first such root that did.  IEEE arithmetic leaves each of
    those domain faults non-finite in its own slot (x/0 is +-inf or NaN,
    0^-k is +-inf, ln(0) is -inf, ln and sqrt of a negative are NaN), so
    one isfinite over the checked slots and the roots screens a call; only
    when it trips do the exact tests run, in slot order.
    """

    def __init__(self, roots):
        roots = list(roots)
        self.nodes: list[Expr] = []
        self.program: list[tuple] = []  # per slot: (callable, operand, operand) or a leaf
        self.checked: list[int] = []  # the slots a domain fault can occur in
        self.roots: list[int] = []
        slot_of: dict[int, int] = {}  # id(node) -> slot; the roots keep the ids valid
        slot_by_key: dict[tuple, int] = {}  # a leaf's or a Pow's key, or a slot's instruction
        waiting: list[Expr] = []  # nodes whose operands are being lowered, innermost last
        lefts: list = []  # per waiting node: its left operand's slot once lowered, else None
        for root in roots:
            node = root
            while True:
                slot = slot_of.get(id(node))
                if slot is None:
                    kind = type(node)
                    if kind is Var or kind is Const:  # -0.0 == 0.0: a sign bit joins the key
                        key = ((Var, node.index) if kind is Var else
                               (Const, node.value, math.copysign(1.0, node.value)))
                        slot = slot_of[id(node)] = self._slot(slot_by_key, key, node)
                    else:  # lower the operands first, one at a time, left before right
                        waiting.append(node)
                        lefts.append(None)
                        if kind in _BINARY:
                            node = node.left
                        elif kind in (Neg, Pow, Call):
                            node = node.base if kind is Pow else node.arg
                        else:
                            raise TypeError(f"not an expression: {node!r}")
                        continue
                while waiting:  # the slot is done: hand it to the node waiting for it
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
                    elif kind is Pow:
                        key = (Pow, node.exponent, slot)
                    else:
                        key = (_FUNCTIONS[node.name].ufunc if kind is Call else operator.neg,
                               slot, None)
                    waiting.pop()
                    lefts.pop()
                    slot = slot_of[id(node)] = self._slot(slot_by_key, key, node)
                else:
                    break
            self.roots.append(slot)

    def _slot(self, slot_by_key: dict, key: tuple, node: Expr) -> int:
        """The slot of ``key``; a new one decodes ``node``'s instruction, once."""
        slot = slot_by_key.get(key)
        if slot is None:
            slot = slot_by_key[key] = len(self.program)
            kind = type(node)
            if kind is Var:
                op = (None, node.index, None)
            elif kind is Const:
                op = (None, None, np.float64(node.value))
            elif kind is Pow:
                op = (_power(node.exponent), key[2], None)
            else:
                op = key
            self.program.append(op)
            self.nodes.append(node)
            if _fault(node) is not None:
                self.checked.append(slot)
        return slot

    def __call__(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError(f"points must be an (N, dim) array, got shape {points.shape}")
        one_point = len(points) == 1
        coordinates = points[0] if one_point else points.T
        values: list = []
        append = values.append
        with np.errstate(all="ignore"):
            for fn, a, b in self.program:
                if fn is None:  # a leaf: a coordinate (column) or a constant
                    append(coordinates[a] if b is None else b)
                elif b is None:
                    append(fn(values[a]))
                else:
                    append(fn(values[a], values[b]))
        if one_point:  # one small array holds the roots, then the checked slots
            row = np.array([values[s] for s in self.roots + self.checked])
            out = row[None, :len(self.roots)]
            finite = np.isfinite(row).all()
        else:
            out = np.empty((len(points), len(self.roots)))
            for j, slot in enumerate(self.roots):
                out[:, j] = values[slot]
            screen = [values[s] for s in self.checked]
            screen.append(out)
            finite = np.isfinite(np.concatenate(screen, axis=None)).all()
        if not finite:
            self._raise(values, out)
        return out

    def _raise(self, values: list, out: np.ndarray) -> None:
        """Raise the DomainError of a call whose screen tripped, if any is due."""
        for slot in self.checked:  # the exact tests, in slot order
            node, (_, a, b) = self.nodes[slot], self.program[slot]
            message, test = _fault(node)
            if np.any(test(values[a if b is None else b])):
                raise DomainError(message, node)
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
            fn, a, b = self.program[slot]
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
    """Evaluate at one point: a one-point `Tape`, under its `DomainError` contract."""
    return float(Tape((e,))(np.asarray(point, dtype=float)[None, :])[0, 0])


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
