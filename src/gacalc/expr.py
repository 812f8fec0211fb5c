"""Scalar-field expression DSL: parser, evaluator and exact differentiation.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | 'x' integer | func '(' expr ')' | '(' expr ')' | '-' base
    func   := sin | cos | tan | exp | ln | sqrt | atan

Coordinates are x0, x1, ...  ASTs are immutable and closed under `diff`,
so repeated differentiation (needed for curvature and its derivatives)
stays exact.  `simplify` only folds constants and 0/1/-1 identities.
`evaluate` interprets a tree at one point; `Tape` (behind `compile_fn`)
evaluates many trees at many points at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class Expr:
    """Base of all expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Expr):
    index: int


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    name: str
    arg: Expr


ZERO = Const(0.0)
ONE = Const(1.0)

_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "atan": math.atan,
}


class ParseError(ValueError):
    """Syntax or-range error, with the 0-based source offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at offset {position}: {message}")
        self.position = position


class DomainError(ValueError):
    """Evaluation hit a singular subexpression (1/0, ln<=0, sqrt<0)."""

    def __init__(self, message: str, subexpr: Expr):
        super().__init__(f"{message} in '{to_str(subexpr)}'")
        self.subexpr = subexpr


def const(value: float) -> Const:
    return Const(float(value))


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Const) and e.value == v


# Smart constructors: fold constants and trivial identities so that trees
# built by differentiation and field arithmetic stay bounded.

def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return neg(b)
    if _is_const(b, -1.0):
        return neg(a)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const) and b.value != 0.0 and isinstance(a, Const):
        return Const(a.value / b.value)
    if _is_const(b, 1.0):
        return a
    if _is_const(b, -1.0):
        return neg(a)
    if _is_const(a, 0.0):
        return ZERO
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def powi(base: Expr, exponent: int) -> Expr:
    exponent = int(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const) and not (base.value == 0.0 and exponent < 0):
        return Const(base.value ** exponent)
    return Pow(base, exponent)


def call(name: str, arg: Expr) -> Expr:
    if name not in _FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    if isinstance(arg, Const):
        try:
            return Const(_FUNCTIONS[name](arg.value))
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    return Call(name, arg)


def simplify(e: Expr) -> Expr:
    """Rebuild bottom-up through the folding constructors."""
    if isinstance(e, (Var, Const)):
        return e
    if isinstance(e, Add):
        return add(simplify(e.left), simplify(e.right))
    if isinstance(e, Sub):
        return sub(simplify(e.left), simplify(e.right))
    if isinstance(e, Mul):
        return mul(simplify(e.left), simplify(e.right))
    if isinstance(e, Div):
        return div(simplify(e.left), simplify(e.right))
    if isinstance(e, Neg):
        return neg(simplify(e.arg))
    if isinstance(e, Pow):
        return powi(simplify(e.base), e.exponent)
    if isinstance(e, Call):
        return call(e.name, simplify(e.arg))
    raise TypeError(f"not an expression: {e!r}")


def diff(e: Expr, i: int) -> Expr:
    """Exact partial derivative with respect to coordinate x_i."""
    if isinstance(e, Var):
        return ONE if e.index == i else ZERO
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Add):
        return add(diff(e.left, i), diff(e.right, i))
    if isinstance(e, Sub):
        return sub(diff(e.left, i), diff(e.right, i))
    if isinstance(e, Mul):
        return add(mul(diff(e.left, i), e.right), mul(e.left, diff(e.right, i)))
    if isinstance(e, Div):
        num = sub(mul(diff(e.left, i), e.right), mul(e.left, diff(e.right, i)))
        return div(num, powi(e.right, 2))
    if isinstance(e, Neg):
        return neg(diff(e.arg, i))
    if isinstance(e, Pow):
        return mul(mul(const(e.exponent), powi(e.base, e.exponent - 1)), diff(e.base, i))
    if isinstance(e, Call):
        du = diff(e.arg, i)
        u = e.arg
        if e.name == "sin":
            return mul(call("cos", u), du)
        if e.name == "cos":
            return neg(mul(call("sin", u), du))
        if e.name == "tan":
            return mul(add(ONE, powi(call("tan", u), 2)), du)
        if e.name == "exp":
            return mul(call("exp", u), du)
        if e.name == "ln":
            return div(du, u)
        if e.name == "sqrt":
            return div(du, mul(const(2.0), call("sqrt", u)))
        if e.name == "atan":
            return div(du, add(ONE, powi(u, 2)))
    raise TypeError(f"not an expression: {e!r}")


def gradient(e: Expr, dim: int) -> list[Expr]:
    return [diff(e, i) for i in range(dim)]


def evaluate(e: Expr, point) -> float:
    """Evaluate at a point, raising DomainError on singular subexpressions."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(point[e.index])
    if isinstance(e, Add):
        return evaluate(e.left, point) + evaluate(e.right, point)
    if isinstance(e, Sub):
        return evaluate(e.left, point) - evaluate(e.right, point)
    if isinstance(e, Mul):
        return evaluate(e.left, point) * evaluate(e.right, point)
    if isinstance(e, Div):
        den = evaluate(e.right, point)
        if den == 0.0:
            raise DomainError("division by zero", e)
        return evaluate(e.left, point) / den
    if isinstance(e, Neg):
        return -evaluate(e.arg, point)
    if isinstance(e, Pow):
        base = evaluate(e.base, point)
        if base == 0.0 and e.exponent < 0:
            raise DomainError("zero raised to a negative power", e)
        return base ** e.exponent
    if isinstance(e, Call):
        v = evaluate(e.arg, point)
        if e.name == "ln" and v <= 0.0:
            raise DomainError("logarithm of a non-positive value", e)
        if e.name == "sqrt" and v < 0.0:
            raise DomainError("square root of a negative value", e)
        return _FUNCTIONS[e.name](v)
    raise TypeError(f"not an expression: {e!r}")


def substitute(e: Expr, replacements) -> Expr:
    """Replace Var(i) by replacements[i] (composition of expressions)."""
    if isinstance(e, Var):
        return replacements[e.index]
    if isinstance(e, Const):
        return e
    if isinstance(e, Add):
        return add(substitute(e.left, replacements), substitute(e.right, replacements))
    if isinstance(e, Sub):
        return sub(substitute(e.left, replacements), substitute(e.right, replacements))
    if isinstance(e, Mul):
        return mul(substitute(e.left, replacements), substitute(e.right, replacements))
    if isinstance(e, Div):
        return div(substitute(e.left, replacements), substitute(e.right, replacements))
    if isinstance(e, Neg):
        return neg(substitute(e.arg, replacements))
    if isinstance(e, Pow):
        return powi(substitute(e.base, replacements), e.exponent)
    if isinstance(e, Call):
        return call(e.name, substitute(e.arg, replacements))
    raise TypeError(f"not an expression: {e!r}")


# Printing.  Binary operators parenthesize right operands of equal
# precedence, so the printed form reparses to the same tree shape.

_ATOM, _UNARY, _MULDIV, _ADDSUB = 4, 3, 2, 1


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _ADDSUB
    if isinstance(e, (Mul, Div)):
        return _MULDIV
    if isinstance(e, (Neg, Pow)):
        return _UNARY
    if isinstance(e, Const) and (e.value < 0 or math.copysign(1.0, e.value) < 0):
        return _UNARY
    return _ATOM


def _wrap(e: Expr, minimum: int) -> str:
    s = to_str(e)
    return f"({s})" if _prec(e) < minimum else s


def to_str(e: Expr) -> str:
    """Render in the source grammar; parse(to_str(e)) evaluates like e."""
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Const):
        v = e.value
        return repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
    if isinstance(e, Add):
        return f"{_wrap(e.left, _ADDSUB)} + {_wrap(e.right, _ADDSUB + 1)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.left, _ADDSUB)} - {_wrap(e.right, _ADDSUB + 1)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, _MULDIV)}*{_wrap(e.right, _MULDIV + 1)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, _MULDIV)}/{_wrap(e.right, _MULDIV + 1)}"
    if isinstance(e, Neg):
        # '^' binds outside a leading '-', so a Pow operand needs parens
        inner = to_str(e.arg)
        if _prec(e.arg) < _UNARY or isinstance(e.arg, Pow):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _ATOM)}^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.name}({to_str(e.arg)})"
    raise TypeError(f"not an expression: {e!r}")


# Batched evaluation.  A tape holds the distinct nodes of some expressions
# in topological order, one slot each: expressions built by differentiation
# share subtrees by reference and repeat them by structure, so a tree of
# millions of nodes often has only thousands of distinct ones.  Running the
# tape computes every slot once, as an array over all points (the tape
# evaluation of Griewank & Walther, "Evaluating Derivatives", 2008).

_NUMPY_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "atan": np.arctan,
}

_BINARY = {Add: np.add, Sub: np.subtract, Mul: np.multiply}
_BINARY_NODES = (Add, Sub, Mul, Div)


class Tape:
    """The distinct nodes of ``roots`` in topological order, evaluated in one pass.

    Lowering walks each tree once per object (memoized on identity) and
    gives structurally equal nodes (same type, own fields and child slots)
    one slot.  Calling the tape on an (N, dim) points array returns the
    (N, len(roots)) values and raises DomainError naming the subexpression
    where a denominator is 0, 0 is raised to a negative power, ln meets a
    value <= 0 or sqrt a value < 0, or, when a root comes out NaN or
    infinite, the first node on the tape that did.
    """

    def __init__(self, roots):
        roots = list(roots)
        self.nodes: list[Expr] = []
        self.code: list[tuple] = []  # per slot: (type, own fields and child slots...)
        slot_of: dict[int, int] = {}  # id(node) -> slot; the roots keep the ids valid
        slot_by_key: dict[tuple, int] = {}
        for root in roots:
            stack = [root]
            while stack:
                node = stack.pop()
                if id(node) in slot_of:
                    continue
                kind = type(node)
                if kind in _BINARY_NODES:
                    left = slot_of.get(id(node.left))
                    right = slot_of.get(id(node.right))
                    if left is None or right is None:  # lower the children first
                        stack += (node, node.right, node.left)
                        continue
                    key = (kind, left, right)
                elif kind is Var:
                    key = (Var, node.index)
                elif kind is Const:
                    # -0.0 == 0.0, so the sign bit joins the key
                    key = (Const, node.value, math.copysign(1.0, node.value))
                elif kind in (Neg, Pow, Call):
                    child = node.base if kind is Pow else node.arg
                    arg = slot_of.get(id(child))
                    if arg is None:
                        stack += (node, child)
                        continue
                    if kind is Pow:
                        key = (Pow, arg, node.exponent)
                    elif kind is Call:
                        key = (Call, arg, node.name)
                    else:
                        key = (Neg, arg)
                else:
                    raise TypeError(f"not an expression: {node!r}")
                slot = slot_by_key.get(key)
                if slot is None:
                    slot = slot_by_key[key] = len(self.code)
                    self.code.append(key)
                    self.nodes.append(node)
                slot_of[id(node)] = slot
        self.roots = [slot_of[id(r)] for r in roots]

    def __call__(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        values: list = []
        with np.errstate(all="ignore"):
            for node, (kind, *args) in zip(self.nodes, self.code):
                if kind is Var:
                    v = points[:, args[0]]
                elif kind is Const:
                    v = np.float64(args[0])
                elif kind is Neg:
                    v = -values[args[0]]
                elif kind is Div:
                    den = values[args[1]]
                    if np.any(den == 0.0):
                        raise DomainError("division by zero", node)
                    v = values[args[0]] / den
                elif kind is Pow:
                    base, exponent = values[args[0]], args[1]
                    if exponent < 0 and np.any(base == 0.0):
                        raise DomainError("zero raised to a negative power", node)
                    v = base ** exponent
                elif kind is Call:
                    x, name = values[args[0]], args[1]
                    if name == "ln" and np.any(x <= 0.0):
                        raise DomainError("logarithm of a non-positive value", node)
                    if name == "sqrt" and np.any(x < 0.0):
                        raise DomainError("square root of a negative value", node)
                    v = _NUMPY_FUNCTIONS[name](x)
                else:
                    v = _BINARY[kind](values[args[0]], values[args[1]])
                values.append(v)
        out = np.empty((len(points), len(self.roots)))
        for j, slot in enumerate(self.roots):
            out[:, j] = values[slot]
        if not np.isfinite(out).all():
            # numpy overflows to inf where math raised; blame the first
            # node that went non-finite, whose inputs were all finite
            for node, v in zip(self.nodes, values):
                if not np.isfinite(v).all():
                    raise DomainError("overflow to a non-finite value", node)
        return out


def compile_fn(e: Expr):
    """Lower ``e`` to a `Tape` once; return points (N, dim) -> values (N,).

    The returned function evaluates every distinct node once over all
    points and raises DomainError as `Tape` describes.
    """
    tape = Tape((e,))
    return lambda points: tape(points)[:, 0]


class _Parser:
    def __init__(self, src: str, dim: int):
        self.src = src
        self.dim = dim
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def fail(self, message: str, position: int | None = None):
        raise ParseError(message, self.pos if position is None else position)

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            self.fail(f"unexpected character {self.peek()!r}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                e = Add(e, self.term())
            elif ch == "-":
                self.pos += 1
                e = Sub(e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                e = Mul(e, self.factor())
            elif ch == "/":
                self.pos += 1
                e = Div(e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        e = self.base()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            if self.peek() == "-":
                self.pos += 1
            if not self.peek().isdigit():
                self.fail("expected integer exponent")
            while self.peek().isdigit():
                self.pos += 1
            e = Pow(e, int(self.src[start:self.pos]))
        return e

    def base(self) -> Expr:
        self.skip_ws()
        ch = self.peek()
        if ch == "":
            self.fail("unexpected end of input")
        if ch == "-":
            self.pos += 1
            return Neg(self.base())
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self.skip_ws()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            return e
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch == "x" and self.pos + 1 < len(self.src) and self.src[self.pos + 1].isdigit():
            return self.variable()
        if ch.isalpha():
            return self.func_call()
        self.fail(f"unexpected character {ch!r}")

    def number(self) -> Const:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.peek() == ".":
            self.pos += 1
            while self.peek().isdigit():
                self.pos += 1
        if self.peek() in ("e", "E"):
            mark = self.pos
            self.pos += 1
            if self.peek() in ("+", "-"):
                self.pos += 1
            if self.peek().isdigit():
                while self.peek().isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent after all
        text = self.src[start:self.pos]
        try:
            return Const(float(text))
        except ValueError:
            self.fail(f"bad number {text!r}", start)

    def variable(self) -> Var:
        start = self.pos
        self.pos += 1  # 'x'
        while self.peek().isdigit():
            self.pos += 1
        index = int(self.src[start + 1:self.pos])
        if index >= self.dim:
            self.fail(f"variable index {index} out of range for dimension {self.dim}", start)
        return Var(index)

    def func_call(self) -> Expr:
        start = self.pos
        while self.peek().isalpha():
            self.pos += 1
        name = self.src[start:self.pos]
        if name not in _FUNCTIONS:
            self.fail(f"unknown function {name!r}", start)
        self.skip_ws()
        if self.peek() != "(":
            self.fail(f"expected '(' after {name!r}")
        self.pos += 1
        e = self.expr()
        self.skip_ws()
        if self.peek() != ")":
            self.fail("expected ')'")
        self.pos += 1
        return Call(name, e)


def parse(src: str, dim: int) -> Expr:
    """Parse an expression whose variables are x0..x{dim-1}."""
    return _Parser(src, dim).parse()
