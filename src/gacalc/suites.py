"""Identity-check suites: every verified law as a row of a table.

A row is ``(name, tag, draws, build)``: the check's name, the paper
equation it verifies, the number of seeded argument draws, and a builder.
``build(rng, draw)`` is a generator and a function of its arguments alone:
it draws the random argument fields of draw ``draw`` from ``rng``, then
yields the ``(lhs, rhs)`` pairs of that draw, built through independent code
paths where the law relates different constructions.  The runner evaluates
each draw's pairs on a tape of their own (`report.worst_residual`), so a
draw's trees die before the next is built, and scores them by one rule, a
pair of scalar expressions being a pair of fields on blade 0:
each pair is normalized per point by max(1, |lhs|, |rhs|) over its
coefficients, and the check reports the worst residual over all pairs and
sampled points, NaN included.  A check asked for N samples gets
ceil(N / draws) points per argument draw, so the reported sample count is
never below the request; a row may instead bring a point set of its own as
a fifth entry, and then reports draws times its size.  `_SuiteRun.check` is
the one runner: every check of every suite goes through it, and so do
`transform`'s laws (`transform_rows`).  Each row draws its points and
arguments from a stream of its own, a `KeyedStream` keyed by the run's seed
and the row's name, and a draw that several rows share comes from one keyed
by the suite's name; so a row's result does not depend on which rows run
before it, where, or how often.  The stream is the standard library's
MT19937, so the draws do not depend on the numpy version, and a run imports
nothing of numpy's random package.  A run collects the rows of every suite
it selects into one table and runs them on one forked process per usable
CPU, each taking the next row from one shared queue, and a row left without
a result runs again in this process (`_SuiteRun.check_rows`); the report is
the same under any schedule.
Builders reach the layer functions through this module's globals at call
time, so a wrapper installed on them (a tracer) sees every call made in
this process.
Suites group the rows for the command line: 'core' covers the derivative
operators, 'cartan' torsion, curvature and the structure equations,
'bianchi' the two symmetric-structure identities, 'bridge' the classical
component formulas.  Whether the connection is symmetric is decided once
per run (`run_fixture_checks`, from its expressions alone, with no sample),
and that one answer gates every symmetric-only row.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import random
import signal
import zlib
from functools import partial

import numpy as np

from . import expr as ex
from . import fields as mf
from .algebra import Frame, grade_of
from .bridge import (
    CoordinateMap,
    christoffel,
    classical_cov_derivative,
    riemann_coefficients,
    transform_components,
    transform_connection,
)
from .cartan import (
    NotSymmetricError,
    cartan_connection,
    cartan_curvature,
    cartan_torsion,
    check_bianchi,
    check_cyclic,
    check_structure_equation,
    curvature,
    invert_cartan_curvature,
    invert_cartan_torsion,
    torsion,
    torsion_operator_form,
)
from .connection import (
    SIGNS,
    ExtensorField11,
    asymmetry,
    cov_derivative,
    cov_derivative_extensor,
    deform,
    ext_adjoint,
    extensor_cov_derivative,
    gamma_apply,
    gauge_bivector,
    generalized_adjoint_apply,
    generalized_apply,
    generalized_skew_apply,
    generalized_sym_apply,
)
from .fixtures import FixtureConfig, check_map_dim
from .report import CheckResult, Report, worst_residual

SUITES = ("all", "core", "cartan", "bianchi", "bridge")

# The products a derivation obeys a Leibniz rule over; "scalar" is X . Y as
# a scalar field.  Lambdas, so that each call looks `fields` up afresh.
PRODUCTS = {
    "wedge": lambda x, y: mf.wedge(x, y),
    "clifford": lambda x, y: mf.clifford(x, y),
    "lcontr": lambda x, y: mf.contract(x, y, "left"),
    "rcontr": lambda x, y: mf.contract(x, y, "right"),
    "scalar": lambda x, y: mf.scalar_field(x.dim, mf.scalar_product(x, y)),
}


# ---------------------------------------------------------------------------
# Random argument generators (seeded), each drawing from a `KeyedStream` or
# any object with its two methods, a numpy Generator included
# ---------------------------------------------------------------------------


class KeyedStream(random.Random):
    """Uniform draws from the standard library's MT19937 (`random.Random`),
    seeded with the integer ``seed << 32 | crc32(name)``.  A value is one
    32-bit word w of the stream, taken as w * 2**-32 in [0, 1): a scalar reads
    one word (`getrandbits(32)`), an array of n values the next n words
    (`randbytes(4 * n)`, in C order), so both give the same bits.  It offers
    the two methods of a numpy ``Generator`` that gacalc calls."""

    def __init__(self, seed: int, name: str):
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        super().__init__(seed << 32 | zlib.crc32(name.encode()))

    def uniform(self, low, high, size=None):
        """One float in [low, high) when ``size`` is None; else an array of
        shape ``size``, drawn in C order, with ``low`` and ``high`` broadcast
        against it."""
        if size is None:
            return low + (high - low) * (self.getrandbits(32) * 2.0 ** -32)
        shape = (size,) if np.ndim(size) == 0 else tuple(size)
        words = np.frombuffer(self.randbytes(4 * math.prod(shape)), "<u4")
        value = words.reshape(shape) * 2.0 ** -32
        value *= high - low
        value += low
        return value

    def integers(self, high: int) -> int:
        """One int in range(high)."""
        return self.randrange(high)


def rand_scalar(dim: int, rng: KeyedStream, degree: int = 1) -> ex.Expr:
    e = ex.const(rng.uniform(-1.0, 1.0))
    if degree >= 1:
        for i in range(dim):
            e = ex.add(e, ex.mul(ex.const(rng.uniform(-1.0, 1.0)), ex.Var(i)))
    if degree >= 2:
        i = int(rng.integers(dim))
        e = ex.add(e, ex.mul(ex.const(rng.uniform(-0.5, 0.5)), ex.powi(ex.Var(i), 2)))
    return e


def rand_vector(dim: int, rng: KeyedStream, degree: int = 1) -> mf.MultivectorField:
    return mf.vector(dim, [rand_scalar(dim, rng, degree) for _ in range(dim)])


def rand_mvf(dim: int, rng: KeyedStream, grades=None) -> mf.MultivectorField:
    coeffs = {}
    for mask in range(1 << dim):
        if grades is not None and grade_of(mask) not in grades:
            continue
        coeffs[mask] = rand_scalar(dim, rng)
    return mf.mvf(dim, coeffs)


def rand_ext11(dim: int, rng: KeyedStream) -> ExtensorField11:
    rows = tuple(tuple(rand_scalar(dim, rng) for _ in range(dim)) for _ in range(dim))
    return ExtensorField11(dim, rows)


def rand_lambda(dim: int, rng: KeyedStream) -> ExtensorField11:
    """Non-singular non-constant vector map: identity plus a small linear part."""
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            bump = ex.mul(ex.const(0.05), rand_scalar(dim, rng, degree=1))
            row.append(ex.add(ex.ONE, bump) if i == j else bump)
        rows.append(tuple(row))
    return ExtensorField11(dim, tuple(rows))


def rand_frame(dim: int, rng: KeyedStream) -> Frame:
    while True:
        m = np.eye(dim) + rng.uniform(-0.4, 0.4, size=(dim, dim))
        if abs(np.linalg.det(m)) > 0.3:
            return Frame.from_matrix(m)


def rand_kextensor2(dim: int, rng: KeyedStream):
    """Random 2-extensor field: a pointwise-bilinear map on vector pairs, multivector valued."""
    p = rand_vector(dim, rng)
    q = rand_vector(dim, rng)
    u = rand_vector(dim, rng)
    w = rand_mvf(dim, rng, grades={2})

    def func(v1, v2):
        t1 = mf.scale(ex.mul(mf.scalar_product(v1, p), mf.scalar_product(v2, q)), u)
        t2 = mf.scale(mf.scalar_product(mf.wedge(v1, v2), w), p)
        return mf.add(t1, t2)

    return func


# ---------------------------------------------------------------------------
# Suite bookkeeping
# ---------------------------------------------------------------------------


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the OS cannot say or cannot fork."""
    if hasattr(os, "sched_getaffinity") and hasattr(os, "fork"):
        return len(os.sched_getaffinity(0))
    return 1


class _SuiteRun:
    """One run's settings, and the runner of its rows."""

    def __init__(self, fix: FixtureConfig, seed: int, samples: int, tol: float):
        self.fix = fix
        self.conn = fix.conn
        self.dim = fix.dim
        self.seed = seed
        self.tol = tol
        self.samples = samples

    def rng(self, name: str) -> KeyedStream:
        """The stream of the row, or the draw several rows share, called ``name``:
        keyed by the run's seed and the name, so no row's draws depend on another's."""
        return KeyedStream(self.seed, name)

    def points(self, domain: mf.Box, rng: KeyedStream, draws: int = 1) -> np.ndarray:
        """A sample of ``domain`` from ``rng`` for a row of ``draws`` argument
        draws: ceil(samples / draws) points, and never fewer than 10."""
        return domain.sample(max(10, math.ceil(self.samples / draws)), rng)

    def check(self, name: str, tag: str, draws: int, build, points=None) -> CheckResult:
        """Run one row: build(rng, draw) for each draw index, every yielded pair
        evaluated at the row's own ``points`` or at a fresh sample of its budget,
        each draw on a tape of its own, its score per point: so the worst over
        draws, NaN winning, is the worst over one tape of them all."""
        rng = self.rng(name)
        if points is None:
            points = self.points(self.fix.domain, rng, draws)
        worst = np.max([worst_residual(build(rng, draw), points) for draw in range(draws)])
        return CheckResult(name, tag, draws * len(points), worst, self.tol)

    def check_rows(self, rows: list) -> list[CheckResult]:
        """Run every row on one process per usable CPU (`_pool`), then take
        the results in table order; a row with no result runs again here, so
        a row that raised raises its own error, and the first failing row in
        table order wins."""
        done = self._pool(rows, min(_usable_cpus(), len(rows)))
        return [done[i] if i in done else self.check(*row) for i, row in enumerate(rows)]

    def _pool(self, rows: list, workers: int) -> dict:
        """The results of the rows that ``workers`` processes, this one and
        ``workers - 1`` forked children, take one at a time from one queue; on
        one CPU no child is forked, and this process takes every row, in table
        order.  A forked child already holds the rows, closures that could not
        be pickled.  It writes each result as soon as it has it, one
        length-prefixed ``(index, result)`` pickle on the results pipe all
        children share, so a child that dies keeps the rows it finished: a
        write of at most PIPE_BUF bytes is never interleaved with another, and
        a longer record is not written."""
        queue, fill = os.pipe()  # a table's few dozen 2-byte indices fit the pipe's buffer
        os.write(fill, b"".join(i.to_bytes(2, "little") for i in range(len(rows))))
        os.close(fill)
        out, into = os.pipe()  # and so do its records, some 180 bytes each
        children = []
        with open(out, "rb") as records, open(into, "wb", buffering=0) as sink:
            try:
                for _ in range(workers - 1):
                    try:
                        pid = os.fork()
                    except OSError:  # no process to spare: fewer workers take the rows
                        break
                    if pid == 0:
                        # a child leaves only through os._exit: it never returns into
                        # the caller, runs no atexit handler, flushes no copy of the
                        # parent's buffers, and whatever it raises is dropped
                        try:
                            whole = os.fpathconf(into, "PC_PIPE_BUF")  # PIPE_BUF, with no import of select
                            for i, result in self._pull(rows, queue):
                                record = pickle.dumps((i, result))
                                if len(record) + 2 <= whole:
                                    sink.write(len(record).to_bytes(2, "little") + record)
                        finally:
                            os._exit(0)
                    children.append(pid)
                sink.close()
                done = dict(self._pull(rows, queue))
                while size := records.read(2):  # to EOF, when every child has left
                    i, result = pickle.loads(records.read(int.from_bytes(size, "little")))
                    done[i] = result
                return done
            finally:
                os.close(queue)
                for pid in children:  # a child still running is stopped; every one is reaped
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)

    def _pull(self, rows: list, queue: int):
        """Run the rows whose indices this process reads from ``queue``, until
        it is empty or a row raises, yielding each row's index and result as
        soon as the row is done."""
        while record := os.read(queue, 2):
            i = int.from_bytes(record, "little")
            try:
                result = self.check(*rows[i])
            except Exception:  # the row is left without a result: check_rows runs it again
                return
            yield i, result


def _flat_scalar(a: mf.MultivectorField, f: ex.Expr) -> ex.Expr:
    """a.d_o f for a scalar expression."""
    return mf.directional_derivative(a, mf.scalar_field(a.dim, f)).component(0)


def frame_independence(conn, op, drawers, rng, _):
    """op(conn, *args) in the canonical frame against op in a random frame,
    the args drawn by ``drawers`` before the frame."""
    args = [drawer(rng) for drawer in drawers]
    frame = rand_frame(conn.dim, rng)
    yield op(conn, *args), op(conn, *args, frame)


def identity_draws(dim, sides, arity, degrees, rng, draw):
    """sides(*vectors) for ``arity`` random vector fields of degree ``degrees[draw]``."""
    yield sides(*(rand_vector(dim, rng, degrees[draw]) for _ in range(arity)))


# ---------------------------------------------------------------------------
# Core suite: connection maps and covariant derivatives
# ---------------------------------------------------------------------------


def core_rows(run: _SuiteRun) -> list:
    conn, dim = run.conn, run.dim
    zero = mf.mvf(dim, {})
    rv, rx = partial(rand_vector, dim), partial(rand_mvf, dim)
    gen = partial(generalized_apply, conn)
    skew = partial(generalized_skew_apply, conn)

    def cov(*signs):
        return [partial(cov_derivative, conn, sign) for sign in signs]

    def grade_preserving(ops, rng, _):
        a, x = rv(rng), rx(rng)
        for op in ops:
            for k in range(dim + 1):
                y = op(a, mf.grade_project(x, k))
                yield y, mf.grade_project(y, k)

    def inv_commute(kind, rng, _):
        a, x = rv(rng), rx(rng)
        yield (generalized_apply(conn, a, mf.involute(x, kind)),
               mf.involute(generalized_apply(conn, a, x), kind))

    def gen_scalar_kills(rng, _):
        yield generalized_apply(conn, rv(rng), mf.scalar_field(dim, rand_scalar(dim, rng))), zero

    def gen_vector(rng, _):
        a, b = rv(rng), rv(rng)
        yield generalized_apply(conn, a, b), gamma_apply(conn, a, b)

    def gen_adjoint(rng, _):
        a, x, y = rv(rng), rx(rng), rx(rng)
        yield (mf.scalar_product(generalized_apply(conn, a, x), y),
               mf.scalar_product(x, generalized_adjoint_apply(conn, a, y)))

    def gen_parts(rng, _):
        a, x = rv(rng), rx(rng)
        plus = generalized_apply(conn, a, x)
        minus = generalized_adjoint_apply(conn, a, x)
        yield mf.scale(0.5, mf.add(plus, minus)), generalized_sym_apply(conn, a, x)
        yield mf.scale(0.5, mf.sub(plus, minus)), generalized_skew_apply(conn, a, x)

    def gauge_factor(rng, _):
        a, x = rv(rng), rx(rng)
        yield (generalized_skew_apply(conn, a, x),
               mf.commutator(gauge_bivector(conn, a), x))

    def leibniz(ops, label, rng, _):
        """Leibniz rule of each derivation op(a, .) over one product."""
        product = PRODUCTS[label]
        a, x, y = rv(rng), rx(rng), rx(rng)
        for op in ops:
            lhs = op(a, product(x, y))
            rhs = mf.add(product(op(a, x), y), product(x, op(a, y)))
            yield lhs, rhs

    def cov_linear_dir(rng, _):
        a, a2, x = rv(rng), rv(rng), rx(rng)
        alpha, beta = rng.uniform(-2, 2), rng.uniform(-2, 2)
        combo = mf.add(mf.scale(alpha, a), mf.scale(beta, a2))
        for sign in SIGNS:
            yield (cov_derivative(conn, sign, combo, x),
                   mf.add(mf.scale(alpha, cov_derivative(conn, sign, a, x)),
                          mf.scale(beta, cov_derivative(conn, sign, a2, x))))

    def cov_additive(rng, _):
        a, x, y = rv(rng), rx(rng), rx(rng)
        for sign in SIGNS:
            yield (cov_derivative(conn, sign, a, mf.add(x, y)),
                   mf.add(cov_derivative(conn, sign, a, x), cov_derivative(conn, sign, a, y)))

    def scalar_leibniz(ops, arg, rng, _):
        """op(a, f X) = (a.d_o f) X + f op(a, X) for each op, X drawn by ``arg``."""
        a, x = rv(rng), arg(rng)
        f = rand_scalar(dim, rng)
        df = _flat_scalar(a, f)
        for op in ops:
            yield op(a, mf.scale(f, x)), mf.add(mf.scale(df, x), mf.scale(f, op(a, x)))

    def deformed(rng):
        """The deformed derivatives, + and -, by a vector map drawn from ``rng``."""
        lam = rand_lambda(dim, rng)
        return [partial(deform, conn, lam, sign) for sign in ("+", "-")]

    def scalar_field_rule(ops, rng, _):
        """op(a, f) = a.d_o f on a scalar field for each op of ``ops(rng)``, the
        flat side built classically, as the sum of a^i df/dx_i."""
        a, derivatives = rv(rng), ops(rng)
        f = rand_scalar(dim, rng, degree=2)
        flat = ex.total(ex.mul(ai, ex.diff(f, i)) for i, ai in enumerate(a.vector_components()))
        f, flat = mf.scalar_field(dim, f), mf.scalar_field(dim, flat)
        for op in derivatives:
            yield op(a, f), flat

    def pairing(ops, arg, rng, _):
        """op(a, X) . Y + X . dual(a, Y) = a.d_o (X . Y) for (op, dual) = ``ops(rng)``,
        X and Y drawn by ``arg`` before them."""
        a, x, y = rv(rng), arg(rng), arg(rng)
        op, dual = ops(rng)
        yield (ex.add(mf.scalar_product(op(a, x), y), mf.scalar_product(x, dual(a, y))),
               _flat_scalar(a, mf.scalar_product(x, y)))

    def zero_avg(rng, _):
        a, x = rv(rng), rx(rng)
        yield (cov_derivative(conn, "0", a, x),
               mf.scale(0.5, mf.add(cov_derivative(conn, "+", a, x),
                                    cov_derivative(conn, "-", a, x))))

    def co_additive(rng, _):
        a, a2, b, b2 = rv(rng), rv(rng), rv(rng), rv(rng)
        for sign in ("+", "-"):
            yield (cov_derivative(conn, sign, mf.add(a, a2), b),
                   mf.add(cov_derivative(conn, sign, a, b), cov_derivative(conn, sign, a2, b)))
            yield (cov_derivative(conn, sign, a, mf.add(b, b2)),
                   mf.add(cov_derivative(conn, sign, a, b), cov_derivative(conn, sign, a, b2)))

    def co_f_first(rng, _):
        a, b = rv(rng), rv(rng)
        f = rand_scalar(dim, rng)
        for sign in ("+", "-"):
            yield (cov_derivative(conn, sign, mf.scale(f, a), b),
                   mf.scale(f, cov_derivative(conn, sign, a, b)))

    def cde1(draw_t, arity, sign_sets, rng, _):
        """The defining law of the derivative of t, drawn by ``draw_t``, on ``arity``
        vectors x_p and a field X: (cov t)(x_1..x_k) . X is a.d_o (t(x_1..x_k) . X)
        less the term of each slot's derivative, the x_p in turn and then X's."""
        a, *xs = (rv(rng) for _ in range(arity + 1))
        x, t = rx(rng), draw_t(dim, rng)
        for signs in sign_sets:
            lhs = mf.scalar_product(cov_derivative_extensor(conn, signs, t, a, tuple(xs)), x)
            rhs = _flat_scalar(a, mf.scalar_product(t(*xs), x))
            for p, sign in enumerate(signs):
                moved = [*xs, x]
                moved[p] = cov_derivative(conn, sign, a, moved[p])
                rhs = ex.sub(rhs, mf.scalar_product(t(*moved[:-1]), moved[-1]))
            yield lhs, rhs

    def cde2(rng, _):
        a, x1 = rv(rng), rv(rng)
        t, u = rand_ext11(dim, rng), rand_ext11(dim, rng)
        f = rand_scalar(dim, rng)
        df = _flat_scalar(a, f)
        summed = lambda v: mf.add(t(v), u(v))
        scaled = lambda v: mf.scale(f, t(v))
        for signs in (("+", "-"), ("0", "+")):
            yield (cov_derivative_extensor(conn, signs, summed, a, (x1,)),
                   mf.add(cov_derivative_extensor(conn, signs, t, a, (x1,)),
                          cov_derivative_extensor(conn, signs, u, a, (x1,))))
            yield (cov_derivative_extensor(conn, signs, scaled, a, (x1,)),
                   mf.add(mf.scale(df, t(x1)),
                          mf.scale(f, cov_derivative_extensor(conn, signs, t, a, (x1,)))))

    def cde3(rng, _):
        a = rv(rng)
        t = rand_ext11(dim, rng)
        adjoint = ext_adjoint(t)  # one map, so every sign pair shares its derivatives
        for s1 in SIGNS:
            for s in SIGNS:
                lhs = ext_adjoint(extensor_cov_derivative(conn, (s1, s), t, a))
                rhs = extensor_cov_derivative(conn, (s, s1), adjoint, a)
                yield from zip(itertools.chain(*lhs.entries), itertools.chain(*rhs.entries))

    return [
        ("gen-grade-preserving", "PS.4", 2, partial(grade_preserving, [gen])),
        ("gen-involution-hat", "PS.5a", 2, partial(inv_commute, "hat")),
        ("gen-involution-tilde", "PS.5b", 2, partial(inv_commute, "tilde")),
        ("gen-involution-bar", "PS.5c", 2, partial(inv_commute, "bar")),
        ("gen-scalar-kills", "PS.6a", 5, gen_scalar_kills),
        ("gen-vector-agrees", "PS.6b", 5, gen_vector),
        ("gen-wedge-derivation", "PS.6c", 2, partial(leibniz, [gen], "wedge")),
        ("gen-adjoint-pairing", "PS.7", 2, gen_adjoint),
        ("gen-sym-skew-parts", "PS.8", 2, gen_parts),
        ("gauge-factorization", "PS.9", 2, gauge_factor),
        *((f"skew-derivation-{p}", "PS.10", 2, partial(leibniz, [skew], p)) for p in PRODUCTS),
        ("cov-grade-preserving", "CDM.2", 2, partial(grade_preserving, cov("+", "-"))),
        ("cov-direction-linearity", "CDM.3", 2, cov_linear_dir),
        ("cov-scalar-field", "CDM.4a", 5, partial(scalar_field_rule, lambda _: cov(*SIGNS))),
        ("cov-additivity", "CDM.4b", 2, cov_additive),
        ("cov-scalar-leibniz", "CDM.4c", 2, partial(scalar_leibniz, cov(*SIGNS), rx)),
        ("cov-wedge-leibniz", "CDM.5", 2, partial(leibniz, cov(*SIGNS), "wedge")),
        ("cov-pairing", "CDM.6", 5, partial(pairing, lambda _: cov("+", "-"), rx)),
        ("cov-zero-average", "CDM.7", 2, zero_avg),
        ("cov-zero-pairing", "CDM.9", 5, partial(pairing, lambda _: cov("0", "0"), rx)),
        *((f"cov-zero-leibniz-{p}", "CDM.10", 2, partial(leibniz, cov("0"), p)) for p in PRODUCTS),
        ("connection-op-additivity", "CO.2a", 2, co_additive),
        ("connection-op-first-slot", "CO.2c", 2, co_f_first),
        ("connection-op-second-slot", "CO.2d", 2, partial(scalar_leibniz, cov("+", "-"), rv)),
        ("connection-op-pairing", "CO.3", 5, partial(pairing, lambda _: cov("+", "-"), rv)),
        ("extensor-derivative-defining", "CDE.1", 2,
         partial(cde1, rand_ext11, 1, list(itertools.product(SIGNS, repeat=2)))),
        ("extensor-derivative-defining-k2", "CDE.1", 1,
         partial(cde1, rand_kextensor2, 2, [("+", "-", "+"), ("-", "0", "-"), ("0", "+", "0")])),
        ("extensor-derivative-linearity", "CDE.2", 2, cde2),
        ("extensor-adjoint-commutation", "CDE.3", 2, cde3),
        ("deform-scalar-field", "CDM.11", 2, partial(scalar_field_rule, deformed)),
        ("deform-pairing", "CDM.11", 2, partial(pairing, deformed, rx)),
        ("gauge-frame-independence", "PS.2a", 2,
         partial(frame_independence, conn, gauge_bivector, [rv])),
        ("generalized-frame-independence", "PS.3", 2,
         partial(frame_independence, conn, generalized_apply, [rv, rx])),
    ]


# ---------------------------------------------------------------------------
# Cartan suite: torsion, curvature, Cartan fields, structure equations
# ---------------------------------------------------------------------------


def cartan_rows(run: _SuiteRun, symmetric: bool) -> list:
    """The cartan rows; ``symmetric`` (decided by the caller) adds torsion-vanishes."""
    conn, dim = run.conn, run.dim
    zero = mf.mvf(dim, {})
    rv = partial(rand_vector, dim)

    def torsion_equiv(rng, _):
        a, b = rv(rng), rv(rng)
        yield torsion(conn, a, b), torsion_operator_form(conn, a, b)

    def antisymmetric(op, arity, rng, _):
        """op(conn, a, b, ...) changes sign when a and b swap, on ``arity`` vectors."""
        a, b, *rest = (rv(rng) for _ in range(arity))
        yield op(conn, a, b, *rest), mf.scale(-1.0, op(conn, b, a, *rest))

    def torsion_tensorial(rng, _):
        a, b = rv(rng), rv(rng)
        f, g = rand_scalar(dim, rng), rand_scalar(dim, rng)
        yield (torsion(conn, mf.scale(f, a), mf.scale(g, b)),
               mf.scale(ex.mul(f, g), torsion(conn, a, b)))

    def curv_tensorial(rng, _):
        a, b, c = rv(rng), rv(rng), rv(rng)
        f = rand_scalar(dim, rng)
        base = mf.scale(f, curvature(conn, a, b, c))
        yield curvature(conn, mf.scale(f, a), b, c), base
        yield curvature(conn, a, mf.scale(f, b), c), base
        yield curvature(conn, a, b, mf.scale(f, c)), base

    def curv_classical(rng, _):
        riem = riemann_coefficients(conn)
        for a, b, g in itertools.product(range(dim), repeat=3):
            value = curvature(conn, mf.basis(dim, a), mf.basis(dim, b), mf.basis(dim, g))
            for d in range(dim):
                yield value.component(1 << d), riem[d][g][a][b]

    def theta_roundtrip(rng, _):
        a, b = rv(rng), rv(rng)
        yield (invert_cartan_torsion(lambda c: cartan_torsion(conn, c), a, b),
               torsion(conn, a, b))

    def omega_roundtrip(rng, _):
        a, b, c = rv(rng), rv(rng), rv(rng)
        yield (invert_cartan_curvature(lambda cc, dd: cartan_curvature(conn, cc, dd), a, b, c),
               curvature(conn, a, b, c))

    def torsion_vanishes(rng, _):
        a, b = rv(rng), rv(rng)
        yield torsion(conn, a, b), zero
        yield cartan_torsion(conn, a), zero

    def kind_linear(kind, rng, _):
        """The Cartan operator of ``kind`` is tensorial in one slot, a derivation in the other."""
        b, c = rv(rng), rv(rng)
        f = rand_scalar(dim, rng)
        fb, fc = (mf.scale(f, b), c), (b, mf.scale(f, c))
        tensorial, derivation = (fc, fb) if kind == "first" else (fb, fc)
        base = mf.scale(f, cartan_connection(conn, kind, b, c))
        yield cartan_connection(conn, kind, *tensorial), base
        yield (cartan_connection(conn, kind, *derivation),
               mf.add(mf.scale(mf.scalar_product(b, c), mf.gradient_field(f, dim)), base))

    def cartan_pairing(rng, _):
        b, c = rv(rng), rv(rng)
        yield (mf.add(cartan_connection(conn, "first", b, c),
                      cartan_connection(conn, "second", b, c)),
               mf.gradient_field(mf.scalar_product(b, c), dim))

    def structure(which, arity):
        """Four draws of the structure equation ``which``, the last one constant."""
        sides = partial(check_structure_equation, conn, which)
        return partial(identity_draws, dim, sides, arity, (1, 1, 1, 0))

    return [
        ("torsion-equivalence", "TCF.1a", 2, torsion_equiv),
        ("torsion-antisymmetry", "TCF.1b", 2, partial(antisymmetric, torsion, 2)),
        ("torsion-tensoriality", "TCF.1b", 2, torsion_tensorial),
        ("curvature-antisymmetry", "TCF.3", 2, partial(antisymmetric, curvature, 3)),
        ("curvature-tensoriality", "TCF.2a", 1, curv_tensorial),
        ("curvature-classical-coefficients", "TCF.2b", 1, curv_classical),
        ("cartan-torsion-roundtrip", "CF.1a", 2, theta_roundtrip),
        ("cartan-curvature-roundtrip", "CF.2a", 2, omega_roundtrip),
        ("cartan-torsion-frame-independence", "CF.1", 2,
         partial(frame_independence, conn, cartan_torsion, [rv])),
        ("cartan-curvature-frame-independence", "CF.2", 2,
         partial(frame_independence, conn, cartan_curvature, [rv, rv])),
        *([("torsion-vanishes", "SPS.3", 2, torsion_vanishes)] if symmetric else []),
        ("cartan-first-linearity", "CSE.3", 2, partial(kind_linear, "first")),
        ("cartan-second-linearity", "CSE.4", 2, partial(kind_linear, "second")),
        ("cartan-pairing", "CSE.5", 5, cartan_pairing),
        ("structure-first", "FCE.1", 4, structure("first", 1)),
        ("structure-second", "SCE.1", 4, structure("second", 2)),
    ]


def bianchi_rows(run: _SuiteRun) -> list:
    """The two symmetric-structure identities at one point set, drawn from the
    generator of the suite's name; the first argument draw of each is constant.
    The caller runs them only on a connection it found symmetric."""
    conn, dim = run.conn, run.dim
    points = run.points(run.fix.domain, run.rng("bianchi"), 3)
    cyclic = partial(identity_draws, dim, partial(check_cyclic, conn), 3, (0, 1, 1, 1))
    bianchi = partial(identity_draws, dim, partial(check_bianchi, conn), 4, (0, 1, 1))
    return [
        ("curvature-cyclic", "SPS.4", 4, cyclic, points),
        ("curvature-bianchi", "SPS.5", 3, bianchi, points),
    ]


# ---------------------------------------------------------------------------
# Bridge suite: classical component formulas in the fixture's own chart
# ---------------------------------------------------------------------------


def bridge_rows(run: _SuiteRun) -> list:
    """Signed derivatives against the classical tables.  On the curved 2-D fixtures both sides of
    `classical-vector-co` lower to one slot, a self-comparison the census pins (no other route yet)."""
    conn, dim = run.conn, run.dim

    def classical_vector(sign, variance, rng, _):
        """Component lam of cov_sign along e_mu of v against the classical table."""
        v = rand_vector(dim, rng, degree=2)
        table = classical_cov_derivative(conn, v.vector_components(), (variance,))
        for mu in range(dim):
            value = cov_derivative(conn, sign, mf.basis(dim, mu), v)
            for lam in range(dim):
                yield value.component(1 << lam), table[lam][mu]

    def classical_tensor(signs, variances, rng, _):
        """Component b of the signed derivative along e_mu of t, applied to e_a."""
        t = rand_ext11(dim, rng)
        comps = [[t.entries[b][a] for b in range(dim)] for a in range(dim)]  # t_ab = t(e_a).e_b
        table = classical_cov_derivative(conn, comps, variances)
        for mu in range(dim):
            dt = extensor_cov_derivative(conn, signs, t, mf.basis(dim, mu)).entries
            for a in range(dim):
                for b in range(dim):
                    yield dt[b][a], table[a][b][mu]

    return [
        ("classical-vector-contra", "A10", 2, partial(classical_vector, "+", "contra")),
        ("classical-vector-co", "A11", 2, partial(classical_vector, "-", "co")),
        ("classical-tensor-co-co", "A24", 2,
         partial(classical_tensor, ("+", "+"), ("co", "co"))),
        ("classical-tensor-mixed", "A25", 2,
         partial(classical_tensor, ("+", "-"), ("co", "contra"))),
    ]


# ---------------------------------------------------------------------------
# Transform rows: coordinate-map laws (used by `transform`)
# ---------------------------------------------------------------------------


def transform_rows(run: _SuiteRun, cmap: CoordinateMap) -> list:
    """The coordinate-map laws, every row at one sample of the primed domain
    (the round trip at one of the canonical domain), both drawn, with the
    vectors two rows share, from the generator of the suite's name."""
    conn, dim = run.conn, cmap.dim
    common = run.rng("transform")
    pts = run.points(cmap.domain_primed, common)
    grid = list(itertools.product(range(dim), repeat=2))
    cube = list(itertools.product(range(dim), repeat=3))

    def delta(i, j):
        return ex.ONE if i == j else ex.ZERO

    jinv, kfwd = cmap.inverse_jacobian, cmap.forward_jacobian
    covariant, contravariant = cmap.frames

    def christoffel_vs_law(rng, _):
        """The connection transformation law, two independent routes."""
        by_operator = christoffel(conn, cmap)
        by_law = transform_connection(conn, cmap)
        for g, a, b in cube:
            yield by_operator.gamma[g][a][b], by_law.gamma[g][a][b]

    # vector laws: reconstruct the field from transformed components; both
    # rows take the same three vectors, one a draw
    vs = [rand_vector(dim, common).vector_components() for _ in range(3)]
    composed_vs = cmap.compose(vs)

    def vector_law(variance, reciprocal, rng, draw):
        v, composed = vs[draw], composed_vs[draw]
        comps = transform_components(v, cmap, (variance,))
        frame = [r.vector_components() for r in reciprocal]
        for i in range(dim):
            yield ex.total(ex.mul(comps[al], frame[al][i]) for al in range(dim)), composed[i]

    def tensor_law(variances, probe_variances, rng, _):
        """Invariant contraction of a random tensor with probe vectors."""
        t = rand_ext11(dim, rng)
        u = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
        w = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
        comps = [[t.entries[b][a] for b in range(dim)] for a in range(dim)]
        law = transform_components(comps, cmap, variances)
        u_t = transform_components(u, cmap, probe_variances[:1])
        w_t = transform_components(w, cmap, probe_variances[1:])
        composed = cmap.compose(t.entries)
        yield (ex.total(ex.mul(law[m][n], ex.mul(u_t[m], w_t[n])) for m, n in grid),
               ex.total(ex.mul(composed[i][j], ex.mul(ex.const(u[j]), ex.const(w[i])))
                        for i, j in grid))

    def chain_rule(rng, _):
        """Directional derivative along frame vectors vs primed-chart partials."""
        f = rand_scalar(dim, rng, degree=2)
        *grads, composed_f = cmap.compose([*(ex.diff(f, i) for i in range(dim)), f])
        for alpha in range(dim):
            b_comp = covariant[alpha].vector_components()
            yield (ex.total(ex.mul(b_comp[i], grads[i]) for i in range(dim)),
                   ex.diff(composed_f, alpha))

    def roundtrip(rng, _):
        """Transforming there and back recovers the connection."""
        swapped = CoordinateMap(dim, cmap.inverse, cmap.forward,
                                cmap.domain_canonical, cmap.domain_primed)
        back = transform_connection(transform_connection(conn, cmap), swapped)
        for g, a, b in cube:
            yield back.gamma[g][a][b], conn.gamma[g][a][b]

    rows = [
        ("map-roundtrip", "-", 1,
         lambda *_: zip(cmap.compose(cmap.forward), map(ex.Var, range(dim))), pts),
        ("map-jacobian-inverse", "-", 1,
         lambda *_: ((ex.total(ex.mul(kfwd[i][k], jinv[k][j]) for k in range(dim)), delta(i, j))
                    for i, j in grid), pts),
        ("frame-reciprocity", "A.1", 1,
         lambda *_: ((mf.scalar_product(covariant[m], contravariant[n]), delta(m, n))
                    for m, n in grid), pts),
        ("christoffel-vs-law", "A3", 1, christoffel_vs_law, pts),
        ("vector-law-co", "A8", 3,
         partial(vector_law, "co", contravariant), pts),
        ("vector-law-contra", "A9", 3,
         partial(vector_law, "contra", covariant), pts),
        ("tensor-law-co-co", "A20", 3,
         partial(tensor_law, ("co", "co"), ("contra", "contra")), pts),
        ("tensor-law-contra-contra", "A21", 3,
         partial(tensor_law, ("contra", "contra"), ("co", "co")), pts),
        ("tensor-law-co-contra", "A22", 3,
         partial(tensor_law, ("co", "contra"), ("contra", "co")), pts),
        ("tensor-law-contra-co", "A23", 3,
         partial(tensor_law, ("contra", "co"), ("co", "contra")), pts),
        ("directional-chain-rule", "A.1", 3, chain_rule, pts),
    ]
    if cmap.domain_canonical is not None:
        rows.append(("transform-roundtrip", "A3", 1, roundtrip,
                     run.points(cmap.domain_canonical, common)))
    return rows


# ---------------------------------------------------------------------------
# Entry point used by the CLI and the acceptance tests
# ---------------------------------------------------------------------------


def run_fixture_checks(fix: FixtureConfig, suite: str = "all", seed: int | None = None,
                       samples: int | None = None, tol: float | None = None) -> Report:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    seed, samples, tol = fix.settings(seed, samples, tol)
    # symmetry is decided once, from the expressions, for every row that depends on it
    witness = asymmetry(fix.conn) if suite in ("all", "cartan", "bianchi") else None
    symmetric = witness is None
    if suite == "bianchi" and not symmetric:
        pair, proved = witness
        claim = ("symmetric: G^g_ab and G^g_ba differ" if proved else
                 "proved symmetric: G^g_ab and G^g_ba are different expressions")
        raise NotSymmetricError(f"connection is not {claim} for (g, a, b) = {pair}; "
                                "identity only holds for torsionless structures")

    run = _SuiteRun(fix, seed, samples, tol)
    rows = []
    if suite in ("all", "core"):
        rows += core_rows(run)
    if suite in ("all", "cartan"):
        rows += cartan_rows(run, symmetric)
    if suite in ("all", "bianchi") and symmetric:
        rows += bianchi_rows(run)
    if suite in ("all", "bridge"):
        rows += bridge_rows(run)
    return Report(fix.name, seed, run.check_rows(rows))


def run_transform_checks(fix: FixtureConfig, cmap: CoordinateMap, seed: int | None = None,
                         samples: int | None = None, tol: float | None = None) -> Report:
    seed, samples, tol = fix.settings(seed, samples, tol)
    check_map_dim(cmap, fix.dim)
    run = _SuiteRun(fix, seed, samples, tol)
    return Report(fix.name, seed, run.check_rows(transform_rows(run, cmap)))
