"""Classical tensor-calculus bridge: coordinate maps, component laws, oracles.

Everything here works with explicit chart coordinates and index gymnastics,
independently of the frame-sum machinery, so the two code paths can verify
each other.  A coordinate map carries closed-form expressions both ways
(primed coordinates in terms of canonical ones and back); covariant frames
come from Jacobian columns of the inverse map, contravariant frames from
gradients of the forward map, composed into the primed chart where needed.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from . import expr as ex
from . import fields as mf
from .connection import ConnectionField, ExtensorField11, asymmetry, ext_det, ext_inverse
from .fields import Box, MultivectorField


class CoordinateMap:
    """Invertible chart change; forward gives primed coordinates in terms of
    canonical ones, inverse the other way around.  Its Jacobians, Hessian
    and frames are built on first use and kept (in its instance dict), for
    every law to share."""

    def __init__(self, dim: int, forward: tuple[ex.Expr, ...], inverse: tuple[ex.Expr, ...],
                 domain_primed: Box, domain_canonical: Box | None = None):
        if len(forward) != dim or len(inverse) != dim:
            raise ValueError(f"expected {dim} forward and inverse components")
        self.dim, self.forward, self.inverse = dim, tuple(forward), tuple(inverse)
        self.domain_primed, self.domain_canonical = domain_primed, domain_canonical

    @classmethod
    def identity(cls, dim: int, domain: Box) -> CoordinateMap:
        coords = tuple(ex.Var(i) for i in range(dim))
        return cls(dim, coords, coords, domain, domain)

    def compose(self, table):
        """An expression, or nested lists of them, composed into the primed chart on one tape."""
        cells = np.array(table, dtype=object)
        cells.flat = ex.substitute(cells.flat, self.inverse)
        return cells.tolist()

    @functools.cached_property
    def inverse_jacobian(self) -> list[list[ex.Expr]]:
        """[alpha][mu] = d x^alpha / d x^mu' as functions of the primed coordinates."""
        return [[ex.diff(c, j) for j in range(self.dim)] for c in self.inverse]

    @functools.cached_property
    def forward_jacobian(self) -> list[list[ex.Expr]]:
        """[lambda][beta] = d x^lambda' / d x^beta composed into the primed chart."""
        return self.compose([[ex.diff(c, j) for j in range(self.dim)] for c in self.forward])

    @functools.cached_property
    def inverse_hessian(self) -> list[list[list[ex.Expr]]]:
        """[beta][mu][nu] = d^2 x^beta / d x^mu' d x^nu'."""
        return [[[ex.diff(d, k) for k in range(self.dim)] for d in row]
                for row in self.inverse_jacobian]

    @functools.cached_property
    def frames(self) -> tuple[list[MultivectorField], list[MultivectorField]]:
        """Covariant and contravariant frame fields in primed coordinates: the
        Jacobian columns of the inverse map, and the gradients of the forward
        components composed into the primed chart.  They are reciprocal."""
        n, jinv = self.dim, self.inverse_jacobian
        covariant = [mf.vector(n, [jinv[i][m] for i in range(n)]) for m in range(n)]
        return covariant, [mf.vector(n, row) for row in self.forward_jacobian]


def christoffel(conn: ConnectionField, cmap: CoordinateMap) -> ConnectionField:
    """Connection coefficients in the primed chart, extracted operationally.

    Builds cov+ of each covariant frame vector along another directly in
    the primed chart (directional derivative of frame components plus the
    composed connection term) and resolves against the contravariant frame.
    """
    n, gamma = cmap.dim, cmap.compose(conn.gamma)
    down, up = ([f.vector_components() for f in frame] for frame in cmap.frames)

    @functools.cache
    def derivative(mu: int, nu: int, g: int) -> ex.Expr:
        """Component g of cov+_{b_mu} b_nu, b_mu . d_o acting as d/dx^mu' in the primed chart."""
        pairs = itertools.product(range(n), repeat=2)
        return ex.total(itertools.chain([ex.diff(down[nu][g], mu)], (
            ex.mul(gamma[g][i][j], ex.mul(down[mu][i], down[nu][j])) for i, j in pairs)))

    def entry(index):
        lam, mu, nu = index
        return ex.total(ex.mul(derivative(mu, nu, g), up[lam][g]) for g in range(n))

    return ConnectionField(n, _tabulate(n, 3, entry))


def transform_connection(conn: ConnectionField, cmap: CoordinateMap) -> ConnectionField:
    """Classical transformation law for connection coefficients.

    G^l'_{m'n'} = (dx^a/dx^m')(dx^b/dx^n')(dx^l'/dx^g) G^g_{ab}
                  + (d^2 x^b/dx^m' dx^n')(dx^l'/dx^b)
    """
    n, gamma = cmap.dim, cmap.compose(conn.gamma)
    jinv, kfwd, hess = cmap.inverse_jacobian, cmap.forward_jacobian, cmap.inverse_hessian

    def entry(index):
        lam, mu, nu = index
        return ex.total(itertools.chain(
            (ex.mul(ex.mul(jinv[a][mu], jinv[b][nu]), ex.mul(kfwd[lam][g], gamma[g][a][b]))
             for a, b, g in itertools.product(range(n), repeat=3)),
            (ex.mul(hess[b][mu][nu], kfwd[lam][b]) for b in range(n))))

    if asymmetry(conn) is None:  # the law keeps a proved symmetry: the Hessian term is symmetric
        return ConnectionField(n, _tabulate_symmetric(n, entry))
    return ConnectionField(n, _tabulate(n, 3, entry))


def transform_components(components, cmap: CoordinateMap, variances) -> list:
    """Component law into the primed chart, one variance per index.

    Each index takes one Jacobian factor: d x^a / d x^mu' (inverse
    Jacobian) if it is 'co', d x^mu' / d x^a (forward Jacobian) if it is
    'contra'.  ``components`` nests one list level per index.
    """
    factors = _frame_components(cmap, variances)
    entries = dict(_entries(components, cmap.dim, len(factors)))
    comps = list(zip(entries, cmap.compose(list(entries.values()))))
    return _tabulate(cmap.dim, len(factors), lambda primed: ex.total(
        ex.mul(_factor(factors, primed, raw), comp) for raw, comp in comps))


def classical_cov_derivative(conn: ConnectionField, components, variances) -> list:
    """Classical covariant derivatives of components in the canonical chart.

    out[i_1..i_k][m] = d t_{i_1..i_k}/dx^m plus, for each index p in turn
    and s = 0..n-1, with t_{..s..} the component with s in place of i_p:
      + G^{i_p}_{m s} t_{..s..}  if index p is 'contra',
      - G^s_{m i_p} t_{..s..}    if it is 'co'.
    e.g. ('co', 'contra'): d t_a^b/dx^m - G^s_{m a} t_s^b + G^b_{m s} t_a^s.
    """
    n, g, variances = conn.dim, conn.gamma, _checked(variances)
    t = dict(_entries(components, n, len(variances)))

    def entry(out_index):
        *idx, m = out_index
        terms = [ex.diff(t[tuple(idx)], m)]
        for p, variance in enumerate(variances):
            for s in range(n):
                other = t[(*idx[:p], s, *idx[p + 1:])]
                if variance == "contra":
                    terms.append(ex.mul(g[idx[p]][m][s], other))
                else:
                    terms.append(ex.neg(ex.mul(g[s][m][idx[p]], other)))
        return ex.total(terms)

    return _tabulate(n, len(variances) + 1, entry)


def riemann_coefficients(conn: ConnectionField):
    """Classical curvature coefficients R[d][g][a][b] from the connection.

    R^d_{g a b} = d_a G^d_{b g} - d_b G^d_{a g}
                  + G^d_{a s} G^s_{b g} - G^d_{b s} G^s_{a g}
    """
    n, g = conn.dim, conn.gamma
    summed = [[set() for _ in range(n)] for _ in range(n)]  # [d][a]: the s of G^d_{a s} not 0
    for d, a, s, _ in conn.nonzero:
        summed[d][a].add(s)

    def entry(index):
        d, c, a, b = index
        # only an s with G^d_{a s} or G^d_{b s} not 0 gives a term the fold keeps;
        # adding 0 first gives a constant -0.0 the sign the skipped terms would
        total = ex.add(ex.sub(ex.diff(g[d][b][c], a), ex.diff(g[d][a][c], b)), ex.ZERO)
        for s in sorted(summed[d][a] | summed[d][b]):
            total = ex.add(total, ex.mul(g[d][a][s], g[s][b][c]))
            total = ex.sub(total, ex.mul(g[d][b][s], g[s][a][c]))
        return total

    return _tabulate(n, 4, entry)


def levi_civita_from_metric(metric) -> ConnectionField:
    """Symmetric connection of a metric symmetric as written ([i][j] the same expression
    as [j][i]): half g^{gs}(d_a g_sb + d_b g_as - d_s g_ab), one tree per pair (a, b)."""
    g = [[ex.as_expr(c) for c in row] for row in metric]
    n = len(g)
    if any(len(row) != n for row in g):
        raise ValueError("metric must be a square matrix of expressions")
    for i, j in itertools.combinations(range(n), 2):
        if g[i][j] != g[j][i]:
            raise ValueError(f"metric matrix is not symmetric: [{i}][{j}] is {ex.to_str(g[i][j])} "
                             f"and [{j}][{i}] is {ex.to_str(g[j][i])}")
    t = ExtensorField11(n, g)
    if ex.is_zero(ext_det(t)):  # else mul folds each 1/det away with a zero derivative
        rows = ", ".join(f"[{', '.join(map(ex.to_str, row))}]" for row in g)
        raise ValueError(f"metric matrix [{rows}] is singular: its determinant is 0")
    ginv = ext_inverse(t).entries

    def entry(index):
        c, a, b = index
        return ex.mul(ex.const(0.5), ex.total(
            ex.mul(ginv[c][s], ex.sub(ex.add(ex.diff(g[s][b], a), ex.diff(g[a][s], b)),
                                      ex.diff(g[a][b], s))) for s in range(n)))

    return ConnectionField(n, _tabulate_symmetric(n, entry))


def _checked(variances) -> tuple[str, ...]:
    """``variances`` as a tuple, each entry 'co' or 'contra'."""
    for variance in variances:
        if variance not in ("co", "contra"):
            raise ValueError(f"variance must be 'co' or 'contra', got {variance!r}")
    return tuple(variances)


def _frame_components(cmap: CoordinateMap, variances) -> list:
    """Per index, [mu][a] -> component a of frame vector mu of its variance:
    d x^a / d x^mu' for 'co', d x^mu' / d x^a for 'contra'."""
    frames = dict(zip(("co", "contra"), cmap.frames))
    return [[f.vector_components() for f in frames[v]] for v in _checked(variances)]


def _entries(components, n: int, rank: int):
    """(index, components[i_1]...[i_k] as an expression), outer index first."""
    for index in itertools.product(range(n), repeat=rank):
        yield index, ex.as_expr(functools.reduce(operator.getitem, index, components))


def _factor(factors, primed, raw) -> ex.Expr:
    """The product over indices k of factors[k][primed_k][raw_k], folded left."""
    return functools.reduce(ex.mul, (f[p][r] for f, p, r in zip(factors, primed, raw)))


def _tabulate_symmetric(n: int, entry) -> list:
    """An n x n x n table, entry(index) built once per (c, a, b), a <= b, for (c, b, a) too."""
    lower = functools.cache(entry)
    return _tabulate(n, 3, lambda index: lower((index[0], *sorted(index[1:]))))


def _tabulate(n: int, rank: int, entry) -> list:
    """Nested lists, ``rank`` levels of ``n``, holding entry(index) at each index."""
    out = np.empty((n,) * rank, dtype=object)
    for index in itertools.product(range(n), repeat=rank):
        out[index] = entry(index)
    return out.tolist()
