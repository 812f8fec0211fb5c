"""Classical tensor-calculus bridge: coordinate maps, component laws, oracles.

Everything here works with explicit chart coordinates and index gymnastics,
independently of the frame-sum machinery, so the two code paths can verify
each other.  A coordinate map carries closed-form expressions both ways
(primed coordinates in terms of canonical ones and back); covariant frames
come from Jacobian columns of the inverse map, contravariant frames from
gradients of the forward map, composed into the primed chart where needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from . import fields as mf
from .connection import ConnectionField, ExtensorField11, ext_inverse
from .fields import Box, MultivectorField


@dataclass(frozen=True, eq=False)
class CoordinateMap:
    """Invertible chart change; forward gives primed coordinates in terms of
    canonical ones, inverse the other way around."""

    dim: int
    forward: tuple[ex.Expr, ...]
    inverse: tuple[ex.Expr, ...]
    domain_primed: Box
    domain_canonical: Box | None = None

    def __post_init__(self):
        if len(self.forward) != self.dim or len(self.inverse) != self.dim:
            raise ValueError(f"expected {self.dim} forward and inverse components")
        object.__setattr__(self, "forward", tuple(self.forward))
        object.__setattr__(self, "inverse", tuple(self.inverse))

    @classmethod
    def identity(cls, dim: int, domain: Box) -> CoordinateMap:
        coords = tuple(ex.Var(i) for i in range(dim))
        return cls(dim, coords, coords, domain, domain)


def jacobian(components, dim: int) -> list[list[ex.Expr]]:
    """J[i][j] = d components[i] / d x_j."""
    return [[ex.diff(c, j) for j in range(dim)] for c in components]


def inverse_jacobian(cmap: CoordinateMap) -> list[list[ex.Expr]]:
    """d x^alpha / d x^mu' as functions of the primed coordinates."""
    return jacobian(cmap.inverse, cmap.dim)


def forward_jacobian_primed(cmap: CoordinateMap) -> list[list[ex.Expr]]:
    """d x^lambda' / d x^beta composed into the primed chart."""
    jac = jacobian(cmap.forward, cmap.dim)
    return [[ex.substitute(c, cmap.inverse) for c in row] for row in jac]


def inverse_hessian(cmap: CoordinateMap) -> list[list[list[ex.Expr]]]:
    """H[beta][mu'][nu'] = d^2 x^beta / d x^mu' d x^nu'."""
    n = cmap.dim
    return [[[ex.diff(ex.diff(cmap.inverse[b], m), n_) for n_ in range(n)] for m in range(n)]
            for b in range(n)]


def coordinate_frames(cmap: CoordinateMap):
    """Covariant and contravariant frame fields, both in primed coordinates.

    The covariant frame is the Jacobian columns of the inverse map; the
    contravariant one collects gradients of the forward components,
    composed back into the primed chart.  They are mutually reciprocal.
    """
    n = cmap.dim
    jinv = inverse_jacobian(cmap)
    kfwd = forward_jacobian_primed(cmap)
    covariant = [mf.vector(n, [jinv[i][m] for i in range(n)])
                 for m in range(n)]
    contravariant = [mf.vector(n, [kfwd[l][i] for i in range(n)])
                     for l in range(n)]
    return covariant, contravariant


def _compose(e: ex.Expr, cmap: CoordinateMap) -> ex.Expr:
    """Re-express a canonical-chart scalar in primed coordinates."""
    return ex.substitute(e, cmap.inverse)


def christoffel(conn: ConnectionField, cmap: CoordinateMap) -> ConnectionField:
    """Connection coefficients in the primed chart, extracted operationally.

    Builds cov+ of each covariant frame vector along another directly in
    the primed chart (directional derivative of frame components plus the
    composed connection term) and resolves against the contravariant frame.
    """
    n = cmap.dim
    covariant, contravariant = coordinate_frames(cmap)
    comp_gamma = [[[_compose(conn.gamma[g][i][j], cmap) for j in range(n)] for i in range(n)]
                  for g in range(n)]
    out = [[[ex.ZERO] * n for _ in range(n)] for _ in range(n)]
    for mu in range(n):
        b_mu = covariant[mu].vector_components()
        for nu in range(n):
            b_nu = covariant[nu].vector_components()
            # cov+_{b_mu} b_nu, with b_mu . d_o acting as d/dx^mu' in the primed chart
            value = []
            for g in range(n):
                term = ex.diff(b_nu[g], mu)
                for i in range(n):
                    for j in range(n):
                        term = ex.add(term, ex.mul(comp_gamma[g][i][j],
                                                   ex.mul(b_mu[i], b_nu[j])))
                value.append(term)
            for lam in range(n):
                up = contravariant[lam].vector_components()
                total = ex.ZERO
                for g in range(n):
                    total = ex.add(total, ex.mul(value[g], up[g]))
                out[lam][mu][nu] = total
    return ConnectionField(n, out)


def transform_connection(conn: ConnectionField, cmap: CoordinateMap) -> ConnectionField:
    """Classical transformation law for connection coefficients.

    G^l'_{m'n'} = (dx^a/dx^m')(dx^b/dx^n')(dx^l'/dx^g) G^g_{ab}
                  + (d^2 x^b/dx^m' dx^n')(dx^l'/dx^b)
    """
    n = cmap.dim
    jinv = inverse_jacobian(cmap)
    kfwd = forward_jacobian_primed(cmap)
    hess = inverse_hessian(cmap)
    comp_gamma = [[[_compose(conn.gamma[g][i][j], cmap) for j in range(n)] for i in range(n)]
                  for g in range(n)]
    out = [[[ex.ZERO] * n for _ in range(n)] for _ in range(n)]
    for lam in range(n):
        for mu in range(n):
            for nu in range(n):
                total = ex.ZERO
                for a in range(n):
                    for b in range(n):
                        for g in range(n):
                            total = ex.add(total, ex.mul(
                                ex.mul(jinv[a][mu], jinv[b][nu]),
                                ex.mul(kfwd[lam][g], comp_gamma[g][a][b])))
                for b in range(n):
                    total = ex.add(total, ex.mul(hess[b][mu][nu], kfwd[lam][b]))
                out[lam][mu][nu] = total
    return ConnectionField(n, out)


def transform_vector_components(components, cmap: CoordinateMap, variance: str):
    """Vector component law into the primed chart ('co' or 'contra')."""
    n = cmap.dim
    comps = [_compose(ex.as_expr(c), cmap) for c in components]
    if variance == "co":
        jinv = inverse_jacobian(cmap)
        return [_sum(ex.mul(jinv[b][a], comps[b]) for b in range(n)) for a in range(n)]
    if variance == "contra":
        kfwd = forward_jacobian_primed(cmap)
        return [_sum(ex.mul(kfwd[a][b], comps[b]) for b in range(n)) for a in range(n)]
    raise ValueError(f"variance must be 'co' or 'contra', got {variance!r}")


def transform_tensor2_components(components, cmap: CoordinateMap, variances: tuple[str, str]):
    """2-tensor component law into the primed chart, one variance per index."""
    n = cmap.dim
    comps = [[_compose(ex.as_expr(c), cmap) for c in row] for row in components]
    jinv = inverse_jacobian(cmap)
    kfwd = forward_jacobian_primed(cmap)

    def factor(variance: str, primed: int, raw: int) -> ex.Expr:
        if variance == "co":
            return jinv[raw][primed]
        if variance == "contra":
            return kfwd[primed][raw]
        raise ValueError(f"variance must be 'co' or 'contra', got {variance!r}")

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


def vector_components_in_chart(v: MultivectorField, cmap: CoordinateMap, variance: str):
    """Direct primed-chart components: scalar products with the frame fields."""
    covariant, contravariant = coordinate_frames(cmap)
    frames = covariant if variance == "co" else contravariant
    comps = [_compose(c, cmap) for c in v.vector_components()]
    n = cmap.dim
    out = []
    for frame_vec in frames:
        fc = frame_vec.vector_components()
        out.append(_sum(ex.mul(comps[i], fc[i]) for i in range(n)))
    return out


def tensor2_components_in_chart(t: ExtensorField11, cmap: CoordinateMap,
                                variances: tuple[str, str]):
    """Direct primed-chart 2-tensor components t(frame) . frame."""
    covariant, contravariant = coordinate_frames(cmap)
    pick = {"co": covariant, "contra": contravariant}
    first = pick[variances[0]]
    second = pick[variances[1]]
    n = cmap.dim
    entries = [[_compose(c, cmap) for c in row] for row in t.entries]
    out = [[ex.ZERO] * n for _ in range(n)]
    for mu in range(n):
        u = first[mu].vector_components()
        for nu in range(n):
            w = second[nu].vector_components()
            total = ex.ZERO
            for i in range(n):
                for j in range(n):
                    total = ex.add(total, ex.mul(entries[i][j], ex.mul(u[j], w[i])))
            out[mu][nu] = total
    return out


def classical_cov_derivative(conn: ConnectionField, components, variance):
    """Classical covariant derivatives of components in the canonical chart.

    variance 'contra': out[l][m] = d v^l/dx^m + G^l_{m a} v^a
    variance 'co':     out[n][m] = d v_n/dx^m - G^a_{m n} v_a
    variance ('co','co'):     out[a][b][m] = d t_ab/dx^m - G^s_{m a} t_sb - G^t_{m b} t_at
    variance ('co','contra'): out[a][b][m] = d t_a^b/dx^m - G^s_{m a} t_s^b + G^b_{m t} t_a^t
    """
    n = conn.dim
    g = conn.gamma
    if variance == "contra":
        v = [ex.as_expr(c) for c in components]
        return [[_sum([ex.diff(v[l], m)] + [ex.mul(g[l][m][a], v[a]) for a in range(n)])
                 for m in range(n)] for l in range(n)]
    if variance == "co":
        v = [ex.as_expr(c) for c in components]
        return [[_sum([ex.diff(v[nu], m)] + [ex.neg(ex.mul(g[a][m][nu], v[a])) for a in range(n)])
                 for m in range(n)] for nu in range(n)]
    if variance == ("co", "co"):
        t = [[ex.as_expr(c) for c in row] for row in components]
        return [[[_sum([ex.diff(t[a][b], m)]
                       + [ex.neg(ex.mul(g[s][m][a], t[s][b])) for s in range(n)]
                       + [ex.neg(ex.mul(g[s][m][b], t[a][s])) for s in range(n)])
                  for m in range(n)] for b in range(n)] for a in range(n)]
    if variance == ("co", "contra"):
        t = [[ex.as_expr(c) for c in row] for row in components]
        return [[[_sum([ex.diff(t[a][b], m)]
                       + [ex.neg(ex.mul(g[s][m][a], t[s][b])) for s in range(n)]
                       + [ex.mul(g[b][m][s], t[a][s]) for s in range(n)])
                  for m in range(n)] for b in range(n)] for a in range(n)]
    raise ValueError(f"unsupported variance {variance!r}")


def riemann_coefficients(conn: ConnectionField):
    """Classical curvature coefficients R[d][g][a][b] from the connection.

    R^d_{g a b} = d_a G^d_{b g} - d_b G^d_{a g}
                  + G^d_{a s} G^s_{b g} - G^d_{b s} G^s_{a g}
    """
    n = conn.dim
    g = conn.gamma
    out = [[[[ex.ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for d in range(n):
        for gg in range(n):
            for a in range(n):
                for b in range(n):
                    total = ex.sub(ex.diff(g[d][b][gg], a), ex.diff(g[d][a][gg], b))
                    for s in range(n):
                        total = ex.add(total, ex.mul(g[d][a][s], g[s][b][gg]))
                        total = ex.sub(total, ex.mul(g[d][b][s], g[s][a][gg]))
                    out[d][gg][a][b] = total
    return out


def levi_civita_from_metric(metric) -> ConnectionField:
    """Symmetric connection of a metric: half g^{gs}(d_a g_sb + d_b g_as - d_s g_ab)."""
    g = [[ex.as_expr(c) for c in row] for row in metric]
    n = len(g)
    if any(len(row) != n for row in g):
        raise ValueError("metric must be a square matrix of expressions")
    ginv = ext_inverse(ExtensorField11(n, g)).entries
    out = [[[ex.ZERO] * n for _ in range(n)] for _ in range(n)]
    for gg in range(n):
        for a in range(n):
            for b in range(n):
                total = ex.ZERO
                for s in range(n):
                    bracket = ex.sub(ex.add(ex.diff(g[s][b], a), ex.diff(g[a][s], b)),
                                     ex.diff(g[a][b], s))
                    total = ex.add(total, ex.mul(ginv[gg][s], bracket))
                out[gg][a][b] = ex.mul(ex.const(0.5), total)
    return ConnectionField(n, out)


def _sum(terms) -> ex.Expr:
    total = ex.ZERO
    for t in terms:
        total = ex.add(total, t)
    return total
