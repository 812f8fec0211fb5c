"""Classical component calculus as an independent oracle.

A coordinate map into the polar chart generates frame fields, Christoffel
coefficients and component transformation laws; everything is checked
against the frame-sum machinery two ways, so disagreement would expose a
bug on either side.

Run:  python3 demos/04_coordinate_bridge.py
"""

import numpy as np

from gacalc import expr as ex
from gacalc import fields as mf
from gacalc.bridge import (
    christoffel,
    classical_cov_derivative,
    levi_civita_from_metric,
    transform_components,
    transform_connection,
)
from gacalc.connection import ConnectionField, cov_derivative
from gacalc.fixtures import polar_map, sphere_fixture

pm = polar_map()
zero = ConnectionField.zero(2)

print("== frames of the polar chart ==")
cov, contra = pm.frames
print("covariant b_r at (2, 0):     ", cov[0].at((2.0, 0.0)).vector_components())
print("covariant b_theta at (2, 0): ", cov[1].at((2.0, 0.0)).vector_components())
print("contravariant e^theta:       ", contra[1].at((2.0, 0.0)).vector_components())

print()
print("== transforming the flat connection into the polar chart ==")
polar_conn = transform_connection(zero, pm)
names = ("r", "th")
for g in range(2):
    for a in range(2):
        for b in range(2):
            val = ex.evaluate(polar_conn.gamma[g][a][b], (2.0, 0.3))
            if abs(val) > 1e-12:
                print(f"Gamma^{names[g]}_{{{names[a]} {names[b]}}}(r=2) = {val:+.6f}")

print()
print("== the operator route gives the same table ==")
op_route = christoffel(zero, pm)
worst = 0.0
for q in pm.domain_primed.sample(20, np.random.default_rng(2)):
    for g in range(2):
        for a in range(2):
            for b in range(2):
                worst = max(worst, abs(ex.evaluate(op_route.gamma[g][a][b], q)
                                       - ex.evaluate(polar_conn.gamma[g][a][b], q)))
print(f"max coefficient difference over 20 points: {worst:.2e}")

print()
print("== component law: the constant vector e1 in polar components ==")
contra_comps = transform_components([ex.ONE, ex.ZERO], pm, ("contra",))
r, th = 1.7, 0.4
print(f"v^r(1.7, 0.4)     = {ex.evaluate(contra_comps[0], (r, th)):+.6f}   (cos theta)")
print(f"v^theta(1.7, 0.4) = {ex.evaluate(contra_comps[1], (r, th)):+.6f}   (-sin theta / r)")

print()
print("== classical covariant derivative vs the frame-sum engine ==")
sphere = sphere_fixture()
v_comps = [ex.parse("x0*x1", 2), ex.parse("sin(x0)", 2)]
table = classical_cov_derivative(sphere.conn, v_comps, ("contra",))
v = mf.vector(2, v_comps)
q = (1.1, 0.7)
for mu in range(2):
    ga = cov_derivative(sphere.conn, "+", mf.basis(2, mu), v)
    for lam in range(2):
        a = ga.at(q).vector_components()[lam]
        b = ex.evaluate(table[lam][mu], q)
        print(f"v^{lam}_(;{mu}) engine {a:+.9f}   classical {b:+.9f}")

print()
print("== metric route reproduces the same connection ==")
lc = levi_civita_from_metric([[ex.ONE, ex.ZERO], [ex.ZERO, ex.powi(ex.Var(0), 2)]])
print("Gamma^r_{theta theta}(r=2) from the metric:", ex.evaluate(lc.gamma[0][1][1], (2.0, 0.0)))
