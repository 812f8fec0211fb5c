"""Torsion, curvature and Cartan's structure equations on two fixtures.

The unit-sphere chart is torsionless but curved; the constant-coefficient
fixture is flat-looking but torsionful.  Both satisfy the two structure
equations; the cyclic and differential curvature identities hold on the
symmetric one.

Run:  python3 demos/03_torsion_curvature_cartan.py
"""

import math

import numpy as np

from gacalc import fields as mf
from gacalc.algebra import format_multivector as fmt
from gacalc.cartan import (
    cartan_curvature,
    cartan_torsion,
    check_bianchi,
    check_cyclic,
    check_structure_equation,
    curvature,
    invert_cartan_curvature,
    torsion,
)
from gacalc.fixtures import sphere_fixture, torsionful_fixture
from gacalc.report import worst_residual
from gacalc.suites import rand_vector

sphere = sphere_fixture()
tors = torsionful_fixture()
e1, e2 = mf.basis(2, 0), mf.basis(2, 1)
q = (math.pi / 3, 0.25)

print("== unit sphere chart (theta, phi) ==")
print("torsion tau(e1, e2):        ", fmt(torsion(sphere.conn, e1, e2).at(q)))
rho = curvature(sphere.conn, e1, e2, e2)
print("curvature rho(e1,e2,e2):    ", fmt(rho.at(q)), "  (sin^2 theta at theta=pi/3)")
om = cartan_curvature(sphere.conn, e2, e1)
print("Cartan curvature (e2, e1):  ", fmt(om.at(q)))
back = invert_cartan_curvature(lambda c, d: cartan_curvature(sphere.conn, c, d), e1, e2, e2)
print("inversion recovers rho:     ", fmt(back.at(q)))

print()
print("== torsionful constant-coefficient fixture ==")
p = (0.2, -0.4)
print("tau(e1, e2):                ", fmt(torsion(tors.conn, e1, e2).at(p)))
print("Cartan torsion of e1:       ", fmt(cartan_torsion(tors.conn, e1).at(p)))

print()
print("== structure equations, both sides via independent code paths ==")
# each call builds the (lhs, rhs) pair of one argument tuple
rng = np.random.default_rng(11)
for fix in (sphere, tors):
    pts = fix.domain.sample(10, rng)
    r1 = worst_residual([check_structure_equation(fix.conn, "first", e1),
                         check_structure_equation(fix.conn, "first", e2)], pts)
    r2 = worst_residual([check_structure_equation(fix.conn, "second", e1, e2)], pts)
    print(f"{fix.name:<11} first:  max residual {r1:.2e}  -> {'PASS' if r1 < 1e-9 else 'FAIL'}")
    print(f"{fix.name:<11} second: max residual {r2:.2e}  -> {'PASS' if r2 < 1e-9 else 'FAIL'}")


def draws(arity, count, seed=0):
    """``count`` seeded draws of ``arity`` random vector fields, the first constant."""
    gen = np.random.default_rng(seed)
    return [[rand_vector(2, gen, degree=min(k, 1)) for _ in range(arity)] for k in range(count)]


print()
print("== symmetric-structure identities on the sphere ==")
pts = sphere.domain.sample(12, rng)
cyc = worst_residual([check_cyclic(sphere.conn, *args) for args in draws(3, 4)], pts)
bia = worst_residual([check_bianchi(sphere.conn, *args) for args in draws(4, 3)], pts)
print(f"cyclic sum residual:   {cyc:.2e}  -> {'PASS' if cyc < 1e-8 else 'FAIL'}")
print(f"bianchi sum residual:  {bia:.2e}  -> {'PASS' if bia < 1e-8 else 'FAIL'}")
print("(the bianchi suite refuses the torsionful fixture with NotSymmetricError)")
