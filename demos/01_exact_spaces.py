"""Exact points and the two vetted free minimal systems.

Everything in this demo is computed in exact arithmetic: golden-field
numbers p + q*phi for the circle, eventually periodic bit streams for
the 2-adics.  No floating point appears anywhere.
"""

from fractions import Fraction

from groupoidlab import (
    CirclePoint,
    PadicPoint,
    QPhi,
    circle_rotate,
    eps_dense,
    freeness_check,
    finite_cyclic,
    golden_rotation,
    odometer,
    odometer_succ,
    qphi_sign,
)
from groupoidlab.spaces import FinitePoint

print("== the golden field ==")
x = QPhi(Fraction(1, 2)) + QPhi(0, 1)  # 1/2 + phi
print("1/2 + phi                 =", x)
print("reduced mod 1             =", x.mod1())
print("sign of 1 - phi           =", qphi_sign(1, -1))
print("sign of phi - 1           =", qphi_sign(-1, 1))

print()
print("== the golden rotation ==")
t = CirclePoint(QPhi(0))
for k in range(4):
    print(f"rotate^{k}(0) =", circle_rotate(t, k).value)

# density of orbit prefixes: exact arc-gap comparisons against rational eps
orbit = [circle_rotate(t, k) for k in range(55)]
for n, eps in ((2, Fraction(1, 4)), (3, Fraction(1, 4)), (54, Fraction(1, 64)), (55, Fraction(1, 64))):
    dense = eps_dense(golden_rotation().backend, orbit[:n], eps)
    print(f"first {n} orbit points of 0 are {eps}-dense: {dense}")

print()
print("== the 2-adic odometer ==")
z = PadicPoint((), (0,))  # the zero sequence
print("0        ->", z)
print("0 + 1    ->", odometer_succ(z, 1))
print("3 + 1    ->", odometer_succ(PadicPoint((1, 1), (0,)), 1))
print("-1 + 1   ->", odometer_succ(PadicPoint((), (1,)), 1), "(infinite carry)")

orbit = [odometer_succ(z, k) for k in range(8)]
for n in (7, 8):
    dense = eps_dense(odometer().backend, orbit[:n], Fraction(1, 8))
    print(f"first {n} orbit points of 0 hit all depth-3 cylinders: {dense}")

print()
print("== freeness ==")
print("golden rotation periods up to 100:", freeness_check(golden_rotation(), t, 100))
print("odometer periods up to 100:       ", freeness_check(odometer(), z, 100))
cyc = finite_cyclic(3)
print("3-cycle periods up to 7 (control):", freeness_check(cyc, FinitePoint(0, 3), 7))
