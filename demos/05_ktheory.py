"""Exact K-theory bookkeeping.

For finite discrete graphs the K-groups are the cokernel and kernel of
the connecting matrix I - A^t restricted to the regular vertices,
computed by an integer Smith normal form with unimodular transforms.
The model construction then propagates the declared K-theory of the X
factor unchanged, because the Z factor contributes the K-theory of a
point by hypothesis.
"""

from groupoidlab import (
    OneVertexLoopGraph,
    dim_bound,
    graph_ktheory,
    model_ktheory,
    snf,
    stabilize_ktheory,
    z_factor_ktheory,
    golden_rotation,
    point_backend,
)
from groupoidlab.graphs import DiscreteGraph
from groupoidlab.ktheory import mat_mul
from groupoidlab.spaces import CantorBackend, CircleBackend, FiniteBackend

print("== Smith normal form ==")
m = [[2, 4], [6, 8]]
d, p, q = snf(m)
print("M      =", m)
print("D      =", d)
print("P      =", p)
print("Q      =", q)
print("PMQ==D :", mat_mul(mat_mul(p, m), q) == d)

print()
print("== loop graphs ==")
def loops(n):
    return DiscreteGraph(["v"], [("v", "v", f"e{i}") for i in range(n)])

for n in (2, 3, 4, 5):
    k0, k1 = graph_ktheory(loops(n))
    print(f"{n} loops, regular vertex: K0 = {k0}, K1 = {k1}")

k0, k1 = graph_ktheory(OneVertexLoopGraph())
print(f"countably many loops (singular vertex): K0 = {k0}, K1 = {k1}")

print()
print("== model propagation ==")
zmeta = z_factor_ktheory(golden_rotation())
print("declared Z-factor K-theory:", zmeta[0], "/", zmeta[1])
for name, backend in [
    ("point", point_backend()),
    ("three points", FiniteBackend(3)),
    ("circle", CircleBackend()),
    ("Cantor space", CantorBackend()),
]:
    k0, k1 = model_ktheory(backend, zmeta)
    print(f"X = {name:12s}: K0 = {k0}, K1 = {k1}")

print()
print("== stabilization drops the unit ==")
print(stabilize_ktheory(model_ktheory(point_backend(), zmeta)))

print()
print("== dimension bounds ==")
for dz in (2, 3):
    bound, refined = dim_bound(dz, 0, x_is_point=True)
    print(f"dim Z = {dz}: boundary dimension <= {bound}, exact value {refined}")
