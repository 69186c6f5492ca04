"""The model graph over Z x X and its contracting witnesses.

Vertices are pairs (z, x); the edge (z, x, m) points from (z, x)
to (rho(z), x_m), where (x_m) is the canonical dense sequence of X.
Minimality of the graph reduces to density of rho-orbits, and the
contracting condition is witnessed by explicit families of path boxes
whose domains cover the whole vertex space.
"""

from fractions import Fraction

from groupoidlab import (
    Arc,
    CantorBox,
    CircleBox,
    CirclePoint,
    ModelEdge,
    PadicPoint,
    QPhi,
    build_model_graph,
    eps_dense,
    find_contracting_witness,
    golden_rotation,
    odometer,
    orbit_plus,
    param_f_k,
    pitchfork,
    point_backend,
    verify_contracting_witness,
)
from groupoidlab.spaces import FinitePoint, PairPoint

print("== the graph over (2-adics) x (point) ==")
graph = build_model_graph(odometer(), point_backend())
star = FinitePoint(0, 1)
zero = PadicPoint((), (0,))
e = ModelEdge(zero, star, 5)
print("edge (0, *, 5): domain =", graph.d(e), " range =", graph.r(e))

v = PairPoint(zero, star)
print("orbit of (0, *) at depth 1:", sorted(map(str, orbit_plus(graph, v, 1))))
pts = orbit_plus(graph, v, 64)
print("depth-64 orbit is 1/64-dense:", eps_dense(graph.vertex_backend, pts, Fraction(1, 64)))

print()
print("== witness paths ==")
g2 = build_model_graph(golden_rotation(), point_backend())
t0 = CirclePoint(QPhi(0))
for k in (1, 2, 3):
    # an index-1 edge, then k index-k edges walking the inverse orbit
    wp = param_f_k(g2, t0, star, (1,) + (k,) * k)
    print(f"k={k}: length {len(wp)}, r = {wp.r()},")
    print(f"      d = {wp.d()}")

print()
print("== a contracting witness over the golden rotation ==")
u = CircleBox((Arc(QPhi(0), QPhi(Fraction(1, 4))),))
witness = find_contracting_witness(g2, u, point_backend().full_box())
print(f"the quarter arc needs {witness.n} inverse-orbit translates to cover the circle")
report = verify_contracting_witness(witness)
print("ranges inside V:       ", report.ranges_inside)
print("pairwise disjoint:     ", report.pairwise_disjoint)
print("domains cover strictly:", report.domains_cover_strictly)
print("exterior witness point:", report.exterior_point)

print()
print("pitchfork of two witness path boxes (must be empty):",
      pitchfork(witness.path_boxes[0], witness.path_boxes[1]))

print()
print("== the same over the odometer ==")
g3 = build_model_graph(odometer(), point_backend())
w2 = find_contracting_witness(g3, CantorBox(((0,),)), point_backend().full_box())
print(f"the even cylinder needs {w2.n} translates")
print("witness verified:", verify_contracting_witness(w2).ok)
