"""The shift groupoid, its axioms, and principality.

Elements are triples (x, k, y) with a minimal witness (n, m) such that
the n-th shift of x equals the m-th shift of y.  Over the model graph
the isotropy question reduces exactly to freeness of the base dynamics,
which is why the sampled searches come back empty; the one-vertex loop
graph alone is the control showing what isotropy looks like.
"""

from groupoidlab import (
    DRGroupoid,
    EvPeriodic,
    LoopPath,
    OneVertexLoopGraph,
    PadicPoint,
    axiom_sample,
    build_model_graph,
    compose,
    inverse,
    isotropy_reduction,
    isotropy_search,
    make_element,
    odometer,
    golden_rotation,
    param_f,
    point_backend,
    principality_sample,
    shift,
    unit,
)
from groupoidlab.qphi import QPhi
from groupoidlab.spaces import CirclePoint

graph = build_model_graph(odometer(), point_backend())
zero = PadicPoint((), (0,))

print("== elements ==")
mu = param_f(graph, zero, EvPeriodic((4,), (1, 2)))
g = make_element(mu, 1, 0, shift(mu))
print("g = (mu, 1, shift mu); witness:", (g.n, g.m))
print("g g^-1 is the unit at mu:", compose(g, inverse(g)) == unit(mu))

print()
print("== axiom sampling ==")
rep = axiom_sample(DRGroupoid(graph), 1000, seed=7)
print(f"1000 sampled triples: {len(rep.failures)} failures")

print()
print("== principality ==")
for make in (golden_rotation, odometer):
    model = build_model_graph(make(), point_backend())
    rep = principality_sample(model, 500, 20, seed=1)
    print(f"{make().name}: isotropy found at {len(rep.isotropy)} of 500 sampled paths; "
          f"exact freeness reduction holds: {rep.reductions_ok}")

golden = build_model_graph(golden_rotation(), point_backend())
path = param_f(golden, CirclePoint(QPhi(0)), EvPeriodic((), (1,)))
print("isotropy pairs at the constant-index path:", list(isotropy_search(path, 20)))
print(f"shift period: {path.shift_period()}, so no isotropy at any exponent: "
      f"{isotropy_reduction(path)}")

print()
print("== the control: the loop graph alone is NOT principal ==")
loop = OneVertexLoopGraph()
periodic = LoopPath(loop, EvPeriodic((), (1,)))
print("isotropy pairs at the all-ones word:", list(isotropy_search(periodic, 5)))
rep = principality_sample(loop, 500, 20, seed=1)
print(f"sampled: isotropy found at {len(rep.isotropy)} displayed paths (of 500)")
print("integrating the free minimal Z factor is exactly what removes these.")
