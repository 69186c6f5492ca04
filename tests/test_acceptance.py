"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them all).

Every tolerance and sample count is pinned here; nothing is deferred to
later calibration.
"""

import json
import random
import time
from fractions import Fraction

from groupoidlab.qphi import QPhi
from groupoidlab.boundary import (
    ApproachPointRule,
    ConstantTail,
    EscapingTail,
    EvPeriodic,
    BasePointTail,
    FiniteBoundaryPath,
    LoopPath,
    SequenceDescription,
    converges,
    homeo_h,
    param_f,
    shift,
)
from groupoidlab.cli import parse_config, run_battery
from groupoidlab.graphs import (
    FinitePath,
    ModelEdge,
    OneVertexLoopGraph,
    build_model_graph,
    find_contracting_witness,
    orbit_plus,
    vertex_path,
    verify_contracting_witness,
)
from groupoidlab.groupoid import (
    DRGroupoid,
    axiom_sample,
    principality_sample,
)
from groupoidlab.ktheory import (
    FGAbelianGroup,
    SymbolicGroup,
    Z_POINTED,
    ZERO_GROUP,
    declared_space_ktheory,
    dim_bound,
    graph_ktheory,
    model_ktheory,
    z_factor_ktheory,
)
from groupoidlab.spaces import (
    Arc,
    CantorBackend,
    CantorBox,
    CircleBackend,
    CircleBox,
    FiniteBackend,
    FinitePoint,
    PadicPoint,
    eps_dense,
    golden_rotation,
    odometer,
    point_backend,
)
from groupoidlab.graphs import DiscreteGraph

from small_graphs import small_graph_sweep

BACKENDS = [("golden-rotation", golden_rotation), ("odometer", odometer)]


def verdict(number, ok, label):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


# 1 ------------------------------------------------------------------------


def test_criterion_1_groupoid_axioms():
    ok = True
    for _name, make in BACKENDS:
        graph = build_model_graph(make(), point_backend())
        start = time.monotonic()
        rep = axiom_sample(DRGroupoid(graph), 1000, seed=7)
        elapsed = time.monotonic() - start
        ok = ok and rep.ok and elapsed < 5.0
    verdict(1, ok, "1000 composable triples per backend satisfy the groupoid laws in < 5 s")


# 2 ------------------------------------------------------------------------


def test_criterion_2_principality():
    ok = True
    for _name, make in BACKENDS:
        graph = build_model_graph(make(), point_backend())
        for seed in range(10):
            rep = principality_sample(graph, 500, 20, seed)
            ok = ok and rep.ok and rep.reductions_ok
    # negative control: the one-vertex loop graph has isotropy every seed
    loop = OneVertexLoopGraph()
    for seed in range(10):
        rep = principality_sample(loop, 500, 20, seed)
        ok = ok and not rep.ok
    verdict(
        2,
        ok,
        "500 sampled paths x 10 seeds x 2 backends: no isotropy, freeness "
        "reduction exact; loop-graph control shows isotropy every seed",
    )


# 3 ------------------------------------------------------------------------


def test_criterion_3_minimality():
    eps = Fraction(1, 64)
    depth = 64
    ok = True
    for _name, make in BACKENDS:
        graph = build_model_graph(make(), point_backend())
        rng = random.Random(101)
        for _ in range(10):
            v = graph.vertex_backend.random_point(rng)
            pts = orbit_plus(graph, v, depth)
            ok = ok and eps_dense(graph.vertex_backend, pts, eps)
    verdict(3, ok, "orbit density at eps = 2^-6 within depth 2^6 at 10 random base vertices")


# 4 ------------------------------------------------------------------------


def arcs_cover_circle_endpoint_oracle(arcs):
    if not arcs:
        return False

    def interior(t):
        return any(a.contains(t) for a in arcs)

    return all(
        interior(a.start) and interior((a.start + a.length).mod1()) for a in arcs
    )


def exact_arc_sweep_least_n(u_arc, cap=64):
    sys = golden_rotation()
    arcs = []
    for n in range(1, cap):
        arcs.extend(sys.translate_box(CircleBox((u_arc,)), -(n + 1)).arcs)
        if arcs_cover_circle_endpoint_oracle(arcs):
            return n
    raise AssertionError("no cover found by the oracle")


def test_criterion_4_contracting():
    ok = True
    rng = random.Random(4)
    for _name, make in BACKENDS:
        system = make()
        graph = build_model_graph(system, point_backend())
        for _ in range(10):
            if isinstance(system.backend, CircleBackend):
                start = QPhi(Fraction(rng.randrange(32), 32))
                u = CircleBox((Arc(start, QPhi(Fraction(rng.choice([4, 6, 8]), 32))),))
            else:
                depth = rng.randrange(1, 4)
                u = CantorBox((tuple(rng.randrange(2) for _ in range(depth)),))
            witness = find_contracting_witness(graph, u, point_backend().full_box())
            ok = ok and verify_contracting_witness(witness).ok
    golden_graph = build_model_graph(golden_rotation(), point_backend())
    quarter = Arc(QPhi(0), QPhi(Fraction(1, 4)))
    witness = find_contracting_witness(golden_graph, CircleBox((quarter,)), point_backend().full_box())
    oracle_n = exact_arc_sweep_least_n(quarter)
    ok = ok and witness.n == oracle_n
    verdict(
        4,
        ok,
        f"contracting witnesses verified for 10 random pairs per backend; "
        f"golden quarter-arc translate count = {witness.n} = exact sweep oracle",
    )


# 5 ------------------------------------------------------------------------


def test_criterion_5_graph_ktheory_oracles():
    # the timed part is the shared sweep (graph_ktheory and the minors
    # oracle for every graph, timed apart) plus the checks below
    cases, ktheory_s, oracle_s = small_graph_sweep()
    start = time.monotonic()
    ok = graph_ktheory(OneVertexLoopGraph()) == (FGAbelianGroup(1, (), (1,)), ZERO_GROUP)

    def loops(n):
        return DiscreteGraph(["v"], [("v", "v", f"e{i}") for i in range(n)])

    ok = ok and graph_ktheory(loops(2)) == (FGAbelianGroup(0, (), ()), ZERO_GROUP)
    ok = ok and graph_ktheory(loops(3)) == (FGAbelianGroup(0, (2,), (1,)), ZERO_GROUP)

    for mat_rows, k0, k1, _m, regular, inv in cases:
        n = len(mat_rows)
        if not regular:
            ok = ok and k0.rank == n and k0.torsion == () and k1 == ZERO_GROUP
            continue
        ok = (
            ok
            and k0.torsion == tuple(d for d in inv if d >= 2)
            and k0.rank == n - len(inv)
            and k1.rank == len(regular) - len(inv)
        )
        if not ok:
            break
    elapsed = ktheory_s + oracle_s + time.monotonic() - start
    ok = ok and elapsed < 10.0
    verdict(
        5,
        ok,
        f"loop-graph values exact; all {len(cases)} graphs with <= 3 vertices and <= 4 "
        f"out-edges per vertex agree with the minor-gcd oracle in {elapsed:.1f} s < 10 s "
        f"(graph_ktheory + connecting_matrix {ktheory_s:.1f} s, "
        f"minor-gcd oracle {oracle_s:.1f} s)",
    )


# 6 ------------------------------------------------------------------------


def test_criterion_6_model_ktheory():
    zmeta = z_factor_ktheory(odometer())
    ok = zmeta == (Z_POINTED, ZERO_GROUP)
    expected = {
        "point": (Z_POINTED, ZERO_GROUP),
        "finite-3": (FGAbelianGroup(3, (), (1, 1, 1)), ZERO_GROUP),
        "cantor": (SymbolicGroup("free abelian of countable rank", True), ZERO_GROUP),
        "circle": (FGAbelianGroup(1, (), (1,)), FGAbelianGroup(1)),
    }
    backends = {
        "point": point_backend(),
        "finite-3": FiniteBackend(3),
        "cantor": CantorBackend(),
        "circle": CircleBackend(),
    }
    for name, backend in backends.items():
        got = model_ktheory(backend, zmeta)
        ok = ok and got == expected[name] == declared_space_ktheory(backend)
        k0 = got[0]
        pointed = k0.unit_class is not None if isinstance(k0, FGAbelianGroup) else k0.pointed
        ok = ok and pointed  # all four X backends are compact
    verdict(6, ok, "model K-theory equals the declared X value with the unit preserved")


# 7 ------------------------------------------------------------------------


def test_criterion_7_boundary_conjugacies():
    ok = True
    for _name, make in BACKENDS:
        graph = build_model_graph(make(), point_backend())
        sys = graph.z_system
        rng = random.Random(71)
        for _ in range(1000):
            z = sys.backend.random_point(rng)
            head = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(0, 3)))
            cycle = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(1, 4)))
            idx = EvPeriodic(head, cycle)
            if shift(param_f(graph, z, idx)) != param_f(graph, sys.power(z, -1), idx.shifted()):
                ok = False
    loop = OneVertexLoopGraph()
    graph = build_model_graph(odometer(), point_backend())
    sys = graph.z_system
    rng = random.Random(72)
    for _ in range(1000):
        z = sys.backend.random_point(rng)
        if rng.randrange(2):
            nu = LoopPath(loop, EvPeriodic((), (rng.randrange(1, 6),)))
        else:
            labels = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(1, 5)))
            nu = FiniteBoundaryPath(FinitePath(loop, tuple(loop.edge(m) for m in labels)))
        if shift(homeo_h(graph, z, nu)) != homeo_h(graph, sys.power(z, -1), shift(nu)):
            ok = False
    verdict(7, ok, "shift conjugacies through the parameterisation and through h, 1000 samples each")


# 8 ------------------------------------------------------------------------


def test_criterion_8_convergence_oracle():
    graph = build_model_graph(odometer(), point_backend())
    zero = PadicPoint((), (0,))
    star = FinitePoint(0, 1)
    from groupoidlab.spaces import PairPoint

    v = FiniteBoundaryPath(vertex_path(graph, PairPoint(zero, star)))
    mu = param_f(graph, zero, EvPeriodic((), (1,)))

    ok = converges(SequenceDescription((), ConstantTail(mu)), mu).holds
    esc = SequenceDescription((), EscapingTail(v, star, 0, 0))
    ok = ok and converges(esc, v).holds
    const_edge = FiniteBoundaryPath(
        FinitePath(graph, (ModelEdge(odometer().power(zero, -1), star, 7),))
    )
    rep = converges(SequenceDescription((), ConstantTail(const_edge)), v)
    ok = ok and rep.escape == "fail" and not rep.holds

    loop = OneVertexLoopGraph()
    sys = graph.z_system
    rng = random.Random(88)
    for trial in range(50):
        z = sys.backend.random_point(rng)
        mode = trial % 3
        if mode == 0:
            word = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(0, 4)))
            desc = SequenceDescription((), BasePointTail(graph, ApproachPointRule(z), word, star))
            nu = (
                FiniteBoundaryPath(FinitePath(loop, tuple(loop.edge(m) for m in word)))
                if word
                else FiniteBoundaryPath(vertex_path(loop, loop.vertex))
            )
        elif mode == 1:
            idx = EvPeriodic(
                tuple(rng.randrange(1, 5) for _ in range(rng.randrange(0, 2))),
                tuple(rng.randrange(1, 5) for _ in range(rng.randrange(1, 3))),
            )
            desc = SequenceDescription((), BasePointTail(graph, ApproachPointRule(z), idx))
            nu = LoopPath(loop, idx)
        else:
            word = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(0, 3)))
            nu = (
                FiniteBoundaryPath(FinitePath(loop, tuple(loop.edge(m) for m in word)))
                if word
                else FiniteBoundaryPath(vertex_path(loop, loop.vertex))
            )
            desc = SequenceDescription(
                (), EscapingTail(homeo_h(graph, z, nu), star, 0, rng.randrange(3))
            )
        ok = ok and converges(desc, homeo_h(graph, z, nu)).holds
    verdict(8, ok, "three worked convergence verdicts plus 50 h-images of convergent products")


# 9 ------------------------------------------------------------------------


def test_criterion_9_dimension_arithmetic():
    ok = True
    for dz in (2, 3):
        for dx in (0, 1, 2):
            bound, refined = dim_bound(dz, dx, x_is_point=(dx == 0))
            ok = ok and bound == 2 * dz + dx + 1
            if dx == 0:
                ok = ok and refined == dz and refined in (2, 3)
    verdict(9, ok, "bound 2*dimZ + dimX + 1 and refined one-point-X value dimZ in {2, 3}")


# 10 -----------------------------------------------------------------------


def test_criterion_10_determinism():
    cfg = parse_config(
        {"seeds": [7, 11], "bounds": {"axiom_trials": 80}}
    )
    first = run_battery(cfg).to_json()
    second = run_battery(cfg).to_json()
    ok = first == second and json.loads(first)["overall"] == "pass"
    verdict(10, ok, "two battery runs with identical config and seeds are byte-identical")
