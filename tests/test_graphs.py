import random
from fractions import Fraction

import pytest

from groupoidlab.qphi import QPhi
from groupoidlab.graphs import (
    CompositionError,
    DiscreteGraph,
    EdgeBox,
    FinitePath,
    GraphError,
    ModelEdge,
    OneVertexLoopGraph,
    OpenPathBox,
    build_model_graph,
    compose_paths,
    find_contracting_witness,
    make_witness_path_box,
    orbit_plus,
    pitchfork,
    vertex_path,
    verify_contracting_witness,
    witness_path,
    WitnessSearchError,
)
from groupoidlab.spaces import (
    Arc,
    CantorBackend,
    CantorBox,
    CircleBackend,
    CircleBox,
    CirclePoint,
    FiniteBackend,
    FiniteBox,
    FinitePoint,
    PadicPoint,
    PairPoint,
    box_contains,
    box_intersect,
    circle_rotate,
    eps_dense,
    finite_cyclic,
    golden_rotation,
    odometer,
    point_backend,
)

ZERO_2ADIC = PadicPoint((), (0,))
ZERO_CIRCLE = CirclePoint(QPhi(0))


@pytest.fixture
def odo_point():
    return build_model_graph(odometer(), point_backend())


@pytest.fixture
def golden_point():
    return build_model_graph(golden_rotation(), point_backend())


@pytest.fixture
def golden_two():
    return build_model_graph(golden_rotation(), FiniteBackend(2))


# ---------------------------------------------------------------------------
# the model graph
# ---------------------------------------------------------------------------


def test_model_maps_odometer(odo_point):
    star = FinitePoint(0, 1)
    e = ModelEdge(ZERO_2ADIC, star, 5)
    assert odo_point.r(e) == PairPoint(PadicPoint((1,), (0,)), star)
    assert odo_point.d(e) == PairPoint(ZERO_2ADIC, star)


def test_model_maps_golden_two(golden_two):
    # x_1 = first finite point, x_2 = second
    e = ModelEdge(ZERO_CIRCLE, FinitePoint(0, 2), 2)
    assert golden_two.r(e) == PairPoint(circle_rotate(ZERO_CIRCLE, 1), FinitePoint(1, 2))


def test_domain_is_projection(golden_two):
    rng = random.Random(2)
    for _ in range(100):
        z = golden_two.z_system.backend.random_point(rng)
        x = golden_two.x_backend.random_point(rng)
        m = rng.randrange(1, 30)
        e = ModelEdge(z, x, m)
        assert golden_two.d(e) == PairPoint(z, x)
        # purity: recomputing gives identical values, range starts with the
        # rotated base point
        assert golden_two.r(e) == golden_two.r(e)
        assert golden_two.r(e).left == circle_rotate(z, 1)


def test_edge_index_positive():
    with pytest.raises(ValueError):
        ModelEdge(ZERO_2ADIC, FinitePoint(0, 1), 0)


def test_domain_locally_injective_on_boxes(golden_two):
    """On an edge box with a fixed index, d(z, x, m) = (z, x) separates
    points: a sampled check of local injectivity of the domain map."""
    rng = random.Random(6)
    for _ in range(50):
        m = rng.randrange(1, 9)
        e1 = ModelEdge(
            golden_two.z_system.backend.random_point(rng),
            golden_two.x_backend.random_point(rng),
            m,
        )
        e2 = ModelEdge(
            golden_two.z_system.backend.random_point(rng),
            golden_two.x_backend.random_point(rng),
            m,
        )
        if e1 != e2:
            assert golden_two.d(e1) != golden_two.d(e2)


def test_range_sequence_continuous(golden_two):
    """Sampled sequence-continuity of r: edges converging in all three
    coordinates (index eventually constant) have converging ranges."""
    from fractions import Fraction as F

    rng = random.Random(7)
    backend = golden_two.z_system.backend
    for _ in range(20):
        z = backend.random_point(rng)
        x = golden_two.x_backend.random_point(rng)
        m = rng.randrange(1, 6)
        limit = golden_two.r(ModelEdge(z, x, m))
        for n in range(2, 8):
            zn = CirclePoint((z.value + QPhi(F(1, 1 << n))).mod1())
            rn = golden_two.r(ModelEdge(zn, x, m))
            assert backend.dist_le(rn.left, limit.left, F(1, 1 << n))
            assert rn.right == limit.right


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def test_compose_vertex_units(odo_point):
    v = PairPoint(ZERO_2ADIC, FinitePoint(0, 1))
    vp = vertex_path(odo_point, v)
    assert compose_paths(vp, vp) == vp


def test_witness_split_recompose(golden_two):
    wp = witness_path(golden_two, FinitePoint(0, 2), ZERO_CIRCLE, 1)
    first = FinitePath(golden_two, wp.edges[:1])
    second = FinitePath(golden_two, wp.edges[1:])
    assert compose_paths(first, second) == wp


def test_compose_junction_mismatch(golden_two):
    a = FinitePath(golden_two, (ModelEdge(ZERO_CIRCLE, FinitePoint(0, 2), 1),))
    b = FinitePath(golden_two, (ModelEdge(ZERO_CIRCLE, FinitePoint(1, 2), 1),))
    # d(a) = (0, x_a) but r(b) = (rot(0), x_1): mismatch
    with pytest.raises(CompositionError) as err:
        compose_paths(a, b)
    assert "junction" in str(err.value)


def test_path_validation_names_coordinates(golden_two):
    e1 = ModelEdge(ZERO_CIRCLE, FinitePoint(0, 2), 1)
    e2 = ModelEdge(ZERO_CIRCLE, FinitePoint(0, 2), 1)
    with pytest.raises(CompositionError) as err:
        FinitePath(golden_two, (e1, e2))
    assert "compose" in str(err.value)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def test_orbit_depth_zero(odo_point):
    v = PairPoint(ZERO_2ADIC, FinitePoint(0, 1))
    assert orbit_plus(odo_point, v, 0) == {v}


def test_orbit_depth_one(odo_point):
    v = PairPoint(ZERO_2ADIC, FinitePoint(0, 1))
    got = orbit_plus(odo_point, v, 1)
    assert got == {v, PairPoint(PadicPoint((1,), (0,)), FinitePoint(0, 1))}


def test_orbit_cardinality_free(golden_point):
    v = PairPoint(ZERO_CIRCLE, FinitePoint(0, 1))
    for d in range(6):
        assert len(orbit_plus(golden_point, v, d)) == d + 1


def test_orbit_monotone(golden_two):
    rng = random.Random(9)
    v = golden_two.vertex_backend.random_point(rng)
    prev = set()
    for d in range(11):
        cur = orbit_plus(golden_two, v, d)
        assert prev <= cur
        prev = cur


@pytest.mark.parametrize("make_system", [golden_rotation, odometer])
def test_orbit_density_invariant(make_system):
    graph = build_model_graph(make_system(), point_backend())
    rng = random.Random(37)
    for n in range(1, 7):
        for _ in range(3 if n < 6 else 10):
            v = graph.vertex_backend.random_point(rng)
            pts = orbit_plus(graph, v, 2**n)
            assert eps_dense(graph.vertex_backend, pts, Fraction(1, 2**n))


# ---------------------------------------------------------------------------
# witness paths
# ---------------------------------------------------------------------------


def test_witness_path_k1(golden_two):
    x = FinitePoint(1, 2)
    wp = witness_path(golden_two, x, ZERO_CIRCLE, 1)
    assert len(wp) == 2
    assert wp.edges[0] == ModelEdge(circle_rotate(ZERO_CIRCLE, -1), golden_two.x_point(1), 1)
    assert wp.edges[1] == ModelEdge(circle_rotate(ZERO_CIRCLE, -2), x, 1)


@pytest.mark.parametrize("make_system", [golden_rotation, odometer])
def test_witness_path_endpoints(make_system):
    graph = build_model_graph(make_system(), FiniteBackend(2))
    rng = random.Random(4)
    for k in range(1, 6):
        for _ in range(20):
            z = graph.z_system.backend.random_point(rng)
            x = graph.x_backend.random_point(rng)
            wp = witness_path(graph, x, z, k)  # construction validates junctions
            assert len(wp) == k + 1
            assert wp.r() == PairPoint(z, graph.x_point(1))
            assert wp.d() == PairPoint(graph.z_system.power(z, -(k + 1)), x)


# ---------------------------------------------------------------------------
# pitchfork
# ---------------------------------------------------------------------------


def test_pitchfork_idempotent(golden_point):
    u = make_witness_path_box(golden_point, CircleBox((Arc(QPhi(0), QPhi(Fraction(1, 4))),)), 2)
    assert pitchfork(u, u) == u


def test_pitchfork_disjoint_indices(odo_point):
    full = odo_point.x_backend.full_box()
    a = OpenPathBox(odo_point, (EdgeBox(CantorBox(((),)), full, frozenset({1})),))
    b = OpenPathBox(odo_point, (EdgeBox(CantorBox(((),)), full, frozenset({2})),))
    assert pitchfork(a, b) is None


def test_edge_box_indices_start_at_one(odo_point):
    full = odo_point.x_backend.full_box()
    with pytest.raises(ValueError):
        EdgeBox(CantorBox(((),)), full, frozenset({0, 2}))


def test_pitchfork_witness_boxes_disjoint(golden_point):
    u_box = CircleBox((Arc(QPhi(0), QPhi(Fraction(1, 4))),))
    boxes = [make_witness_path_box(golden_point, u_box, k) for k in range(1, 5)]
    for i in range(len(boxes)):
        for j in range(len(boxes)):
            if i != j:
                assert pitchfork(boxes[i], boxes[j]) is None


def _hand_built_empty_boxes(golden_point, golden_two):
    full = golden_point.x_backend.full_box()
    # incompatible z constraints across coordinates: the inverse rotate of
    # (0, 1/8) is about (0.382, 0.507); an arc at (3/4, 7/8) misses it, so
    # no base point satisfies both coordinates
    a = EdgeBox(CircleBox((Arc(QPhi(0), QPhi(Fraction(1, 8))),)), full, frozenset({1}))
    b = EdgeBox(CircleBox((Arc(QPhi(Fraction(3, 4)), QPhi(Fraction(1, 8))),)), full,
                frozenset({1}))
    # an x constraint no dense value of the listed indices can meet:
    # coordinate 1 forces index 1, so edge 0's x coordinate is x_1, which
    # is the 0th finite point, not inside {1}
    xa = EdgeBox(golden_two.z_system.translate_box(
        CircleBox((Arc(QPhi(0), QPhi(Fraction(1, 4))),)), -1),
        FiniteBox(frozenset({1}), 2), frozenset({1}))
    xb = EdgeBox(golden_two.z_system.translate_box(
        CircleBox((Arc(QPhi(0), QPhi(Fraction(1, 4))),)), -2),
        golden_two.x_backend.full_box(), frozenset({1}))
    return [OpenPathBox(golden_point, (a, b)), OpenPathBox(golden_two, (xa, xb))]


def test_path_box_emptiness_exact(golden_point, golden_two):
    # witness boxes are non-empty and produce explicit member paths
    u = CircleBox((Arc(QPhi(0), QPhi(Fraction(1, 4))),))
    for k in (1, 2, 3):
        box = make_witness_path_box(golden_point, u, k)
        assert not box.is_empty()
        sample = box.sample_path()
        assert sample is not None and box.contains(sample)
    z_empty, x_empty = _hand_built_empty_boxes(golden_point, golden_two)
    assert z_empty.is_empty()
    assert z_empty.sample_path() is None
    assert x_empty.is_empty()


def reference_is_empty(box: OpenPathBox) -> bool:
    """Emptiness decided coordinatewise, then by the z chain, then by a
    scan for an index of each coordinate whose dense-sequence value meets
    the previous coordinate's x box."""
    if any(cb.is_empty() for cb in box.coords):
        return True
    if box._z_chain().is_empty():
        return True
    g = box.graph
    return any(
        not any(box_contains(box.coords[i - 1].xbox, g.x_point(m)) for m in box.coords[i].indices)
        for i in range(1, len(box.coords))
    )


@pytest.mark.parametrize("make_system", [golden_rotation, odometer])
def test_path_box_emptiness_matches_reference(make_system, golden_point, golden_two):
    """is_empty (one call to sample_path) agrees with the coordinatewise
    reference on the pitchforks of witness boxes, taken in both orders and
    also without pitchfork's empty-coordinate shortcut, and on the same
    boxes with each x box cut to the meet of two random boxes."""
    system = make_system()
    boxes = list(_hand_built_empty_boxes(golden_point, golden_two))
    rng = random.Random(7)
    for x_backend in (point_backend(), FiniteBackend(2), CantorBackend(), CircleBackend()):
        graph = build_model_graph(system, x_backend)

        def cut_x(coords):
            return OpenPathBox(graph, tuple(
                EdgeBox(cb.zbox, box_intersect(x_backend.random_box(rng),
                                               x_backend.random_box(rng)), cb.indices)
                for cb in coords
            ))

        witness = []
        for seed in range(3):
            u = system.backend.random_box(random.Random(seed))
            witness.extend(make_witness_path_box(graph, u, k) for k in range(1, 5))
        for a in witness:
            for b in witness:
                n = min(len(a), len(b))
                coords = tuple(p.intersect(q) for p, q in zip(a.coords[:n], b.coords[:n]))
                boxes += [OpenPathBox(graph, coords), cut_x(coords)]
                if pitchfork(a, b) is not None:
                    boxes.append(pitchfork(a, b))
    verdicts = set()
    for box in boxes:
        empty = reference_is_empty(box)
        assert box.is_empty() is empty
        sample = box.sample_path()
        assert (sample is None) is empty
        if sample is not None:
            assert box.contains(sample)
        verdicts.add(empty)
    assert verdicts == {True, False}


def test_pitchfork_symmetric(golden_point):
    u_box = CircleBox((Arc(QPhi(0), QPhi(Fraction(1, 4))),))
    v_box = CircleBox((Arc(QPhi(Fraction(1, 8)), QPhi(Fraction(1, 4))),))
    a = make_witness_path_box(golden_point, u_box, 2)
    b = make_witness_path_box(golden_point, v_box, 3)
    left = pitchfork(a, b)
    right = pitchfork(b, a)
    assert left == right


# ---------------------------------------------------------------------------
# contracting witnesses
# ---------------------------------------------------------------------------


def arcs_cover_circle_endpoint_oracle(arcs):
    """Independent full-circle coverage test: a union of open arcs is the
    whole circle iff it is non-empty and every arc endpoint is interior
    to the union."""
    if not arcs:
        return False

    def interior(t):
        return any(a.contains(t) for a in arcs)

    for a in arcs:
        if not interior(a.start) or not interior((a.start + a.length).mod1()):
            return False
    return True


def oracle_least_n_golden(u_arc, cap=60):
    sys = golden_rotation()
    arcs = []
    for n in range(1, cap):
        box = sys.translate_box(CircleBox((u_arc,)), -(n + 1))
        arcs.extend(box.arcs)
        if arcs_cover_circle_endpoint_oracle(arcs):
            return n
    raise AssertionError("oracle found no cover")


def test_contracting_golden_quarter_arc(golden_point):
    u = CircleBox((Arc(QPhi(0), QPhi(Fraction(1, 4))),))
    witness = find_contracting_witness(golden_point, u, point_backend().full_box())
    oracle_n = oracle_least_n_golden(Arc(QPhi(0), QPhi(Fraction(1, 4))))
    assert witness.n == oracle_n
    # the exact sweep confirms 5 translates suffice (not a guessed value)
    assert witness.n == 5
    report = verify_contracting_witness(witness)
    assert report.ok, report.details


def test_contracting_odometer_cylinder(odo_point):
    u = CantorBox(((0,),))
    witness = find_contracting_witness(odo_point, u, point_backend().full_box())
    assert witness.n == 2
    report = verify_contracting_witness(witness)
    assert report.ok, report.details


def test_witness_ranges_inside_v(golden_two):
    u = CircleBox((Arc(QPhi(0), QPhi(Fraction(1, 4))),))
    witness = find_contracting_witness(golden_two, u, golden_two.x_backend.full_box())
    for pb in witness.path_boxes:
        zimg, xpts = pb.r_image()
        assert zimg == u
        assert xpts == [golden_two.x_point(1)]


@pytest.mark.parametrize("make_system", [golden_rotation, odometer])
def test_contracting_random_pairs(make_system):
    system = make_system()
    graph = build_model_graph(system, FiniteBackend(2))
    rng = random.Random(13)
    for _ in range(10):
        if isinstance(system.backend, CircleBackend):
            start = QPhi(Fraction(rng.randrange(32), 32))
            u = CircleBox((Arc(start, QPhi(Fraction(rng.choice([4, 6, 8]), 32))),))
        else:
            depth = rng.randrange(1, 4)
            u = CantorBox((tuple(rng.randrange(2) for _ in range(depth)),))
        witness = find_contracting_witness(graph, u, graph.x_backend.full_box())
        report = verify_contracting_witness(witness)
        assert report.ok, report.details


def test_verify_rejects_undersized_witness(odo_point):
    u = CantorBox(((0,),))
    good = find_contracting_witness(odo_point, u, point_backend().full_box())
    # drop the second path box: the domains no longer cover Z
    from groupoidlab.graphs import ContractingWitness

    bad = ContractingWitness(odo_point, good.v_zbox, good.v_xbox, good.path_boxes[:1])
    report = verify_contracting_witness(bad)
    assert report.ranges_inside and report.pairwise_disjoint
    assert not report.domains_cover_strictly


def test_verify_rejects_duplicate_boxes(odo_point):
    u = CantorBox(((0,),))
    good = find_contracting_witness(odo_point, u, point_backend().full_box())
    from groupoidlab.graphs import ContractingWitness

    bad = ContractingWitness(
        odo_point, good.v_zbox, good.v_xbox, good.path_boxes + (good.path_boxes[0],)
    )
    report = verify_contracting_witness(bad)
    assert not report.pairwise_disjoint


def test_contracting_preconditions(odo_point, golden_point):
    with pytest.raises(WitnessSearchError):
        find_contracting_witness(odo_point, CantorBox(()), point_backend().full_box())
    # V_X must contain x_1
    g2 = build_model_graph(odometer(), FiniteBackend(2))
    with pytest.raises(WitnessSearchError):
        find_contracting_witness(g2, CantorBox(((0,),)), FiniteBox(frozenset({1}), 2))
    # closure(U x V_X) must be proper
    with pytest.raises(WitnessSearchError):
        find_contracting_witness(odo_point, CantorBox(((),)), point_backend().full_box())


def test_exterior_point_construction():
    assert CantorBox(((0,),)).point_outside_closure() == PadicPoint((1,), (0,))
    assert CantorBox(((),)).point_outside_closure() is None
    pt = CircleBox((Arc(QPhi(0), QPhi(Fraction(1, 2))),)).point_outside_closure()
    assert pt is not None
    # strictly outside the closed arc [0, 1/2]
    assert not Arc(QPhi(0), QPhi(Fraction(1, 2))).contains(pt.value, closed=True)


def test_contracting_negative_control_is_minimal_but_works():
    # the finite cyclic system is minimal, so witnesses still exist there
    graph = build_model_graph(finite_cyclic(4), point_backend())
    u = FiniteBox(frozenset({0, 1}), 4)
    witness = find_contracting_witness(graph, u, point_backend().full_box())
    assert verify_contracting_witness(witness).ok


# ---------------------------------------------------------------------------
# discrete graphs
# ---------------------------------------------------------------------------


def test_discrete_graph_regularity():
    g = DiscreteGraph(["u", "v"], [("u", "v", "e")])
    assert g.is_singular("u") and g.is_regular("v")
    g2 = DiscreteGraph(["u", "v"], [("u", "v", "e")], singular_override=["v"])
    assert g2.is_singular("v")


def test_discrete_graph_validation():
    with pytest.raises(GraphError):
        DiscreteGraph(["u"], [("u", "w", "e")])
    with pytest.raises(GraphError):
        DiscreteGraph(["u", "u"], [])
    with pytest.raises(GraphError):
        DiscreteGraph(["u"], [], singular_override=["w"])


def test_one_vertex_loop_graph():
    f = OneVertexLoopGraph()
    e = f.edge(3)
    assert f.d(e) == f.r(e) == "*"
    assert f.is_singular("*")
    assert orbit_plus(f, "*", 5) == {"*"}


def test_orbit_plus_rejects_discrete_graph():
    g = DiscreteGraph(["u", "v"], [("u", "v", "e")])
    with pytest.raises(GraphError, match="DiscreteGraph"):
        orbit_plus(g, "u", 3)
