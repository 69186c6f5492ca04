import random
from fractions import Fraction

import pytest

from groupoidlab.qphi import QPhi
from groupoidlab.boundary import (
    ApproachPointRule,
    BasePointTail,
    BoundaryError,
    ConstantTail,
    EscapingTail,
    EvPeriodic,
    FiniteBoundaryPath,
    HeadOnlyTail,
    InfiniteDiscretePath,
    SequenceDescription,
    ShiftDomainError,
    converges,
    homeo_h,
    homeo_h_inv,
    param_f,
    param_f_k,
    path_from_line,
    path_to_line,
    range_vertex,
    shift,
    shift_power,
)
from groupoidlab.graphs import (
    CompositionError,
    DiscreteGraph,
    FinitePath,
    ModelEdge,
    OneVertexLoopGraph,
    build_model_graph,
    vertex_path,
)
from groupoidlab.spaces import (
    CircleBackend,
    CirclePoint,
    FiniteBackend,
    FinitePoint,
    PadicPoint,
    PairPoint,
    golden_rotation,
    odometer,
    odometer_succ,
    point_backend,
)

ZERO_2ADIC = PadicPoint((), (0,))
ZERO_CIRCLE = CirclePoint(QPhi(0))
ODO_POINT = build_model_graph(odometer(), point_backend())
LOOP = OneVertexLoopGraph()


@pytest.fixture
def odo_point():
    return build_model_graph(odometer(), point_backend())


@pytest.fixture
def golden_two():
    return build_model_graph(golden_rotation(), FiniteBackend(2))


@pytest.fixture
def loop_graph():
    return OneVertexLoopGraph()


def random_idx(rng, max_value=5):
    head = tuple(rng.randrange(1, max_value + 1) for _ in range(rng.randrange(0, 3)))
    cycle = tuple(rng.randrange(1, max_value + 1) for _ in range(rng.randrange(1, 4)))
    return EvPeriodic(head, cycle)


# ---------------------------------------------------------------------------
# eventually periodic sequences
# ---------------------------------------------------------------------------


def test_ev_periodic_canonical():
    assert EvPeriodic((2,), (1, 2)) == EvPeriodic((), (2, 1))
    assert EvPeriodic((), (3, 3)) == EvPeriodic((), (3,))
    s = EvPeriodic((1, 2), (3, 4))
    assert [s.item(i) for i in range(6)] == [1, 2, 3, 4, 3, 4]


from hypothesis import given, settings
from hypothesis import strategies as st

small_ints = st.integers(min_value=1, max_value=4)


@given(st.lists(small_ints, max_size=5), st.lists(small_ints, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_ev_periodic_canonical_properties(head, cycle):
    s = EvPeriodic(tuple(head), tuple(cycle))
    # canonicalizing again is the identity
    assert EvPeriodic(s.head, s.cycle) == s
    # the denoted sequence is unchanged by canonicalization
    raw = list(head) + list(cycle) * 4
    assert [s.item(i) for i in range(len(raw))] == raw
    # the cycle is primitive and the head minimal
    n = len(s.cycle)
    for d in range(1, n):
        if n % d == 0:
            assert s.cycle[:d] * (n // d) != s.cycle
    if s.head:
        assert s.head[-1] != s.cycle[-1]


@given(
    st.lists(small_ints, max_size=4),
    st.lists(small_ints, min_size=1, max_size=3),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_ev_periodic_shift_consistent(head, cycle, n):
    s = EvPeriodic(tuple(head), tuple(cycle))
    shifted = s.shifted(n)
    assert [shifted.item(i) for i in range(8)] == [s.item(i + n) for i in range(8)]


@given(
    st.lists(small_ints, max_size=4),
    st.lists(small_ints, min_size=1, max_size=4),
    st.integers(min_value=0, max_value=12),
)
@settings(max_examples=300, deadline=None)
def test_fast_shift_equals_canonicalised_suffix(head, cycle, n):
    """Shifts skip canonicalisation; the public constructor on the raw
    suffix must give the same fields and hash, for sequences and paths."""
    head, cycle = tuple(head), tuple(cycle)
    s = EvPeriodic(head, cycle)
    if n <= len(head):
        slow = EvPeriodic(head[n:], cycle)
    else:
        r = (n - len(head)) % len(cycle)
        slow = EvPeriodic((), cycle[r:] + cycle[:r])
    fast = s.shifted(n)
    assert (fast.head, fast.cycle) == (slow.head, slow.cycle)
    assert fast == slow and hash(fast) == hash(slow)
    word = shift_power(InfiniteDiscretePath(LOOP, s), n)
    assert word == InfiniteDiscretePath(LOOP, slow) and word.labels.cycle == slow.cycle
    path = shift_power(param_f(ODO_POINT, ZERO_2ADIC, s), n)
    expected = param_f(ODO_POINT, odometer_succ(ZERO_2ADIC, -n), slow)
    assert path == expected and hash(path) == hash(expected)


def test_ev_periodic_shift():
    s = EvPeriodic((1, 2), (3, 4))
    assert s.shifted() == EvPeriodic((2,), (3, 4))
    assert s.shifted(2) == EvPeriodic((), (3, 4))
    assert s.shifted(3) == EvPeriodic((), (4, 3))
    assert s.cons(9).shifted() == s


# ---------------------------------------------------------------------------
# shift
# ---------------------------------------------------------------------------


def test_shift_single_edge(odo_point):
    e = ModelEdge(ZERO_2ADIC, FinitePoint(0, 1), 4)
    mu = FiniteBoundaryPath(FinitePath(odo_point, (e,)))
    out = shift(mu)
    assert len(out.path) == 0
    assert out.path.base == odo_point.d(e)


def test_shift_infinite(odo_point):
    idx = EvPeriodic((4,), (1, 2))
    mu = param_f(odo_point, ZERO_2ADIC, idx)
    assert shift(mu) == param_f(odo_point, odometer().power(ZERO_2ADIC, -1), idx.shifted())


def test_shift_vertex_is_domain_error(odo_point):
    v = FiniteBoundaryPath(vertex_path(odo_point, PairPoint(ZERO_2ADIC, FinitePoint(0, 1))))
    with pytest.raises(ShiftDomainError):
        shift(v)


def _finite_boundary_paths(rng):
    """Finite boundary paths of every length up to 6 on model, loop and
    finite discrete graphs, each built through the validating constructor."""
    out = []
    for graph in (
        ODO_POINT,
        build_model_graph(golden_rotation(), FiniteBackend(2)),
        build_model_graph(golden_rotation(), CircleBackend()),
    ):
        for k in range(7):
            z = graph.z_system.backend.random_point(rng)
            x = graph.x_backend.random_point(rng)
            idx = tuple(rng.randrange(1, 6) for _ in range(k))
            out.append(FiniteBoundaryPath(param_f_k(graph, z, x, idx)))
    for k in range(7):
        labels = [rng.randrange(1, 6) for _ in range(k)]
        out.append(FiniteBoundaryPath(
            FinitePath(LOOP, tuple(LOOP.edge(m) for m in labels)) if k else vertex_path(LOOP, "*")
        ))
    # a -> b -> c with a loop at c; the source a receives no edge, so it is singular
    g = DiscreteGraph(["a", "b", "c"], [("a", "b", "ab"), ("b", "c", "bc"), ("c", "c", "cc")])
    ab, bc, cc = g.edges
    for k in range(7):
        edges = (cc,) * max(k - 2, 0) + (bc, ab)[max(2 - k, 0):]
        out.append(FiniteBoundaryPath(FinitePath(g, edges) if k else vertex_path(g, "a")))
    return out


def test_finite_shift_matches_validated_suffix():
    """shift_power slices finite paths without validating them again; the
    public constructors on the raw suffix must give an equal path, with the
    same fields and hash, and the shift must fail exactly past the length."""
    for mu in _finite_boundary_paths(random.Random(8)):
        p = mu.path
        for n in range(len(p) + 1):
            fast = shift_power(mu, n)
            slow = FiniteBoundaryPath(
                FinitePath(p.graph, p.edges[n:], None if n < len(p) else p.d())
            )
            assert fast == slow and hash(fast) == hash(slow)
            assert (fast.path.graph, fast.path.edges, fast.path.base) == (
                slow.path.graph, slow.path.edges, slow.path.base
            )
            if n:
                assert shift(shift_power(mu, n - 1)) == fast
        for n in (len(p) + 1, len(p) + 2):
            with pytest.raises(ShiftDomainError):
                shift_power(mu, n)


def test_public_finite_path_still_validates():
    g = DiscreteGraph(["a", "b", "c"], [("a", "b", "ab"), ("b", "c", "bc")])
    ab, bc = g.edges
    FinitePath(g, (bc, ab))
    with pytest.raises(CompositionError):
        FinitePath(g, (ab, bc))
    e = ModelEdge(ZERO_2ADIC, FinitePoint(0, 1), 2)
    with pytest.raises(CompositionError):
        FinitePath(ODO_POINT, (e, e))  # d(e) = (0, x) but r(e) = (1, x_2)


# ---------------------------------------------------------------------------
# parameterizations
# ---------------------------------------------------------------------------


def test_param_f_roundtrip(odo_point):
    rng = random.Random(5)
    for _ in range(1000):
        z = odo_point.z_system.backend.random_point(rng)
        idx = random_idx(rng)
        mu = param_f(odo_point, z, idx)
        assert (mu.z, mu.idx) == (z, idx)


def test_param_f_first_edge(golden_two):
    mu = param_f(golden_two, ZERO_CIRCLE, EvPeriodic((5,), (2,)))
    e1 = mu.edge_at(1)
    assert e1 == ModelEdge(
        golden_two.z_system.power(ZERO_CIRCLE, -1), golden_two.x_point(2), 5
    )


def test_param_f_indices_visible(odo_point):
    idx = EvPeriodic((3, 1), (4, 2))
    mu = param_f(odo_point, ZERO_2ADIC, idx)
    for i in range(1, 21):
        assert mu.edge_at(i).m == idx.item(i - 1)


def test_param_f_k_example(golden_two):
    p = param_f_k(golden_two, ZERO_CIRCLE, FinitePoint(1, 2), (1, 1))
    sys = golden_two.z_system
    assert p.edges == (
        ModelEdge(sys.power(ZERO_CIRCLE, -1), golden_two.x_point(1), 1),
        ModelEdge(sys.power(ZERO_CIRCLE, -2), FinitePoint(1, 2), 1),
    )


@pytest.mark.parametrize("k", range(7))
def test_param_f_k_endpoints(golden_two, k):
    rng = random.Random(k)
    for _ in range(50):
        z = golden_two.z_system.backend.random_point(rng)
        x = golden_two.x_backend.random_point(rng)
        idx = tuple(rng.randrange(1, 6) for _ in range(k))
        p = param_f_k(golden_two, z, x, idx)  # junctions checked on build
        assert len(p) == k
        assert p.d() == PairPoint(golden_two.z_system.power(z, -k), x)
        if k:
            assert p.r() == PairPoint(z, golden_two.x_point(idx[0]))


# ---------------------------------------------------------------------------
# the boundary homeomorphism over a one-point X
# ---------------------------------------------------------------------------


def test_h_on_vertex(odo_point, loop_graph):
    v = FiniteBoundaryPath(vertex_path(loop_graph, loop_graph.vertex))
    out = homeo_h(odo_point, ZERO_2ADIC, v)
    assert out.path.base == PairPoint(ZERO_2ADIC, FinitePoint(0, 1))


def test_h_single_letter(odo_point, loop_graph):
    word = FiniteBoundaryPath(FinitePath(loop_graph, (loop_graph.edge(3),)))
    out = homeo_h(odo_point, ZERO_2ADIC, word)
    assert out.path.edges == (
        ModelEdge(odometer().power(ZERO_2ADIC, -1), FinitePoint(0, 1), 3),
    )


def test_h_roundtrip(odo_point, loop_graph):
    rng = random.Random(8)
    for _ in range(1000):
        z = odo_point.z_system.backend.random_point(rng)
        if rng.randrange(2):
            nu = InfiniteDiscretePath(loop_graph, random_idx(rng))
        else:
            labels = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(0, 5)))
            nu = FiniteBoundaryPath(
                FinitePath(loop_graph, tuple(loop_graph.edge(m) for m in labels))
                if labels
                else vertex_path(loop_graph, loop_graph.vertex)
            )
        image = homeo_h(odo_point, z, nu)
        z2, nu2 = homeo_h_inv(loop_graph, image)
        assert (z2, nu2) == (z, nu)


def test_h_requires_point_x(golden_two, loop_graph):
    v = FiniteBoundaryPath(vertex_path(loop_graph, loop_graph.vertex))
    with pytest.raises(BoundaryError):
        homeo_h(golden_two, ZERO_CIRCLE, v)


# ---------------------------------------------------------------------------
# conjugacies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make_system", [golden_rotation, odometer])
def test_shift_conjugacy_param_f(make_system):
    graph = build_model_graph(make_system(), FiniteBackend(2))
    sys = graph.z_system
    rng = random.Random(12)
    for _ in range(1000):
        z = sys.backend.random_point(rng)
        idx = random_idx(rng)
        assert shift(param_f(graph, z, idx)) == param_f(
            graph, sys.power(z, -1), idx.shifted()
        )


def test_shift_conjugacy_h(odo_point, loop_graph):
    sys = odo_point.z_system
    rng = random.Random(21)
    for _ in range(1000):
        z = sys.backend.random_point(rng)
        if rng.randrange(2):
            nu = InfiniteDiscretePath(loop_graph, random_idx(rng))
        else:
            labels = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(1, 5)))
            nu = FiniteBoundaryPath(
                FinitePath(loop_graph, tuple(loop_graph.edge(m) for m in labels))
            )
        lhs = shift(homeo_h(odo_point, z, nu))
        rhs = homeo_h(odo_point, sys.power(z, -1), shift(nu))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the convergence oracle
# ---------------------------------------------------------------------------


def test_converges_constant(odo_point):
    mu = param_f(odo_point, ZERO_2ADIC, EvPeriodic((), (1,)))
    rep = converges(SequenceDescription((), ConstantTail(mu)), mu)
    assert rep.holds
    other = param_f(odo_point, ZERO_2ADIC, EvPeriodic((), (2,)))
    assert not converges(SequenceDescription((), ConstantTail(mu)), other).holds


def test_converges_escaping_edges(odo_point):
    v = FiniteBoundaryPath(vertex_path(odo_point, PairPoint(ZERO_2ADIC, FinitePoint(0, 1))))
    desc = SequenceDescription((), EscapingTail(v, FinitePoint(0, 1), 0, 0))
    rep = converges(desc, v)
    assert rep.holds
    # the sequence terms really are the single edges (rho^-1 z, x, m_n)
    t0 = desc.term(0)
    assert len(t0.path) == 1 and t0.path.r() == PairPoint(ZERO_2ADIC, FinitePoint(0, 1))


def test_converges_constant_edge_fails_escape(odo_point):
    v = FiniteBoundaryPath(vertex_path(odo_point, PairPoint(ZERO_2ADIC, FinitePoint(0, 1))))
    e = ModelEdge(odometer().power(ZERO_2ADIC, -1), FinitePoint(0, 1), 7)
    edge_path = FiniteBoundaryPath(FinitePath(odo_point, (e,)))
    rep = converges(SequenceDescription((), ConstantTail(edge_path)), v)
    assert rep.ranges == "pass" and rep.prefixes == "pass" and rep.escape == "fail"
    assert not rep.holds


def test_converges_base_point(odo_point):
    idx = EvPeriodic((), (1,))
    desc = SequenceDescription((), BasePointTail(odo_point, ApproachPointRule(ZERO_2ADIC), idx))
    assert converges(desc, param_f(odo_point, ZERO_2ADIC, idx)).holds
    wrong_base = param_f(odo_point, odometer().power(ZERO_2ADIC, 1), idx)
    assert not converges(desc, wrong_base).holds
    # terms approach the base point strictly from outside
    for n in range(4):
        assert desc.term(n) != desc.term(n + 1)


@pytest.mark.parametrize(
    "backend, target",
    [(golden_rotation().backend, CirclePoint(QPhi(Fraction(1, 3), 1))),
     (odometer().backend, PadicPoint((1, 0), (0, 1, 1)))],
)
def test_approach_rule_distance_is_exact(backend, target):
    rule = ApproachPointRule(target)
    for n in range(8):
        z = rule.term(n)
        assert backend.dist_le(z, target, Fraction(1, 2 ** (n + 1)))
        assert not backend.dist_le(z, target, Fraction(1, 2 ** (n + 2)))
    with pytest.raises(BoundaryError):
        ApproachPointRule(FinitePoint(0, 1)).term(0)


def test_converges_head_never_matters(odo_point):
    mu = param_f(odo_point, ZERO_2ADIC, EvPeriodic((), (1,)))
    noise = param_f(odo_point, odometer().power(ZERO_2ADIC, 5), EvPeriodic((), (3,)))
    base = SequenceDescription((), ConstantTail(mu))
    noisy = SequenceDescription((noise, noise, noise), ConstantTail(mu))
    for target in (mu, noise):
        assert converges(base, target).verdict == converges(noisy, target).verdict


def test_converges_head_only_is_undecidable(odo_point):
    mu = param_f(odo_point, ZERO_2ADIC, EvPeriodic((), (1,)))
    rep = converges(SequenceDescription((mu,), HeadOnlyTail()), mu)
    assert rep.verdict == "undecidable"


def test_escaping_tail_validates_box(golden_two):
    # d(prefix) has an arbitrary x coordinate: no basic-open representative
    p = param_f_k(golden_two, ZERO_CIRCLE, CirclePoint(QPhi(Fraction(1, 7))), (1,))
    with pytest.raises(BoundaryError):
        EscapingTail(FiniteBoundaryPath(p), FinitePoint(0, 2), 0, 0)


def test_h_maps_convergent_products_to_convergent_sequences(odo_point, loop_graph):
    """Product-convergent sequences in Z x (loop-graph boundary) push
    through h to sequences the oracle certifies convergent."""
    sys = odo_point.z_system
    rng = random.Random(31)
    star = FinitePoint(0, 1)
    for trial in range(50):
        z = sys.backend.random_point(rng)
        mode = trial % 3
        if mode == 0:
            # moving base, fixed finite word
            word = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(0, 4)))
            desc = SequenceDescription(
                (), BasePointTail(odo_point, ApproachPointRule(z), word, star)
            )
            limit_nu = (
                FiniteBoundaryPath(
                    FinitePath(loop_graph, tuple(loop_graph.edge(m) for m in word))
                )
                if word
                else FiniteBoundaryPath(vertex_path(loop_graph, loop_graph.vertex))
            )
        elif mode == 1:
            # moving base, fixed infinite word
            idx = random_idx(rng)
            desc = SequenceDescription(
                (), BasePointTail(odo_point, ApproachPointRule(z), idx)
            )
            limit_nu = InfiniteDiscretePath(loop_graph, idx)
        else:
            # fixed base, escaping next letter after a stable word
            word = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(0, 3)))
            prefix = homeo_h(
                odo_point,
                z,
                FiniteBoundaryPath(
                    FinitePath(loop_graph, tuple(loop_graph.edge(m) for m in word))
                )
                if word
                else FiniteBoundaryPath(vertex_path(loop_graph, loop_graph.vertex)),
            )
            desc = SequenceDescription((), EscapingTail(prefix, star, 0, rng.randrange(3)))
            limit_nu = (
                FiniteBoundaryPath(
                    FinitePath(loop_graph, tuple(loop_graph.edge(m) for m in word))
                )
                if word
                else FiniteBoundaryPath(vertex_path(loop_graph, loop_graph.vertex))
            )
        limit = homeo_h(odo_point, z, limit_nu)
        rep = converges(desc, limit)
        assert rep.holds, (mode, rep)


# ---------------------------------------------------------------------------
# boundary membership and serialization
# ---------------------------------------------------------------------------


def test_finite_boundary_requires_singular_domain():
    g = DiscreteGraph(["u", "v"], [("u", "v", "e")])
    edge_path = FinitePath(g, (g.edges[0],))
    # d = "u" is singular: allowed
    FiniteBoundaryPath(edge_path)
    with pytest.raises(BoundaryError):
        FiniteBoundaryPath(vertex_path(g, "v"))  # v is regular


def test_serialization_roundtrip(odo_point, golden_two, loop_graph):
    rng = random.Random(44)
    paths = []
    for graph in (odo_point, golden_two):
        for _ in range(20):
            z = graph.z_system.backend.random_point(rng)
            paths.append((graph, param_f(graph, z, random_idx(rng))))
            k = rng.randrange(0, 4)
            x = graph.x_backend.random_point(rng)
            idx = tuple(rng.randrange(1, 5) for _ in range(k))
            paths.append((graph, FiniteBoundaryPath(param_f_k(graph, z, x, idx))))
    paths.append((loop_graph, InfiniteDiscretePath(loop_graph, random_idx(rng))))
    paths.append(
        (loop_graph, FiniteBoundaryPath(FinitePath(loop_graph, (loop_graph.edge(2),))))
    )
    paths.append((loop_graph, FiniteBoundaryPath(vertex_path(loop_graph, "*"))))
    for graph, mu in paths:
        line = path_to_line(mu)
        assert path_from_line(line, graph) == mu
        # the format is stable: serializing twice gives the same line
        assert path_to_line(path_from_line(line, graph)) == line


def test_range_vertex(odo_point):
    mu = param_f(odo_point, ZERO_2ADIC, EvPeriodic((3,), (1,)))
    assert range_vertex(mu) == PairPoint(ZERO_2ADIC, FinitePoint(0, 1))
    assert range_vertex(shift_power(mu, 2)) == PairPoint(
        odometer().power(ZERO_2ADIC, -2), FinitePoint(0, 1)
    )
