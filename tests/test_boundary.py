import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from groupoidlab.qphi import QPhi
from groupoidlab.boundary import (
    INFINITE,
    ApproachPointRule,
    BasePointTail,
    BoundaryError,
    ConstantPointRule,
    ConstantTail,
    ConvergenceReport,
    EscapingTail,
    EvPeriodic,
    FiniteBoundaryPath,
    HeadOnlyTail,
    InfiniteDiscretePath,
    InfiniteModelPath,
    SequenceDescription,
    ShiftDomainError,
    converges,
    homeo_h,
    homeo_h_inv,
    param_f,
    path_from_line,
    path_to_line,
    shift,
    shift_power,
)
from groupoidlab.graphs import (
    CompositionError,
    DiscreteGraph,
    EdgeBox,
    FinitePath,
    ModelEdge,
    OneVertexLoopGraph,
    build_model_graph,
    param_f_k,
    vertex_path,
)
from groupoidlab.cli import _index_data, main
from groupoidlab.groupoid import isotropy_search, random_boundary_path, random_element
from groupoidlab.spaces import (
    CantorBackend,
    CircleBackend,
    CirclePoint,
    FiniteBackend,
    FinitePoint,
    PadicPoint,
    PairPoint,
    box_rep_point,
    finite_cyclic,
    golden_rotation,
    pair_index,
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


def test_same_tail_matches_shifted_sequences_exhaustively():
    """Every canonical sequence over {1, 2} with a head of length <= 3 and
    a cycle of length <= 4, every pair, every n, m <= 7: same_tail gives
    the verdict of comparing the two shifted sequences."""
    words = [w for k in range(5) for w in itertools.product((1, 2), repeat=k)]
    seqs = sorted(
        {EvPeriodic(h, c) for h in words if len(h) <= 3 for c in words if c},
        key=lambda s: (s.head, s.cycle),
    )
    shifts = {s: [s.shifted(n) for n in range(8)] for s in seqs}
    equal = 0
    for a, b in itertools.product(seqs, repeat=2):
        want = [[u == v for v in shifts[b]] for u in shifts[a]]
        assert [[a.same_tail(n, b, m) for m in range(8)] for n in range(8)] == want, (a, b)
        equal += sum(map(sum, want))
    assert len(seqs) == 176 and equal == 50160


def test_cons_matches_full_canonicalisation_exhaustively():
    """Every canonical sequence over {1, 2, 3} with a head of length <= 2
    and a cycle of length <= 3, and every value 1-3: the O(1) cons gives
    the fields and hash of the public constructor on the prepended pair,
    including where an empty head meets the cycle's last item and the
    cycle rotates."""
    words = [w for k in range(4) for w in itertools.product((1, 2, 3), repeat=k)]
    seqs = {EvPeriodic(h, c) for h in words if len(h) <= 2 for c in words if c}
    rotations = 0
    for s in seqs:
        for v in (1, 2, 3):
            fast, slow = s.cons(v), EvPeriodic((v,) + s.head, s.cycle)
            assert (fast.head, fast.cycle) == (slow.head, slow.cycle), (s, v)
            assert fast == slow and hash(fast) == hash(slow)
            assert fast.shifted(1) == s
            rotations += not s.head and v == s.cycle[-1]
    # 33 primitive cycles, each after 1 + 2 + 3 * 2 heads that end off its
    # last item; each cycle rotates under one value
    assert len(seqs) == 297 and rotations == 33


@pytest.mark.parametrize(
    "build",
    [
        lambda: EvPeriodic((), (2, 1)),
        lambda: EvPeriodic((3,), (1,)),
        lambda: InfiniteModelPath(ODO_POINT, ZERO_2ADIC, EvPeriodic((), (1,))),
        lambda: InfiniteDiscretePath(LOOP, EvPeriodic((2,), (1, 3))),
    ],
    ids=["sequence-empty-head", "sequence", "model-path", "loop-word"],
)
def test_cons_below_one_on_index_data_has_one_type_and_message(build):
    """cons checks the value itself, so a value below 1 is the error the
    public constructor gives, on a sequence and on both infinite paths."""
    for value in (0, -1):
        with pytest.raises(BoundaryError, match="^edge indices must be >= 1$"):
            build().cons(value)


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


def _one_path_per_kind():
    """A finite model path, a zero-length one, an infinite model path and
    a loop word: every boundary path kind and both graph kinds."""
    g = build_model_graph(golden_rotation(), FiniteBackend(2))
    z = golden_rotation().backend.random_point(random.Random(3))
    return {
        "finite": FiniteBoundaryPath(param_f_k(g, z, FinitePoint(1, 2), (2, 1, 3))),
        "vertex": FiniteBoundaryPath(vertex_path(g, PairPoint(z, FinitePoint(0, 2)))),
        "infinite": param_f(g, z, EvPeriodic((2,), (1, 3))),
        "loop-word": InfiniteDiscretePath(LOOP, EvPeriodic((2,), (1, 3))),
    }


@pytest.mark.parametrize("kind", ["finite", "vertex", "infinite", "loop-word"])
def test_boundary_path_method_set(kind):
    """length, range, prefix, drop and cons agree with each other and with
    edge_at on every kind; cons rejects an edge index below 1."""
    mu = _one_path_per_kind()[kind]
    g = mu.graph
    v = mu.range()
    e = g.edge_from(v, 4)
    nu = mu.cons(4)
    assert (shift_power(nu, 1) == mu) is True
    assert nu.prefix(1).edges == (e,)
    assert nu.length == mu.length + 1 and nu.range() == g.r(e)
    assert nu.edge_at(1) == e
    assert mu.prefix(0) == vertex_path(g, v)
    for k in range(1, int(min(mu.length, 3)) + 1):
        assert mu.prefix(k).edges == tuple(mu.edge_at(i) for i in range(1, k + 1))
        assert mu.drop(k) == shift_power(mu, k) and mu.drop(k).length == mu.length - k
        assert nu.prefix(k + 1).edges == (e,) + mu.prefix(k).edges
    with pytest.raises(BoundaryError if kind == "infinite" else ValueError):
        mu.cons(0)
    if mu.length != INFINITE:
        with pytest.raises(BoundaryError):
            mu.prefix(mu.length + 1)


def test_cons_on_a_graph_without_numbered_edges():
    """A JSON graph numbers no edges at a vertex, so ``cons`` has no edge to
    prepend; it says so with a BoundaryError that names the graph."""
    g = DiscreteGraph(["u", "v"], [("u", "v", "e")])
    with pytest.raises(BoundaryError, match="DiscreteGraph"):
        FiniteBoundaryPath(vertex_path(g, "u")).cons(1)


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


def test_escaping_tail_box_over_circle_x():
    """An x_box whose arc has a huge level is rejected without building the
    arc; one whose representative is the x of d(prefix) is accepted at any
    size."""
    g = build_model_graph(odometer(), CircleBackend())
    half = CirclePoint(QPhi(Fraction(1, 2)))
    prefix = FiniteBoundaryPath(vertex_path(g, PairPoint(ZERO_2ADIC, half)))
    for x_box in (1, 10**14, 10**30):
        with pytest.raises(BoundaryError):
            EscapingTail(prefix, half, x_box)
    # the arc (k/2^200, (k+2)/2^200) with k = 2^199 - 1 has midpoint 1/2
    for x_box in (0, pair_index(199, 2**199 - 1)):
        tail = EscapingTail(prefix, half, x_box)
        assert converges(SequenceDescription((), tail), prefix).holds


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


def reference_converges(desc, mu):
    """The oracle as a case analysis per tail kind: the reference the
    one anchor-path rule of ``converges`` is compared with."""
    tail = desc.tail
    notes = []
    if isinstance(tail, HeadOnlyTail):
        return ConvergenceReport(
            "undecidable", "undecidable", "undecidable",
            ("no tail rule: convergence is undecidable for this description",),
        )
    if isinstance(tail, ConstantTail):
        anchor = tail.path
    elif isinstance(tail, EscapingTail):
        anchor = tail.prefix
    else:
        anchor = tail.limit_path()
    ranges = "pass" if anchor.range() == mu.range() else "fail"

    def same_prefix(nu, k):
        return k == 0 or nu.prefix(k) == mu.prefix(k)

    mu_len = mu.length
    if isinstance(tail, ConstantTail):
        nu_len = tail.path.length
        if mu_len == INFINITE:
            prefixes = tail.path == mu
        else:
            prefixes = nu_len >= mu_len and same_prefix(tail.path, mu_len)
    elif isinstance(tail, EscapingTail):
        pl = len(tail.prefix.path)
        if mu_len == INFINITE or mu_len > pl + 1:
            prefixes = False
        elif mu_len <= pl:
            prefixes = same_prefix(tail.prefix, mu_len)
        else:
            prefixes = False
            notes.append("the appended edges never stabilise: their indices escape")
    elif tail.is_infinite():
        if mu_len == INFINITE:
            prefixes = (
                isinstance(mu, InfiniteModelPath)
                and mu.graph is tail.graph
                and mu.idx == tail.idx
                and mu.z == tail.z_rule.limit()
            )
        else:
            prefixes = same_prefix(tail.limit_path(), mu_len)
    else:
        prefixes = mu_len <= len(tail.idx) and same_prefix(tail.limit_path(), mu_len)

    escape = True
    if mu_len != INFINITE:
        if isinstance(tail, ConstantTail):
            if tail.path.length > mu_len:
                escape = False
                notes.append("a constant longer path keeps its next edge inside a compact set")
        elif isinstance(tail, EscapingTail):
            if len(tail.prefix.path) > mu_len:
                escape = False
                notes.append("the edge after position |mu| is eventually constant")
        elif tail.is_infinite():
            escape = False
            notes.append("infinite terms with fixed indices stay in a compact set")
        elif len(tail.idx) > mu_len:
            escape = False
            notes.append("terms extend past |mu| with a fixed index inside a compact space")
    return ConvergenceReport(
        ranges, "pass" if prefixes else "fail", "pass" if escape else "fail", tuple(notes)
    )


ORACLE_MODELS = {
    "odometer-point": (odometer, point_backend),
    "golden-finite-2": (golden_rotation, lambda: FiniteBackend(2)),
    "odometer-cantor": (odometer, CantorBackend),
    "golden-circle": (golden_rotation, CircleBackend),
}


def _anchored_paths(g, rng):
    """A finite path of length 0-3 and an infinite path extending it."""
    z = g.z_system.backend.random_point(rng)
    idx = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(0, 4)))
    cont = random_idx(rng)
    finite = FiniteBoundaryPath(param_f_k(g, z, g.x_point(cont.item(0)), idx))
    infinite = param_f(g, z, EvPeriodic(idx + cont.head, cont.cycle))
    assert (infinite.prefix(len(idx)) == finite.path) is True
    return finite, infinite


def _oracle_cases(g, rng):
    """(description, limit) pairs: every tail kind, with limits drawn from
    the anchor, its prefixes up to two edges past it, the sequence's own
    terms, and random finite and infinite paths, some at the anchor's z."""
    for _ in range(10):
        finite, infinite = _anchored_paths(g, rng)
        z, x = finite.path.r().left, finite.path.d().right
        x_box = next(b for b in range(256) if box_rep_point(g.x_backend.basic_open(b)) == x)
        z_rule = rng.choice([ConstantPointRule, ApproachPointRule])(z)
        idx_infinite = infinite.idx
        idx_finite = tuple(e.m for e in finite.path.edges)
        tails = [
            ConstantTail(finite),
            ConstantTail(infinite),
            EscapingTail(finite, g.x_backend.random_point(rng), x_box, rng.randrange(3)),
            BasePointTail(g, z_rule, idx_infinite),
            BasePointTail(g, z_rule, idx_finite, x),
        ]
        limits = [infinite, finite]
        limits += [FiniteBoundaryPath(infinite.prefix(k)) for k in range(len(finite) + 3)]
        for _ in range(4):
            z2 = rng.choice([z, g.z_system.backend.random_point(rng)])
            word = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(0, 4)))
            x2 = g.x_backend.random_point(rng)
            limits.append(FiniteBoundaryPath(param_f_k(g, z2, x2, word)))
            limits.append(param_f(g, z2, random_idx(rng)))
        for tail in tails:
            desc = SequenceDescription((), tail)
            extra = [desc.term(n) for n in range(2)]
            for mu in limits + extra:
                yield desc, mu


@pytest.mark.parametrize("model", sorted(ORACLE_MODELS))
def test_converges_matches_per_tail_reference(model):
    make_system, make_x = ORACLE_MODELS[model]
    g = build_model_graph(make_system(), make_x())
    seen = set()
    for desc, mu in _oracle_cases(g, random.Random(model)):
        got, want = converges(desc, mu), reference_converges(desc, mu)
        assert got == want, (path_to_line(mu), desc.tail)
        seen.add((type(desc.tail).__name__, got.ranges, got.prefixes, got.escape, got.notes))
    # every tail kind reaches a pass and a fail on each condition
    for kind in ("ConstantTail", "EscapingTail", "BasePointTail"):
        for i in (1, 2, 3):
            assert {row[i] for row in seen if row[0] == kind} == {"pass", "fail"}, (kind, i)


_ODO = {"z_backend": "odometer", "x_backend": "point"}
_GOLDEN = {"z_backend": "golden-rotation", "x_backend": "circle"}
_VERTEX = "FIN @(P:.0;F:0/1)"
_EDGE = "FIN (P:1.1;F:0/1;7)"


@pytest.mark.parametrize(
    "doc, digest",
    [
        ({"model": _ODO, "tail": {"kind": "constant", "path": _EDGE}, "limit": _VERTEX},
         "c127275d04b63ad439f100895eba510e94255542542019febd4c964b111e16ec"),
        ({"model": _ODO, "tail": {"kind": "escaping", "prefix": _VERTEX, "x_last": "F:0/1"},
          "limit": _EDGE},
         "f1d050ef6cfb6c678782c4fdf902fb52357d6e6e46e3a7d6607cb24f25c4919b"),
        ({"model": _ODO, "tail": {"kind": "escaping", "prefix": _EDGE, "x_last": "F:0/1",
                                  "x_box": 0, "rep_start": 2}, "limit": _VERTEX},
         "ea417ddce08c5ceba44b8a4f1526a59862007996a9ef49621b518056a353aa95"),
        ({"model": _ODO, "tail": {"kind": "base-point", "idx": "|1",
                                  "z_rule": {"kind": "approach", "point": "P:.0"}},
          "limit": _VERTEX},
         "d20bf06147933a10424b781ba0319b2471bee05e60655aa2f9b44c7426094182"),
        ({"model": _ODO, "tail": {"kind": "base-point", "idx": "1,2", "x_last": "F:0/1",
                                  "z_rule": {"kind": "constant", "point": "P:.0"}},
          "limit": _VERTEX},
         "da62cedf5a6a45626f884d06013ea41f0be088254f97bcf7c5adce85123060e1"),
        ({"model": _ODO, "head": [_VERTEX], "tail": {"kind": "head-only"}, "limit": _VERTEX},
         "7302dcc8e609fe93efff1c1dd9fd6243da5c91bb13ccf15da43d0bdc8824764c"),
        ({"model": _ODO, "head": [_EDGE], "tail": {"kind": "base-point", "idx": "3|1,2",
                                                   "z_rule": {"kind": "approach", "point": "P:1.01"}},
          "limit": "INF z=P:1.01 idx=3|1,2"},
         "bcb674ae3fb3b917370fc2d0b67371bc1e58f0edb539209132b69cb7df9ec0a9"),
        ({"model": _GOLDEN, "tail": {"kind": "escaping", "prefix": "FIN @(C:1/3:0;C:1/2:0)",
                                     "x_last": "C:1/4:0"}, "limit": "FIN @(C:1/3:0;C:1/2:0)"},
         "bcb674ae3fb3b917370fc2d0b67371bc1e58f0edb539209132b69cb7df9ec0a9"),
        ({"model": _GOLDEN, "tail": {"kind": "constant", "path": "FIN @(C:1/3:0;C:1/2:0)"},
          "limit": "INF z=C:1/3:0 idx=|1"},
         "96d9d2b592f45aa1bc266edcb2965d432c408b3749d2493b6ce52856c4df3b42"),
    ],
)
def test_converge_output_pinned(tmp_path, capsys, doc, digest):
    """``converge`` output bytes for documents that between them give
    every note of the oracle."""
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(doc))
    assert main(["converge", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
    assert mu.range() == PairPoint(ZERO_2ADIC, FinitePoint(0, 1))
    assert shift_power(mu, 2).range() == PairPoint(
        odometer().power(ZERO_2ADIC, -2), FinitePoint(0, 1)
    )


# ---------------------------------------------------------------------------
# orbit coordinates of infinite model paths
# ---------------------------------------------------------------------------

FREE_CONFIGS = [
    pytest.param(z, x, id=f"{z.__name__}-{name}")
    for z in (odometer, golden_rotation)
    for name, x in (
        ("point", point_backend),
        ("cantor", CantorBackend),
        ("circle", CircleBackend),
        ("finite3", lambda: FiniteBackend(3)),
    )
]


def _materialised_chain(g, rng, steps=12):
    """A random chain of drops and conses from one infinite path, next to
    a reference chain that steps the base point through the dynamics on
    every operation and rebuilds each path through the public
    constructor."""
    sys = g.z_system
    z = sys.backend.random_point(rng)
    mu = param_f(g, z, random_idx(rng))
    ref_z = z
    pairs = [(mu, InfiniteModelPath(g, ref_z, mu.idx))]
    for _ in range(steps):
        if rng.randrange(2):
            n = rng.randrange(1, 4)
            mu = mu.drop(n)
            for _ in range(n):
                ref_z = sys.backward(ref_z)
        else:
            mu = mu.cons(rng.randrange(1, 6))
            ref_z = sys.forward(ref_z)
        pairs.append((mu, InfiniteModelPath(g, ref_z, mu.idx)))
    return pairs


@pytest.mark.parametrize("make_z, make_x", FREE_CONFIGS)
def test_orbit_coordinates_match_materialised_paths(make_z, make_x):
    """drop and cons move an exponent only; the point, the line, the
    edges and every equality verdict are those of paths whose base point
    was stepped through the dynamics and rebuilt by the constructor."""
    g = build_model_graph(make_z(), make_x())
    rng = random.Random(f"orbit-{make_z.__name__}-{g.x_backend!r}")
    for _ in range(6):
        pairs = _materialised_chain(g, rng)
        # a chain that comes back to an earlier path exercises equality
        mu0, ref0 = pairs[0]
        pairs.append((mu0.cons(mu0.idx.item(0)).drop(1), ref0))
        for mu, ref in pairs:
            assert mu.z == ref.z and path_to_line(mu) == path_to_line(ref)
            assert mu.range() == ref.range() and mu.prefix(3) == ref.prefix(3)
            assert [mu.edge_at(i) for i in (1, 2, 3)] == [ref.edge_at(i) for i in (1, 2, 3)]
            assert (mu == ref) and (ref == mu) and hash(mu) == hash(ref)
        for mu_a, ref_a in pairs:
            for mu_b, ref_b in pairs:
                assert (mu_a == mu_b) == (ref_a == ref_b)
                for i, j in ((1, 1), (2, 1), (1, 3)):
                    want = ref_a.edge_at(i) == ref_b.edge_at(j)
                    assert mu_a.same_edge(i, mu_b, j) == want
                    assert ref_a.same_edge(i, ref_b, j) == want


@pytest.mark.parametrize("make_system", [golden_rotation, odometer])
def test_equal_paths_from_different_anchors_hash_alike(make_system):
    g = build_model_graph(make_system(), FiniteBackend(2))
    a = g.z_system.backend.random_point(random.Random(8))
    mu = param_f(g, a, EvPeriodic((2,), (1, 3)))
    for m in (4, 1, 2, 5, 3):
        mu = mu.cons(m)
    nu = param_f(g, g.z_system.power(a, 5), mu.idx)
    assert (mu.anchor, mu.exponent) == (a, 5) and nu.exponent == 0
    assert mu == nu and nu == mu and hash(mu) == hash(nu)
    assert len({mu, nu}) == 1
    assert mu != param_f(g, g.z_system.power(a, 4), mu.idx)
    assert mu != param_f(g, nu.z, mu.idx.cons(1))
    assert path_to_line(mu) == path_to_line(nu)


def test_finite_cyclic_exponents_compare_modulo_the_period():
    """On the order-3 cyclic control, paths that share an anchor agree
    when their exponents agree mod 3, and isotropy_search finds the pairs
    of paths rebuilt through the constructor."""
    g = build_model_graph(finite_cyclic(3), point_backend())
    for cycle in ((1,), (1, 2)):
        mu = param_f(g, FinitePoint(0, 3), EvPeriodic((), cycle))
        p = 3 * len(cycle)
        assert mu.drop(p) == mu and hash(mu.drop(p)) == hash(mu)
        assert mu.drop(1) != mu and mu.drop(p + 1) == mu.drop(1)
        assert mu.drop(p).same_edge(1, mu, 1)
        rebuilt = [mu] + [InfiniteModelPath(g, mu.drop(n).z, mu.drop(n).idx) for n in range(1, 13)]
        want = [(n, m) for n in range(13) for m in range(n) if rebuilt[n] == rebuilt[m]]
        assert want == [(n, m) for n in range(13) for m in range(n) if (n - m) % p == 0]
        assert isotropy_search(mu, 12) == want


def _rebuilt(mu):
    """The same path through the public constructors: an infinite model
    path on its materialised base point, so that it shares no anchor."""
    if isinstance(mu, InfiniteModelPath):
        return InfiniteModelPath(mu.graph, mu.z, mu.idx)
    if isinstance(mu, InfiniteDiscretePath):
        return InfiniteDiscretePath(mu.graph, mu.labels)
    p = mu.path
    return FiniteBoundaryPath(FinitePath(p.graph, p.edges, p.base))


@pytest.mark.parametrize(
    "make_z, make_x",
    FREE_CONFIGS
    + [
        pytest.param(lambda: finite_cyclic(3), point_backend, id="finite-cyclic"),
        pytest.param(None, None, id="loop"),
    ],
)
def test_same_tail_matches_shifted_paths(make_z, make_x):
    """same_tail(n, other, m) gives the verdict of comparing the two
    shifted paths, for sampled elements' x and y, fresh finite and
    infinite paths and their rebuilt copies, in every kind pairing and
    for every n, m up to the length of a finite path, so that it also
    drops to its vertex path, or up to 5 on an infinite one."""
    graph = LOOP if make_z is None else build_model_graph(make_z(), make_x())
    rng = random.Random(f"same-tail-{graph!r}")
    paths = []
    for _ in range(10):
        g = random_element(graph, rng)
        paths += [g.x, g.y]
    paths += [random_boundary_path(graph, rng, force=kind) for kind in ("finite", "infinite") * 3]
    paths += [_rebuilt(mu) for mu in paths[::2]]
    drops = {id(mu): range((5 if mu.length == INFINITE else mu.length) + 1) for mu in paths}
    equal = 0
    for p, q in itertools.product(paths, repeat=2):
        for n in drops[id(p)]:
            for m in drops[id(q)]:
                want = shift_power(p, n) == shift_power(q, m)
                assert p.same_tail(n, q, m) == want, (path_to_line(p), n, path_to_line(q), m)
                equal += want
    assert equal > len(paths) * 6


def _full_shift_paths(graph, rng):
    """Finite boundary paths of a model graph in groups that share a full
    shift or just miss it: a path, its domain vertex path, other edges
    into that vertex, the last edge with another index, and the path
    moved so that its last edge differs from the original's only in z,
    or only in x.  Each path also comes rebuilt from its line, with
    fresh points."""
    system = graph.z_system
    paths = []
    for _ in range(4):
        z = system.backend.random_point(rng)
        x_last = graph.x_backend.random_point(rng)
        idx = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(1, 4)))
        mu = FiniteBoundaryPath(param_f_k(graph, z, x_last, idx))
        vertex = shift_power(mu, mu.length)
        other_x = next((graph.x_point(j) for j in range(1, 9) if graph.x_point(j) != x_last), None)
        paths += [
            mu,
            vertex,
            vertex.cons(rng.randrange(1, 6)).cons(rng.randrange(1, 6)),
            FiniteBoundaryPath(param_f_k(graph, z, x_last, idx[:-1] + (idx[-1] % 5 + 1,))),
            FiniteBoundaryPath(param_f_k(graph, system.forward(z), x_last, idx)),
        ]
        if other_x is not None:
            paths.append(FiniteBoundaryPath(param_f_k(graph, z, other_x, idx)))
    return paths + [path_from_line(path_to_line(mu), graph) for mu in paths]


def _discrete_full_shift_paths():
    """Paths of a finite graph whose every vertex is declared singular,
    with domains u, v and w, and the vertex paths."""
    g = DiscreteGraph(
        ["u", "v", "w"],
        [("u", "v", "a"), ("w", "v", "b"), ("v", "u", "c"), ("v", "w", "d"), ("u", "u", "e")],
        singular_override=["u", "v", "w"],
    )
    edge = {e.label: e for e in g.edges}
    words = ["a", "b", "ca", "cb", "da", "db", "e", "ec", "ae", "cae"]
    paths = [FiniteBoundaryPath(FinitePath(g, tuple(edge[c] for c in w))) for w in words]
    return paths + [FiniteBoundaryPath(vertex_path(g, v)) for v in g.vertices]


@pytest.mark.parametrize(
    "make_z, make_x",
    FREE_CONFIGS + [pytest.param(None, "loop", id="loop"), pytest.param(None, "discrete", id="discrete")],
)
def test_full_shift_same_tail_matches_dropped_paths(make_z, make_x):
    """At full shift same_tail compares domain vertices: from the last
    edges' z and x on the model graph, and through d() on vertex paths
    and other graphs.  It gives the verdict of comparing the two dropped
    paths, which here are vertex paths."""
    if make_x == "loop":
        paths = [FiniteBoundaryPath(LOOP.path(w)) for w in ((), (1,), (2, 3), (4, 1, 1))]
    elif make_x == "discrete":
        paths = _discrete_full_shift_paths()
    else:
        graph = build_model_graph(make_z(), make_x())
        paths = _full_shift_paths(graph, random.Random(f"full-shift-{graph!r}"))
    verdicts = []
    for p, q in itertools.product(paths, repeat=2):
        n, m = p.length, q.length
        want = p.drop(n) == q.drop(m)
        assert p.same_tail(n, q, m) == want, (p, q)
        verdicts.append(want)
    assert True in verdicts
    assert (False in verdicts) == (make_x != "loop")


@pytest.mark.parametrize(
    "kind, graph",
    [
        ("finite", "model"),
        ("finite", "loop"),
        ("infinite", "model"),
        ("infinite", "loop"),
    ],
)
def test_cons_below_one_is_a_boundary_error(kind, graph):
    g = build_model_graph(golden_rotation(), FiniteBackend(2)) if graph == "model" else LOOP
    if graph == "loop":
        mu = InfiniteDiscretePath(g, EvPeriodic((), (2,)))
        if kind == "finite":
            mu = FiniteBoundaryPath(FinitePath(g, (g.edge(2),)))
    else:
        z = ZERO_CIRCLE
        mu = param_f(g, z, EvPeriodic((), (2,)))
        if kind == "finite":
            mu = FiniteBoundaryPath(mu.prefix(2))
    for m in (0, -1):
        with pytest.raises(BoundaryError, match=">= 1"):
            mu.cons(m)
    assert mu.cons(1).drop(1) == mu


@pytest.mark.parametrize(
    "build",
    [
        lambda: EvPeriodic((0,), (1,)),
        lambda: EvPeriodic((), (2, 0)),
        lambda: EvPeriodic((-1,), (1,)),
        lambda: InfiniteModelPath(ODO_POINT, ZERO_2ADIC, EvPeriodic((3,), (0,))),
        lambda: InfiniteDiscretePath(LOOP, EvPeriodic((), (1, 0))),
        lambda: path_from_line("INF z=P:.0 idx=2,0|1", ODO_POINT),
        lambda: path_from_line("INFW idx=|0", LOOP),
    ],
    ids=["head-0", "cycle-0", "head-negative", "model-path", "loop-word", "INF-line", "INFW-line"],
)
def test_index_data_below_one_is_a_boundary_error(build):
    """Index data is validated once, in EvPeriodic, and every way to build
    an infinite path goes through that check."""
    with pytest.raises(BoundaryError, match="edge indices must be >= 1"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: LOOP.edge(0),
        lambda: LOOP.path((1, 0)),
        lambda: ModelEdge(ZERO_2ADIC, FinitePoint(0, 1), 0),
        lambda: EdgeBox(odometer().backend.full_box(), point_backend().full_box(), frozenset({0, 1})),
        lambda: _index_data("1,0"),
        lambda: path_from_line("FINW 0", LOOP),
        lambda: path_from_line("FIN (P:.0;F:0/1;0)", ODO_POINT),
    ],
    ids=["loop-edge", "loop-word", "model-edge", "edge-box", "cli-index", "FINW-line", "FIN-line"],
)
def test_edge_index_below_one_has_one_type_and_message(build):
    """A single edge index below 1, in an edge, a box, a word or a path
    line, is the same error as in infinite index data."""
    with pytest.raises(BoundaryError, match="^edge indices must be >= 1$"):
        build()


@pytest.mark.parametrize(
    "field, doc",
    [
        ("sequence.tail.idx", {"tail": {"kind": "base-point", "idx": "1,0", "x_last": "F:0/1",
                                         "z_rule": {"kind": "constant", "point": "P:.0"}}}),
        ("sequence.limit", {"limit": "FIN (P:.0;F:0/1;0)"}),
    ],
)
def test_converge_edge_index_below_one_exits_2(tmp_path, capsys, field, doc):
    full = {
        "model": {"z_backend": "odometer", "x_backend": "point"},
        "head": [],
        "tail": {"kind": "constant", "path": "FIN @(P:.0;F:0/1)"},
        "limit": "FIN @(P:.0;F:0/1)",
    }
    path = tmp_path / "sequence.json"
    path.write_text(json.dumps({**full, **doc}))
    assert main(["converge", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {field}: edge indices must be >= 1\n"
