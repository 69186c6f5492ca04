import copy
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
    LoopPath,
    ModelPath,
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
    DiscreteEdge,
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
    word = shift_power(LoopPath(LOOP, s), n)
    assert word == LoopPath(LOOP, slow) and word.labels.cycle == slow.cycle
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
        lambda: param_f(ODO_POINT, ZERO_2ADIC, EvPeriodic((), (1,))),
        lambda: LoopPath(LOOP, EvPeriodic((2,), (1, 3))),
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
    """Finite boundary paths of every length up to 6 on model and loop
    graphs, each built through the validating constructor."""
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
        "loop-word": LoopPath(LOOP, EvPeriodic((2,), (1, 3))),
    }


def test_finite_boundary_paths_copy():
    """copy.copy and copy.deepcopy rebuild a finite boundary path through
    its public constructor: the copy equals the path and hashes alike, and
    the deep copy prints the same line."""
    paths = _one_path_per_kind()
    for mu in (
        paths["finite"], paths["finite"].drop(1).cons(5), paths["vertex"],
        FiniteBoundaryPath(LOOP.path((2, 1))),
    ):
        twin = copy.copy(mu)
        assert type(twin) is type(mu) and twin == mu and hash(twin) == hash(mu)
        deep = copy.deepcopy(mu)
        assert type(deep) is type(mu) and repr(deep) == repr(mu)


@pytest.mark.parametrize(
    "kind", ["finite", "finite-shifted", "vertex", "infinite", "loop-word", "loop-finite"]
)
def test_deep_copied_paths_keep_their_graph(kind):
    """A deep copy of a boundary path of any kind keeps its graph, which
    paths compare by identity, so it equals the path and hashes alike."""
    paths = _one_path_per_kind()
    paths["finite-shifted"] = paths["finite"].drop(1).cons(5)
    paths["loop-finite"] = FiniteBoundaryPath(LOOP.path((2, 1)))
    mu = paths[kind]
    deep = copy.deepcopy(mu)
    assert deep is not mu and deep.graph is mu.graph
    assert type(deep) is type(mu) and deep == mu and mu == deep and hash(deep) == hash(mu)
    assert copy.deepcopy([mu, mu]) == [mu, mu]


@pytest.mark.parametrize("kind", ["finite", "vertex", "infinite", "loop-word"])
def test_boundary_path_method_set(kind):
    """length, range, prefix, drop and cons agree with each other and with
    edge_at on every kind; cons rejects an edge index below 1."""
    mu = _one_path_per_kind()[kind]
    g = mu.graph
    v = mu.range()
    e = LOOP.edge(4) if kind == "loop-word" else ModelEdge(v.left, v.right, 4)
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
def test_param_f_k_endpoints(k):
    """param_f_k builds its path unchecked; the public constructor, which
    checks every junction, rebuilds the same path, on the 8 free configs
    and the finite-cyclic control."""
    configs = [param.values for param in FREE_CONFIGS] + [(lambda: finite_cyclic(3), point_backend)]
    for make_z, make_x in configs:
        graph = build_model_graph(make_z(), make_x())
        rng = random.Random(f"{k}-{graph!r}")
        for _ in range(20):
            z = graph.z_system.backend.random_point(rng)
            x = graph.x_backend.random_point(rng)
            idx = tuple(rng.randrange(1, 6) for _ in range(k))
            p = param_f_k(graph, z, x, idx)
            assert FinitePath(graph, p.edges, p.base) == p
            assert len(p) == k
            assert p.d() == PairPoint(graph.z_system.power(z, -k), x)
            if k:
                assert p.r() == PairPoint(z, graph.x_point(idx[0]))


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
            nu = LoopPath(loop_graph, random_idx(rng))
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


def test_h_refuses_finite_paths_outside_the_loop_graph(odo_point):
    """A finite path of a model graph is not a loop-graph word, and h says
    so."""
    nu = param_f(odo_point, ZERO_2ADIC, (2, 1), FinitePoint(0, 1))
    with pytest.raises(BoundaryError, match="^not a boundary path of the loop graph: "):
        homeo_h(odo_point, ZERO_2ADIC, nu)


def test_h_inv_refuses_model_paths_over_a_non_point_x(loop_graph):
    """Over a circle X, an infinite model path is refused as a finite one
    is: a loop word would drop its X coordinates."""
    graph = build_model_graph(golden_rotation(), CircleBackend())
    for mu in (
        param_f(graph, ZERO_CIRCLE, EvPeriodic((2,), (1,))),
        param_f(graph, ZERO_CIRCLE, (2, 1), ZERO_CIRCLE),
    ):
        with pytest.raises(BoundaryError, match="^h_inv expects a path of the one-point-X model graph$"):
            homeo_h_inv(loop_graph, mu)


@pytest.mark.parametrize(
    "target",
    [DiscreteGraph(["u", "v"], [("u", "v", "e")]), ODO_POINT, None],
    ids=["discrete", "model", "none"],
)
@pytest.mark.parametrize("kind", ["finite", "infinite"])
def test_h_inv_refuses_a_target_that_is_not_the_loop_graph(target, kind):
    """h_inv builds its loop word on the graph it is given, so any other
    target is the same BoundaryError for a finite and an infinite path."""
    mu = param_f(ODO_POINT, ZERO_2ADIC, (2, 1), FinitePoint(0, 1))
    if kind == "infinite":
        mu = param_f(ODO_POINT, ZERO_2ADIC, EvPeriodic((2,), (1, 3)))
    with pytest.raises(BoundaryError, match="^a loop word needs the loop graph, not "):
        homeo_h_inv(target, mu)


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
            nu = LoopPath(loop_graph, random_idx(rng))
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
            limit_nu = LoopPath(loop_graph, idx)
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
                isinstance(mu, ModelPath)
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


def test_finite_boundary_path_refuses_a_discrete_graph():
    """Only the model and loop graphs have boundary path kinds, so a path of
    a DiscreteGraph is refused whatever its domain: u is singular, v is
    regular, and each is a BoundaryError naming the graph."""
    g = DiscreteGraph(["u", "v"], [("u", "v", "e")])
    refusal = "^a boundary path needs a model graph or the loop graph, not <DiscreteGraph"
    for path in (FinitePath(g, (g.edges[0],)), vertex_path(g, "v")):
        with pytest.raises(BoundaryError, match=refusal):
            FiniteBoundaryPath(path)


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
    paths.append((loop_graph, LoopPath(loop_graph, random_idx(rng))))
    paths.append(
        (loop_graph, FiniteBoundaryPath(FinitePath(loop_graph, (loop_graph.edge(2),))))
    )
    paths.append((loop_graph, FiniteBoundaryPath(vertex_path(loop_graph, "*"))))
    for graph, mu in paths:
        line = path_to_line(mu)
        assert path_from_line(line, graph) == mu
        # the format is stable: serializing twice gives the same line
        assert path_to_line(path_from_line(line, graph)) == line


INF_FORM = r"^a INF line has the form INF z=<point> idx=<head>\|<cycle>$"
INFW_FORM = r"^a INFW line has the form INFW idx=<head>\|<cycle>$"
FIN_FORM = r"^a FIN line has the form FIN \(<z>;<x>;<m>\) \.\.\. or FIN @<vertex>$"


@pytest.mark.parametrize(
    "line, graph, message",
    [
        ("INF P:.0 1|2", ODO_POINT, INF_FORM),
        ("INF z=P:.0", ODO_POINT, INF_FORM),
        ("INF idx=|1 z=P:.0", ODO_POINT, INF_FORM),
        ("INF z=P:.0 idx=|1 x=F:0/1", ODO_POINT, INF_FORM),
        ("INFW 1|2", LOOP, INFW_FORM),
        ("INFW", LOOP, INFW_FORM),
        ("FIN (P:.0;F:0/1)", ODO_POINT, FIN_FORM),
        ("FIN (P:.0;F:0/1;1;2)", ODO_POINT, FIN_FORM),
        ("FIN P:.0;F:0/1;1", ODO_POINT, FIN_FORM),
        ("FIN", ODO_POINT, FIN_FORM),
        ("INFW idx=1|2", ODO_POINT, r"^a INFW line needs the loop graph, not <ModelGraph"),
        ("FIN @u", DiscreteGraph(["u"], []), r"^a FIN line needs a model graph, not <DiscreteGraph"),
    ],
)
def test_path_line_without_its_form_names_the_form(line, graph, message):
    """A line that lacks a documented key or a field of its kind's form is
    a BoundaryError naming the kind and the form; an INFW line on another
    graph is refused as a FINW line is, and a FIN line on a graph with no
    line format as well."""
    with pytest.raises(BoundaryError, match=message):
        path_from_line(line, graph)


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
    pairs = [(mu, param_f(g, ref_z, mu.idx))]
    for _ in range(steps):
        if rng.randrange(2):
            n = rng.randrange(1, 4)
            mu = mu.drop(n)
            for _ in range(n):
                ref_z = sys.backward(ref_z)
        else:
            mu = mu.cons(rng.randrange(1, 6))
            ref_z = sys.forward(ref_z)
        pairs.append((mu, param_f(g, ref_z, mu.idx)))
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
        rebuilt = [mu] + [param_f(g, mu.drop(n).z, mu.drop(n).idx) for n in range(1, 13)]
        want = [(n, m) for n in range(13) for m in range(n) if rebuilt[n] == rebuilt[m]]
        assert want == [(n, m) for n in range(13) for m in range(n) if (n - m) % p == 0]
        assert isotropy_search(mu, 12) == want


def _stepped_path(g, z, x, idx):
    """The finite path with base point z, index tuple idx and last x, its
    edges (rho^-i(z), x_{n_{i+1}}, n_i) stepped back through the dynamics
    one edge at a time and validated by the public constructors."""
    edges = []
    xs = [g.x_point(m) for m in idx[1:]] + [x]
    for m, x_next in zip(idx, xs):
        z = g.z_system.backward(z)
        edges.append(ModelEdge(z, x_next, m))
    if not edges:
        return FiniteBoundaryPath(vertex_path(g, PairPoint(z, x)))
    return FiniteBoundaryPath(FinitePath(g, tuple(edges)))


def _finite_chains(g, rng):
    """Random chains of drops and conses from three finite paths on one
    anchor, each path next to a reference path whose base point was
    stepped through the dynamics on every operation."""
    sys = g.z_system
    z, x = sys.backend.random_point(rng), g.x_backend.random_point(rng)
    pairs = []
    for _ in range(3):
        idx = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 5)))
        mu, ref_z = param_f(g, z, idx, x), z
        pairs.append((mu, _stepped_path(g, ref_z, x, idx)))
        for _ in range(6):
            if mu.length and rng.randrange(2):
                n = rng.randrange(1, mu.length + 1)
                mu = mu.drop(n)
                for _ in range(n):
                    ref_z = sys.backward(ref_z)
            else:
                mu = mu.cons(rng.randrange(1, 4))
                ref_z = sys.forward(ref_z)
            pairs.append((mu, _stepped_path(g, ref_z, x, mu.idx)))
    return pairs


def _shifted_data(ref, n):
    """The n-th shift of a materialised path as plain data: its edges, or
    its domain vertex once no edge is left."""
    p = ref.path
    return p.edges[n:] or p.d()


@pytest.mark.parametrize(
    "make_z, make_x",
    FREE_CONFIGS + [pytest.param(lambda: finite_cyclic(3), point_backend, id="finite-cyclic")],
)
def test_finite_orbit_coordinates_match_materialised_paths(make_z, make_x):
    """A finite model path held in orbit coordinates has the edges, line,
    range, prefixes, equality, hash, same_edge and same_tail verdicts of
    the path whose edges were stepped through the dynamics and validated
    by FiniteBoundaryPath(FinitePath(...)).  The reference paths carry
    their own anchors, so each comparison with one goes through built
    points; equal paths on different anchors hash alike.  On the cyclic
    control, edges on one anchor also agree across exponents that differ
    by a multiple of the period."""
    g = build_model_graph(make_z(), make_x())
    rng = random.Random(f"finite-orbit-{g!r}")
    modular = own_anchor = 0
    for _ in range(3):
        pairs = _finite_chains(g, rng)
        for mu, ref in pairs:
            own_anchor += ref.anchor is not mu.anchor
            assert mu.path.edges == ref.path.edges and path_to_line(mu) == path_to_line(ref)
            assert mu.length == len(mu) == ref.length and mu.range() == ref.range()
            assert [mu.prefix(k) for k in range(mu.length + 1)] == [
                ref.prefix(k) for k in range(ref.length + 1)
            ]
            assert [mu.edge_at(i) for i in range(1, mu.length + 1)] == list(ref.path.edges)
            assert (mu == ref) and (ref == mu) and hash(mu) == hash(ref)
        for mu_a, ref_a in pairs:
            for mu_b, ref_b in pairs:
                assert (mu_a == mu_b) == (ref_a.path == ref_b.path)
                for i in range(1, mu_a.length + 1):
                    for j in range(1, mu_b.length + 1):
                        want = ref_a.edge_at(i) == ref_b.edge_at(j)
                        assert mu_a.same_edge(i, mu_b, j) == want
                        modular += want and mu_a.exponent - i != mu_b.exponent - j
                for n in range(mu_a.length + 1):
                    for m in range(mu_b.length + 1):
                        want = _shifted_data(ref_a, n) == _shifted_data(ref_b, m)
                        assert mu_a.same_tail(n, mu_b, m) == want
                        assert ref_a.same_tail(n, ref_b, m) == want
    assert own_anchor > 50 and (modular > 0) == (g.z_system.period is not None)


#: labels of an infinite word compared at each shift: past every head
#: (at most 9 labels here) and a common period of two cycles (at most 6)
LOOP_WINDOW = 30


def _loop_chains(rng):
    """Random chains of drops and conses from finite and infinite loop
    words over the labels {1, 2}, each word next to a reference tuple of
    its labels built from the raw head and cycle drawn, not canonicalised:
    the whole word when finite, its first 80 labels or more when infinite."""
    pairs = []
    for i in range(8):
        head = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(0, 4)))
        if i % 2:
            cycle = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(1, 4)))
            mu, ref = LoopPath(LOOP, EvPeriodic(head, cycle)), (head + cycle * 80)[:80]
        else:
            mu, ref = FiniteBoundaryPath(LOOP.path(head)) if i % 4 else LoopPath(LOOP, head), head
        pairs.append((mu, ref))
        for _ in range(6):
            if mu.length and rng.randrange(2):
                n = rng.randrange(1, int(min(mu.length, 4)) + 1)
                mu, ref = mu.drop(n), ref[n:]
            else:
                m = rng.randrange(1, 3)
                mu, ref = mu.cons(m), (m,) + ref
            pairs.append((mu, ref))
    return pairs


def _reference_tail(mu, ref, n):
    """The n-th shift of a reference word: its labels when finite, a
    window of them when infinite, tagged by the kind."""
    if mu.length == INFINITE:
        return "infinite", ref[n : n + LOOP_WINDOW]
    return "finite", ref[n:]


def test_loop_words_match_reference_labels():
    """A loop word, finite or infinite, reached by random drops and conses
    has the edges, prefixes, path, line, shift period, equality, hash,
    same_edge and same_tail verdicts of its reference labels read through
    LOOP.path(...): the whole word when finite, a window when infinite."""
    pairs = _loop_chains(random.Random("loop-words"))
    assert {mu.length == INFINITE for mu, _ref in pairs} == {True, False}
    shifts = {id(mu): range(int(min(mu.length, 6)) + 1) for mu, _ref in pairs}
    for mu, ref in pairs:
        finite = mu.length != INFINITE
        k = len(ref) if finite else LOOP_WINDOW
        assert mu.length == (len(ref) if finite else INFINITE)
        assert [mu.edge_at(i) for i in range(1, k + 1)] == list(LOOP.path(ref[:k]).edges)
        assert [mu.prefix(j) for j in range(k + 1)] == [LOOP.path(ref[:j]) for j in range(k + 1)]
        assert mu.path == LOOP.path(ref) if finite else getattr(mu, "path", None) is None
        line = path_to_line(mu)
        assert path_from_line(line, LOOP) == mu and path_to_line(path_from_line(line, LOOP)) == line
        assert not finite or line == "FINW " + (" ".join(map(str, ref)) or "@")
        period = mu.shift_period()
        assert (period is None) == finite
        for n in shifts[id(mu)]:
            for m in range(n):
                want = _reference_tail(mu, ref, n) == _reference_tail(mu, ref, m)
                assert want == (period is not None and m >= period[0] and (n - m) % period[1] == 0)
    equal = same = 0
    for (a, ref_a), (b, ref_b) in itertools.product(pairs, repeat=2):
        want = _reference_tail(a, ref_a, 0) == _reference_tail(b, ref_b, 0)
        assert (a == b) == want and (not want or hash(a) == hash(b))
        for i in range(1, int(min(a.length, 5)) + 1):
            for j in range(1, int(min(b.length, 5)) + 1):
                assert a.same_edge(i, b, j) == (ref_a[i - 1] == ref_b[j - 1])
        for n in shifts[id(a)]:
            for m in shifts[id(b)]:
                want = _reference_tail(a, ref_a, n) == _reference_tail(b, ref_b, m)
                assert a.same_tail(n, b, m) == want
                same += want and a is not b
        equal += a == b and a is not b
    assert equal > 0 and same > 100


def _rebuilt(mu):
    """The same path through the public constructors: an infinite model
    path on its materialised base point, so that it shares no anchor."""
    if isinstance(mu, ModelPath) and mu.length == INFINITE:
        return param_f(mu.graph, mu.z, mu.idx)
    if isinstance(mu, LoopPath):
        return LoopPath(mu.graph, mu.labels)
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


@pytest.mark.parametrize(
    "make_z, make_x",
    FREE_CONFIGS + [pytest.param(None, "loop", id="loop")],
)
def test_full_shift_same_tail_matches_dropped_paths(make_z, make_x):
    """At full shift same_tail compares domain vertices, from the last
    edges' z and x on the model graph.  It gives the verdict of comparing
    the two dropped paths, which here are vertex paths."""
    if make_x == "loop":
        paths = [FiniteBoundaryPath(LOOP.path(w)) for w in ((), (1,), (2, 3), (4, 1, 1))]
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
        mu = LoopPath(g, EvPeriodic((), (2,)))
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
        lambda: param_f(ODO_POINT, ZERO_2ADIC, EvPeriodic((3,), (0,))),
        lambda: LoopPath(LOOP, EvPeriodic((), (1, 0))),
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


@pytest.mark.parametrize("label", [0, -3, "a", True], ids=["zero", "negative", "string", "bool"])
def test_loop_words_validate_their_labels(label):
    """A loop word keeps EvPeriodic's invariant, every label an int >= 1,
    so a loop-graph path with another label is refused where it is built,
    whether from edges or from labels, and no word writes a FINW line
    that path_from_line refuses."""
    edge = DiscreteEdge(LOOP.vertex, LOOP.vertex, label)
    for build in (lambda: FiniteBoundaryPath(FinitePath(LOOP, (edge,))), lambda: LoopPath(LOOP, (2, label))):
        with pytest.raises(BoundaryError, match="^edge indices must be >= 1$"):
            build()
    word = FiniteBoundaryPath(FinitePath(LOOP, (DiscreteEdge(LOOP.vertex, LOOP.vertex, 3),)))
    assert path_from_line(path_to_line(word), LOOP) == word == LoopPath(LOOP, (3,))


@pytest.mark.parametrize(
    "build",
    [
        lambda: LoopPath(OneVertexLoopGraph(), (1,)).cons(True),
        lambda: param_f(ODO_POINT, ZERO_2ADIC, (1,), FinitePoint(0, 1)).cons(True),
        lambda: EvPeriodic((True,), (2,)),
        lambda: EvPeriodic((), (2, True)),
        lambda: param_f(ODO_POINT, ZERO_2ADIC, (True,), FinitePoint(0, 1)),
    ],
    ids=["loop-cons", "model-cons", "head", "cycle", "param-f"],
)
def test_bool_edge_indices_are_refused(build):
    """A bool is an ``int`` to Python but not an edge index: ``cons``,
    ``EvPeriodic`` and ``param_f``'s finite tuple refuse it as ``LoopPath``
    does, so no word writes a line such as ``FINW True 1``, which
    ``path_from_line`` refuses."""
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


def test_empty_cycles_are_refused_at_every_public_entry(tmp_path, capsys):
    """An empty cycle marks a finite word inside a model path; no public
    entry builds one: the constructor, an INF line and a base-point tail
    all refuse it, with the BoundaryError an index below 1 gets."""
    with pytest.raises(ValueError, match="^cycle must be non-empty$"):
        EvPeriodic((1,), ())
    with pytest.raises(BoundaryError, match="^cycle must be non-empty$"):
        EvPeriodic((1,), ())
    for idx in ("1|", "|"):
        with pytest.raises(ValueError, match="^cycle must be non-empty$"):
            path_from_line(f"INF z=P:.0 idx={idx}", ODO_POINT)
        with pytest.raises(BoundaryError, match="^cycle must be non-empty$"):
            path_from_line(f"INF z=P:.0 idx={idx}", ODO_POINT)
    doc = {
        "model": {"z_backend": "odometer", "x_backend": "point"},
        "head": [],
        "tail": {"kind": "base-point", "idx": "1|", "z_rule": {"kind": "constant", "point": "P:.0"}},
        "limit": "INF z=P:.0 idx=|1",
    }
    path = tmp_path / "sequence.json"
    path.write_text(json.dumps(doc))
    assert main(["converge", str(path)]) == 2
    assert capsys.readouterr().err == "error: sequence.tail.idx: cycle must be non-empty\n"


def test_finite_index_tuple_needs_its_last_x():
    """x = None marks an infinite model path, so param_f refuses a finite
    index tuple without the last edge's x coordinate."""
    for idx in ((), (2, 1)):
        with pytest.raises(BoundaryError, match="^a finite index tuple needs x"):
            param_f(ODO_POINT, ZERO_2ADIC, idx)
    assert param_f(ODO_POINT, ZERO_2ADIC, (2, 1), FinitePoint(0, 1)).length == 2
