import ast
import bisect
import copy
import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from groupoidlab import groupoid
from groupoidlab.cli import check_freeness, check_principality, parse_config
from groupoidlab.qphi import QPhi
from groupoidlab.boundary import (
    EvPeriodic,
    FiniteBoundaryPath,
    LoopPath,
    INFINITE,
    ModelPath,
    param_f,
    path_from_line,
    path_to_line,
    shift,
    shift_power,
)
from groupoidlab.graphs import (
    FinitePath,
    ModelEdge,
    OneVertexLoopGraph,
    build_model_graph,
    param_f_k,
    vertex_path,
)
from groupoidlab.groupoid import (
    BasicOpenBisection,
    DRGroupoid,
    GroupoidElement,
    GroupoidError,
    PathCylinder,
    axiom_sample,
    compose,
    inverse,
    isotropy_reduction,
    isotropy_search,
    make_element,
    principality_sample,
    random_boundary_path,
    random_element,
    random_element_at,
    random_ev_periodic,
    random_path_from,
    unit,
)
from groupoidlab.spaces import (
    CantorBackend,
    CircleBackend,
    CirclePoint,
    FiniteBackend,
    FinitePoint,
    MinimalSystem,
    PadicPoint,
    PairPoint,
    draw,
    draws,
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
def loop_graph():
    return OneVertexLoopGraph()


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


def test_unit_element(odo_point):
    mu = param_f(odo_point, ZERO_2ADIC, EvPeriodic((), (1,)))
    u = make_element(mu, 0, 0, mu)
    assert u.k == 0 and u.x == u.y and u == unit(mu)


def test_element_from_shift(odo_point):
    mu = param_f(odo_point, ZERO_2ADIC, EvPeriodic((2,), (1,)))
    g = make_element(mu, 1, 0, shift(mu))
    assert g.k == 1 and (g.n, g.m) == (1, 0)


def test_element_rejects_unequal_paths(odo_point):
    a = param_f(odo_point, ZERO_2ADIC, EvPeriodic((), (1,)))
    b = param_f(odo_point, odometer().power(ZERO_2ADIC, 3), EvPeriodic((), (1,)))
    with pytest.raises(GroupoidError):
        make_element(a, 0, 0, b)


def test_element_shift_domain(odo_point):
    mu = param_f(odo_point, ZERO_2ADIC, EvPeriodic((), (1,)))
    v = FiniteBoundaryPath(vertex_path(odo_point, mu.range()))
    with pytest.raises(GroupoidError):
        make_element(v, 1, 0, v)


def test_witness_minimized(odo_point):
    mu = param_f(odo_point, ZERO_2ADIC, EvPeriodic((), (1,)))
    # (2, 1) reduces to (1, 0) since shifting once already aligns
    g = make_element(mu, 2, 1, shift(mu))
    assert (g.n, g.m) == (1, 0)


def reference_witness(x, n, m, y):
    """The minimal witness by re-shifting both paths on every step."""
    while n > 0 and m > 0 and shift_power(x, n - 1) == shift_power(y, m - 1):
        n -= 1
        m -= 1
    return n, m


@pytest.mark.parametrize("kind", ["finite", "infinite"])
def test_witness_minimisation_matches_reshifting(kind):
    """make_element lowers the witness edge by edge; lifting random
    elements (and units, and isotropy of periodic words) by j extra shifts
    on both sides must come back to the witness the re-shifting loop finds."""
    rng = random.Random(29)
    loop = OneVertexLoopGraph()
    graphs = [
        build_model_graph(golden_rotation(), point_backend()),
        build_model_graph(golden_rotation(), FiniteBackend(2)),
        build_model_graph(odometer(), point_backend()),
        loop,
    ]
    checked = 0
    for graph in graphs:
        for _ in range(60):
            x = random_boundary_path(graph, rng, force=kind)
            g = random_element_at(graph, x, rng)
            pairs = [(g.x, g.n, g.m, g.y), (x, 0, 0, x)]
            if isinstance(x, LoopPath):
                p = len(x.labels.cycle)
                pairs.append((x, len(x.labels.head) + 2 * p, len(x.labels.head), x))
            for a, n, m, b in pairs:
                for j in range(4):
                    if a.length < n + j or b.length < m + j:
                        break
                    e = make_element(a, n + j, m + j, b)
                    assert (e.n, e.m) == reference_witness(a, n + j, m + j, b)
                    assert (e.x, e.y, e.k) == (a, b, n - m)
                    checked += 1
    assert checked > 600


def test_compose_formula(odo_point):
    x = param_f(odo_point, ZERO_2ADIC, EvPeriodic((4, 2), (1,)))
    y = shift(x)
    z = shift(y)
    g = make_element(x, 1, 0, y)
    h = make_element(y, 1, 0, z)
    gh = compose(g, h)
    assert gh.k == 2 and (gh.n, gh.m) == (2, 0)
    assert gh.x == x and gh.y == z


def test_compose_mismatch(odo_point):
    x = param_f(odo_point, ZERO_2ADIC, EvPeriodic((), (1,)))
    g = make_element(x, 1, 0, shift(x))
    with pytest.raises(GroupoidError):
        compose(g, g)  # source(g) = shift(x) != x = range(g)


def test_inverse_formula(odo_point):
    x = param_f(odo_point, ZERO_2ADIC, EvPeriodic((3,), (1,)))
    g = make_element(x, 2, 0, shift_power(x, 2))
    gi = inverse(g)
    assert gi.k == -2 and (gi.n, gi.m) == (0, 2)
    assert inverse(gi) == g
    assert inverse(unit(x)) == unit(x)


def test_inverse_laws_random(odo_point):
    rng = random.Random(17)
    G = DRGroupoid(odo_point)
    for _ in range(1000):
        g = G.sample_element(rng)
        assert compose(g, inverse(g)) == unit(g.x)
        assert compose(inverse(g), g) == unit(g.y)


# ---------------------------------------------------------------------------
# axiom sampling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make_system", [golden_rotation, odometer])
def test_axiom_sample_clean(make_system):
    graph = build_model_graph(make_system(), point_backend())
    rep = axiom_sample(DRGroupoid(graph), 1000, seed=7)
    assert rep.ok, rep.failures[:4]


def test_axiom_sample_detects_corruption(odo_point):
    class Corrupted(DRGroupoid):
        def compose(self, a, b):
            good = compose(a, b)
            return GroupoidElement(good.x, good.k + 1, good.y, good.n + 1, good.m)

    rep = axiom_sample(Corrupted(odo_point), 50, seed=3)
    assert not rep.ok and rep.failures


class LiftsOneSide(DRGroupoid):
    """A mutation-control double: compose lifts the witness on the range
    side only, so the tail check of make_element rejects the result."""

    def compose(self, a, b):
        good = compose(a, b)
        return make_element(good.x, good.n + 1, good.m, good.y)


class ComposesToUnit(DRGroupoid):
    """A mutation-control double: every product is the unit at its range."""

    def compose(self, a, b):
        return unit(a.x)


SMALL_GRAPHS = [
    pytest.param(lambda: build_model_graph(odometer(), point_backend()), id="odometer-point"),
    pytest.param(lambda: build_model_graph(golden_rotation(), CircleBackend()), id="golden-circle"),
    pytest.param(lambda: build_model_graph(finite_cyclic(3), point_backend()), id="finite-cyclic"),
    pytest.param(OneVertexLoopGraph, id="loop"),
]


@pytest.mark.parametrize("double", [LiftsOneSide, ComposesToUnit])
@pytest.mark.parametrize("make_graph", SMALL_GRAPHS)
def test_axiom_sample_reports_a_wrong_compose(double, make_graph):
    """A descriptor with a wrong compose gives failing trials, not an
    exception; a one-sided lift fails in make_element's tail check."""
    rep = axiom_sample(double(make_graph()), 50, seed=11)
    assert not rep.ok and rep.failures
    assert all(f.startswith("trial ") for f in rep.failures)
    if double is LiftsOneSide:
        assert any("shifted paths differ" in f for f in rep.failures)


def test_axiom_sample_deterministic(odo_point):
    a = axiom_sample(DRGroupoid(odo_point), 100, seed=5)
    b = axiom_sample(DRGroupoid(odo_point), 100, seed=5)
    assert a == b


# ---------------------------------------------------------------------------
# isotropy and principality
# ---------------------------------------------------------------------------


def test_isotropy_golden_constant_tail(golden_point):
    mu = param_f(golden_point, ZERO_CIRCLE, EvPeriodic((), (1,)))
    assert isotropy_search(mu, 20) == []
    assert isotropy_reduction(mu)


def test_isotropy_periodic_word(loop_graph):
    mu = LoopPath(loop_graph, EvPeriodic((), (1,)))
    pairs = isotropy_search(mu, 5)
    assert (1, 0) in pairs
    assert not isotropy_reduction(mu)


def test_isotropy_finite_paths_trivial(odo_point):
    rng = random.Random(2)
    for _ in range(50):
        mu = random_boundary_path(odo_point, rng, force="finite")
        assert isotropy_search(mu, 30) == []
        assert isotropy_reduction(mu)


def test_isotropy_monotone_in_bound(loop_graph):
    mu = LoopPath(loop_graph, EvPeriodic((2,), (1, 1, 3)))
    small = set(isotropy_search(mu, 6))
    large = set(isotropy_search(mu, 12))
    assert small <= large


def test_isotropy_nonfree_base():
    graph = build_model_graph(finite_cyclic(3), point_backend())
    mu = param_f(graph, FinitePoint(0, 3), EvPeriodic((), (1,)))
    pairs = isotropy_search(mu, 10)
    assert (3, 0) in pairs
    # the period is exact: a search to bound 2 finds no pair, and the
    # reduction still fails
    assert isotropy_search(mu, 2) == []
    assert not isotropy_reduction(mu)


def _hashed_isotropy(mu, bound):
    """The oracle for the closed form: hash shift^n(mu) for n = 0..top
    and pair each n with the earlier equal shifts, in the order found."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    top = min(bound, mu.length)
    groups = {}
    found = []
    for n in range(top + 1):
        bucket = groups.setdefault(shift_power(mu, n), [])
        found.extend((n, m) for m in bucket)
        bucket.append(n)
    return found


def _oracle_bounds(mu):
    """Bounds 1, 7, 40 and 320, and just below and at the first pair."""
    bounds = {1, 7, 40, 320}
    period = mu.shift_period()
    if period is not None:
        first = sum(period)
        bounds |= {b for b in (first - 1, first) if b >= 1}
    return sorted(bounds)


# (graph, whether its infinite paths have isotropy)
ISOTROPY_GRAPHS = [
    pytest.param(lambda: build_model_graph(golden_rotation(), point_backend()), False, id="golden"),
    pytest.param(lambda: build_model_graph(odometer(), point_backend()), False, id="odometer"),
    pytest.param(lambda: build_model_graph(finite_cyclic(3), point_backend()), True, id="cyclic3"),
    pytest.param(OneVertexLoopGraph, True, id="loop"),
]


@pytest.mark.parametrize("make_graph, periodic", ISOTROPY_GRAPHS)
def test_isotropy_search_matches_the_hash_search(make_graph, periodic):
    """The closed form lists the pairs of the hash search, in its order,
    on sampled paths and on shifts and extensions of them (which move an
    infinite model path's exponent off its anchor)."""
    graph = make_graph()
    rng = random.Random(f"isotropy-oracle-{graph!r}")
    hits = 0
    for _ in range(24):
        mu = random_boundary_path(graph, rng)
        if rng.randrange(2):
            mu = shift_power(mu, rng.randrange(0, min(3, mu.length) + 1)).cons(rng.randrange(1, 6))
        for bound in _oracle_bounds(mu):
            pairs = isotropy_search(mu, bound)
            assert pairs == _hashed_isotropy(mu, bound), (path_to_line(mu), bound)
            hits += bool(pairs)
    assert bool(hits) == periodic


@pytest.mark.parametrize("make_graph, periodic", ISOTROPY_GRAPHS)
def test_principality_sample_keeps_the_first_eight_hits(make_graph, periodic):
    """The hits are the first 8 samples on which the hash search finds a
    pair, with its pairs; small bounds put a first pair at the bound."""
    graph = make_graph()
    hits = 0
    for bound in (1, 2, 3, 4, 7):
        rep = principality_sample(graph, 40, bound, bound)
        rng = random.Random(bound)
        want = []
        for i in range(40):
            mu = random_boundary_path(graph, rng, force="finite" if i % 2 else "infinite")
            pairs = _hashed_isotropy(mu, bound)
            if pairs and len(want) < 8:
                want.append((mu, tuple(pairs)))
        assert rep.isotropy == tuple(want)
        hits += len(want)
    assert bool(hits) == periodic
    with pytest.raises(ValueError):
        principality_sample(graph, 1, 0, 1)
    # refused before the loop, so also with no samples to draw
    with pytest.raises(ValueError, match="^bound must be >= 1$"):
        principality_sample(graph, 0, 0, 1)


@pytest.mark.parametrize("make_graph, periodic", ISOTROPY_GRAPHS)
def test_principality_sample_asks_each_period_once(monkeypatch, make_graph, periodic):
    """One ``shift_period()`` per sample answers both the hit list and the
    reduction, and the report is the one the public deciders
    ``isotropy_search`` and ``isotropy_reduction`` give on the same
    samples (the reduction is run on the model graph only)."""
    graph = make_graph()
    asked = []
    for cls in (ModelPath, LoopPath):

        def counted(self, _original=cls.shift_period):
            asked.append(self)
            return _original(self)

        monkeypatch.setattr(cls, "shift_period", counted)
    rep = principality_sample(graph, 60, 12, 5)
    assert len(asked) == 60
    monkeypatch.undo()
    rng = random.Random(5)
    samples = [random_boundary_path(graph, rng, force="finite" if i % 2 else "infinite") for i in range(60)]
    hits = [(mu, pairs) for mu in samples if (pairs := isotropy_search(mu, 12))][:8]
    model = not isinstance(graph, OneVertexLoopGraph)
    assert rep.isotropy == tuple(hits) and bool(hits) == periodic
    assert rep.reductions_ok == (not model or all(map(isotropy_reduction, samples)))
    assert rep.reductions_ok == (not (model and periodic))


@pytest.mark.parametrize(
    "head, cycle, step",
    [((4, 5), (1, 2, 3), 3), ((4,), (1, 2, 3, 1, 2, 4), 6), ((2, 2), (1, 1, 2), 3)],
)
def test_isotropy_step_is_the_lcm_of_cycle_and_period(head, cycle, step):
    """On the order-3 control the step is lcm(len(cycle), 3), which for
    cycles of length 3 and 6 is not 3 * len(cycle)."""
    graph = build_model_graph(finite_cyclic(3), point_backend())
    mu = param_f(graph, FinitePoint(1, 3), EvPeriodic(head, cycle))
    for path in (mu, mu.cons(5), shift_power(mu, 1)):
        start, got = path.shift_period()
        assert got == step
        want = [
            (n, m) for n in range(41) for m in range(n) if path.drop(n) == path.drop(m)
        ]
        assert want == [(n, m) for n in range(41) for m in range(start, n) if (n - m) % step == 0]
        for bound in (1, 7, 40, start + step - 1, start + step):
            assert isotropy_search(path, bound) == _hashed_isotropy(path, bound)
        assert isotropy_search(path, 40) == want


@pytest.mark.parametrize("make_graph, periodic", ISOTROPY_GRAPHS[:3])
def test_isotropy_search_takes_no_dynamics_step(make_graph, periodic, monkeypatch):
    graph = make_graph()
    rng = random.Random(11)
    paths = [random_boundary_path(graph, rng, force="infinite") for _ in range(6)]
    paths += [shift_power(mu, 2).cons(3) for mu in paths]
    calls = []
    for name in ("power", "forward", "backward"):

        def counted(self, *args, _name=name, _original=getattr(MinimalSystem, name)):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(MinimalSystem, name, counted)
    pairs = [isotropy_search(mu, 320) for mu in paths]
    assert calls == []
    monkeypatch.undo()
    assert pairs == [_hashed_isotropy(mu, 320) for mu in paths]
    assert any(pairs) == periodic


def _contract_paths():
    """Every canonical word over {1, 2} with a head of length <= 3 and a
    cycle of length <= 4, on the loop graph and as an infinite path of the
    finite-cyclic control."""
    words = [w for k in range(5) for w in itertools.product((1, 2), repeat=k)]
    seqs = sorted({EvPeriodic(h, c) for h in words if len(h) <= 3 for c in words if c}, key=repr)
    cyclic = build_model_graph(finite_cyclic(3), point_backend())
    loop = OneVertexLoopGraph()
    return [LoopPath(loop, w) for w in seqs] + [
        param_f(cyclic, FinitePoint(1, 3), w) for w in seqs
    ]


def _assert_behaves_as_the_tuple(pairs, want, start, step, bound):
    listed, wanted = tuple(want), set(want)
    assert bool(pairs) is bool(want)
    assert pairs == want and want == pairs and pairs == listed and listed == pairs
    assert pairs != want + [(bound + 1, start)] and (not want or pairs != listed[1:])
    assert hash(pairs) == hash(listed) and repr(pairs) == repr(listed)
    assert all(map(pairs.__contains__, want))
    # just below start, past the bound and off the step; up to bound 40,
    # every pair with n <= bound + 1
    near = {(start + step, start - 1), (bound + 1, bound + 1 - step), (start + step + 1, start)}
    if bound <= 40:
        near |= {(n, m) for n in range(bound + 2) for m in range(n)}
    assert all((p in pairs) == (p in wanted) for p in near)
    assert [start + step, start] not in pairs and "pair" not in pairs


def test_isotropy_pairs_behave_as_the_tuple_of_the_hash_search():
    """Iteration, len, in, bool, ==, hash and repr of the closed form
    agree with the tuple the hash search lists, at bounds 1-40 and 320."""
    paths = _contract_paths()
    assert len(paths) == 2 * 176
    checked = set()
    for mu in paths:
        # the hash search goes up n by n, so at a smaller bound it lists
        # the pairs of its search at 320 that have n <= bound
        full = _hashed_isotropy(mu, 320)
        for bound in (*range(1, 41), 320):
            pairs = isotropy_search(mu, bound)
            want = full[: bisect.bisect(full, (bound, bound))]
            assert list(pairs) == want and len(pairs) == len(want), (path_to_line(mu), bound)
            # the rest depends on (start, step, bound) alone: check it once
            key = (*mu.shift_period(), bound)
            if key not in checked:
                checked.add(key)
                _assert_behaves_as_the_tuple(pairs, want, *key)
        with pytest.raises(ValueError):
            isotropy_search(mu, 0)
    assert len(checked) == 24 * 41


def test_isotropy_pairs_of_a_path_without_a_period_are_empty(golden_point):
    finite = random_boundary_path(golden_point, random.Random(4), force="finite")
    infinite = param_f(golden_point, ZERO_CIRCLE, EvPeriodic((2,), (1,)))
    for mu in (finite, infinite):
        pairs = isotropy_search(mu, 320)
        assert not pairs and len(pairs) == 0 and list(pairs) == []
        assert pairs == [] and () == pairs and hash(pairs) == hash(()) and repr(pairs) == "()"
        assert (1, 0) not in pairs
        with pytest.raises(ValueError):
            isotropy_search(mu, 0)


def test_principality_sample_holds_the_loop_pairs_in_closed_form():
    """The loop control at bound 320 keeps 8 hits of tens of thousands of
    pairs each; the report must not list them."""
    graph = OneVertexLoopGraph()
    tracemalloc.start()
    try:
        rep = principality_sample(graph, 50, 320, 7)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert len(rep.isotropy) == 8
    assert sum(len(pairs) for _mu, pairs in rep.isotropy) > 200_000
    for mu, pairs in rep.isotropy:
        assert pairs == _hashed_isotropy(mu, 320)


@pytest.mark.parametrize("make_system", [golden_rotation, odometer])
def test_principality_ten_seed_battery(make_system):
    graph = build_model_graph(make_system(), point_backend())
    for seed in range(10):
        rep = principality_sample(graph, 100, 20, seed)
        assert rep.ok, rep.isotropy[:2]


def test_principality_loop_graph_control(loop_graph):
    for seed in range(10):
        rep = principality_sample(loop_graph, 100, 20, seed)
        assert not rep.ok


def test_principality_sample_pinned():
    """Verdicts, hit path lines and isotropy pairs at bound 320, pinned by
    a sha256 recorded while shifts still re-canonicalised every result."""
    lines = []
    for system, samples, seed in (
        (golden_rotation(), 60, 1), (golden_rotation(), 60, 2),
        (odometer(), 60, 1), (odometer(), 60, 2),
        (finite_cyclic(3), 40, 5), (None, 20, 7),
    ):
        graph = OneVertexLoopGraph() if system is None else build_model_graph(system, point_backend())
        rep = principality_sample(graph, samples, 320, seed)
        lines.append(f"{rep.ok} {rep.reductions_ok}")
        lines.extend(f"{path_to_line(mu)} {pairs}" for mu, pairs in rep.isotropy)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "1decc014e6a95e726c5361b59aae9fcd8813734de1232c74245ad5bc7b0dd9e6"


def test_principality_deep_samples_pinned(monkeypatch):
    """The paths that the seed-3 ``principality-deep`` benchmark calls
    sample, and the generator state each call ends in, pinned by a sha256
    taken before the samplers built words without re-validating them.
    Reports hold verdicts only, so they would not show a changed stream;
    the path lines and states do."""
    lines, rngs = [], []
    sample = groupoid.random_boundary_path

    def recorded(graph, rng, force=None):
        mu = sample(graph, rng, force)
        lines.append(path_to_line(mu))
        rngs.append(rng)
        return mu

    monkeypatch.setattr(groupoid, "random_boundary_path", recorded)
    seeds = random.Random("principality-3")
    seeds = [seeds.randrange(1, 2**31) for _ in range(4)]
    golden = build_model_graph(golden_rotation(), point_backend())
    odo = build_model_graph(odometer(), point_backend())
    calls = [(golden, 500, seeds[0]), (odo, 500, seeds[1]), (golden, 500, seeds[2])]
    calls += [(odo, 500, seeds[3]), (OneVertexLoopGraph(), 50, 7)]
    for graph, samples, seed in calls:
        principality_sample(graph, samples, 320, seed)
        lines.append(repr(rngs[-1].getstate()))
    assert len(lines) == 2055
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0062e213fc48bac8d0ec03a1b28e3eb1940ef1d85ffd95e5a76560c19387b124"


def test_random_ev_periodic_is_the_constructor_of_its_draws():
    """``random_ev_periodic`` is ``EvPeriodic(head, cycle)`` of the pair it
    draws, rebuilt here from the same draws of a twin generator."""
    for seed in range(300):
        rng, twin = random.Random(seed), random.Random(seed)
        seq = random_ev_periodic(rng)
        head = draws(twin, 1, 6, draw(twin, 0, 3))
        want = EvPeriodic(head, draws(twin, 1, 6, draw(twin, 1, 4)))
        assert type(seq) is EvPeriodic and (seq.head, seq.cycle) == (want.head, want.cycle)
        assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("make_graph, periodic", ISOTROPY_GRAPHS)
def test_principality_sample_lists_pairs_for_hits_only(monkeypatch, make_graph, periodic):
    """A sample without a period is neither a hit nor a failed reduction,
    so no ``IsotropyPairs`` is built for it: the free model graphs build
    none, and a periodic graph one per hit."""
    built = []
    init = groupoid.IsotropyPairs.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(groupoid.IsotropyPairs, "__init__", counted)
    rep = principality_sample(make_graph(), 60, 320, 1)
    assert len(built) == len(rep.isotropy) and bool(built) == periodic


def test_loop_graph_elements_pinned():
    """The loop-graph sampler's draws, which the model-graph pins above do
    not reach: both paths and the witness of ``random_element`` at fixed
    seeds, pinned by a sha256."""
    lines = []
    for seed in range(8):
        el = random_element(OneVertexLoopGraph(), random.Random(seed))
        lines.append(f"{path_to_line(el.x)} {path_to_line(el.y)} {el.n} {el.m}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0a20d510c9bed99a0ac1068789fe79ca74a695707a084b09b4412dd91d2c3371"


def test_random_path_from_pinned():
    """random_path_from's paths and rng use over every free config,
    three range vertices and all three kinds, pinned by a sha256 recorded
    while it still built its finite paths edge by edge."""
    lines = []
    for system in (odometer, golden_rotation):
        for x_backend in (point_backend(), CantorBackend(), CircleBackend(), FiniteBackend(3)):
            graph = build_model_graph(system(), x_backend)
            z_rng = random.Random(11)
            for m in (1, 2, 5):
                v = PairPoint(graph.z_system.backend.random_point(z_rng), graph.x_point(m))
                for seed in range(8):
                    for force in (None, "finite", "infinite"):
                        rng = random.Random(seed)
                        mu = random_path_from(graph, v, rng, force)
                        lines.append(f"{path_to_line(mu)} {rng.random()!r}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f86b2c99399ae935634606ebd99085b5b4fec7cdb82252f01ecccdf5c2dcae77"


def test_groupoid_layer_reuses_boxes_and_paths():
    """groupoid.py builds model paths through param_f and param_f_k: it
    calls no ModelEdge(...)."""
    tree = ast.parse(Path(groupoid.__file__).read_text())
    edges = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ModelEdge"
    ]
    assert not edges, f"groupoid.py builds ModelEdge at lines {edges}"


# ---------------------------------------------------------------------------
# bisections
# ---------------------------------------------------------------------------


def test_bisection_unit_box(odo_point):
    mu = param_f(odo_point, ZERO_2ADIC, EvPeriodic((), (1,)))
    cyl = PathCylinder(mu.prefix(1))
    # membership and prefix equality are bools, not the shared edge tuple
    assert cyl.contains(mu) is True and (mu.prefix(2) == mu.prefix(2)) is True
    assert PathCylinder(mu.prefix(2)).contains(mu) is True and cyl.contains(shift(mu)) is False
    assert BasicOpenBisection(cyl, 0, 0, cyl).certificate_valid()


def test_bisection_certificate(odo_point):
    mu = param_f(odo_point, ZERO_2ADIC, EvPeriodic((), (2,)))
    one_edge = PathCylinder(mu.prefix(1))
    nothing = PathCylinder(vertex_path(odo_point, mu.range()))
    assert one_edge.contains(mu) is True and nothing.contains(mu) is True
    assert one_edge.contains(FiniteBoundaryPath(nothing.prefix)) is False
    assert BasicOpenBisection(one_edge, 1, 0, nothing).certificate_valid()
    assert PathCylinder(mu.prefix(2)).contains(mu) is True
    assert BasicOpenBisection(PathCylinder(mu.prefix(2)), 2, 1, one_edge).certificate_valid()
    assert not BasicOpenBisection(nothing, 1, 0, one_edge).certificate_valid()
    assert not BasicOpenBisection(one_edge, 1, 2, one_edge).certificate_valid()


def test_random_path_from_on_the_loop_graph(loop_graph):
    """Every loop label is an edge into the one vertex, so a path from it
    is any boundary path of the loop graph, in every kind."""
    rng = random.Random(4)
    for force in (None, "finite", "infinite"):
        for _ in range(8):
            mu = random_path_from(loop_graph, loop_graph.vertex, rng, force)
            assert isinstance(mu, LoopPath)
            assert force is None or (mu.length == INFINITE) == (force == "infinite")


# ---------------------------------------------------------------------------
# orbit coordinates: elements on paths that share an anchor
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


def _rebuilt(mu):
    """An infinite model path rebuilt through the public constructor from
    its materialised base point, so that it shares no anchor."""
    return param_f(mu.graph, mu.z, mu.idx)


def _rebuilt_element(g):
    return GroupoidElement(_rebuilt(g.x), g.k, _rebuilt(g.y), g.n, g.m)


def _element_line(g):
    return (path_to_line(g.x), g.k, path_to_line(g.y), g.n, g.m)


@pytest.mark.parametrize("make_z, make_x", FREE_CONFIGS)
def test_element_chains_match_rebuilt_paths(make_z, make_x):
    """Random chains of make_element, compose and inverse on infinite
    paths that share one anchor give the elements, lines and equality
    verdicts of the same chains on rebuilt paths, where every comparison
    goes through materialised points."""
    graph = build_model_graph(make_z(), make_x())
    rng = random.Random(f"chains-{make_z.__name__}-{graph.x_backend!r}")
    for _ in range(8):
        g = random_element_at(graph, random_boundary_path(graph, rng, force="infinite"), rng)
        ref = _rebuilt_element(g)
        assert make_element(ref.x, g.n, g.m, ref.y) == ref
        seen = [(g, ref)]
        for _ in range(6):
            op = rng.choice(("compose", "inverse", "lift"))
            if op == "compose":
                h = random_element_at(graph, g.y, rng)
                g, ref = compose(g, h), compose(ref, _rebuilt_element(h))
            elif op == "inverse":
                g, ref = inverse(g), inverse(ref)
            else:
                j = rng.randrange(1, 4)
                g = make_element(g.x, g.n + j, g.m + j, g.y)
                ref = make_element(ref.x, ref.n + j, ref.m + j, ref.y)
            assert _element_line(g) == _element_line(ref)
            assert (g.n, g.m) == reference_witness(g.x, g.n, g.m, g.y)
            seen.append((g, ref))
        for a, ref_a in seen:
            for b, ref_b in seen:
                assert (a == b) == (ref_a == ref_b)
                assert (a.y == b.x) == (ref_a.y == ref_b.x)


def _count_steps_and_edges(monkeypatch, calls):
    """Append to ``calls`` each dynamics step and each ModelEdge built."""
    for cls, name in (
        (MinimalSystem, "power"), (MinimalSystem, "forward"), (MinimalSystem, "backward"),
        (ModelEdge, "__init__"),
    ):

        def counted(self, *args, _where=f"{cls.__name__}.{name}", _original=getattr(cls, name)):
            calls.append(_where)
            return _original(self, *args)

        monkeypatch.setattr(cls, name, counted)


def test_make_element_takes_no_dynamics_step_on_a_shared_anchor(monkeypatch):
    """On infinite and finite model paths that share an anchor, drop,
    cons, make_element and compose take no dynamics step and build no
    edge; a finite path's edges are built when its ``path`` is read."""
    graph = build_model_graph(golden_rotation(), CircleBackend())
    z = CirclePoint(QPhi(Fraction(1, 3)))
    calls = []
    _count_steps_and_edges(monkeypatch, calls)
    x = param_f(graph, z, EvPeriodic((2, 3), (1, 4)))
    y = shift_power(x, 2).cons(x.idx.item(1)).cons(6)
    e = make_element(x, 2, 2, y)
    u = param_f(graph, z, (2, 3, 1, 4), ZERO_CIRCLE)
    v = shift_power(u, 2).cons(3).cons(6)
    f = make_element(u, 2, 2, v)
    units = compose(f, inverse(f)), compose(inverse(f), f)
    assert calls == []
    assert (e.n, e.m, e.k) == (f.n, f.m, f.k) == (1, 1, 0)
    assert units == (unit(u), unit(v))
    edges = v.path.edges
    assert calls.count("MinimalSystem.power") == 4 and calls.count("ModelEdge.__init__") == 4
    monkeypatch.undo()
    assert (e.n, e.m) == reference_witness(x, 2, 2, y)
    assert edges[1:] == u.path.edges[1:] and edges[0] != u.path.edges[0]


@pytest.mark.parametrize("make_z, make_x", FREE_CONFIGS)
def test_full_shift_make_element_builds_no_vertex(monkeypatch, make_z, make_x):
    """At full shift a finite model path's tail is its domain vertex, and
    same_tail reads it off the last edge: make_element(x, len(x), m, y)
    builds no PairPoint, whether it accepts or rejects."""
    graph = build_model_graph(make_z(), make_x())
    rng = random.Random(f"full-shift-{graph!r}")
    cases = []
    for _ in range(20):
        x = random_boundary_path(graph, rng, force="finite")
        if x.length == 0:
            continue
        y = shift_power(x, x.length)
        for _ in range(rng.randrange(1, 4)):
            y = y.cons(rng.randrange(1, 6))
        other = random_boundary_path(graph, rng, force="finite")
        for a, b in ((x, y), (y, x), (x, other)):
            if b.length:
                cases.append((a, b, shift_power(a, a.length) == shift_power(b, b.length)))
    assert {same for _x, _y, same in cases} == {True, False}
    built = []
    original = PairPoint.__init__

    def counted(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(PairPoint, "__init__", counted)
    for x, y, same in cases:
        try:
            g = make_element(x, x.length, y.length, y)
            assert same and g.k == x.length - y.length
        except GroupoidError:
            assert not same
    assert built == []


@pytest.mark.parametrize("make_z, make_x", FREE_CONFIGS)
def test_sampled_paths_build_no_validated_point_or_path(monkeypatch, make_z, make_x):
    """The sampler builds each random point and finite path in canonical
    form: over 1,000 sampled boundary paths no QPhi, PadicPoint or
    FinitePath goes through its validating constructor, and no dynamics
    step is taken and no edge built, nor by a drop, cons, make_element or
    compose on them, until a finite path's ``path`` is read.  The dense
    sequence's first terms, which every graph builds once and keeps, are
    built before counting."""
    graph = build_model_graph(make_z(), make_x())
    for m in range(1, 8):
        graph.x_point(m)
    calls = []
    for cls, name in ((QPhi, "__init__"), (PadicPoint, "__init__"), (FinitePath, "__post_init__")):

        def counted(self, *args, _where=f"{cls.__name__}.{name}", _original=getattr(cls, name)):
            calls.append(_where)
            _original(self, *args)

        monkeypatch.setattr(cls, name, counted)
    _count_steps_and_edges(monkeypatch, calls)
    rng = random.Random(f"canonical-{graph!r}")
    paths = [random_boundary_path(graph, rng) for _ in range(1000)]
    assert calls == []
    assert {mu.length == INFINITE for mu in paths} == {True, False}
    for mu in paths[:100]:
        g = random_element_at(graph, mu, rng)
        assert compose(g, inverse(g)) == unit(mu)
    assert calls == []
    # the counters see the path built on first read, then a validated construction
    finite = next(mu for mu in paths if mu.length != INFINITE and mu.length > 0)
    edges = finite.path.edges
    assert calls.count("MinimalSystem.power") == len(edges) == calls.count("ModelEdge.__init__")
    calls.clear()
    FinitePath(graph, edges)  # its junction check steps the dynamics
    QPhi(Fraction(1, 2))
    PadicPoint((), (1,))
    built = [where for where in calls if not where.startswith("MinimalSystem")]
    assert built == ["FinitePath.__post_init__", "QPhi.__init__", "PadicPoint.__init__"]


def test_groupoid_element_record_contract():
    """Elements are immutable records: built by position or by name,
    shown as the former dataclass was, equal and hashed by their fields."""
    assert repr(GroupoidElement("u", -1, "v", 2, 3)) == "GroupoidElement(x='u', k=-1, y='v', n=2, m=3)"
    graph = build_model_graph(golden_rotation(), CircleBackend())
    rng = random.Random(9)
    for force in ("finite", "infinite"):
        g = random_element_at(graph, random_boundary_path(graph, rng, force=force), rng)
        assert repr(g) == f"GroupoidElement(x={g.x!r}, k={g.k!r}, y={g.y!r}, n={g.n!r}, m={g.m!r})"
        by_name = GroupoidElement(x=g.x, k=g.k, y=g.y, n=g.n, m=g.m)
        assert by_name == g and hash(by_name) == hash(g)
        # equal fields held by other objects
        x, y = (path_from_line(path_to_line(mu), graph) for mu in (g.x, g.y))
        copy = GroupoidElement(x, g.k, y, g.n, g.m)
        assert copy == g and hash(copy) == hash(g)
        assert GroupoidElement(g.x, g.k, g.y, g.n + 1, g.m + 1) != g
        assert GroupoidElement(g.x, g.k + 1, g.y, g.n + 1, g.m) != g
        for name in ("x", "k", "y", "n", "m"):
            with pytest.raises(AttributeError):
                setattr(g, name, 0)
        with pytest.raises(AttributeError):
            g.extra = 0


def test_make_element_and_compose_build_no_shifted_path(monkeypatch):
    """The tail check answers by same_tail: neither make_element nor
    compose calls drop on any path kind, whether it accepts or rejects."""
    cases = []
    for graph in (build_model_graph(golden_rotation(), CircleBackend()), OneVertexLoopGraph()):
        rng = random.Random(23)
        for _ in range(40):
            g = random_element(graph, rng)
            h = random_element_at(graph, g.y, rng)
            lifted = g.y.length > g.m and shift_power(g.x, g.n) == shift_power(g.y, g.m + 1)
            cases.append((g, h, lifted))
    kinds = {ModelPath, LoopPath}
    assert {type(g.x) for g, _h, _lifted in cases} == kinds
    assert not all(lifted for _g, _h, lifted in cases)
    calls = []
    for kind in kinds:

        def counted(self, n, _original=kind.drop):
            calls.append(type(self).__name__)
            return _original(self, n)

        monkeypatch.setattr(kind, "drop", counted)
    for g, h, lifted in cases:
        compose(g, h)
        assert make_element(g.x, g.n, g.m, g.y) == g
        try:
            make_element(g.x, g.n, g.m + 1, g.y)
            assert lifted
        except GroupoidError:
            assert not lifted
    assert calls == []


def _infinite_pair(graph, z, idx_x, idx_y):
    """Two infinite paths with the given index sequences, on one anchor."""
    if isinstance(graph, OneVertexLoopGraph):
        return LoopPath(graph, idx_x), LoopPath(graph, idx_y)
    return param_f(graph, z, idx_x), param_f(graph, z, idx_y)


def _finite_pair(graph, z, word_x, word_y):
    """Two finite paths with the given edge indices and one base point."""
    if isinstance(graph, OneVertexLoopGraph):
        return FiniteBoundaryPath(graph.path(word_x)), FiniteBoundaryPath(graph.path(word_y))
    x_last = graph.x_backend.random_point(random.Random(5))
    return tuple(FiniteBoundaryPath(param_f_k(graph, z, x_last, w)) for w in (word_x, word_y))


@pytest.mark.parametrize("make_graph", SMALL_GRAPHS)
def test_make_element_rejects_tails_that_differ_in_one_respect(make_graph):
    """Tails that differ only in a rotation of an equal cycle, one head
    entry, the exponent or the path kind give no element; on the cyclic
    control, exponents equal mod the period give the same tail."""
    graph = make_graph()
    loop = isinstance(graph, OneVertexLoopGraph)
    z = None if loop else graph.z_system.backend.random_point(random.Random(4))
    mu, _ = _infinite_pair(graph, z, EvPeriodic((2,), (1, 3)), EvPeriodic((2,), (1, 3)))
    rejected = [
        # the cycle (1, 2) rotated once against not at all, and two rotations
        (*_infinite_pair(graph, z, EvPeriodic((3,), (1, 2)), EvPeriodic((), (1, 2))), 2, 2),
        (*_infinite_pair(graph, z, EvPeriodic((3,), (1, 2)), EvPeriodic((4,), (2, 1))), 1, 1),
        # one head entry, of an infinite and of a finite path
        (*_infinite_pair(graph, z, EvPeriodic((3, 5), (1, 2)), EvPeriodic((3, 6), (1, 2))), 1, 1),
        (*_finite_pair(graph, z, (3, 5, 1), (3, 6, 1)), 1, 1),
        # the kind: a vertex path and the infinite path from that vertex
        (FiniteBoundaryPath(mu.prefix(2)), mu, 2, 2),
    ]
    for x, y, n, m in rejected:
        for a, b in ((x, y), (y, x)):
            with pytest.raises(GroupoidError, match="^shifted paths differ; not a groupoid element$"):
                make_element(a, n, m, b)
    if loop:
        return
    # the exponent: the same index sequence on the base point moved by rho^-d
    period = graph.z_system.period
    assert (period == 3) == ("cyclic" in graph.z_system.name)
    word = param_f(graph, z, EvPeriodic((), (1,)))
    for d in range(1, 7):
        for y in (word.drop(d), param_f(graph, word.drop(d).z, word.idx)):
            if period and d % period == 0:
                assert make_element(word, 0, 0, y) == unit(word)
            else:
                with pytest.raises(GroupoidError, match="^shifted paths differ"):
                    make_element(word, 0, 0, y)


# ---------------------------------------------------------------------------
# reflexive elements and composable pairs decided by identity
# ---------------------------------------------------------------------------

REFLEXIVE_GRAPHS = FREE_CONFIGS + [
    pytest.param(lambda: finite_cyclic(3), point_backend, id="finite-cyclic"),
    pytest.param(None, None, id="loop"),
]


def _reflexive_paths(make_z, make_x):
    """Sampled finite and infinite boundary paths of one graph."""
    graph = OneVertexLoopGraph() if make_z is None else build_model_graph(make_z(), make_x())
    rng = random.Random(f"reflexive-{graph!r}")
    return [random_boundary_path(graph, rng, force=kind) for kind in ("finite", "infinite") * 6]


def _count_path_calls(monkeypatch, names):
    """Record each call of the named methods on every boundary path class."""
    calls = []
    for cls in (ModelPath, LoopPath):
        for name in names:

            def counted(self, *args, _where=f"{cls.__name__}.{name}", _original=getattr(cls, name)):
                calls.append(_where)
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("make_z, make_x", REFLEXIVE_GRAPHS)
def test_reflexive_make_element_is_the_unit(monkeypatch, make_z, make_x):
    """make_element(x, n, n, x) is unit(x) for every n up to the length,
    and so is the full tail check and lowering against an equal but
    distinct copy of x; n past the length still raises.  A reflexive call
    makes no same_tail or same_edge call, and a compose whose middle
    paths are one object asks no path __eq__."""
    paths = _reflexive_paths(make_z, make_x)
    assert {mu.length == INFINITE for mu in paths} == {True, False}
    cases = []
    for x in paths:
        twin = copy.copy(x)
        assert twin is not x and twin == x
        for n in range(min(x.length, 6) + 1):
            assert make_element(x, n, n, x) == unit(x) == make_element(x, n, n, twin)
            cases.append((x, n))
        if x.length != INFINITE:
            with pytest.raises(GroupoidError, match="undefined on a path of length"):
                make_element(x, x.length + 1, x.length + 1, x)
    pairs = []
    rng = random.Random(1)
    for x in paths:
        g = random_element_at(x.graph, x, rng)
        pairs += [(g, random_element_at(x.graph, g.y, rng)), (g, inverse(g)), (inverse(g), g)]
    calls = _count_path_calls(monkeypatch, ("same_tail", "same_edge", "__eq__"))
    for x, n in cases:
        g = make_element(x, n, n, x)
        assert g.x is x and g.y is x and (g.k, g.n, g.m) == (0, 0, 0)
    assert calls == []
    for g, h in pairs:
        assert h.x is g.y
        compose(g, h)
    assert [where for where in calls if where.endswith("__eq__")] == []


@pytest.mark.parametrize("kind", ["finite-model", "infinite-model", "finite-loop", "infinite-loop"])
def test_make_element_rejects_exponents_that_are_not_ints(kind):
    """A witness exponent that is not an int is a GroupoidError on every
    path kind, whether or not the paths are one object; a bool is an int."""
    graph = build_model_graph(golden_rotation(), CircleBackend())
    loop = OneVertexLoopGraph()
    z = CirclePoint(QPhi(Fraction(1, 3)))
    mu = {
        "finite-model": FiniteBoundaryPath(param_f_k(graph, z, ZERO_CIRCLE, (2, 1, 3))),
        "infinite-model": param_f(graph, z, EvPeriodic((2,), (1, 3))),
        "finite-loop": FiniteBoundaryPath(loop.path((2, 1, 3))),
        "infinite-loop": LoopPath(loop, EvPeriodic((2,), (1, 3))),
    }[kind]
    for bad in (1.0, 1.5, "1", None, Fraction(1)):
        for n, m in ((bad, bad), (bad, 1), (1, bad)):
            for y in (mu, copy.copy(mu)):
                with pytest.raises(GroupoidError, match="^witness exponents must be integers$"):
                    make_element(mu, n, m, y)
    assert make_element(mu, True, True, mu) == make_element(mu, False, False, mu) == unit(mu)
    assert make_element(mu, True, True, copy.copy(mu)) == unit(mu)


def test_deep_copied_element_equals_the_original():
    """A deep copy of a sampled element keeps its graph, so it equals the
    element and hashes alike."""
    for graph in (build_model_graph(golden_rotation(), CircleBackend()), OneVertexLoopGraph()):
        rng = random.Random(31)
        for _ in range(20):
            g = random_element(graph, rng)
            deep = copy.deepcopy(g)
            assert deep.x is not g.x and deep.x.graph is graph
            assert deep == g and hash(deep) == hash(g)


# ---------------------------------------------------------------------------
# the exact isotropy reduction against the per-kind rule it replaced
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make_z, make_x",
    FREE_CONFIGS
    + [
        pytest.param(lambda: finite_cyclic(3), point_backend, id="finite-cyclic"),
        pytest.param(None, None, id="loop"),
    ],
)
def test_isotropy_reduction_matches_the_per_kind_rule(make_z, make_x):
    """``isotropy_reduction`` reads ``shift_period()`` alone, and gives the
    old rule on 200 sampled paths: no isotropy on a finite path, on a
    model path exactly when its base point has no period, and always
    isotropy on a loop word."""
    graph = OneVertexLoopGraph() if make_z is None else build_model_graph(make_z(), make_x())
    rng = random.Random(f"reduction-{graph!r}")
    verdicts = set()
    for i in range(200):
        mu = random_boundary_path(graph, rng, force="finite" if i % 2 else "infinite")
        if mu.length != INFINITE:
            old = True
        elif isinstance(mu, ModelPath):
            old = mu.graph.z_system.period is None
        else:
            old = False
        assert isotropy_reduction(mu) == old, path_to_line(mu)
        verdicts.add(old)
    # finite paths always pass; only the cyclic control and the loop fail
    control = make_z is None or "cyclic" in graph.z_system.name
    assert verdicts == ({True, False} if control else {True})


@pytest.mark.parametrize("seed", [3, 101])
@pytest.mark.parametrize(
    "make_z, make_x",
    FREE_CONFIGS + [pytest.param(lambda: finite_cyclic(3), point_backend, id="finite-cyclic")],
)
def test_exact_certificates_match_the_sampled_oracle(make_z, make_x, seed):
    """The battery's exact freeness and principality verdicts equal the
    sampled oracle's on 200 paths at isotropy bound 20.  The principality
    witness replays: its line parses back to a path with the recorded
    shift period, and on the control that period is the witness of a
    nontrivial isotropy element."""
    graph = build_model_graph(make_z(), make_x())
    cfg = parse_config({"seeds": [seed]})
    freeness, principality = check_freeness(cfg, graph), check_principality(cfg, graph)
    sampled = principality_sample(graph, 200, 20, seed).ok
    assert freeness.verdict == principality.verdict == sampled
    assert sampled is ("cyclic" not in graph.z_system.name)
    assert freeness.evidence == {"period": graph.z_system.period}
    mu = path_from_line(principality.evidence["path"], graph)
    assert mu.shift_period() == principality.evidence["shift_period"]
    if not sampled:
        _start, p = principality.evidence["shift_period"]
        g = make_element(mu, p, 0, mu)
        assert g.k == p != 0
