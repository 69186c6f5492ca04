import hashlib
import random

import pytest

from groupoidlab.qphi import QPhi
from groupoidlab.boundary import (
    EvPeriodic,
    FiniteBoundaryPath,
    InfiniteDiscretePath,
    param_f,
    path_to_line,
    shift,
    shift_power,
)
from groupoidlab.graphs import (
    OneVertexLoopGraph,
    build_model_graph,
    vertex_path,
)
from groupoidlab.groupoid import (
    BasicOpenBisection,
    CompleteRelation,
    DRGroupoid,
    GroupoidElement,
    GroupoidError,
    PathCylinder,
    ProductUnitBox,
    RelationUnitBox,
    VertexUnitBox,
    axiom_sample,
    basic_bisection,
    complete_relation,
    compose,
    inverse,
    isotropy_reduction,
    isotropy_search,
    make_element,
    principality_sample,
    product,
    random_boundary_path,
    random_element,
    random_element_at,
    reduce_clopen,
    unit,
)
from groupoidlab.spaces import (
    CANTOR_FULL,
    CirclePoint,
    FiniteBackend,
    FiniteBox,
    FinitePoint,
    PadicPoint,
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
            if isinstance(x, InfiniteDiscretePath):
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


def test_axiom_sample_product():
    graph = build_model_graph(odometer(), point_backend())
    rep = axiom_sample(product(DRGroupoid(graph), complete_relation()), 300, seed=9)
    assert rep.ok, rep.failures[:4]


def test_axiom_sample_detects_corruption(odo_point):
    class Corrupted(DRGroupoid):
        def compose(self, a, b):
            good = compose(a, b)
            return GroupoidElement(good.x, good.k + 1, good.y, good.n + 1, good.m)

    rep = axiom_sample(Corrupted(odo_point), 50, seed=3)
    assert not rep.ok and rep.failures


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
    red = isotropy_reduction(mu, 20)
    assert red.ok and red.case == "infinite"


def test_isotropy_periodic_word(loop_graph):
    mu = InfiniteDiscretePath(loop_graph, EvPeriodic((), (1,)))
    pairs = isotropy_search(mu, 5)
    assert (1, 0) in pairs
    assert not isotropy_reduction(mu, 5).ok


def test_isotropy_finite_paths_trivial(odo_point):
    rng = random.Random(2)
    for _ in range(50):
        mu = random_boundary_path(odo_point, rng, force="finite")
        assert isotropy_search(mu, 30) == []
        assert isotropy_reduction(mu, 30).case == "finite"


def test_isotropy_monotone_in_bound(loop_graph):
    mu = InfiniteDiscretePath(loop_graph, EvPeriodic((2,), (1, 1, 3)))
    small = set(isotropy_search(mu, 6))
    large = set(isotropy_search(mu, 12))
    assert small <= large


def test_isotropy_nonfree_base():
    graph = build_model_graph(finite_cyclic(3), point_backend())
    mu = param_f(graph, FinitePoint(0, 3), EvPeriodic((), (1,)))
    pairs = isotropy_search(mu, 10)
    assert (3, 0) in pairs
    assert isotropy_reduction(mu, 10).periods == (3, 6, 9)
    # the period is exact: below the bound the reduction still fails
    short = isotropy_reduction(mu, 2)
    assert short.periods == () and not short.ok


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


# ---------------------------------------------------------------------------
# products, the complete relation, reductions
# ---------------------------------------------------------------------------


def test_complete_relation_laws():
    R = CompleteRelation()
    assert R.compose((1, 2), (2, 3)) == (1, 3)
    assert R.inverse((1, 2)) == (2, 1)
    assert R.unit_of(4) == (4, 4)
    with pytest.raises(GroupoidError):
        R.compose((1, 2), (3, 4))


def test_product_unit_box(odo_point):
    mu = param_f(odo_point, ZERO_2ADIC, EvPeriodic((), (1,)))
    box = ProductUnitBox((VertexUnitBox(CANTOR_FULL, FiniteBox(frozenset({0}), 1)),
                          RelationUnitBox(frozenset({3}))))
    assert box.clopen()
    assert box.contains((mu, 3))
    assert not box.contains((mu, 4))


def test_product_isotropy_componentwise(golden_point):
    rng = random.Random(5)
    R = CompleteRelation()
    for _ in range(100):
        mu = random_boundary_path(golden_point, rng)
        i = rng.randrange(8)
        # isotropy in the product at the unit (mu, i) is the product of
        # component isotropies; both sides are trivial
        assert isotropy_search(mu, 10) == []
        assert R.unit_of(i) == (i, i)


def test_reduction_validates_membership(odo_point):
    rng = random.Random(1)
    box = VertexUnitBox(CANTOR_FULL, FiniteBox(frozenset({0}), 1))
    red = reduce_clopen(DRGroupoid(odo_point), box)
    g = red.sample_element(rng)
    assert red.contains_unit(red.range(g)) and red.contains_unit(red.source(g))


def test_reduction_rejects_non_clopen(golden_point):
    from groupoidlab.spaces import Arc, CircleBox
    from fractions import Fraction

    box = VertexUnitBox(
        CircleBox((Arc(QPhi(0), QPhi(Fraction(1, 2))),)), FiniteBox(frozenset({0}), 1)
    )
    with pytest.raises(GroupoidError):
        reduce_clopen(DRGroupoid(golden_point), box)


# ---------------------------------------------------------------------------
# bisections
# ---------------------------------------------------------------------------


def test_bisection_unit_box(odo_point):
    mu = param_f(odo_point, ZERO_2ADIC, EvPeriodic((), (1,)))
    cyl = PathCylinder(mu.prefix(1))
    # membership and prefix equality are bools, not the shared edge tuple
    assert cyl.contains(mu) is True and (mu.prefix(2) == mu.prefix(2)) is True
    assert PathCylinder(mu.prefix(2)).contains(mu) is True and cyl.contains(shift(mu)) is False
    rep = basic_bisection(odo_point, BasicOpenBisection(cyl, 0, 0, cyl), trials=8, seed=0)
    assert rep.ok


def test_bisection_certificate(odo_point):
    mu = param_f(odo_point, ZERO_2ADIC, EvPeriodic((), (2,)))
    one_edge = PathCylinder(mu.prefix(1))
    nothing = PathCylinder(vertex_path(odo_point, mu.range()))
    assert one_edge.contains(mu) is True and nothing.contains(mu) is True
    assert one_edge.contains(FiniteBoundaryPath(nothing.prefix)) is False
    good = BasicOpenBisection(one_edge, 1, 0, nothing)
    assert good.certificate_valid()
    rep = basic_bisection(odo_point, good, trials=16, seed=1)
    assert rep.ok
    bad = BasicOpenBisection(nothing, 1, 0, one_edge)
    assert not bad.certificate_valid()
    assert not basic_bisection(odo_point, bad).ok
