"""The shift groupoid of a boundary path space, and its checkers.

Elements are triples (x, k, y) with a witness (n, m), n - m = k, such
that the n-th shift of x equals the m-th shift of y exactly.  Witnesses
are always reduced to the minimal pair, so equality of elements is
structural.  Principality is certified two ways on the model graph: a
seeded sampling search for isotropy up to a bound, and an exact
reduction of the infinite-path case to freeness of the base dynamics,
which the system's declared ``period`` decides outright.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .boundary import (
    BoundaryPath,
    EvPeriodic,
    FiniteBoundaryPath,
    InfiniteDiscretePath,
    InfiniteModelPath,
    param_f,
    shift_power,
)
from .graphs import (
    FinitePath,
    ModelEdge,
    ModelGraph,
    OneVertexLoopGraph,
    param_f_k,
    vertex_path,
)
from .spaces import PairPoint, box_contains, dense_indices_hitting, freeness_check


class GroupoidError(ValueError):
    pass


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupoidElement:
    """(x, k, y) with minimal witness (n, m): shift^n(x) = shift^m(y)."""

    x: BoundaryPath
    k: int
    y: BoundaryPath
    n: int
    m: int


def make_element(x: BoundaryPath, n: int, m: int, y: BoundaryPath) -> GroupoidElement:
    """Validate shift^n(x) = shift^m(y) exactly and store the element with
    the minimal witness.

    Given equal shifts, shift^(n-1)(x) and shift^(m-1)(y) prepend the
    edges x_n and y_m to the same path, so they are equal exactly when
    those two edges are: the witness is lowered edge by edge."""
    if n < 0 or m < 0:
        raise GroupoidError("witness exponents must be non-negative")
    if x.length < n:
        raise GroupoidError(f"shift^{n} undefined on a path of length {x.length}")
    if y.length < m:
        raise GroupoidError(f"shift^{m} undefined on a path of length {y.length}")
    if shift_power(x, n) != shift_power(y, m):
        raise GroupoidError("shifted paths differ; not a groupoid element")
    while n > 0 and m > 0 and x.edge_at(n) == y.edge_at(m):
        n -= 1
        m -= 1
    return GroupoidElement(x, n - m, y, n, m)


def unit(mu: BoundaryPath) -> GroupoidElement:
    return GroupoidElement(mu, 0, mu, 0, 0)


def compose(g: GroupoidElement, h: GroupoidElement) -> GroupoidElement:
    """(x, k, y)(y, l, z) = (x, k + l, z), with the witness re-derived by
    lifting both witnesses over the middle path."""
    if g.y != h.x:
        raise GroupoidError("source of the first factor differs from range of the second")
    lift = max(h.n - g.m, 0)
    n = g.n + lift
    m = h.m + max(g.m - h.n, 0)
    return make_element(g.x, n, m, h.y)


def inverse(g: GroupoidElement) -> GroupoidElement:
    return GroupoidElement(g.y, -g.k, g.x, g.m, g.n)


# ---------------------------------------------------------------------------
# descriptors: the boundary shift groupoid, products, the complete
# relation on N, and clopen reductions
# ---------------------------------------------------------------------------


class DRGroupoid:
    """The shift groupoid over the boundary of a graph."""

    def __init__(self, graph):
        self.graph = graph

    def compose(self, a, b):
        return compose(a, b)

    def inverse(self, a):
        return inverse(a)

    def unit_of(self, u):
        return unit(u)

    def range(self, a):
        return a.x

    def source(self, a):
        return a.y

    def k(self, a):
        return a.k

    def sample_element(self, rng):
        return random_element(self.graph, rng)

    def extend_from(self, u, rng):
        """A random element whose range is the given unit."""
        return random_element_at(self.graph, u, rng)

    def __repr__(self):
        return f"<DRGroupoid over {self.graph!r}>"


class CompleteRelation:
    """The full equivalence relation on N: elements are pairs (i, j)."""

    def compose(self, a, b):
        if a[1] != b[0]:
            raise GroupoidError("pairs do not compose")
        return (a[0], b[1])

    def inverse(self, a):
        return (a[1], a[0])

    def unit_of(self, u):
        return (u, u)

    def range(self, a):
        return a[0]

    def source(self, a):
        return a[1]

    def k(self, a):
        return 0

    def sample_element(self, rng):
        return (rng.randrange(16), rng.randrange(16))

    def extend_from(self, u, rng):
        return (u, rng.randrange(16))

    def __repr__(self):
        return "<CompleteRelation on N>"


class ProductGroupoid:
    """Componentwise product of finitely many groupoids."""

    def __init__(self, *parts):
        if not parts:
            raise GroupoidError("a product needs at least one factor")
        self.parts = parts

    def compose(self, a, b):
        return tuple(p.compose(x, y) for p, x, y in zip(self.parts, a, b))

    def inverse(self, a):
        return tuple(p.inverse(x) for p, x in zip(self.parts, a))

    def unit_of(self, u):
        return tuple(p.unit_of(x) for p, x in zip(self.parts, u))

    def range(self, a):
        return tuple(p.range(x) for p, x in zip(self.parts, a))

    def source(self, a):
        return tuple(p.source(x) for p, x in zip(self.parts, a))

    def k(self, a):
        return sum(p.k(x) for p, x in zip(self.parts, a))

    def sample_element(self, rng):
        return tuple(p.sample_element(rng) for p in self.parts)

    def extend_from(self, u, rng):
        return tuple(p.extend_from(x, rng) for p, x in zip(self.parts, u))

    def __repr__(self):
        return f"<ProductGroupoid of {len(self.parts)} factors>"


class ReducedGroupoid:
    """Reduction of a groupoid to a clopen set of units.

    The unit box must come with a syntactic clopen certificate; for
    boundary spaces this means a vertex box all of whose factors are
    clopen (cylinders, finite sets), and for products a pair of such.
    """

    def __init__(self, base, unit_box):
        self.base = base
        self.unit_box = unit_box
        if not unit_box.clopen():
            raise GroupoidError("reduction requires a clopen unit box")

    def contains_unit(self, u) -> bool:
        return self.unit_box.contains(u)

    def validate(self, a):
        if not (self.contains_unit(self.base.range(a)) and self.contains_unit(self.base.source(a))):
            raise GroupoidError("element leaves the reduction window")
        return a

    def compose(self, a, b):
        return self.validate(self.base.compose(a, b))

    def inverse(self, a):
        return self.validate(self.base.inverse(a))

    def unit_of(self, u):
        if not self.contains_unit(u):
            raise GroupoidError("unit outside the reduction window")
        return self.base.unit_of(u)

    def range(self, a):
        return self.base.range(a)

    def source(self, a):
        return self.base.source(a)

    def k(self, a):
        return self.base.k(a)

    def sample_element(self, rng):
        for _ in range(256):
            a = self.base.sample_element(rng)
            if self.contains_unit(self.base.range(a)) and self.contains_unit(self.base.source(a)):
                return a
        raise GroupoidError("could not sample inside the reduction window")

    def extend_from(self, u, rng):
        for _ in range(256):
            a = self.base.extend_from(u, rng)
            if self.contains_unit(self.base.source(a)):
                return a
        raise GroupoidError("could not extend inside the reduction window")


@dataclass(frozen=True)
class VertexUnitBox:
    """Units whose range vertex lies in a vertex-space box."""

    zbox: object
    xbox: object

    def clopen(self) -> bool:
        return self.zbox.clopen and self.xbox.clopen

    def contains(self, u: BoundaryPath) -> bool:
        v = u.range()
        return box_contains(self.zbox, v.left) and box_contains(self.xbox, v.right)


@dataclass(frozen=True)
class RelationUnitBox:
    """A finite set of points of N, clopen since N is discrete."""

    members: frozenset[int]

    def clopen(self) -> bool:
        return True

    def contains(self, u) -> bool:
        return u in self.members


@dataclass(frozen=True)
class ProductUnitBox:
    parts: tuple

    def clopen(self) -> bool:
        return all(p.clopen() for p in self.parts)

    def contains(self, u) -> bool:
        return all(p.contains(x) for p, x in zip(self.parts, u))


def product(*parts) -> ProductGroupoid:
    return ProductGroupoid(*parts)


def complete_relation() -> CompleteRelation:
    return CompleteRelation()


def reduce_clopen(base, unit_box) -> ReducedGroupoid:
    return ReducedGroupoid(base, unit_box)


# ---------------------------------------------------------------------------
# random path and element samplers (seeded, reproducible)
# ---------------------------------------------------------------------------


def random_ev_periodic(rng, max_value=5) -> EvPeriodic:
    head = tuple(rng.randrange(1, max_value + 1) for _ in range(rng.randrange(0, 3)))
    cycle = tuple(rng.randrange(1, max_value + 1) for _ in range(rng.randrange(1, 4)))
    return EvPeriodic(head, cycle)


def random_boundary_path(graph, rng, force=None) -> BoundaryPath:
    """A random finite or infinite boundary path (alternating by default)."""
    kind = force or ("finite" if rng.randrange(2) else "infinite")
    if isinstance(graph, OneVertexLoopGraph):
        if kind == "finite":
            labels = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(0, 5)))
            return FiniteBoundaryPath(
                FinitePath(graph, tuple(graph.edge(m) for m in labels))
                if labels
                else vertex_path(graph, graph.vertex)
            )
        return InfiniteDiscretePath(graph, random_ev_periodic(rng))
    if not isinstance(graph, ModelGraph):
        raise GroupoidError(f"no sampler for {graph!r}")
    z = graph.z_system.backend.random_point(rng)
    if kind == "infinite":
        return param_f(graph, z, random_ev_periodic(rng))
    k = rng.randrange(0, 5)
    x = graph.x_backend.random_point(rng)
    idx = tuple(rng.randrange(1, 6) for _ in range(k))
    return FiniteBoundaryPath(param_f_k(graph, z, x, idx))


def _prepend_random_edge(graph, mu: BoundaryPath, rng) -> BoundaryPath:
    """Prepend one random edge e with d(e) = r(mu); the new first index is
    free, so this always succeeds."""
    return mu.cons(rng.randrange(1, 6 if isinstance(graph, OneVertexLoopGraph) else 8))


def box_index_of_dense_value(backend, x) -> int:
    """Some basic-open index whose representative is the given point; the
    point must occur in the canonical dense sequence."""
    limit = backend.basic_count if backend.basic_count is not None else 64
    for b in range(limit):
        if backend.is_basic_rep(b, x):
            return b
    raise GroupoidError(f"{x!r} is not a dense-sequence representative")


def random_path_from(graph, v, rng, force=None) -> BoundaryPath:
    """A random boundary path of the model graph whose range vertex is v.
    The x coordinate of v must be a dense-sequence value, since only such
    vertices receive edges."""
    kind = force or ("finite" if rng.randrange(2) else "infinite")
    box = box_index_of_dense_value(graph.x_backend, v.right)
    j = dense_indices_hitting(graph.x_backend, box, rng.randrange(1, 4))[-1]
    if kind == "infinite":
        idx = random_ev_periodic(rng).cons(j)
        return param_f(graph, v.left, idx)
    k = rng.randrange(0, 4)
    if k == 0:
        return FiniteBoundaryPath(vertex_path(graph, v))
    sys = graph.z_system
    edges = []
    cur = v
    for step in range(k):
        box = box_index_of_dense_value(graph.x_backend, cur.right)
        j = dense_indices_hitting(graph.x_backend, box, rng.randrange(1, 4))[-1]
        if step < k - 1:
            x_next = graph.x_point(rng.randrange(1, 8))
        else:
            x_next = graph.x_backend.random_point(rng)
        e = ModelEdge(sys.power(cur.left, -1), x_next, j)
        edges.append(e)
        cur = PairPoint(e.z, e.x)
    return FiniteBoundaryPath(FinitePath(graph, tuple(edges)))


def random_element_at(graph, u: BoundaryPath, rng) -> GroupoidElement:
    """A random element with range u: shift it n times, then rebuild the
    source by prepending m fresh edges."""
    n = rng.randrange(0, min(3, u.length) + 1)
    m = rng.randrange(0, 4)
    tail = shift_power(u, n)
    y = tail
    for _ in range(m):
        y = _prepend_random_edge(graph, y, rng)
    return make_element(u, n, m, y)


def random_element(graph, rng) -> GroupoidElement:
    return random_element_at(graph, random_boundary_path(graph, rng), rng)


# ---------------------------------------------------------------------------
# axiom sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    trials: int
    seed: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def axiom_sample(descriptor, trials: int, seed: int) -> AxiomReport:
    """Sample composable triples and check associativity, units, inverses,
    range/source compatibility and additivity of the integer cocycle."""
    rng = random.Random(seed)
    comp = descriptor.compose
    failures = []

    def note(msg):
        if len(failures) < 32:
            failures.append(msg)

    for t in range(trials):
        g = descriptor.sample_element(rng)
        h = descriptor.extend_from(descriptor.source(g), rng)
        e = descriptor.extend_from(descriptor.source(h), rng)
        try:
            gh = comp(g, h)
            he = comp(h, e)
            if comp(gh, e) != comp(g, he):
                note(f"trial {t}: associativity fails")
            if descriptor.range(gh) != descriptor.range(g) or descriptor.source(
                gh
            ) != descriptor.source(h):
                note(f"trial {t}: range/source of a product are wrong")
            if descriptor.k(gh) != descriptor.k(g) + descriptor.k(h):
                note(f"trial {t}: the integer cocycle is not additive")
            ru = descriptor.unit_of(descriptor.range(g))
            su = descriptor.unit_of(descriptor.source(g))
            if comp(ru, g) != g or comp(g, su) != g:
                note(f"trial {t}: unit laws fail")
            ginv = descriptor.inverse(g)
            if comp(g, ginv) != ru or comp(ginv, g) != su:
                note(f"trial {t}: inverse laws fail")
            if descriptor.inverse(ginv) != g:
                note(f"trial {t}: the inverse is not involutive")
        except GroupoidError as exc:
            # a law check produced an invalid element: that is a failure,
            # not a crash (the mutation-control double relies on this)
            note(f"trial {t}: {exc}")
    return AxiomReport(trials, seed, tuple(failures))


# ---------------------------------------------------------------------------
# isotropy and principality
# ---------------------------------------------------------------------------


def isotropy_search(mu: BoundaryPath, bound: int) -> list[tuple[int, int]]:
    """All pairs (n, m), n > m, with both shifts defined within the bound
    and shift^n(mu) = shift^m(mu) exactly; empty certifies trivial
    isotropy at mu within the window."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    top = min(bound, mu.length)
    groups: dict = {}
    found = []
    for n in range(top + 1):
        bucket = groups.setdefault(shift_power(mu, n), [])
        for m in bucket:
            found.append((n, m))
        bucket.append(n)
    return found


@dataclass(frozen=True)
class ReductionReport:
    """The exact argument that nontrivial isotropy cannot occur.

    Finite paths: shifts of different exponents have different lengths.
    Infinite model paths: equality of shifted paths forces equality of
    inverse orbit points of the base, hence a period of the dynamics;
    the system's exact ``period`` rules that out at every exponent, not
    only up to the bound.  ``periods`` lists the periods up to the bound.
    """

    case: str
    periods: tuple[int, ...]
    ok: bool
    note: str


def isotropy_reduction(mu: BoundaryPath, bound: int) -> ReductionReport:
    if isinstance(mu, FiniteBoundaryPath):
        return ReductionReport(
            "finite",
            (),
            True,
            "shifts of a finite path have pairwise different lengths",
        )
    if isinstance(mu, InfiniteModelPath):
        system = mu.graph.z_system
        return ReductionReport(
            "infinite",
            tuple(freeness_check(system, mu.z, bound)),
            system.period(mu.z) is None,
            "equal shifted paths force an exact period of the base dynamics",
        )
    # infinite word in a discrete graph: no dynamics to reduce to
    labels = mu.labels
    has_isotropy = True  # eventually periodic words are always isotropic
    return ReductionReport(
        "infinite-word",
        (len(labels.cycle),),
        not has_isotropy,
        "eventually periodic words are fixed by the cycle-length shift",
    )


@dataclass(frozen=True)
class PrincipalityReport:
    samples: int
    bound: int
    seed: int
    isotropy: tuple
    reductions_ok: bool

    @property
    def ok(self) -> bool:
        return not self.isotropy and self.reductions_ok


def principality_sample(graph, samples: int, bound: int, seed: int) -> PrincipalityReport:
    """Search sampled boundary paths (alternating finite/infinite) for
    nontrivial isotropy; on the model graph also run the exact reduction
    on every sample."""
    rng = random.Random(seed)
    hits = []
    reductions_ok = True
    for i in range(samples):
        mu = random_boundary_path(graph, rng, force="finite" if i % 2 else "infinite")
        pairs = isotropy_search(mu, bound)
        # the report holds the first 8 hits; a hit at bound 320 can carry
        # tens of thousands of pairs, so keep no more than those
        if pairs and len(hits) < 8:
            hits.append((mu, tuple(pairs)))
        if isinstance(graph, ModelGraph):
            if not isotropy_reduction(mu, bound).ok:
                reductions_ok = False
    return PrincipalityReport(samples, bound, seed, tuple(hits), reductions_ok)


# ---------------------------------------------------------------------------
# basic open bisections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathCylinder:
    """Boundary paths extending a fixed finite prefix."""

    prefix: FinitePath

    def contains(self, mu: BoundaryPath) -> bool:
        k = len(self.prefix)
        return mu.length >= k and (k == 0 or mu.prefix(k) == self.prefix)


@dataclass(frozen=True)
class BasicOpenBisection:
    """B(U, n, m, V): elements (x, n - m, y) with x in U, y in V.

    The injectivity certificates are syntactic: a cylinder fixing at
    least n leading edges determines the pre-shift part, so the n-th
    shift is injective on it.
    """

    u: PathCylinder
    n: int
    m: int
    v: PathCylinder

    def certificate_valid(self) -> bool:
        return len(self.u.prefix) >= self.n and len(self.v.prefix) >= self.m


@dataclass(frozen=True)
class BisectionReport:
    certificate_valid: bool
    shift_injective_on_samples: bool
    trials: int
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.certificate_valid and self.shift_injective_on_samples


def basic_bisection(graph, b: BasicOpenBisection, trials: int = 64, seed: int = 0) -> BisectionReport:
    """Check the injectivity certificates and probe them on samples.

    Injectivity of the restricted shifts is what makes B(U, n, m, V) a
    bisection: two elements with the same range x satisfy
    shift^m(y1) = shift^n(x) = shift^m(y2) with y1, y2 in V, so y1 = y2,
    and symmetrically for sources.
    """
    if not b.certificate_valid():
        return BisectionReport(False, False, 0, "a cylinder fixes fewer edges than the shift exponent")
    rng = random.Random(seed)

    def sample_in(cyl: PathCylinder) -> BoundaryPath:
        if len(cyl.prefix) == 0:
            return random_boundary_path(graph, rng)
        mu = random_path_from(graph, cyl.prefix.d(), rng)
        for e in reversed(cyl.prefix.edges):
            mu = mu.cons(e.m)
        return mu

    inj = True
    for _ in range(trials):
        xa = sample_in(b.u)
        xb = sample_in(b.u)
        if xa != xb and shift_power(xa, b.n) == shift_power(xb, b.n):
            inj = False
        ya = sample_in(b.v)
        yb = sample_in(b.v)
        if ya != yb and shift_power(ya, b.m) == shift_power(yb, b.m):
            inj = False
    return BisectionReport(True, inj, trials, "range/source injectivity follows from the certificates")
