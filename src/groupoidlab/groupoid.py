"""The shift groupoid of a boundary path space, and its checkers.

Elements are triples (x, k, y) with a witness (n, m), n - m = k, such
that the n-th shift of x equals the m-th shift of y exactly.  Witnesses
are always reduced to the minimal pair, so equality of elements is
structural.  Principality on the model graph is decided by each path's
``shift_period()``: isotropy of the shift is eventual periodicity, and a
model path is eventually periodic only through the declared ``period``
of its base point, which the free systems do not have.  The sampled
search lists the isotropy pairs up to a bound from the same answer.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from .boundary import (
    BoundaryPath,
    EvPeriodic,
    FiniteBoundaryPath,
    InfiniteDiscretePath,
    param_f,
    shift_power,
)
from .graphs import (
    FinitePath,
    ModelGraph,
    OneVertexLoopGraph,
    param_f_k,
)
from .spaces import dense_indices_hitting


class GroupoidError(ValueError):
    pass


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class GroupoidElement(NamedTuple):
    """(x, k, y) with minimal witness (n, m): shift^n(x) = shift^m(y).

    An immutable record: fields by position or by name, equality and
    hash by the five fields, and the repr ``GroupoidElement(x=..., k=...,
    y=..., n=..., m=...)``.  It is a named tuple because the axiom sampler
    builds and compares elements by the hundred thousand, and a tuple is
    built and compared in C; so it also equals the plain tuple of its
    fields.  The constructor checks nothing: ``make_element`` checks a
    witness, and ``unit`` and ``inverse`` give elements by construction.
    """

    x: BoundaryPath
    k: int
    y: BoundaryPath
    n: int
    m: int


def make_element(x: BoundaryPath, n: int, m: int, y: BoundaryPath) -> GroupoidElement:
    """Validate shift^n(x) = shift^m(y) exactly and store the element with
    the minimal witness.  ``x.same_tail(n, y, m)`` decides the equality
    without building either shifted path.

    Given equal shifts, shift^(n-1)(x) and shift^(m-1)(y) prepend the
    edges x_n and y_m to the same path, so they are equal exactly when
    those two edges are: the witness is lowered edge by edge.  Infinite
    model paths that share an anchor compare their edges by indices, x
    points and exponents, with no dynamics step."""
    if n < 0 or m < 0:
        raise GroupoidError("witness exponents must be non-negative")
    if x.length < n:
        raise GroupoidError(f"shift^{n} undefined on a path of length {x.length}")
    if y.length < m:
        raise GroupoidError(f"shift^{m} undefined on a path of length {y.length}")
    if not x.same_tail(n, y, m):
        raise GroupoidError("shifted paths differ; not a groupoid element")
    while n > 0 and m > 0 and x.same_edge(n, y, m):
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
# the descriptor that axiom_sample reads: the boundary shift groupoid
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


# ---------------------------------------------------------------------------
# random path and element samplers (seeded, reproducible)
# ---------------------------------------------------------------------------


def random_ev_periodic(rng) -> EvPeriodic:
    head = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(0, 3)))
    cycle = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(1, 4)))
    return EvPeriodic(head, cycle)


def random_boundary_path(graph, rng, force=None) -> BoundaryPath:
    """A random finite or infinite boundary path (alternating by default)."""
    kind = force or ("finite" if rng.randrange(2) else "infinite")
    if isinstance(graph, OneVertexLoopGraph):
        if kind == "finite":
            labels = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(0, 5)))
            return FiniteBoundaryPath(graph.path(labels))
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


def box_index_of_dense_value(backend, x) -> int:
    """Some basic-open index whose representative is the given point; the
    point must occur in the canonical dense sequence."""
    limit = backend.basic_count if backend.basic_count is not None else 64
    for b in range(limit):
        if backend.is_basic_rep(b, x):
            return b
    raise GroupoidError(f"{x!r} is not a dense-sequence representative")


def _dense_index_at(graph, x, rng) -> int:
    """A random sequence position m with x_m = x, for an edge whose range
    has x coordinate x."""
    box = box_index_of_dense_value(graph.x_backend, x)
    return dense_indices_hitting(graph.x_backend, box, rng.randrange(1, 4))[-1]


def random_path_from(graph, v, rng, force=None) -> BoundaryPath:
    """A random boundary path of the model graph whose range vertex is v.
    The x coordinate of v must be a dense-sequence value, since only such
    vertices receive edges.  A finite path of length k is
    ``param_f_k(graph, v.left, x, idx)``: each index after the first hits
    a random dense value x_r (1 <= r < 8), and x is a random point."""
    if isinstance(graph, OneVertexLoopGraph):  # every label is a loop at v
        return random_boundary_path(graph, rng, force)
    kind = force or ("finite" if rng.randrange(2) else "infinite")
    j = _dense_index_at(graph, v.right, rng)
    if kind == "infinite":
        return param_f(graph, v.left, random_ev_periodic(rng).cons(j))
    k = rng.randrange(0, 4)
    x = v.right
    idx = []
    for step in range(k):
        idx.append(_dense_index_at(graph, x, rng))
        last = step == k - 1
        x = graph.x_backend.random_point(rng) if last else graph.x_point(rng.randrange(1, 8))
    return FiniteBoundaryPath(param_f_k(graph, v.left, x, tuple(idx)))


def random_element_at(graph, u: BoundaryPath, rng) -> GroupoidElement:
    """A random element with range u: shift it n times, then rebuild the
    source by prepending m fresh edges, each of a random index."""
    n = rng.randrange(0, min(3, u.length) + 1)
    m = rng.randrange(0, 4)
    top = 6 if isinstance(graph, OneVertexLoopGraph) else 8
    y = shift_power(u, n)
    for _ in range(m):
        y = y.cons(rng.randrange(1, top))
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


class IsotropyPairs:
    """The pairs (n, m) with bound >= n > m >= start and step | n - m, by n
    and then m ascending, held as (start, step, bound) and listed only on
    iteration.  ``len`` and ``in`` are arithmetic; equality, hash and repr
    are those of the tuple of the pairs, and it equals a list of them."""

    __slots__ = ("start", "step", "bound")

    def __init__(self, start: int, step: int, bound: int):
        self.start, self.step, self.bound = start, step, bound

    def __iter__(self):
        start, step = self.start, self.step
        for n in range(start + step, self.bound + 1):
            yield from zip(repeat(n), range(start + (n - start) % step, n, step))

    def __len__(self) -> int:
        # each n = start + d with d >= step pairs with d // step values of m
        q, r = divmod(max(self.bound - self.start, 0), self.step)
        return self.step * q * (q - 1) // 2 + q * (r + 1)

    def __contains__(self, pair) -> bool:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        n, m = pair
        ints = isinstance(n, int) and isinstance(m, int)
        return ints and self.start <= m < n <= self.bound and (n - m) % self.step == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, (IsotropyPairs, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def isotropy_search(mu: BoundaryPath, bound: int) -> IsotropyPairs:
    """All pairs (n, m), bound >= n > m, with shift^n(mu) = shift^m(mu)
    exactly; empty certifies trivial isotropy at mu within the window.
    The pairs are read off ``mu.shift_period()`` (isotropy of the shift is
    eventual periodicity); no path is shifted and none is listed here."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    period = mu.shift_period()
    return IsotropyPairs(0, 1, 0) if period is None else IsotropyPairs(*period, bound)


def isotropy_reduction(mu: BoundaryPath) -> bool:
    """Exact: no shift^n(mu) = shift^m(mu) with n > m, at any exponent.

    Isotropy of the shift is eventual periodicity, which
    ``mu.shift_period()`` decides per path kind: a finite path has no
    period, since its shifts have pairwise different lengths; an infinite
    model path has one only through the declared ``period`` of its base
    point, since equal shifts share the anchor and force a period of the
    dynamics; a loop word is eventually periodic, so it always has one."""
    return mu.shift_period() is None


@dataclass(frozen=True)
class PrincipalityReport:
    """``isotropy`` holds the first 8 hits in sample order, each a pair
    ``(mu, pairs)`` with ``pairs`` the nonempty ``isotropy_search(mu, bound)``."""

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
        # the report keeps the first 8 hits, which bounds its size; each
        # hit's pairs stay in closed form however many the bound allows
        pairs = isotropy_search(mu, bound) if len(hits) < 8 else ()
        if pairs:
            hits.append((mu, pairs))
        if isinstance(graph, ModelGraph):
            if not isotropy_reduction(mu):
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

    It is a bisection when shift^n is injective on U and shift^m on V:
    two elements with range x have shift^m(y1) = shift^n(x) = shift^m(y2),
    so y1 = y2, and symmetrically for sources.  The certificate: paths of
    a cylinder fixing at least j leading edges share those edges, so
    equal j-th shifts make them equal.
    """

    u: PathCylinder
    n: int
    m: int
    v: PathCylinder

    def certificate_valid(self) -> bool:
        return len(self.u.prefix) >= self.n and len(self.v.prefix) >= self.m
