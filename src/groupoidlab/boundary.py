"""Boundary path spaces, the shift, and the convergence oracle.

For the model graph every vertex is singular, so the boundary consists
of all finite paths together with the infinite ones.  Infinite paths
are stored as a base point, held as an anchor and an orbit exponent,
plus an eventually periodic index sequence: the exact shift-invariant
dense subfamily on which equality and the shift are decidable.  The
topology is never materialised; it is probed through a three-condition
convergence test on finitely described sequences, with an explicit
"undecidable for this description" outcome for anything outside the
supported descriptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spaces import (
    PairPoint,
    Point,
    _set,
    dense_indices_hitting,
    factor_point,
    split_top_level,
)
from .graphs import (
    BoundaryError,
    DiscreteEdge,
    FinitePath,
    ModelEdge,
    ModelGraph,
    OneVertexLoopGraph,
    param_f_k,
    vertex_path,
)


class ShiftDomainError(BoundaryError):
    """Raised when shifting a zero-length path (a singular vertex)."""


# ---------------------------------------------------------------------------
# eventually periodic integer sequences
# ---------------------------------------------------------------------------


def _canon_ev_periodic(head, cycle):
    """Canonical (head, cycle) for an eventually periodic sequence.

    The cycle is made primitive (not a power of a shorter word) and the
    head minimal (no trailing head item that merely repeats the cycle).
    """
    head = tuple(head)
    cycle = tuple(cycle)
    if not cycle:
        raise ValueError("cycle must be non-empty")
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle[:d] * (n // d) == cycle:
            cycle = cycle[:d]
            break
    while head and head[-1] == cycle[-1]:
        head = head[:-1]
        cycle = (cycle[-1],) + cycle[:-1]
    return head, cycle


@dataclass(frozen=True)
class EvPeriodic:
    """head + cycle^infinity, canonical (primitive cycle, minimal head).

    The entries are edge indices (loop labels in the loop graph), so one
    below 1 is a ``BoundaryError``: every infinite path's index data is
    validated here, once.
    """

    head: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        head, cycle = _canon_ev_periodic(self.head, self.cycle)
        if any(v < 1 for v in head + cycle):
            raise BoundaryError("edge indices must be >= 1")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "cycle", cycle)

    def item(self, i: int) -> int:
        if i < len(self.head):
            return self.head[i]
        return self.cycle[(i - len(self.head)) % len(self.cycle)]

    def shifted(self, n: int = 1) -> "EvPeriodic":
        if n < 0:
            raise ValueError("cannot shift backwards")
        head, cycle = self.head, self.cycle
        drop = min(n, len(head))
        head = head[drop:]
        n -= drop
        if n:
            n %= len(cycle)
            cycle = cycle[n:] + cycle[:n]
        return EvPeriodic._canonical(head, cycle)

    @staticmethod
    def _canonical(head: tuple[int, ...], cycle: tuple[int, ...]) -> "EvPeriodic":
        """A sequence from a pair that is already canonical, such as a
        suffix or an extension of a canonical one: the head keeps its last
        item, or it is empty and the cycle is a rotation of a primitive
        word."""
        seq = object.__new__(EvPeriodic)
        _set(seq, "head", head)
        _set(seq, "cycle", cycle)
        return seq

    def same_tail(self, n: int, other: "EvPeriodic", m: int) -> bool:
        """Whether shifted(n) == other.shifted(m), building neither: both
        are canonical, so their heads must agree and their cycles be the
        same rotation, and the rotations of a primitive word are distinct."""
        head, h, cycle, c = self.head, other.head, self.cycle, other.cycle
        if len(cycle) != len(c) or head[n:] != h[m:]:
            return False
        r = (max(n - len(head), 0) - max(m - len(h), 0)) % len(c)
        return r == 0 if cycle == c else cycle[r:] + cycle[:r] == c

    def cons(self, value: int) -> "EvPeriodic":
        """``value`` prepended, in O(1): the head keeps its last item, so
        the pair stays canonical, unless the head is empty and ``value``
        repeats the cycle's last item, which rotates the cycle instead."""
        if value < 1:
            raise BoundaryError("edge indices must be >= 1")
        head, cycle = self.head, self.cycle
        if not head and value == cycle[-1]:
            return EvPeriodic._canonical((), (value,) + cycle[:-1])
        return EvPeriodic._canonical((value,) + head, cycle)

    def prefix(self, n: int) -> tuple[int, ...]:
        return tuple(self.item(i) for i in range(n))


# ---------------------------------------------------------------------------
# boundary paths
# ---------------------------------------------------------------------------

INFINITE = float("inf")


@dataclass(frozen=True)
class FiniteBoundaryPath:
    """A finite path whose domain vertex is singular.

    Every boundary path kind has the same method set: ``length`` (an int,
    or ``INFINITE``), ``range()``, ``edge_at(i)``, ``same_edge(i, other,
    j)`` (edge i equals edge j of a path of the same kind), ``prefix(k)``
    (the first k edges as a finite path), ``drop(n)`` (the n-th shift,
    n >= 1), ``same_tail(n, other, m)`` (drop(n) equals ``other.drop(m)``
    for n <= length and m <= other.length, built from neither path),
    ``cons(m)`` (prepend the edge of index ``m >= 1`` whose domain is
    ``range()``; a lower index is a ``BoundaryError``) and
    ``shift_period()`` (``(start, step)``: for n > m, drop(n) = drop(m)
    exactly when m >= start and step | n - m; ``None`` if never).  Both
    ``drop`` and ``cons`` keep the domain, so neither validates the path
    again, and ``cons`` builds its edge at ``range()``, so its one new
    junction composes.
    """

    path: FinitePath

    def __post_init__(self):
        g = self.path.graph
        if not g.is_singular(self.path.d()):
            raise BoundaryError(f"domain vertex {self.path.d()!r} is regular")

    @staticmethod
    def _unchecked(path: FinitePath) -> "FiniteBoundaryPath":
        """A path whose domain is known to be singular: the domain of a
        boundary path it was cut from or extended at the range end."""
        mu = object.__new__(FiniteBoundaryPath)
        _set(mu, "path", path)
        return mu

    @property
    def graph(self):
        return self.path.graph

    @property
    def length(self) -> int:
        return len(self.path.edges)

    def range(self):
        return self.path.r()

    def edge_at(self, i: int):
        """The i-th edge, 1 <= i <= len."""
        return self.path.edges[i - 1]

    def prefix(self, k: int) -> FinitePath:
        p = self.path
        if k > len(p):
            raise BoundaryError("prefix longer than the path")
        if k == 0:
            return vertex_path(p.graph, p.r())
        return FinitePath._unchecked(p.graph, p.edges[:k])

    def drop(self, n: int) -> "FiniteBoundaryPath":
        p = self.path
        if n > len(p):
            raise ShiftDomainError("the shift is undefined on zero-length boundary paths")
        if n == len(p):
            return FiniteBoundaryPath._unchecked(FinitePath._unchecked(p.graph, (), p.d()))
        return FiniteBoundaryPath._unchecked(FinitePath._unchecked(p.graph, p.edges[n:]))

    def same_edge(self, i: int, other: "FiniteBoundaryPath", j: int) -> bool:
        """Whether edge i of this path equals edge j of ``other``."""
        return self.path.edges[i - 1] == other.path.edges[j - 1]

    def same_tail(self, n: int, other, m: int) -> bool:
        if not isinstance(other, FiniteBoundaryPath):
            return False
        p, q = self.path, other.path
        rest = len(p.edges) - n
        if p.graph is not q.graph or rest != len(q.edges) - m:
            return False
        if rest:
            return p.edges[n:] == q.edges[m:]
        if p.edges and q.edges and isinstance(p.graph, ModelGraph):
            # d(e) = (e.z, e.x) on the model graph: compare the fields,
            # building neither domain vertex
            e, f = p.edges[-1], q.edges[-1]
            return (e.z, e.x) == (f.z, f.x)
        return p.d() == q.d()

    def shift_period(self) -> None:
        """None: shifts of a finite path have pairwise different lengths."""
        return None

    def cons(self, m: int) -> "FiniteBoundaryPath":
        p = self.path
        g = p.graph
        if not hasattr(g, "edge_from"):
            raise BoundaryError(f"cons needs edges numbered at each vertex, and {g!r} has none")
        if m < 1:
            raise BoundaryError("edge indices must be >= 1")
        if p.edges and isinstance(g, ModelGraph):
            # the range of the first edge (z, x, k) is (rho(z), x_k)
            first = p.edges[0]
            edge = ModelEdge(g.z_system.forward(first.z), g.x_point(first.m), m)
        else:
            edge = g.edge_from(self.range(), m)
        return FiniteBoundaryPath._unchecked(FinitePath._unchecked(g, (edge,) + p.edges))

    def __len__(self):
        return len(self.path)


class InfiniteModelPath:
    """The infinite model-graph path with edges
    (rho^-i(z), x_{n_{i+1}}, n_i) for i = 1, 2, ...; canonical in (z, idx).

    The path is held in orbit coordinates: an anchor point a, an integer
    exponent e with z = rho^e(a), and the index sequence.  ``drop`` and
    ``cons`` move the exponent only, so every path cut from or extended
    from one path shares its anchor, and two such paths (or their edges)
    compare by integers: rho^e(a) = rho^f(a) exactly when the period of
    a, if any, divides e - f.  ``z`` is built on first read and kept; no
    other attribute changes after construction.
    """

    __slots__ = ("graph", "anchor", "exponent", "idx", "_z")

    length = INFINITE

    def __init__(self, graph: ModelGraph, z: Point, idx: EvPeriodic):
        self.graph = graph
        self.anchor = self._z = z
        self.exponent = 0
        self.idx = idx

    @staticmethod
    def _unchecked(graph: ModelGraph, anchor: Point, exponent: int, idx: EvPeriodic):
        """The path with base point rho^exponent(anchor), such as a shift
        or an extension."""
        mu = object.__new__(InfiniteModelPath)
        mu.graph = graph
        mu.anchor = anchor
        mu.exponent = exponent
        mu.idx = idx
        mu._z = anchor if exponent == 0 else None
        return mu

    @property
    def z(self) -> Point:
        """The base point rho^exponent(anchor)."""
        z = self._z
        if z is None:
            z = self._z = self.graph.z_system.power(self.anchor, self.exponent)
        return z

    def range(self) -> PairPoint:
        # r(first edge) = (z, x_{n_1})
        return PairPoint(self.z, self.graph.x_point(self.idx.item(0)))

    def edge_at(self, i: int) -> ModelEdge:
        """The i-th edge, i >= 1."""
        g = self.graph
        return ModelEdge(
            g.z_system.power(self.anchor, self.exponent - i),
            g.x_point(self.idx.item(i)),
            self.idx.item(i - 1),
        )

    def same_edge(self, i: int, other: "InfiniteModelPath", j: int) -> bool:
        """Whether edge i of this path equals edge j of ``other``: by index,
        x point and z, without building either edge."""
        a, b = self.idx.item(i), other.idx.item(j)
        return (
            self.idx.item(i - 1) == other.idx.item(j - 1)
            and (a == b or self.graph.x_point(a) == other.graph.x_point(b))
            and self._same_point(self.exponent - i, other, other.exponent - j)
        )

    def same_tail(self, n: int, other, m: int) -> bool:
        """By index tails and exponents: on a shared anchor no dynamics step."""
        return (
            isinstance(other, InfiniteModelPath)
            and self.graph is other.graph
            and self.idx.same_tail(n, other.idx, m)
            and self._same_point(self.exponent - n, other, other.exponent - m)
        )

    def _same_point(self, e: int, other: "InfiniteModelPath", f: int) -> bool:
        """Whether rho^e(self.anchor) = rho^f(other.anchor); a shared
        anchor decides it by the exponents, with no dynamics step."""
        sys = self.graph.z_system
        if self.anchor is other.anchor and sys is other.graph.z_system:
            if e == f:
                return True
            period = sys.period(self.anchor)
            return period is not None and (e - f) % period == 0
        return sys.power(self.anchor, e) == other.graph.z_system.power(other.anchor, f)

    def prefix(self, k: int) -> FinitePath:
        g = self.graph
        return param_f_k(g, self.z, g.x_point(self.idx.item(k)), self.idx.prefix(k))

    def drop(self, n: int) -> "InfiniteModelPath":
        idx = self.idx.shifted(n)
        return InfiniteModelPath._unchecked(self.graph, self.anchor, self.exponent - n, idx)

    def shift_period(self) -> tuple[int, int] | None:
        """Shifts share the anchor, so the period of the anchor must also
        divide their exponent gap."""
        period = self.graph.z_system.period(self.anchor)
        return None if period is None else (len(self.idx.head), math.lcm(len(self.idx.cycle), period))

    def cons(self, m: int) -> "InfiniteModelPath":
        idx = self.idx.cons(m)
        return InfiniteModelPath._unchecked(self.graph, self.anchor, self.exponent + 1, idx)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, InfiniteModelPath):
            return NotImplemented
        if self.graph is not other.graph or self.idx != other.idx:
            return False
        if self.anchor is other.anchor:
            return self._same_point(self.exponent, other, other.exponent)
        return self.z == other.z

    def __hash__(self):
        return hash((id(self.graph), self.z, self.idx))

    def __repr__(self):
        return f"InfiniteModelPath(graph={self.graph!r}, z={self.z!r}, idx={self.idx!r})"

    def __len__(self):
        raise TypeError("infinite path; use .length")


@dataclass(frozen=True)
class InfiniteDiscretePath:
    """An eventually periodic infinite word of loop labels in the
    one-vertex loop graph."""

    graph: OneVertexLoopGraph
    labels: EvPeriodic

    length = INFINITE

    def __post_init__(self):
        if not isinstance(self.graph, OneVertexLoopGraph):
            raise BoundaryError(f"unsupported graph {self.graph!r}")

    @staticmethod
    def _unchecked(graph, labels: EvPeriodic) -> "InfiniteDiscretePath":
        """A word on a graph known to be the loop graph, such as a shift."""
        mu = object.__new__(InfiniteDiscretePath)
        _set(mu, "graph", graph)
        _set(mu, "labels", labels)
        return mu

    def range(self):
        return self.graph.vertex

    def edge_at(self, i: int) -> DiscreteEdge:
        return self.graph.edge(self.labels.item(i - 1))

    def prefix(self, k: int) -> FinitePath:
        return self.graph.path(self.labels.prefix(k))

    def same_edge(self, i: int, other: "InfiniteDiscretePath", j: int) -> bool:
        """Whether edge i of this word equals edge j of ``other``."""
        return self.labels.item(i - 1) == other.labels.item(j - 1)

    def same_tail(self, n: int, other, m: int) -> bool:
        same_graph = isinstance(other, InfiniteDiscretePath) and self.graph is other.graph
        return same_graph and self.labels.same_tail(n, other.labels, m)

    def drop(self, n: int) -> "InfiniteDiscretePath":
        return InfiniteDiscretePath._unchecked(self.graph, self.labels.shifted(n))

    def shift_period(self) -> tuple[int, int]:
        """The canonical head and cycle: every word is eventually periodic."""
        return len(self.labels.head), len(self.labels.cycle)

    def cons(self, m: int) -> "InfiniteDiscretePath":
        return InfiniteDiscretePath._unchecked(self.graph, self.labels.cons(m))

    def __eq__(self, other):
        if not isinstance(other, InfiniteDiscretePath):
            return NotImplemented
        return self.graph is other.graph and self.labels == other.labels

    def __hash__(self):
        return hash((id(self.graph), self.labels))


BoundaryPath = FiniteBoundaryPath | InfiniteModelPath | InfiniteDiscretePath


def shift(mu: BoundaryPath) -> BoundaryPath:
    """Remove the first edge; defined away from the singular vertices."""
    return shift_power(mu, 1)


def shift_power(mu: BoundaryPath, n: int) -> BoundaryPath:
    """Remove the first n edges; a finite path must have at least n.

    A shift is a suffix of a valid path with the same domain, so
    ``drop`` builds it without validating its edges, indices (labels) or
    domain again.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return mu
    return mu.drop(n)


# ---------------------------------------------------------------------------
# parameterizations
# ---------------------------------------------------------------------------


def param_f(graph: ModelGraph, z: Point, idx: EvPeriodic) -> InfiniteModelPath:
    """Infinite paths from (base point, index sequence)."""
    return InfiniteModelPath(graph, z, idx)


def homeo_h(graph: ModelGraph, z: Point, nu) -> BoundaryPath:
    """The boundary homeomorphism Z x dF -> dE for one-point X: the word
    (m_1, ..., m_k) maps to the path with edges (rho^-i(z), *, m_i)."""
    if not graph.x_is_point():
        raise BoundaryError("h is only defined over a one-point X backend")
    star = graph.x_point(1)
    if isinstance(nu, FiniteBoundaryPath):
        labels = tuple(e.label for e in nu.path.edges)
        return FiniteBoundaryPath(param_f_k(graph, z, star, labels))
    if isinstance(nu, InfiniteDiscretePath):
        return InfiniteModelPath(graph, z, nu.labels)
    raise BoundaryError(f"not a boundary path of the loop graph: {nu!r}")


def homeo_h_inv(graph_f: OneVertexLoopGraph, mu: BoundaryPath) -> tuple[Point, BoundaryPath]:
    if isinstance(mu, InfiniteModelPath):
        return mu.z, InfiniteDiscretePath(graph_f, mu.idx)
    if isinstance(mu, FiniteBoundaryPath):
        g = mu.path.graph
        if not isinstance(g, ModelGraph) or not g.x_is_point():
            raise BoundaryError("h_inv expects a path of the one-point-X model graph")
        # the base point z is the Z coordinate of the range: rho of the
        # first edge's z, or the vertex itself
        loop_path = graph_f.path(tuple(e.m for e in mu.path.edges))
        return mu.range().left, FiniteBoundaryPath(loop_path)
    raise BoundaryError(f"unsupported path {mu!r}")


# ---------------------------------------------------------------------------
# sequence descriptions and the convergence oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantPointRule:
    """z_n = value for all n."""

    value: Point

    def limit(self) -> Point:
        return self.value

    def term(self, n: int) -> Point:
        return self.value


@dataclass(frozen=True)
class ApproachPointRule:
    """z_n -> target with d(z_n, target) = 2^-(n+1) exactly, by the
    point's own ``approach`` (circle and Cantor points have one), so
    convergence is decidable.
    """

    target: Point

    def limit(self) -> Point:
        return self.target

    def term(self, n: int) -> Point:
        approach = getattr(self.target, "approach", None)
        if approach is None:
            raise BoundaryError(f"no approach rule on {self.target!r}")
        return approach(n)


PointSeqRule = ConstantPointRule | ApproachPointRule


@dataclass(frozen=True)
class ConstantTail:
    """mu^(n) = path for every n past the head."""

    path: BoundaryPath

    escape_note = "a constant longer path keeps its next edge inside a compact set"
    stabilise_note = None

    def anchor(self) -> BoundaryPath:
        return self.path

    def term(self, n: int) -> BoundaryPath:
        return self.path


@dataclass(frozen=True)
class EscapingTail:
    """mu^(n) = prefix extended by one edge whose index escapes to
    infinity through the positions where the dense sequence returns to
    the required x value.

    ``x_box_index`` selects which basic open's representative equals the
    x coordinate of d(prefix); over a one-point X it is 0.
    """

    prefix: BoundaryPath  # finite
    x_last: Point
    x_box_index: int = 0
    rep_start: int = 0

    escape_note = "the edge after position |mu| is eventually constant"
    stabilise_note = "the appended edges never stabilise: their indices escape"

    def __post_init__(self):
        if self.prefix.length == INFINITE:
            raise BoundaryError("escaping tails extend a finite prefix")
        target_x = self.prefix.path.d().right
        if not self.graph().x_backend.is_basic_rep(self.x_box_index, target_x):
            raise BoundaryError(
                "x_box_index must select a basic open whose representative is "
                "the x coordinate of d(prefix); otherwise the appended edges "
                "do not compose"
            )

    def anchor(self) -> BoundaryPath:
        return self.prefix

    def graph(self) -> ModelGraph:
        return self.prefix.path.graph

    def appended_edge(self, n: int) -> ModelEdge:
        g = self.graph()
        target = self.prefix.path.d()
        # r(new edge) must equal d(prefix): (rho(z'), x_m) = (w, x*)
        idx = dense_indices_hitting(g.x_backend, self.x_box_index, self.rep_start + n + 1)[-1]
        return ModelEdge(g.z_system.power(target.left, -1), self.x_last, idx)

    def term(self, n: int) -> FiniteBoundaryPath:
        edges = self.prefix.path.edges + (self.appended_edge(n),)
        return FiniteBoundaryPath(FinitePath(self.graph(), edges))


@dataclass(frozen=True)
class BasePointTail:
    """Fixed indices, moving base point: mu^(n) = f(z_n, idx) for infinite
    index data, or the length-k path with final x coordinate ``x_last``
    for a finite index tuple."""

    graph: ModelGraph
    z_rule: PointSeqRule
    idx: EvPeriodic | tuple[int, ...]
    x_last: Point | None = None

    stabilise_note = None

    def is_infinite(self) -> bool:
        return isinstance(self.idx, EvPeriodic)

    @property
    def escape_note(self) -> str:
        if self.is_infinite():
            return "infinite terms with fixed indices stay in a compact set"
        return "terms extend past |mu| with a fixed index inside a compact space"

    def anchor(self) -> BoundaryPath:
        return self.limit_path()

    def term(self, n: int) -> BoundaryPath:
        return self._path_at(self.z_rule.term(n))

    def limit_path(self) -> BoundaryPath:
        return self._path_at(self.z_rule.limit())

    def _path_at(self, z: Point) -> BoundaryPath:
        if self.is_infinite():
            return InfiniteModelPath(self.graph, z, self.idx)
        return FiniteBoundaryPath(param_f_k(self.graph, z, self.x_last, self.idx))


@dataclass(frozen=True)
class HeadOnlyTail:
    """No tail rule: only finitely many entries are described.  Every
    convergence question about such a description is undecidable."""

    def term(self, n: int) -> BoundaryPath:
        raise BoundaryError("head-only description has no tail terms")


TailRule = ConstantTail | EscapingTail | BasePointTail | HeadOnlyTail


@dataclass(frozen=True)
class SequenceDescription:
    """Finitely described sequence of boundary paths: explicit head
    entries (which never influence convergence) plus a tail rule."""

    head: tuple[BoundaryPath, ...]
    tail: TailRule

    def term(self, n: int) -> BoundaryPath:
        if n < len(self.head):
            return self.head[n]
        return self.tail.term(n - len(self.head))


PASS = "pass"
FAIL = "fail"
UNDECIDABLE = "undecidable"


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome per condition: range convergence, prefix stabilisation,
    and escape of the (|mu|+1)-th edges from every compact set."""

    ranges: str
    prefixes: str
    escape: str
    notes: tuple[str, ...] = ()

    @property
    def verdict(self) -> str:
        they = (self.ranges, self.prefixes, self.escape)
        if FAIL in they:
            return FAIL
        if UNDECIDABLE in they:
            return UNDECIDABLE
        return PASS

    @property
    def holds(self) -> bool:
        return self.verdict == PASS


def converges(desc: SequenceDescription, mu: BoundaryPath) -> ConvergenceReport:
    """Decide whether the described sequence converges to mu.

    Three conditions are reported separately: (ranges) the range
    vertices converge to r(mu); (prefixes) every finite prefix of mu is
    eventually matched; (escape) when mu is finite, the edges one past
    its length leave every compact subset of the edge space.  The
    verdict never depends on the explicit head entries.

    Every tail rule has an anchor path nu: past the head, the terms
    share nu's range and its prefixes, and beyond |nu| their edges
    either escape (the escaping tail's appended edge) or stop.  So one
    rule decides all tails: the ranges converge iff r(nu) = r(mu); an
    infinite mu is the limit iff nu = mu; a finite mu of length k needs
    k = 0 or the same first k edges as nu, and escape holds iff
    |nu| <= k, since terms that carry a fixed edge past k keep it
    inside a compact set.
    """
    tail = desc.tail
    if isinstance(tail, HeadOnlyTail):
        return ConvergenceReport(
            UNDECIDABLE,
            UNDECIDABLE,
            UNDECIDABLE,
            ("no tail rule: convergence is undecidable for this description",),
        )
    nu = tail.anchor()
    ranges = PASS if nu.range() == mu.range() else FAIL
    k, nu_len = mu.length, nu.length
    if k == INFINITE:
        return ConvergenceReport(ranges, PASS if nu == mu else FAIL, PASS)
    matched = k == 0 or (nu_len >= k and nu.prefix(k) == mu.prefix(k))
    notes = []
    if tail.stabilise_note and k == nu_len + 1:
        notes.append(tail.stabilise_note)
    escape = PASS if nu_len <= k else FAIL
    if escape == FAIL:
        notes.append(tail.escape_note)
    return ConvergenceReport(ranges, PASS if matched else FAIL, escape, tuple(notes))


# ---------------------------------------------------------------------------
# serialization: line format for boundary paths
# ---------------------------------------------------------------------------


def _ev_periodic_token(seq: EvPeriodic) -> str:
    head = ",".join(map(str, seq.head))
    cycle = ",".join(map(str, seq.cycle))
    return f"{head}|{cycle}"


def _ev_periodic_from_token(tok: str) -> EvPeriodic:
    head, _, cycle = tok.partition("|")
    head_t = tuple(int(v) for v in head.split(",") if v)
    cycle_t = tuple(int(v) for v in cycle.split(",") if v)
    return EvPeriodic(head_t, cycle_t)


def path_to_line(mu: BoundaryPath) -> str:
    """One-line format: ``INF z=<point> idx=<pre>|<cycle>`` for infinite
    model paths, ``FIN <edges>`` / ``FIN @<vertex>`` for finite ones, and
    the W-suffixed variants for loop-graph words."""
    if isinstance(mu, InfiniteModelPath):
        return f"INF z={mu.z.token()} idx={_ev_periodic_token(mu.idx)}"
    if isinstance(mu, InfiniteDiscretePath):
        return f"INFW idx={_ev_periodic_token(mu.labels)}"
    p = mu.path
    if isinstance(p.graph, OneVertexLoopGraph):
        if len(p) == 0:
            return "FINW @"
        return "FINW " + " ".join(str(e.label) for e in p.edges)
    if len(p) == 0:
        return f"FIN @{p.base.token()}"
    toks = [f"({e.z.token()};{e.x.token()};{e.m})" for e in p.edges]
    return "FIN " + " ".join(toks)


def path_from_line(line: str, graph) -> BoundaryPath:
    """Parse ``path_to_line``; every point must belong to the factor it
    stands for (an edge's z and x, a vertex's (z; x), the base point z)."""
    line = line.strip()
    kind, _, rest = line.partition(" ")
    if kind in ("INF", "FIN") and not isinstance(graph, ModelGraph):
        raise BoundaryError(f"a {kind} line needs a model graph, not {graph!r}")
    if kind == "INF":
        z_part, idx_part = rest.split(" ")
        z = factor_point(graph.z_system.backend, z_part.removeprefix("z="), "the Z factor")
        idx = _ev_periodic_from_token(idx_part.removeprefix("idx="))
        return InfiniteModelPath(graph, z, idx)
    if kind == "INFW":
        idx = _ev_periodic_from_token(rest.removeprefix("idx="))
        return InfiniteDiscretePath(graph, idx)
    if kind == "FINW":
        if not isinstance(graph, OneVertexLoopGraph):
            raise BoundaryError(f"a FINW line needs the loop graph, not {graph!r}")
        labels = () if rest == "@" else tuple(int(t) for t in rest.split())
        if not labels and rest != "@":
            raise BoundaryError("a FINW line lists loop labels or @")
        return FiniteBoundaryPath(graph.path(labels))
    if kind == "FIN":
        if rest.startswith("@"):
            v = factor_point(graph.vertex_backend, rest[1:], "the vertex space Z x X")
            return FiniteBoundaryPath(vertex_path(graph, v))
        z_backend, x_backend = graph.z_system.backend, graph.x_backend
        edges = []
        for tok in rest.split():
            z_tok, x_tok, m_tok = split_top_level(tok[1:-1])
            z = factor_point(z_backend, z_tok, "the Z factor")
            edges.append(ModelEdge(z, factor_point(x_backend, x_tok, "the X factor"), int(m_tok)))
        return FiniteBoundaryPath(FinitePath(graph, tuple(edges)))
    raise ValueError(f"unknown line kind {kind!r}")
