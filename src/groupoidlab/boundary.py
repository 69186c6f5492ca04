"""Boundary path spaces, the shift, and the convergence oracle.

For the model graph every vertex is singular, so the boundary consists
of all finite paths together with the infinite ones.  Infinite paths
are stored as a base point plus an eventually periodic index sequence,
the exact shift-invariant dense subfamily on which equality and the
shift are decidable.  The topology is never materialised; it is probed
through a three-condition convergence test on finitely described
sequences, with an explicit "undecidable for this description" outcome
for anything outside the supported descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spaces import (
    PairPoint,
    Point,
    _canon_ev_periodic,
    _set,
    dense_indices_hitting,
    factor_point,
    split_top_level,
)
from .graphs import (
    DiscreteEdge,
    FinitePath,
    GraphError,
    ModelEdge,
    ModelGraph,
    OneVertexLoopGraph,
    param_f_k,
    vertex_path,
)


class BoundaryError(GraphError):
    pass


class ShiftDomainError(BoundaryError):
    """Raised when shifting a zero-length path (a singular vertex)."""


# ---------------------------------------------------------------------------
# eventually periodic integer sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvPeriodic:
    """head + cycle^infinity, canonical (primitive cycle, minimal head)."""

    head: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        head, cycle = _canon_ev_periodic(self.head, self.cycle)
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
        suffix of a canonical one: the head keeps its last item, or it is
        empty and the cycle is a rotation of a primitive word."""
        seq = object.__new__(EvPeriodic)
        _set(seq, "head", head)
        _set(seq, "cycle", cycle)
        return seq

    def cons(self, value: int) -> "EvPeriodic":
        return EvPeriodic((value,) + self.head, self.cycle)

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
    or ``INFINITE``), ``range()``, ``prefix(k)`` (the first k edges as a
    finite path), ``drop(n)`` (the n-th shift, n >= 1) and ``cons(m)``
    (prepend the edge of index ``m`` whose domain is ``range()``).  Both
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
        return len(self.path)

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

    def cons(self, m: int) -> "FiniteBoundaryPath":
        g = self.path.graph
        if not hasattr(g, "edge_from"):
            raise BoundaryError(f"cons needs edges numbered at each vertex, and {g!r} has none")
        edge = g.edge_from(self.range(), m)
        return FiniteBoundaryPath._unchecked(FinitePath._unchecked(g, (edge,) + self.path.edges))

    def __len__(self):
        return len(self.path)


@dataclass(frozen=True)
class InfiniteModelPath:
    """The infinite model-graph path with edges
    (rho^-i(z), x_{n_{i+1}}, n_i) for i = 1, 2, ...; canonical in (z, idx)."""

    graph: ModelGraph
    z: Point
    idx: EvPeriodic

    length = INFINITE

    def __post_init__(self):
        if any(v < 1 for v in self.idx.head + self.idx.cycle):
            raise BoundaryError("edge indices must be >= 1")

    @staticmethod
    def _unchecked(graph: ModelGraph, z: Point, idx: EvPeriodic) -> "InfiniteModelPath":
        """A path whose indices are known to be >= 1, such as a shift."""
        mu = object.__new__(InfiniteModelPath)
        _set(mu, "graph", graph)
        _set(mu, "z", z)
        _set(mu, "idx", idx)
        return mu

    def range(self) -> PairPoint:
        # r(first edge) = (z, x_{n_1})
        return PairPoint(self.z, self.graph.x_point(self.idx.item(0)))

    def edge_at(self, i: int) -> ModelEdge:
        """The i-th edge, i >= 1."""
        sys = self.graph.z_system
        return ModelEdge(
            sys.power(self.z, -i), self.graph.x_point(self.idx.item(i)), self.idx.item(i - 1)
        )

    def prefix(self, k: int) -> FinitePath:
        g = self.graph
        return param_f_k(g, self.z, g.x_point(self.idx.item(k)), self.idx.prefix(k))

    def drop(self, n: int) -> "InfiniteModelPath":
        g = self.graph
        return InfiniteModelPath._unchecked(g, g.z_system.power(self.z, -n), self.idx.shifted(n))

    def cons(self, m: int) -> "InfiniteModelPath":
        if m < 1:
            raise BoundaryError("edge indices must be >= 1")
        g = self.graph
        return InfiniteModelPath._unchecked(g, g.z_system.forward(self.z), self.idx.cons(m))

    def __eq__(self, other):
        if not isinstance(other, InfiniteModelPath):
            return NotImplemented
        return self.graph is other.graph and self.z == other.z and self.idx == other.idx

    def __hash__(self):
        return hash((id(self.graph), self.z, self.idx))

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
        if any(v < 1 for v in self.labels.head + self.labels.cycle):
            raise BoundaryError("loop labels must be >= 1")

    @staticmethod
    def _unchecked(graph, labels: EvPeriodic) -> "InfiniteDiscretePath":
        """A word whose labels are known to be >= 1, such as a shift."""
        mu = object.__new__(InfiniteDiscretePath)
        _set(mu, "graph", graph)
        _set(mu, "labels", labels)
        return mu

    def range(self):
        return self.graph.vertex

    def edge_at(self, i: int) -> DiscreteEdge:
        return self.graph.edge(self.labels.item(i - 1))

    def prefix(self, k: int) -> FinitePath:
        g = self.graph
        if k == 0:
            return vertex_path(g, g.vertex)
        return FinitePath(g, tuple(g.edge(m) for m in self.labels.prefix(k)))

    def drop(self, n: int) -> "InfiniteDiscretePath":
        return InfiniteDiscretePath._unchecked(self.graph, self.labels.shifted(n))

    def cons(self, m: int) -> "InfiniteDiscretePath":
        self.graph.edge(m)  # rejects m < 1
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
        word = tuple(graph_f.edge(e.m) for e in mu.path.edges)
        loop_path = FinitePath(graph_f, word) if word else vertex_path(graph_f, graph_f.vertex)
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
        if rest == "@":
            return FiniteBoundaryPath(vertex_path(graph, graph.vertex))
        edges = tuple(graph.edge(int(t)) for t in rest.split())
        return FiniteBoundaryPath(FinitePath(graph, edges))
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
