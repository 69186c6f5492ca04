"""Boundary path spaces, the shift, and the convergence oracle.

For the model graph every vertex is singular, so the boundary consists
of all finite paths together with the infinite ones.  A model path,
finite or infinite, is one ``ModelPath``: a base point, held as an
anchor and an orbit exponent, an index word and, on a finite path, the
last x coordinate; a loop-graph path is one ``LoopPath``, its word of
loop labels.  An infinite word is eventually periodic, the exact
shift-invariant dense subfamily on which equality and the shift are
decidable.  The topology is never materialised; it is probed through a
three-condition convergence test on finitely described sequences, with
an explicit "undecidable for this description" outcome for anything
outside the supported descriptions.
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
        raise BoundaryError("cycle must be non-empty")
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
    validated here, once.  The public constructor refuses an empty cycle;
    ``ModelPath`` and ``LoopPath`` build one by ``_canonical(idx, ())``
    for a finite word of length ``len(head)``, on which ``item`` (below
    the length), ``shifted`` (by at most the length), ``same_tail``,
    ``cons`` and ``prefix`` mean the same as on an infinite one.
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
        if not c:  # two finite words
            return True
        r = (max(n - len(head), 0) - max(m - len(h), 0)) % len(c)
        return r == 0 if cycle == c else cycle[r:] + cycle[:r] == c

    def cons(self, value: int) -> "EvPeriodic":
        """``value`` prepended, in O(1): the head keeps its last item, so
        the pair stays canonical, unless the head is empty and ``value``
        repeats the cycle's last item, which rotates the cycle instead."""
        if value < 1:
            raise BoundaryError("edge indices must be >= 1")
        head, cycle = self.head, self.cycle
        if not head and cycle and value == cycle[-1]:
            return EvPeriodic._canonical((), (value,) + cycle[:-1])
        return EvPeriodic._canonical((value,) + head, cycle)

    def prefix(self, n: int) -> tuple[int, ...]:
        return tuple(self.item(i) for i in range(n))


# ---------------------------------------------------------------------------
# boundary paths
# ---------------------------------------------------------------------------

INFINITE = float("inf")


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

    ``FiniteBoundaryPath(path)`` gives a ``ModelPath`` on a model graph
    and a ``LoopPath`` on the loop graph, where every vertex is singular;
    a path of a ``DiscreteGraph`` stays one, with a domain checked to be
    singular, and that graph numbers no edges, so its ``cons`` refuses.
    ``drop``, ``cons`` and ``param_f`` build paths without a check, since
    a check could not fail: a shift or an extension at the range end keeps
    a singular domain, and ``param_f``'s edges compose by their formula.
    """

    __slots__ = ("path",)

    def __new__(cls, path: FinitePath):
        if isinstance(path.graph, OneVertexLoopGraph):
            return LoopPath(path.graph, tuple(e.label for e in path.edges))
        if not isinstance(path.graph, ModelGraph):
            return object.__new__(cls)
        v = path.d()  # (rho^-k(z), x): the anchor at exponent k, and x
        idx = tuple(e.m for e in path.edges)
        mu = ModelPath._unchecked(path.graph, v.left, len(idx), EvPeriodic._canonical(idx, ()), v.right)
        mu._path = path
        return mu

    def __init__(self, path: FinitePath):
        if not path.graph.is_singular(path.d()):
            raise BoundaryError(f"domain vertex {path.d()!r} is regular")
        self.path = path

    @staticmethod
    def _unchecked(path: FinitePath) -> "FiniteBoundaryPath":
        """A path whose domain is known to be singular: the domain of a
        boundary path it was cut from or extended at the range end."""
        mu = object.__new__(FiniteBoundaryPath)
        mu.path = path
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
        return p.edges[n:] == q.edges[m:] if rest else p.d() == q.d()

    def shift_period(self) -> None:
        """None: shifts of a finite path have pairwise different lengths."""
        return None

    def cons(self, m: int):
        raise BoundaryError(f"cons needs edges numbered at each vertex, and {self.graph!r} has none")

    def __len__(self):
        return self.length

    def __eq__(self, other):
        if not isinstance(other, FiniteBoundaryPath):
            return NotImplemented
        return self.path == other.path

    def __hash__(self):
        return hash(self.path)

    def __repr__(self):
        return f"FiniteBoundaryPath(path={self.path!r})"

    def __reduce__(self):
        # copy through the public constructor, which takes the path
        return FiniteBoundaryPath, (self.path,)


class ModelPath:
    """A model-graph boundary path, finite or infinite, in orbit
    coordinates: an anchor point a, an integer exponent e with base point
    z = rho^e(a), an index word and x.  Its edges are
    (rho^-i(z), x_{n_{i+1}}, n_i) for i = 1, 2, ...; on a finite path of
    length k the last edge is (rho^-k(z), x, n_k), so ``x`` is the last
    edge's x coordinate (the vertex's, for k = 0), and it is ``None`` on an
    infinite path.  The word is an ``EvPeriodic``, whose empty cycle marks
    a finite word of length ``len(head)``.

    ``drop(n)`` is exponent - n with the shifted word, and ``cons(m)`` is
    exponent + 1 with m prepended, so neither takes a dynamics step nor
    builds an edge, and every path cut from or extended from one path
    shares its anchor.  Two such paths (or their edges) compare by
    integers: rho^e(a) = rho^f(a) exactly when the system's period, if
    any, divides e - f.  ``z`` is built on first read and kept, and so is
    a finite path's ``path``, by ``param_f_k``; built from a validated path
    (``FiniteBoundaryPath(FinitePath(...))``), the anchor is its last
    edge's z at exponent k, and the path is kept as given.  ``idx`` is the
    index data: a tuple on a finite path, the ``EvPeriodic`` on an
    infinite one.
    """

    __slots__ = ("graph", "anchor", "exponent", "word", "x", "length", "_path", "_z")

    @staticmethod
    def _unchecked(graph: ModelGraph, anchor: Point, exponent: int, word: EvPeriodic, x: Point | None):
        """The path with base point rho^exponent(anchor), such as a shift,
        an extension or a sample."""
        mu = object.__new__(ModelPath)
        mu.graph = graph
        mu.anchor = anchor
        mu.exponent = exponent
        mu.word = word
        mu.x = x
        mu.length = INFINITE if x is None else len(word.head)
        mu._path = None
        mu._z = anchor if exponent == 0 else None
        return mu

    @property
    def path(self) -> FinitePath:
        """The finite path, built on first read and kept; an infinite path
        has none, so reading it is an ``AttributeError``.  (A property, not
        ``__getattr__``, which would slow every attribute read.)"""
        path = self._path
        if path is None:
            if self.x is None:
                raise AttributeError("an infinite path has no finite path")
            path = self._path = param_f_k(self.graph, self.z, self.x, self.word.head)
        return path

    @property
    def idx(self) -> tuple[int, ...] | EvPeriodic:
        return self.word if self.x is None else self.word.head

    @property
    def z(self) -> Point:
        """The base point rho^exponent(anchor)."""
        z = self._z
        if z is None:
            z = self._z = self.graph.z_system.power(self.anchor, self.exponent)
        return z

    def _same_point(self, e: int, other: "ModelPath", f: int) -> bool:
        """Whether rho^e(self.anchor) = rho^f(other.anchor); a shared
        anchor decides it by the exponents, with no dynamics step."""
        sys = self.graph.z_system
        if self.anchor is other.anchor and sys is other.graph.z_system:
            if e == f:
                return True
            return sys.period is not None and (e - f) % sys.period == 0
        return sys.power(self.anchor, e) == other.graph.z_system.power(other.anchor, f)

    def _x_at(self, i: int) -> Point:
        """The x coordinate of the domain of edge i (of the range, i = 0)."""
        return self.x if i == self.length else self.graph.x_point(self.word.item(i))

    def range(self) -> PairPoint:
        return PairPoint(self.z, self._x_at(0))

    def edge_at(self, i: int) -> ModelEdge:
        """The i-th edge, 1 <= i <= length."""
        power = self.graph.z_system.power
        return ModelEdge(power(self.anchor, self.exponent - i), self._x_at(i), self.word.item(i - 1))

    def same_edge(self, i: int, other: "ModelPath", j: int) -> bool:
        """By index, x point and z, without building either edge."""
        if self.word.item(i - 1) != other.word.item(j - 1):
            return False
        x, y = self._x_at(i), other._x_at(j)
        return (x is y or x == y) and self._same_point(self.exponent - i, other, other.exponent - j)

    def same_tail(self, n: int, other, m: int) -> bool:
        """By words, x points and exponents: on a shared anchor no
        dynamics step."""
        return (
            isinstance(other, ModelPath)
            and self.graph is other.graph
            and self.word.same_tail(n, other.word, m)
            and (self.x is other.x or self.x == other.x)
            and self._same_point(self.exponent - n, other, other.exponent - m)
        )

    def prefix(self, k: int) -> FinitePath:
        if k > self.length:
            raise BoundaryError("prefix longer than the path")
        return param_f_k(self.graph, self.z, self._x_at(k), self.word.prefix(k))

    def drop(self, n: int) -> "ModelPath":
        if n > self.length:
            raise ShiftDomainError("the shift is undefined on zero-length boundary paths")
        word = self.word.shifted(n)
        return ModelPath._unchecked(self.graph, self.anchor, self.exponent - n, word, self.x)

    def shift_period(self) -> tuple[int, int] | None:
        """None on a finite path, whose shifts have pairwise different
        lengths.  Shifts of an infinite path share the anchor, so the
        period of the system must also divide their exponent gap."""
        period = self.graph.z_system.period
        if self.x is not None or period is None:
            return None
        return len(self.word.head), math.lcm(len(self.word.cycle), period)

    def cons(self, m: int) -> "ModelPath":
        word = self.word.cons(m)
        return ModelPath._unchecked(self.graph, self.anchor, self.exponent + 1, word, self.x)

    def __len__(self):
        if self.x is None:
            raise TypeError("infinite path; use .length")
        return self.length

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ModelPath):
            return NotImplemented
        if self.graph is not other.graph or self.word != other.word or self.x != other.x:
            return False
        if self.anchor is other.anchor:
            return self._same_point(self.exponent, other, other.exponent)
        return self.z == other.z

    def __hash__(self):
        return hash((id(self.graph), self.z, self.word, self.x))

    def __repr__(self):
        return f"ModelPath(graph={self.graph!r}, z={self.z!r}, idx={self.idx!r}, x={self.x!r})"

    def __reduce__(self):
        # copy through the public constructor
        return param_f, (self.graph, self.z, self.idx, self.x)


@dataclass(frozen=True)
class LoopPath:
    """A boundary path of the one-vertex loop graph, finite or infinite:
    its word of loop labels, an ``EvPeriodic`` whose empty cycle marks a
    finite word, as in ``ModelPath``.  A tuple of labels, each an ``int``
    >= 1 (a bool is not), also gives a finite word.  Every label is a loop
    at the one vertex, so each method reads the word alone."""

    graph: OneVertexLoopGraph
    labels: EvPeriodic

    def __post_init__(self):
        if not isinstance(self.graph, OneVertexLoopGraph):
            raise BoundaryError(f"a loop word needs the loop graph, not {self.graph!r}")
        if not isinstance(self.labels, EvPeriodic):
            labels = tuple(self.labels)
            if not all(type(m) is int and m >= 1 for m in labels):
                raise BoundaryError("edge indices must be >= 1")
            _set(self, "labels", EvPeriodic._canonical(labels, ()))

    @property
    def length(self) -> int | float:
        return INFINITE if self.labels.cycle else len(self.labels.head)

    @property
    def path(self) -> FinitePath:
        """The finite path that reads a finite word; an infinite one has none."""
        if self.labels.cycle:
            raise AttributeError("an infinite path has no finite path")
        return self.graph.path(self.labels.head)

    def range(self):
        return self.graph.vertex

    def edge_at(self, i: int) -> DiscreteEdge:
        return self.graph.edge(self.labels.item(i - 1))

    def same_edge(self, i: int, other: "LoopPath", j: int) -> bool:
        return self.labels.item(i - 1) == other.labels.item(j - 1)

    def same_tail(self, n: int, other, m: int) -> bool:
        same_graph = isinstance(other, LoopPath) and self.graph is other.graph
        return same_graph and self.labels.same_tail(n, other.labels, m)

    def prefix(self, k: int) -> FinitePath:
        if k > self.length:
            raise BoundaryError("prefix longer than the path")
        return self.graph.path(self.labels.prefix(k))

    def drop(self, n: int) -> "LoopPath":
        if n > self.length:
            raise ShiftDomainError("the shift is undefined on zero-length boundary paths")
        return LoopPath(self.graph, self.labels.shifted(n))

    def shift_period(self) -> tuple[int, int] | None:
        """The canonical head and cycle of an infinite word; None if finite."""
        cycle = self.labels.cycle
        return (len(self.labels.head), len(cycle)) if cycle else None

    def cons(self, m: int) -> "LoopPath":
        return LoopPath(self.graph, self.labels.cons(m))

    def __len__(self):
        if self.labels.cycle:
            raise TypeError("infinite path; use .length")
        return self.length


BoundaryPath = FiniteBoundaryPath | ModelPath | LoopPath


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


def param_f(graph: ModelGraph, z: Point, idx: EvPeriodic | tuple[int, ...], x: Point | None = None):
    """The ``ModelPath`` anchored at z with index data idx: infinite for
    an ``EvPeriodic`` (x is not read), and for a finite index tuple the
    path ``param_f_k(graph, z, x, idx)``, built only when read."""
    if isinstance(idx, EvPeriodic):
        return ModelPath._unchecked(graph, z, 0, idx, None)
    if min(idx, default=1) < 1:
        raise BoundaryError("edge indices must be >= 1")
    if x is None:
        raise BoundaryError("a finite index tuple needs x, the last edge's x coordinate")
    return ModelPath._unchecked(graph, z, 0, EvPeriodic._canonical(tuple(idx), ()), x)


def homeo_h(graph: ModelGraph, z: Point, nu) -> BoundaryPath:
    """The boundary homeomorphism Z x dF -> dE for one-point X: the word
    (m_1, ..., m_k) maps to the same word anchored at z: the path with
    edges (rho^-i(z), *, m_i)."""
    if not graph.x_is_point():
        raise BoundaryError("h is only defined over a one-point X backend")
    if not isinstance(nu, LoopPath):
        raise BoundaryError(f"not a boundary path of the loop graph: {nu!r}")
    return ModelPath._unchecked(graph, z, 0, nu.labels, None if nu.labels.cycle else graph.x_point(1))


def homeo_h_inv(graph_f: OneVertexLoopGraph, mu: BoundaryPath) -> tuple[Point, BoundaryPath]:
    if not (isinstance(mu, ModelPath) and mu.graph.x_is_point()):
        raise BoundaryError("h_inv expects a path of the one-point-X model graph")
    return mu.z, LoopPath(graph_f, mu.word)


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

    def term(self, n: int) -> ModelPath:
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
        return param_f(self.graph, z, self.idx, self.x_last)


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


def _keyed(kind: str, rest: str, *form: str) -> list[str]:
    """The values of a line's ``key=value`` fields, one space apart, which
    must have the keys of ``form`` in its order."""
    fields, keys = rest.split(" "), [f[: f.index("=") + 1] for f in form]
    if len(fields) != len(form) or not all(map(str.startswith, fields, keys)):
        raise BoundaryError(f"a {kind} line has the form {kind} {' '.join(form)}")
    return [f.removeprefix(k) for f, k in zip(fields, keys)]


def path_to_line(mu: BoundaryPath) -> str:
    """One-line format: ``INF z=<point> idx=<pre>|<cycle>`` for infinite
    model paths, ``FIN <edges>`` / ``FIN @<vertex>`` for finite ones, and
    the W-suffixed variants for loop-graph words."""
    if isinstance(mu, LoopPath):
        word = mu.labels
        if word.cycle:
            return f"INFW idx={_ev_periodic_token(word)}"
        return "FINW " + (" ".join(map(str, word.head)) or "@")
    if mu.length == INFINITE:
        return f"INF z={mu.z.token()} idx={_ev_periodic_token(mu.word)}"
    p = mu.path
    if not isinstance(p.graph, ModelGraph):
        raise BoundaryError(f"a FIN line needs a model graph, not {p.graph!r}")
    if len(p) == 0:
        return f"FIN @{p.base.token()}"
    toks = [f"({e.z.token()};{e.x.token()};{e.m})" for e in p.edges]
    return "FIN " + " ".join(toks)


def path_from_line(line: str, graph) -> BoundaryPath:
    """Parse ``path_to_line``; every point must belong to the factor it
    stands for (an edge's z and x, a vertex's (z; x), the base point z).
    A line that lacks a key or a field of its form names the form."""
    line = line.strip()
    kind, _, rest = line.partition(" ")
    if kind in ("INFW", "FINW") and not isinstance(graph, OneVertexLoopGraph):
        raise BoundaryError(f"a {kind} line needs the loop graph, not {graph!r}")
    if kind in ("INF", "FIN") and not isinstance(graph, ModelGraph):
        raise BoundaryError(f"a {kind} line needs a model graph, not {graph!r}")
    if kind == "INF":
        z_tok, idx_tok = _keyed(kind, rest, "z=<point>", "idx=<head>|<cycle>")
        z = factor_point(graph.z_system.backend, z_tok, "the Z factor")
        return param_f(graph, z, _ev_periodic_from_token(idx_tok))
    if kind == "INFW":
        return LoopPath(graph, _ev_periodic_from_token(*_keyed(kind, rest, "idx=<head>|<cycle>")))
    if kind == "FINW":
        labels = () if rest == "@" else tuple(int(t) for t in rest.split())
        if not labels and rest != "@":
            raise BoundaryError("a FINW line lists loop labels or @")
        return LoopPath(graph, labels)
    if kind == "FIN":
        if rest.startswith("@"):
            v = factor_point(graph.vertex_backend, rest[1:], "the vertex space Z x X")
            return FiniteBoundaryPath(vertex_path(graph, v))
        fields = [split_top_level(t[1:-1]) if t[:1] + t[-1:] == "()" else () for t in rest.split()]
        if not fields or any(len(f) != 3 for f in fields):
            raise BoundaryError("a FIN line has the form FIN (<z>;<x>;<m>) ... or FIN @<vertex>")
        z_backend, x_backend = graph.z_system.backend, graph.x_backend
        edges = []
        for z_tok, x_tok, m_tok in fields:
            z = factor_point(z_backend, z_tok, "the Z factor")
            edges.append(ModelEdge(z, factor_point(x_backend, x_tok, "the X factor"), int(m_tok)))
        return FiniteBoundaryPath(FinitePath(graph, tuple(edges)))
    raise ValueError(f"unknown line kind {kind!r}")
