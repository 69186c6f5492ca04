"""Topological graphs, finite paths and the minimality/contracting checks.

Two graph families are supported exactly:

* the model graph over a minimal system: vertices Z x X, edges
  Z x X x N with domain (z, x, m) -> (z, x) and range
  (z, x, m) -> (rho(z), x_m), where (x_m) is the canonical dense
  sequence of the X backend;
* discrete directed graphs (finite ones ingested from JSON, plus the
  builtin one-vertex graph with countably many loops).

Open subsets of path spaces are restricted to boxes: per-coordinate
space boxes together with finite edge-index sets.  Images
under the domain/range maps and under powers of the dynamics are again
boxes, which makes the contracting conditions exactly decidable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spaces import (
    Box,
    MinimalSystem,
    PairPoint,
    Point,
    ProductBackend,
    SpaceBackend,
    _set,
    box_contains,
    box_intersect,
    box_rep_point,
    dense_sequence,
)


class GraphError(ValueError):
    pass


class CompositionError(GraphError):
    pass


# ---------------------------------------------------------------------------
# edges and graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelEdge:
    """Edge (z, x, m) of the model graph; m >= 1 indexes the dense sequence."""

    z: Point
    x: Point
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("edge index must be >= 1")


@dataclass(frozen=True)
class DiscreteEdge:
    src: str
    dst: str
    label: str | int


Edge = ModelEdge | DiscreteEdge


class ModelGraph:
    """The graph over Z x X driven by a minimal system on Z."""

    def __init__(self, z_system: MinimalSystem, x_backend: SpaceBackend):
        self.z_system = z_system
        self.x_backend = x_backend
        self.vertex_backend = ProductBackend(z_system.backend, x_backend)
        self._x_cache: dict[int, Point] = {}

    def x_point(self, m: int) -> Point:
        if m not in self._x_cache:
            self._x_cache[m] = dense_sequence(self.x_backend, m)
        return self._x_cache[m]

    def d(self, e: ModelEdge) -> PairPoint:
        return PairPoint(e.z, e.x)

    def r(self, e: ModelEdge) -> PairPoint:
        return PairPoint(self.z_system.forward(e.z), self.x_point(e.m))

    def edge_from(self, vertex: PairPoint, m: int) -> ModelEdge:
        """The edge of index m whose domain is ``vertex``."""
        return ModelEdge(vertex.left, vertex.right, m)

    def is_singular(self, vertex: PairPoint) -> bool:
        # every vertex receives edges of unboundedly many indices
        return True

    def x_is_point(self) -> bool:
        return self.x_backend.basic_count == 1

    def __repr__(self):
        return f"<ModelGraph Z={self.z_system.name} X={self.x_backend!r}>"


class OneVertexLoopGraph:
    """A single vertex with countably many loops, labelled 1, 2, 3, ...

    The vertex is singular: it receives infinitely many edges.
    """

    vertex = "*"

    def d(self, e: DiscreteEdge) -> str:
        return self.vertex

    def r(self, e: DiscreteEdge) -> str:
        return self.vertex

    def edge(self, label: int) -> DiscreteEdge:
        if label < 1:
            raise ValueError("loop labels start at 1")
        return DiscreteEdge(self.vertex, self.vertex, label)

    def edge_from(self, vertex, m: int) -> DiscreteEdge:
        return self.edge(m)

    def is_singular(self, vertex) -> bool:
        return True

    def __repr__(self):
        return "<OneVertexLoopGraph>"


class DiscreteGraph:
    """A finite directed graph; d(e) = source, r(e) = target.

    A vertex is regular when it receives at least one and finitely many
    edges, unless an explicit singular override is given.
    """

    def __init__(self, vertices, edges, singular_override=()):
        self.vertices = list(vertices)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise GraphError("duplicate vertex names")
        self.edges = []
        for src, dst, label in edges:
            if src not in vset or dst not in vset:
                raise GraphError(f"edge ({src!r}, {dst!r}, {label!r}) uses unknown vertex")
            self.edges.append(DiscreteEdge(src, dst, label))
        unknown = set(singular_override) - vset
        if unknown:
            raise GraphError(f"singular override names unknown vertices: {sorted(unknown)}")
        self.singular_override = frozenset(singular_override)
        self._indegree = {v: 0 for v in self.vertices}
        for e in self.edges:
            self._indegree[e.dst] += 1

    def d(self, e: DiscreteEdge) -> str:
        return e.src

    def r(self, e: DiscreteEdge) -> str:
        return e.dst

    def is_regular(self, vertex) -> bool:
        if vertex in self.singular_override:
            return False
        return self._indegree[vertex] > 0

    def is_singular(self, vertex) -> bool:
        return not self.is_regular(vertex)

    def regular_vertices(self) -> list:
        return [v for v in self.vertices if self.is_regular(v)]

    def adjacency(self) -> dict:
        """counts[(v, w)] = number of edges from v to w (d = v, r = w)."""
        counts: dict[tuple, int] = {}
        for e in self.edges:
            counts[(e.src, e.dst)] = counts.get((e.src, e.dst), 0) + 1
        return counts

    def __repr__(self):
        return f"<DiscreteGraph |V|={len(self.vertices)} |E|={len(self.edges)}>"


TopGraph = ModelGraph | OneVertexLoopGraph | DiscreteGraph


def build_model_graph(z_system: MinimalSystem, x_backend: SpaceBackend) -> ModelGraph:
    """Assemble the model graph; both factors must be spaces that declare
    themselves model factors (``SpaceBackend.model_factor``)."""
    if not x_backend.model_factor:
        raise GraphError(f"unsupported X backend {x_backend!r}")
    if not z_system.backend.model_factor:
        raise GraphError(f"unsupported Z system {z_system!r}")
    return ModelGraph(z_system, x_backend)


# ---------------------------------------------------------------------------
# finite paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinitePath:
    """Edges (e_1, ..., e_n) with d(e_i) = r(e_{i+1}); n = 0 stores a vertex.

    The graph is carried along so endpoints can be computed; graphs are
    compared by identity.

    Public construction checks every junction.  Three kinds of path are
    built by ``_unchecked`` instead, because a check of their junctions
    could not fail: slices of a valid path (the shifts and prefixes of a
    finite boundary path), the joins made by ``compose_paths``, which
    checks its one new junction first, and a boundary path's ``cons``,
    which builds its new edge from ``range()`` and so needs no check.
    """

    graph: TopGraph
    edges: tuple[Edge, ...]
    base: object = None  # vertex, for zero-length paths

    def __post_init__(self):
        if not self.edges and self.base is None:
            raise GraphError("zero-length path needs a vertex")
        g = self.graph
        for i in range(len(self.edges) - 1):
            if g.d(self.edges[i]) != g.r(self.edges[i + 1]):
                raise CompositionError(
                    f"edges {i + 1} and {i + 2} do not compose: "
                    f"d = {g.d(self.edges[i])!r} vs r = {g.r(self.edges[i + 1])!r}"
                )

    @staticmethod
    def _unchecked(graph: TopGraph, edges: tuple[Edge, ...], base=None) -> "FinitePath":
        """A path whose junctions are known to compose (see the class
        docstring); ``base`` is the vertex of a zero-length path."""
        path = object.__new__(FinitePath)
        _set(path, "graph", graph)
        _set(path, "edges", edges)
        _set(path, "base", base)
        return path

    def __len__(self):
        return len(self.edges)

    def r(self):
        return self.graph.r(self.edges[0]) if self.edges else self.base

    def d(self):
        return self.graph.d(self.edges[-1]) if self.edges else self.base

    def __eq__(self, other):
        if not isinstance(other, FinitePath):
            return NotImplemented
        if self.graph is not other.graph:
            return False
        if self.edges != other.edges:
            return False
        return bool(self.edges) or self.base == other.base

    def __hash__(self):
        return hash((id(self.graph), self.edges, None if self.edges else self.base))


def vertex_path(graph: TopGraph, vertex) -> FinitePath:
    return FinitePath(graph, (), vertex)


def compose_paths(mu: FinitePath, nu: FinitePath) -> FinitePath:
    """Concatenate mu followed by nu; requires d(mu) = r(nu) exactly."""
    if mu.graph is not nu.graph:
        raise CompositionError("paths live in different graphs")
    if len(mu) == 0 and len(nu) == 0:
        if mu.base != nu.base:
            raise CompositionError(f"vertex mismatch: {mu.base!r} vs {nu.base!r}")
        return mu
    if mu.d() != nu.r():
        raise CompositionError(f"junction mismatch: d(mu) = {mu.d()!r} but r(nu) = {nu.r()!r}")
    if len(nu) == 0:
        return mu
    if len(mu) == 0:
        return nu
    return FinitePath._unchecked(mu.graph, mu.edges + nu.edges)


def orbit_plus(graph: TopGraph, vertex, depth: int) -> set:
    """All ranges of paths out of ``vertex`` with length and edge indices
    bounded by ``depth``, in the model graph or the one-vertex loop graph."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if isinstance(graph, ModelGraph):
        out = {vertex}
        z = vertex.left
        for n in range(1, depth + 1):
            zn = graph.z_system.power(z, n)
            for m in range(1, depth + 1):
                out.add(PairPoint(zn, graph.x_point(m)))
        return out
    if isinstance(graph, OneVertexLoopGraph):
        return {graph.vertex}
    raise GraphError(f"no orbit for {graph!r}")


def param_f_k(graph: ModelGraph, z: Point, x: Point, idx: tuple[int, ...]) -> FinitePath:
    """The length-k path with edges (rho^-i(z), x_{n_{i+1}}, n_i) and final
    edge (rho^-k(z), x, n_k); k = 0 gives the vertex (z, x)."""
    k = len(idx)
    if k == 0:
        return vertex_path(graph, PairPoint(z, x))
    sys = graph.z_system
    xs = [graph.x_point(m) for m in idx[1:]] + [x]
    return FinitePath(
        graph, tuple(ModelEdge(sys.power(z, -i), xs[i - 1], idx[i - 1]) for i in range(1, k + 1))
    )


def witness_path(graph: ModelGraph, x: Point, z: Point, k: int) -> FinitePath:
    """The length-(k+1) path from (rho^-(k+1) z, x) to (z, x_1): first an
    index-1 edge, then k index-k edges walking the inverse orbit."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return param_f_k(graph, z, x, (1,) + (k,) * k)


# ---------------------------------------------------------------------------
# path boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeBox:
    """A box of model-graph edges: (z box) x (x box) x (finite index set)."""

    zbox: Box
    xbox: Box
    indices: frozenset[int]

    def __post_init__(self):
        if any(i < 1 for i in self.indices):
            raise ValueError("edge indices start at 1")

    def is_empty(self) -> bool:
        return self.zbox.is_empty() or self.xbox.is_empty() or not self.indices

    def contains(self, e: ModelEdge) -> bool:
        return (
            box_contains(self.zbox, e.z)
            and box_contains(self.xbox, e.x)
            and e.m in self.indices
        )

    def intersect(self, other: "EdgeBox") -> "EdgeBox":
        return EdgeBox(
            box_intersect(self.zbox, other.zbox),
            box_intersect(self.xbox, other.xbox),
            self.indices & other.indices,
        )


@dataclass(frozen=True)
class OpenPathBox:
    """A box of length-n paths: one EdgeBox per coordinate.

    Membership additionally imposes the path constraints, so the box
    denotes (product box) intersected with the path space.
    """

    graph: ModelGraph
    coords: tuple[EdgeBox, ...]

    def __post_init__(self):
        if not self.coords:
            raise GraphError("path boxes must have length >= 1")

    def __len__(self):
        return len(self.coords)

    def contains(self, path: FinitePath) -> bool:
        if len(path) != len(self.coords):
            return False
        return all(cb.contains(e) for cb, e in zip(self.coords, path.edges))

    def r_image(self):
        """(z box, x points) of ranges of member paths: the x part is the
        dense-sequence points of the first coordinate's indices."""
        first = self.coords[0]
        zimg = self.graph.z_system.translate_box(first.zbox, 1)
        xpts = [self.graph.x_point(m) for m in sorted(first.indices)]
        return zimg, xpts

    def d_image(self):
        """The box of domains of member paths: last coordinate's z and x.

        Exact for path-saturated boxes (the witness boxes are: the final
        x is free and every base point in the translate is realised); in
        general it is a superset of the set-level image.
        """
        last = self.coords[-1]
        return last.zbox, last.xbox

    def _z_chain(self):
        """The exact box of admissible base points for the last edge."""
        sys = self.graph.z_system
        n = len(self.coords)
        zc = self.coords[-1].zbox
        for i, cb in enumerate(self.coords[:-1]):
            zc = box_intersect(zc, sys.translate_box(cb.zbox, -(n - 1 - i)))
        return zc

    def _index_choice(self, i: int):
        """The least index of coordinate i whose dense-sequence value lies
        in the x box of coordinate i-1 (any index for i = 0), or None if
        there is none."""
        g = self.graph
        xbox = self.coords[i - 1].xbox if i else None
        for m in sorted(self.coords[i].indices):
            if xbox is None or box_contains(xbox, g.x_point(m)):
                return m
        return None

    def sample_path(self) -> FinitePath | None:
        """An explicit member path, or None exactly when the box is empty:
        an empty z box empties the z chain, and an empty x box or index set
        leaves some coordinate without an index choice."""
        g = self.graph
        n = len(self.coords)
        zc = self._z_chain()
        if zc.is_empty() or self.coords[-1].xbox.is_empty():
            return None
        chosen: list[int] = []
        for i in range(n):
            m = self._index_choice(i)
            if m is None:
                return None
            chosen.append(m)
        # the last edge's z is rho^-n of the base point of the range
        z = g.z_system.power(box_rep_point(zc), n)
        return param_f_k(g, z, box_rep_point(self.coords[-1].xbox), tuple(chosen))

    def is_empty(self) -> bool:
        """Exact emptiness, decided by ``sample_path``."""
        return self.sample_path() is None


def pitchfork(u: OpenPathBox, v: OpenPathBox) -> OpenPathBox | None:
    """Truncate both boxes to the minimum length and intersect them
    coordinatewise; None is the empty marker."""
    k = min(len(u), len(v))
    coords = tuple(a.intersect(b) for a, b in zip(u.coords[:k], v.coords[:k]))
    if any(cb.is_empty() for cb in coords):
        return None
    return OpenPathBox(u.graph, coords)


# ---------------------------------------------------------------------------
# contracting witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractingWitness:
    """V = (z box) x (x box) in the vertex space, plus path boxes U_1..U_N."""

    graph: ModelGraph
    v_zbox: Box
    v_xbox: Box
    path_boxes: tuple[OpenPathBox, ...]

    @property
    def n(self) -> int:
        return len(self.path_boxes)


class WitnessSearchError(GraphError):
    pass


def make_witness_path_box(graph: ModelGraph, u_zbox: Box, k: int) -> OpenPathBox:
    """The box of all witness paths with z ranging over ``u_zbox`` and the
    final x coordinate free."""
    sys = graph.z_system
    full_x = graph.x_backend.full_box()
    coords = [EdgeBox(sys.translate_box(u_zbox, -1), full_x, frozenset({1}))]
    for i in range(2, k + 2):
        coords.append(EdgeBox(sys.translate_box(u_zbox, -i), full_x, frozenset({k})))
    return OpenPathBox(graph, tuple(coords))


def find_contracting_witness(
    graph: ModelGraph, u_zbox: Box, v_xbox: Box, cap: int = 200
) -> ContractingWitness:
    """Find the least N whose inverse-orbit translates of ``u_zbox`` cover
    Z, and assemble the witness V = u_zbox x v_xbox with path boxes
    U_1..U_N.

    Preconditions: both boxes non-empty, the closure of V a proper
    subset of the vertex space, and the first dense-sequence point of X
    inside ``v_xbox`` (the ranges of all witness paths have x = x_1).
    """
    sys = graph.z_system
    if u_zbox.is_empty() or v_xbox.is_empty():
        raise WitnessSearchError("U and V_X must be non-empty")
    x1 = graph.x_point(1)
    if not box_contains(v_xbox, x1):
        raise WitnessSearchError("V_X must contain the first dense-sequence point x_1")
    if u_zbox.point_outside_closure() is None and v_xbox.point_outside_closure() is None:
        raise WitnessSearchError("closure(U x V_X) must be a proper subset of the vertex space")
    full_z = sys.backend.full_box()
    translates: list[Box] = []
    n = 0
    while n < cap:
        n += 1
        translates.append(sys.translate_box(u_zbox, -(n + 1)))
        if full_z.covered_by(translates):
            break
    else:
        raise WitnessSearchError(f"no cover of Z within {cap} translates")
    boxes = tuple(make_witness_path_box(graph, u_zbox, k) for k in range(1, n + 1))
    return ContractingWitness(graph, u_zbox, v_xbox, boxes)


@dataclass(frozen=True)
class WitnessReport:
    ranges_inside: bool
    pairwise_disjoint: bool
    domains_cover_strictly: bool
    exterior_point: object
    details: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.ranges_inside and self.pairwise_disjoint and self.domains_cover_strictly


def verify_contracting_witness(witness: ContractingWitness) -> WitnessReport:
    """Check the three contracting conditions, each exactly:

    (i)   ranges of every path box lie inside V;
    (ii)  the path boxes are pairwise pitchfork-disjoint;
    (iii) the closure of V is covered by the union of the domains, and
          some explicit point of that union lies outside the closure.
    """
    details = []

    cond_i = True
    for idx, pb in enumerate(witness.path_boxes):
        zimg, xpts = pb.r_image()
        if not zimg.covered_by([witness.v_zbox], closure=False):
            cond_i = False
            details.append(f"U_{idx + 1}: z-range escapes V")
        if not all(box_contains(witness.v_xbox, x) for x in xpts):
            cond_i = False
            details.append(f"U_{idx + 1}: x-range escapes V")

    cond_ii = True
    for a in range(len(witness.path_boxes)):
        for b in range(a + 1, len(witness.path_boxes)):
            if pitchfork(witness.path_boxes[a], witness.path_boxes[b]) is not None:
                cond_ii = False
                details.append(f"U_{a + 1} and U_{b + 1} are not pitchfork-disjoint")

    d_zboxes = [pb.d_image()[0] for pb in witness.path_boxes]
    covers = witness.v_zbox.covered_by(d_zboxes)
    # sufficient decidable form of product coverage: the z domains cover
    # closure(U) while every single x domain covers closure(V_X)
    x_full = all(witness.v_xbox.covered_by([pb.d_image()[1]]) for pb in witness.path_boxes)
    exterior = None
    z_out = witness.v_zbox.point_outside_closure()
    x_out = witness.v_xbox.point_outside_closure()
    if z_out is not None:
        # (z_out, anything in some domain x-box); domains have full x part
        for pb in witness.path_boxes:
            dz, dx = pb.d_image()
            if box_contains(dz, z_out) and not dx.is_empty():
                exterior = PairPoint(z_out, box_rep_point(dx))
                break
    if exterior is None and x_out is not None:
        for pb in witness.path_boxes:
            dz, dx = pb.d_image()
            if box_contains(dx, x_out) and not dz.is_empty():
                exterior = PairPoint(box_rep_point(dz), x_out)
                break
    cond_iii = covers and x_full and exterior is not None
    if not covers:
        details.append("domains do not cover the closure of V in the Z factor")
    if not x_full:
        details.append("domain x parts do not cover the closure of V_X")
    if exterior is None:
        details.append("no exterior witness point: closure(V) is not strictly contained")

    return WitnessReport(cond_i, cond_ii, cond_iii, exterior, tuple(details))
