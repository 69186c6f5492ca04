"""Integer-matrix K-theory for discrete graph algebras and the symbolic
propagation rules for the model construction.

For a finite discrete graph the K-groups are the cokernel and kernel of
I - A^t with columns restricted to the regular vertices, computed by an
exact Smith normal form with unimodular transforms.  When no vertex is
regular the canonical map is an isomorphism, so K_0 is free on the
vertices with the unit class at (1, ..., 1) and K_1 vanishes.  For the
model graph the vertex-space K-theory is declared backend metadata (the
Z factor contributes the K-theory of a point, by hypothesis), and
propagation is the identity with the unit class preserved, since X is
compact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mod, mul

from .graphs import DiscreteGraph, OneVertexLoopGraph
from .spaces import SpaceBackend


class KTheoryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form
# ---------------------------------------------------------------------------


def _ident(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            f = ai[k]
            if f:
                bk = b[k]
                row = out[i]
                for j in range(cols):
                    row[j] += f * bk[j]
    return out


def mat_det(m) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def validate_matrix(entries) -> list[list[int]]:
    """A copy of a non-empty rectangular integer matrix; errors name the
    bad field as ``matrix``, ``matrix[r]`` or ``matrix[r][c]``."""
    if not isinstance(entries, list) or not entries:
        raise KTheoryError("matrix: expected a non-empty list of rows")
    width = None
    for r, row in enumerate(entries):
        if not isinstance(row, list) or not row:
            raise KTheoryError(f"matrix[{r}]: expected a non-empty list of integers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise KTheoryError(f"matrix[{r}]: has length {len(row)}, expected {width}")
        for c, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                raise KTheoryError(f"matrix[{r}][{c}]: expected an integer")
    return [row[:] for row in entries]


def snf(matrix):
    """Smith normal form: returns (D, P, Q) with P * M * Q = D, P and Q
    unimodular, and D diagonal with a divisibility chain d1 | d2 | ...
    The rows of M may be lists or tuples; M is not changed.

    Euclidean elimination.  The pivot is the nonzero entry of least
    absolute value in the remaining block, the first in row-major order
    on a tie, so the scan for it stops at the first entry of size 1.
    Quotient multiples of its row and column are subtracted from the
    others, and while a nonzero remainder is left the block is
    re-pivoted on a strictly smaller entry.  A pivot that misses some
    entry of the block has that entry's row folded into its own first.
    A pivot of size 1 divides every entry, so it leaves no remainder and
    misses none, and neither is scanned for.  D is canonical; P and Q
    are one valid choice of transforms.  Least-remainder pivoting keeps
    the transforms small in practice but has no proven size bound;
    Kannan and Bachem (SIAM J. Comput. 8, 1979) give a polynomial
    algorithm.

    The transforms ride along the elimination: row i of the working
    matrix is row i of M followed by row i of P, so a row operation is
    one pass over it, and a column operation updates the first ``cols``
    entries of every row and the rows of Q in one loop.  D and P are
    read off the rows at the end.  On inputs up to 8x8 the result checks
    itself: P*M*Q = D is recomputed and both determinants must be units.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    zeros = [0] * rows
    # [M | P], P the identity; each row is copied, so M may have tuple rows
    a = [[*row, *zeros] for row in matrix]
    for i, row in enumerate(a, cols):
        row[i] = 1
    q = _ident(cols)
    t = 0
    while t < min(rows, cols):
        size = 0
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = row[j]
                if x and (not size or abs(x) < size):
                    size, pi, pj = abs(x), i, j
                    if size == 1:
                        break
            if size == 1:  # row-major: a first 1 is least
                break
        if not size:
            break
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a + q:
                row[t], row[pj] = row[pj], row[t]
        top = a[t]
        pivot = top[t]
        for i in range(t + 1, rows):
            f = a[i][t] // pivot
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], top)]
        for j in range(t + 1, cols):
            f = top[j] // pivot
            if f:
                for row in a + q:
                    row[j] -= f * row[t]
        if size > 1 and (any(a[i][t] for i in range(t + 1, rows)) or any(top[t + 1 : cols])):
            continue  # re-pivot on a remainder, smaller than |pivot|
        if pivot < 0:
            a[t] = top = [-x for x in top]
            pivot = -pivot
        missed = pivot > 1 and next(
            (i for i in range(t + 1, rows) if any(x % pivot for x in a[i][t + 1 : cols])), None
        )
        if not missed:
            t += 1
        else:
            a[t] = [x + y for x, y in zip(top, a[missed])]
    d = [row[:cols] for row in a]
    p = [row[cols:] for row in a]
    if rows <= 8 and cols <= 8:
        # per-call self-check on small inputs: the factorization really
        # holds and the transforms really are unimodular
        if mat_mul(mat_mul(p, matrix), q) != d:
            raise KTheoryError("internal error: P*M*Q != D")
        if abs(mat_det(p)) != 1 or abs(mat_det(q)) != 1:
            raise KTheoryError("internal error: non-unimodular transform")
    return d, p, q


# ---------------------------------------------------------------------------
# finitely generated abelian groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FGAbelianGroup:
    """Invariant-factor normal form: Z^rank + Z/d1 + ... with d1 | d2 | ...

    ``unit_class``, when present, is a vector in the canonical
    coordinates (torsion coordinates first, reduced mod d_i, then the
    free coordinates).
    """

    rank: int
    torsion: tuple[int, ...] = ()
    unit_class: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.rank < 0:
            raise KTheoryError("rank must be non-negative")
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise KTheoryError("invariant factors must be >= 2")
            if i and d % self.torsion[i - 1]:
                raise KTheoryError("invariant factors must form a divisibility chain")
        if self.unit_class is not None:
            expected = self.rank + len(self.torsion)
            if len(self.unit_class) != expected:
                raise KTheoryError(
                    f"unit class has length {len(self.unit_class)}, expected {expected}"
                )
            reduced = (
                *map(mod, self.unit_class, self.torsion),
                *self.unit_class[len(self.torsion) :],
            )
            object.__setattr__(self, "unit_class", reduced)

    def without_unit(self) -> "FGAbelianGroup":
        return FGAbelianGroup(self.rank, self.torsion, None)

    def unit_order(self) -> int | None:
        """The order of the unit class, None when infinite: the lcm of
        d_i / gcd(d_i, u_i) over the torsion coordinates, unless a free
        coordinate is nonzero.  Unlike the coordinates, it is basis-free."""
        if self.unit_class is None:
            raise KTheoryError("no unit class")
        if any(self.unit_class[len(self.torsion) :]):
            return None
        return lcm(*(d // gcd(d, u) for d, u in zip(self.torsion, self.unit_class)))

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        body = " + ".join(parts) if parts else "0"
        if self.unit_class is not None:
            body += f" with unit {list(self.unit_class)}"
        return body


@dataclass(frozen=True)
class SymbolicGroup:
    """A declared group outside the finitely generated range, kept as an
    opaque named object (e.g. the free abelian group of countable rank
    for locally constant integer functions on a Cantor space)."""

    name: str
    pointed: bool = False

    def without_unit(self) -> "SymbolicGroup":
        return SymbolicGroup(self.name, False)

    def __str__(self):
        return self.name + (" with canonical unit" if self.pointed else "")


KGroup = FGAbelianGroup | SymbolicGroup

Z_POINTED = FGAbelianGroup(1, (), (1,))
ZERO_GROUP = FGAbelianGroup(0)


# ---------------------------------------------------------------------------
# cokernel / kernel with unit tracking
# ---------------------------------------------------------------------------


def cokernel_with_unit(matrix, unit_vector=None):
    """Structure of Z^rows / im(matrix) plus the class of ``unit_vector``.

    With P*M*Q = D, left-multiplication by P identifies the quotient
    with Z^rows / im(D); coordinates with d_i = 1 vanish, d_i >= 2 give
    torsion, and rows beyond the rank stay free.  The divisibility chain
    puts every d_i = 1 first, so the rows of P from the first torsion
    coordinate on give the unit class, which ``FGAbelianGroup`` reduces.
    """
    rows = len(matrix)
    if unit_vector is not None and len(unit_vector) != rows:
        raise KTheoryError(f"unit vector has length {len(unit_vector)}, expected {rows}")
    d, p, _q = snf(matrix)
    diag = [abs(row[i]) for i, row in enumerate(d[: len(d[0]) if d else 0]) if row[i]]
    torsion = tuple(di for di in diag if di >= 2)
    unit = None
    if unit_vector is not None:
        unit = tuple(sum(map(mul, row, unit_vector)) for row in p[len(diag) - len(torsion) :])
    return FGAbelianGroup(rows - len(diag), torsion, unit)


# ---------------------------------------------------------------------------
# graph K-theory
# ---------------------------------------------------------------------------


def connecting_matrix(graph: DiscreteGraph):
    """I - A^t with columns restricted to the regular vertices, where
    A[v][w] counts edges from v to w (d = v, r = w)."""
    regular = graph.regular_vertices()
    counts = graph._counts  # read only, so not the copy adjacency() makes
    return [[(v == w) - counts.get((w, v), 0) for w in regular] for v in graph.vertices], regular


def graph_ktheory(graph) -> tuple[FGAbelianGroup, FGAbelianGroup]:
    """(K_0 with unit class, K_1) of the algebra of a discrete graph.

    K_0 = coker and K_1 = ker of the connecting matrix.  With no regular
    vertices the matrix has no columns, so K_0 is free on the vertices
    with the unit at (1, ..., 1) and K_1 = 0.
    """
    if isinstance(graph, OneVertexLoopGraph):
        return Z_POINTED, ZERO_GROUP
    if not isinstance(graph, DiscreteGraph):
        raise KTheoryError(f"not a discrete graph: {graph!r}")
    matrix, regular = connecting_matrix(graph)
    nverts = len(graph.vertices)
    k0 = cokernel_with_unit(matrix, [1] * nverts)
    # rank-nullity on the same factorisation: rank M = nverts - rank K_0
    k1 = FGAbelianGroup(len(regular) - nverts + k0.rank)
    return k0, k1


# ---------------------------------------------------------------------------
# declared K-theory of space backends, and model propagation
# ---------------------------------------------------------------------------

def _free_group(rank: int | None, pointed: bool) -> KGroup:
    if rank is None:
        return SymbolicGroup("free abelian of countable rank", pointed)
    return FGAbelianGroup(rank, (), (1,) * rank if pointed else None)


def declared_space_ktheory(backend: SpaceBackend) -> tuple[KGroup, KGroup]:
    """The declared K-theory of C(X) for an X backend.

    The backend declares the ranks of two free groups
    (``SpaceBackend.ktheory_ranks``); the finite values are computed
    facts, the others standard topological facts entered as metadata.
    Only model factors declare them, and those are compact, so K_0
    carries the unit class, (1, ..., 1).
    """
    if backend.ktheory_ranks is None:
        raise KTheoryError(f"no declared K-theory for {backend!r}")
    k0_rank, k1_rank = backend.ktheory_ranks
    return _free_group(k0_rank, True), _free_group(k1_rank, False)


def z_factor_ktheory(system) -> tuple[KGroup, KGroup]:
    """Declared K-theory of the Z factor's function algebra.  The vetted
    stand-ins declare the K-theory of a point, which is the hypothesis
    the whole construction rests on; any other system has the declared
    K-theory of its space."""
    if system.point_like_ktheory:
        return Z_POINTED, ZERO_GROUP
    return declared_space_ktheory(system.backend)


def model_ktheory(x_backend: SpaceBackend, z_meta: tuple[KGroup, KGroup]):
    """K-theory of the model-graph algebra over (Z, X).

    Requires the Z factor to contribute the K-theory of a point (Z
    pointed at the generator, 0); the result is then the declared
    K-theory of X, with its unit class.
    """
    if z_meta != (Z_POINTED, ZERO_GROUP):
        raise KTheoryError(
            "the Z factor must have the K-theory of a point "
            f"(got K0 = {z_meta[0]}, K1 = {z_meta[1]})"
        )
    return declared_space_ktheory(x_backend)


def stabilize_ktheory(kpair):
    """Tensoring with the compacts: groups unchanged, unit class dropped
    (stable algebras are non-unital)."""
    k0, k1 = kpair
    return k0.without_unit(), k1.without_unit()


# ---------------------------------------------------------------------------
# dimension arithmetic
# ---------------------------------------------------------------------------


def dim_bound(dim_z: int, dim_x: int, x_is_point: bool) -> tuple[int, int | None]:
    """(bound, refined): the upper bound 2*dim_z + dim_x + 1 for the
    boundary-space dimension (infinite paths contribute dim_z, finite
    ones dim_z + dim_x, plus one for the union), and over a one-point X,
    where the boundary is a product of the Z factor and a Cantor space,
    the exact value dim_z (else None)."""
    return 2 * dim_z + dim_x + 1, dim_z if x_is_point else None
