"""The exhaustive small-graph K-theory sweep, computed once per test
session and shared by the tests that check it against the determinantal
divisor oracle."""

import functools
import itertools
import time
from math import gcd

from groupoidlab.graphs import DiscreteGraph
from groupoidlab.ktheory import connecting_matrix, graph_ktheory, mat_det


def minors_divisor_oracle(m):
    """Invariant factors via determinantal divisors: d_k = D_k / D_{k-1}
    with D_k the gcd of all k x k minors.  Independent of any row
    reduction."""
    rows, cols = len(m), len(m[0])
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rr in itertools.combinations(range(rows), k):
            for cc in itertools.combinations(range(cols), k):
                sub = [[m[i][j] for j in cc] for i in rr]
                g = gcd(g, abs(mat_det(sub)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def graph_from_adjacency(mat_rows):
    n = len(mat_rows)
    verts = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            for t in range(mat_rows[i][j]):
                edges.append((verts[i], verts[j], f"e{i}.{j}.{t}"))
    return DiscreteGraph(verts, edges)


@functools.cache
def small_graph_sweep():
    """Every graph with <= 3 vertices and <= 4 outgoing edges per vertex
    (43,105 of them), as ``(mat_rows, k0, k1, m, regular, inv)``: its
    ``graph_ktheory``, its connecting matrix and regular vertices, and
    the oracle's invariant factors of the matrix (None when no vertex is
    regular).  Returned with the seconds each half took: building the
    graphs with their ``graph_ktheory`` and ``connecting_matrix``, then
    the minor-gcd oracle."""
    start = time.monotonic()
    computed = []
    for n in (1, 2, 3):
        rows = [c for c in itertools.product(range(5), repeat=n) if sum(c) <= 4]
        for mat_rows in itertools.product(rows, repeat=n):
            g = graph_from_adjacency(mat_rows)
            computed.append((mat_rows, *graph_ktheory(g), *connecting_matrix(g)))
    ktheory_s = time.monotonic() - start
    start = time.monotonic()
    cases = tuple(
        (mat_rows, k0, k1, m, regular, minors_divisor_oracle(m) if regular else None)
        for mat_rows, k0, k1, m, regular in computed
    )
    return cases, ktheory_s, time.monotonic() - start
