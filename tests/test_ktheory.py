import itertools
import json
import random
from fractions import Fraction
from math import gcd, prod

import pytest

from groupoidlab.cli import main
from groupoidlab.graphs import DiscreteGraph, OneVertexLoopGraph
from groupoidlab.ktheory import (
    DimBudget,
    FGAbelianGroup,
    KTheoryError,
    SymbolicGroup,
    Z_POINTED,
    ZERO_GROUP,
    cokernel_with_unit,
    connecting_matrix,
    declared_space_ktheory,
    dim_bound,
    graph_ktheory,
    mat_det,
    mat_mul,
    model_ktheory,
    snf,
    stabilize_ktheory,
    validate_matrix,
    z_factor_ktheory,
)
from groupoidlab.spaces import (
    CantorBackend,
    CircleBackend,
    CountableBackend,
    FiniteBackend,
    ProductBackend,
    finite_cyclic,
    golden_rotation,
    odometer,
    point_backend,
)


def loops(n, regular=True):
    g = DiscreteGraph(
        ["v"],
        [("v", "v", f"e{i}") for i in range(n)],
        singular_override=() if regular else ("v",),
    )
    return g


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_identity():
    d, p, q = snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert d == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_snf_worked_example():
    m = [[2, 4], [6, 8]]
    d, p, q = snf(m)
    assert [d[0][0], d[1][1]] == [2, 4]
    assert mat_mul(mat_mul(p, m), q) == d


def test_snf_zero_matrix():
    d, p, q = snf([[0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0]]
    assert p == [[1, 0], [0, 1]] and q == [[1, 0], [0, 1]]


def assert_snf_contract(m, d, p, q):
    """P*M*Q = D, unimodular transforms, D diagonal and non-negative with
    a divisibility chain."""
    rows, cols = len(m), len(m[0])
    assert mat_mul(mat_mul(p, m), q) == d
    assert abs(mat_det(p)) == 1
    assert abs(mat_det(q)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
    assert all(v >= 0 for v in diag)


def transform_bits(p, q):
    return max(abs(x).bit_length() for m in (p, q) for row in m for x in row)


def test_snf_random_contract():
    """The contract on matrices up to 8x8, the size snf also checks
    itself."""
    rng = random.Random(99)
    for _ in range(200):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        m = [[rng.randrange(-30, 31) for _ in range(cols)] for _ in range(rows)]
        assert_snf_contract(m, *snf(m))


def snf32(i):
    rng = random.Random(f"snf32-{i}")
    return [[rng.randint(-9, 9) for _ in range(32)] for _ in range(32)]


@pytest.mark.parametrize("i", range(14))
def test_snf_large_contract(i):
    """32x32 matrices with entries -9..9, past the self-checked size: the
    contract holds and the transforms stay far below the 4300-digit
    limit on printing an integer."""
    m = snf32(i)
    d, p, q = snf(m)
    assert_snf_contract(m, d, p, q)
    assert transform_bits(p, q) < 4000


def test_main_snf_large_matrix(tmp_path, capsys):
    m = snf32(10)
    path = tmp_path / "snf32-10.json"
    path.write_text(json.dumps(m))
    assert main(["snf", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert_snf_contract(m, out["D"], out["P"], out["Q"])
    assert transform_bits(out["P"], out["Q"]) < 4000


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


def snf_diagonal(m) -> list[int]:
    """The nonzero diagonal entries of the D of ``snf(m)``, up to sign."""
    d = snf(m)[0]
    return [abs(d[i][i]) for i in range(min(len(d), len(d[0]))) if d[i][i]]


def test_invariant_factors_against_minor_oracle():
    rng = random.Random(5)
    for _ in range(300):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 5)
        m = [[rng.randrange(-7, 8) for _ in range(cols)] for _ in range(rows)]
        assert snf_diagonal(m) == minors_divisor_oracle(m)


def test_element_order_oracle():
    """For a nonsingular square matrix, the order of e_i in the cokernel
    is the least t > 0 with t*e_i in the image (solved exactly over the
    rationals), and the largest invariant factor is the lcm of the basis
    orders while their product is |det|."""
    rng = random.Random(8)

    def solve(m, rhs):
        n = len(m)
        a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                return None
            a[col], a[piv] = a[piv], a[col]
            a[col] = [v / a[col][col] for v in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [v - f * w for v, w in zip(a[r], a[col])]
        return [a[r][n] for r in range(n)]

    checked = 0
    while checked < 40:
        n = rng.randrange(1, 4)
        m = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        det = mat_det(m)
        if det == 0:
            continue
        checked += 1
        inv = snf_diagonal(m)
        torsion = [d for d in inv if d > 1]
        orders = []
        for i in range(n):
            t = 1
            while t <= abs(det):
                sol = solve(m, [t if j == i else 0 for j in range(n)])
                if sol is not None and all(v.denominator == 1 for v in sol):
                    break
                t += 1
            orders.append(t)
        product = 1
        for d in torsion:
            product *= d
        assert product == abs(det)
        if torsion:
            biggest = torsion[-1]
            lcm = 1
            for o in orders:
                lcm = lcm * o // gcd(lcm, o)
            assert lcm == biggest


def test_validate_matrix_diagnostics():
    with pytest.raises(KTheoryError):
        validate_matrix([[1, 2], [3]])
    with pytest.raises(KTheoryError):
        validate_matrix([[1, "x"]])
    with pytest.raises(KTheoryError):
        validate_matrix([])


# ---------------------------------------------------------------------------
# graph K-theory
# ---------------------------------------------------------------------------


def test_loop_graph_is_pointed_z():
    k0, k1 = graph_ktheory(OneVertexLoopGraph())
    assert k0 == FGAbelianGroup(1, (), (1,))
    assert k1 == ZERO_GROUP


def test_two_loops():
    k0, k1 = graph_ktheory(loops(2))
    assert k0 == FGAbelianGroup(0, (), ())
    assert k1 == ZERO_GROUP


def test_three_loops():
    k0, k1 = graph_ktheory(loops(3))
    assert k0 == FGAbelianGroup(0, (2,), (1,))
    assert k1 == ZERO_GROUP


def test_loops_declared_singular():
    # with no regular vertex (here the vertex forced singular) the free
    # summand on every vertex survives; 10 vertices pass snf's self-check
    # on at most 8 rows, and the empty graph has nothing at all
    for graph, n in (
        (loops(3, regular=False), 1),
        (DiscreteGraph([f"v{i}" for i in range(10)], []), 10),
        (DiscreteGraph([], []), 0),
    ):
        k0, k1 = graph_ktheory(graph)
        assert k0 == FGAbelianGroup(n, (), (1,) * n)
        assert k1 == ZERO_GROUP


def test_single_edge_graph():
    g = DiscreteGraph(["u", "v"], [("u", "v", "e")])
    k0, k1 = graph_ktheory(g)
    assert (k0.rank, k0.torsion) == (1, ())
    assert k1 == ZERO_GROUP


def graph_from_adjacency(mat_rows):
    n = len(mat_rows)
    verts = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            for t in range(mat_rows[i][j]):
                edges.append((verts[i], verts[j], f"e{i}.{j}.{t}"))
    return DiscreteGraph(verts, edges)


def class_order(group):
    """Order of the unit class in its own coordinates; None if infinite."""
    if any(group.unit_class[len(group.torsion) :]):
        return None
    out = 1
    for d, u in zip(group.torsion, group.unit_class):
        k = d // gcd(d, u)
        out = out * k // gcd(out, k)
    return out


def test_exhaustive_small_graphs_against_oracle():
    """All graphs with <= 3 vertices and <= 4 outgoing edges per vertex:
    the Smith-normal-form route agrees with the determinantal-divisor
    oracle on ranks and invariant factors, and on the order of the unit
    class, which does not depend on the coordinates SNF picks: the
    order of v in coker M is prod(inv(M)) / prod(inv([M | v])) when both
    have the same rank, and infinite otherwise."""
    for n in (1, 2, 3):
        rows = [c for c in itertools.product(range(5), repeat=n) if sum(c) <= 4]
        for mat_rows in itertools.product(rows, repeat=n):
            g = graph_from_adjacency(mat_rows)
            k0, k1 = graph_ktheory(g)
            m, regular = connecting_matrix(g)
            if not regular:
                assert k0.rank == n and k0.torsion == () and k1 == ZERO_GROUP
                assert class_order(k0) is None
                continue
            inv = minors_divisor_oracle(m)
            assert k0.torsion == tuple(d for d in inv if d >= 2), mat_rows
            assert k0.rank == n - len(inv), mat_rows
            assert k1.rank == len(regular) - len(inv), mat_rows
            inv_unit = minors_divisor_oracle([row + [1] for row in m])
            order = None
            if len(inv_unit) == len(inv):
                order = prod(inv) // prod(inv_unit)
            assert class_order(k0) == order, mat_rows


def test_cokernel_unit_class_reduction():
    # unit classes are reduced into canonical coordinates
    k = cokernel_with_unit([[3]], [5])
    assert k.torsion == (3,)
    assert k.unit_class is not None and k.unit_class[0] in range(3)


# ---------------------------------------------------------------------------
# model K-theory
# ---------------------------------------------------------------------------


def test_model_ktheory_four_backends():
    zmeta = z_factor_ktheory(golden_rotation())
    assert zmeta == (Z_POINTED, ZERO_GROUP)
    assert model_ktheory(point_backend(), zmeta) == (Z_POINTED, ZERO_GROUP)
    assert model_ktheory(FiniteBackend(3), zmeta) == (
        FGAbelianGroup(3, (), (1, 1, 1)),
        ZERO_GROUP,
    )
    assert model_ktheory(CircleBackend(), zmeta) == (
        FGAbelianGroup(1, (), (1,)),
        FGAbelianGroup(1),
    )
    assert model_ktheory(CantorBackend(), zmeta) == (
        SymbolicGroup("free abelian of countable rank", pointed=True),
        ZERO_GROUP,
    )


def test_model_ktheory_is_declared_value():
    zmeta = z_factor_ktheory(odometer())
    for backend in (point_backend(), FiniteBackend(4), CircleBackend(), CantorBackend()):
        assert model_ktheory(backend, zmeta) == declared_space_ktheory(backend)
        k0, _ = model_ktheory(backend, zmeta)
        if isinstance(k0, FGAbelianGroup):
            assert k0.unit_class is not None  # all four backends are compact
        else:
            assert k0.pointed


def test_declared_ktheory_follows_compactness():
    countable = SymbolicGroup("free abelian of countable rank", pointed=False)
    assert declared_space_ktheory(CountableBackend()) == (countable, ZERO_GROUP)
    assert z_factor_ktheory(finite_cyclic(3)) == (FGAbelianGroup(3, (), (1, 1, 1)), ZERO_GROUP)
    with pytest.raises(KTheoryError):
        declared_space_ktheory(ProductBackend(CircleBackend(), CircleBackend()))


def test_model_ktheory_refuses_wrong_z():
    bad = z_factor_ktheory(finite_cyclic(3))
    with pytest.raises(KTheoryError):
        model_ktheory(point_backend(), bad)


def test_stabilization():
    assert stabilize_ktheory((Z_POINTED, ZERO_GROUP)) == (FGAbelianGroup(1), ZERO_GROUP)
    assert stabilize_ktheory((FGAbelianGroup(3, (), (1, 1, 1)), ZERO_GROUP)) == (
        FGAbelianGroup(3),
        ZERO_GROUP,
    )
    once = stabilize_ktheory((Z_POINTED, ZERO_GROUP))
    assert stabilize_ktheory(once) == once


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------


def test_dim_bound_values():
    r = dim_bound(DimBudget(3, 0, x_is_point=True, dps_declared=True))
    assert (r.bound, r.refined) == (7, 3)
    r = dim_bound(DimBudget(2, 0, x_is_point=True, dps_declared=True))
    assert (r.bound, r.refined) == (5, 2)
    r = dim_bound(DimBudget(0, 0))
    assert (r.bound, r.refined) == (1, None)


def test_dim_bound_monotone():
    for dz in range(4):
        for dx in range(4):
            here = dim_bound(DimBudget(dz, dx)).bound
            assert dim_bound(DimBudget(dz + 1, dx)).bound > here
            assert dim_bound(DimBudget(dz, dx + 1)).bound > here


def test_dps_declared_dimension_window():
    with pytest.raises(KTheoryError):
        DimBudget(1, 0, dps_declared=True)
    DimBudget(2, 0, dps_declared=True)
    DimBudget(3, 5, dps_declared=True)


# ---------------------------------------------------------------------------
# group normal form validation
# ---------------------------------------------------------------------------


def test_group_validation():
    with pytest.raises(KTheoryError):
        FGAbelianGroup(-1)
    with pytest.raises(KTheoryError):
        FGAbelianGroup(0, (1,))
    with pytest.raises(KTheoryError):
        FGAbelianGroup(0, (4, 2))  # not a divisibility chain
    with pytest.raises(KTheoryError):
        FGAbelianGroup(1, (), (1, 2))  # wrong unit length
    g = FGAbelianGroup(1, (2, 4), (5, 1, 7))
    assert g.unit_class == (1, 1, 7)


def test_group_str():
    assert str(FGAbelianGroup(0)) == "0"
    assert str(FGAbelianGroup(2, (2,))) == "Z^2 + Z/2"
    assert "unit" in str(Z_POINTED)
