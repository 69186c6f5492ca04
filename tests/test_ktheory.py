import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidlab import cli, ktheory
from groupoidlab.cli import main
from groupoidlab.graphs import DiscreteGraph, OneVertexLoopGraph
from groupoidlab.ktheory import (
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
    FiniteBackend,
    ProductBackend,
    finite_cyclic,
    golden_rotation,
    odometer,
    point_backend,
)

from small_graphs import graph_from_adjacency, minors_divisor_oracle, small_graph_sweep


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


def test_snf_accepts_tuple_rows():
    """A matrix of tuple rows, or a tuple of them, gives the (D, P, Q) of
    the same rows as lists, and is left as it was: ``snf(((1,),))`` raised
    TypeError when each row was extended in place of copied."""
    rng = random.Random(17)
    shapes = [(1, 1), (2, 3), (3, 2), (8, 8), (9, 9), (12, 5)]
    matrices = [((1,),), ((0, 0), (0, 0))] + [
        tuple(tuple(rng.randrange(-9, 10) for _ in range(cols)) for _ in range(rows))
        for rows, cols in shapes
    ]
    for m in matrices:
        rows = [list(row) for row in m]
        want = snf(rows)
        assert snf(m) == snf(list(m)) == want
        assert [list(row) for row in m] == rows
    assert snf(((1,),)) == ([[1]], [[1]], [[1]])


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


def labelled_matrix(label, n):
    """An n x n matrix with entries -9..9, seeded by ``label``."""
    rng = random.Random(label)
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


def snf32(i):
    return labelled_matrix(f"snf32-{i}", 32)


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


# sha256 of the `groupoidlab snf` JSON: the 16x16 matrices and the 32x32
# one that the benchmark feeds the CLI, and two seeded 8x8 ones.  D is
# canonical, but P and Q are one choice among many: these pins hold any
# change to the elimination to the same transforms.
@pytest.mark.parametrize(
    "label, n, digest",
    [
        ("snf16-0", 16, "b626dbb572b2aac93cac615701f1f2fc8ab48e21ac8df4aea0233498d8fd08fe"),
        ("snf16-1", 16, "75c9a7a8c042fde2040a5cb3ef30f5fbbdd8a116aa21ec91b70583e09732bdef"),
        ("snf16-2", 16, "8acd7bec9d913e46ca52a96affecf3be1aa5555377f25a88b9d779177b5c47e7"),
        ("snf16-3", 16, "fbbcc56194458a283d8ad92637cfd29e17df41d61f33ce55fbfa4c75a8011160"),
        ("snf16-4", 16, "5f030ce2c41b15d8a4b98c1a7f27d4d0442472b4d3122faa77a524a4e864046a"),
        ("snf16-5", 16, "f64c8066ff829a6b1d23ad0ece6297183f07db46097791f9f3afa902f98a0772"),
        ("snf16-6", 16, "6143a96b4f2e470636493aa07489a6b991b35fa453dc8dbceb5a2f39a4ccc0fb"),
        ("snf16-7", 16, "7bc3d1f3dd6fdbfd9d980c797a295082c2c8d4cd57d5d4583dd1707bd3c7b778"),
        ("snf32-10", 32, "fafd2507b8d2a2a21fd81c43a64bfcad5164d33ca504dc66d5c404152793f676"),
        ("ktheory-3-0", 8, "9284bb7c631fc9ee4ece78b576f393992ad54bd14fbcb920229672f09c78092a"),
        ("ktheory-3-1", 8, "87b13df291efe8ce049f570fdc20fd562427c1adb3afbcb06bc96580673d1320"),
    ],
)
def test_snf_output_pinned(tmp_path, capsys, label, n, digest):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(labelled_matrix(label, n)))
    assert main(["snf", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


DOC_GRAPH = {
    "vertices": ["u", "v"],
    "edges": [["u", "v", "e1"], ["v", "v", "e2"]],
    "singular": ["v"],
}
THREE_LOOPS = {"vertices": ["v"], "edges": [["v", "v", f"e{i}"] for i in range(3)]}


# sha256 of the `groupoidlab ktheory` JSON for the example graph of
# docs/formats.md and for loops(3), with the ``unit_order`` field set
# aside (its values are checked in test_ktheory_cli_unit_order).
@pytest.mark.parametrize(
    "doc, digest",
    [
        (
            DOC_GRAPH,
            "be6b675ab599dd284410bac2df1c65674b3cfd0219c860f85eae2ecb2848d89a",
        ),
        (
            THREE_LOOPS,
            "b7ab876fe6711dbed6886721d216b8b7df6f0bb9ace5f572aee3cb033cef1d43",
        ),
    ],
)
def test_ktheory_output_pinned(tmp_path, capsys, doc, digest):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main(["ktheory", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    out["K0"].pop("unit_order", None)
    text = json.dumps(out, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


def _snf_reference(matrix):
    """``snf`` as it was before P and Q rode along the elimination rows:
    separate P and Q matrices, a generator-and-min pivot search, and a
    cached ``a + q`` row list for the column operations.  Kept as the
    specification the faster body must reproduce entry for entry."""
    a = [row[:] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    p = ktheory._ident(rows)
    q = ktheory._ident(cols)
    t = 0
    while t < min(rows, cols):
        nonzero = ((abs(x), i, j) for i in range(t, rows) for j, x in enumerate(a[i][t:], t) if x)
        best = next(nonzero, None)
        if best is None:
            break
        while best[0] > 1 and (entry := next(nonzero, None)):  # row-major: a first 1 is least
            best = min(best, entry)
        _size, i, j = best
        a[t], a[i] = a[i], a[t]
        p[t], p[i] = p[i], p[t]
        aq = a + q  # the rows a column operation acts on
        if j != t:
            for row in aq:
                row[t], row[j] = row[j], row[t]
        pivot = a[t][t]
        for i in range(t + 1, rows):
            f = a[i][t] // pivot
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[t])]
                p[i] = [x - f * y for x, y in zip(p[i], p[t])]
                aq = None  # stale: a row of a was replaced
        for j in range(t + 1, cols):
            f = a[t][j] // pivot
            if f:
                aq = aq or a + q
                for row in aq:
                    row[j] -= f * row[t]
        if abs(pivot) > 1 and (any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1 :])):
            continue  # re-pivot on a remainder, smaller than |pivot|
        if pivot < 0:
            a[t] = [-x for x in a[t]]
            p[t] = [-x for x in p[t]]
            pivot = -pivot
        missed = pivot > 1 and next(
            (i for i in range(t + 1, rows) if any(x % pivot for x in a[i][t + 1 :])), None
        )
        if not missed:
            t += 1
        else:
            a[t] = [x + y for x, y in zip(a[t], a[missed])]
            p[t] = [x + y for x, y in zip(p[t], p[missed])]
    if rows <= 8 and cols <= 8:
        if mat_mul(mat_mul(p, matrix), q) != a:
            raise KTheoryError("internal error: P*M*Q != D")
        if abs(mat_det(p)) != 1 or abs(mat_det(q)) != 1:
            raise KTheoryError("internal error: non-unimodular transform")
    return a, p, q


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(0, 8))
    bound = draw(st.sampled_from([1, 2, 9, 100, 10**12]))
    entry = st.integers(-bound, bound)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


@given(small_matrices())
@settings(max_examples=400, deadline=None)
def test_snf_matches_reference(m):
    assert snf(m) == _snf_reference(m)


def test_snf_matches_reference_on_connecting_matrices():
    """Every distinct connecting matrix of the small-graph sweep."""
    cases, _ktheory_s, _oracle_s = small_graph_sweep()
    distinct = {repr(m): m for _mat_rows, _k0, _k1, m, _regular, _inv in cases}
    assert len(distinct) > 30_000
    for m in distinct.values():
        assert snf(m) == _snf_reference(m), m


@pytest.mark.parametrize(
    "label, n",
    [(f"snf16-{i}", 16) for i in range(8)] + [(f"snf32-{i}", 32) for i in (8, 10, 11, 12)],
)
def test_snf_matches_reference_on_fixed_inputs(label, n):
    """The benchmark's fixed 16x16 inputs and its 32x32 ones."""
    m = labelled_matrix(label, n)
    assert snf(m) == _snf_reference(m)


def test_snf_self_check_runs_on_every_small_shape(monkeypatch):
    """Each snf call on an input of at most 8 rows and 8 columns makes
    exactly two mat_mul and two mat_det calls, the self-check; a larger
    input makes none."""
    calls = {"mat_mul": 0, "mat_det": 0}
    for name in calls:
        original = getattr(ktheory, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(ktheory, name, counted)
    rng = random.Random(29)
    shapes = [(r, c) for r in range(1, 9) for c in range(9)] + [(9, 9), (8, 9), (9, 8)]
    for rows, cols in shapes:
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        calls.update(mat_mul=0, mat_det=0)
        snf(m)
        expected = 2 if rows <= 8 and cols <= 8 else 0
        assert calls == {"mat_mul": expected, "mat_det": expected}, (rows, cols)


def test_snf_self_check_fires(monkeypatch):
    """The self-check on inputs up to 8x8 is live: a wrong product, or a
    transform whose determinant is not a unit, is an internal error."""
    m = [[2, 4, 1], [6, 8, 3], [1, 0, 5]]
    snf(m)
    with monkeypatch.context() as patch:
        patch.setattr(ktheory, "mat_mul", lambda a, b: [[0] * len(b[0]) for _ in a])
        with pytest.raises(KTheoryError, match=r"^internal error: P\*M\*Q != D$"):
            snf(m)
    monkeypatch.setattr(ktheory, "mat_det", lambda m: 2)
    with pytest.raises(KTheoryError, match="^internal error: non-unimodular transform$"):
        snf(m)


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


def test_exhaustive_small_graphs_against_oracle():
    """All graphs with <= 3 vertices and <= 4 outgoing edges per vertex:
    the Smith-normal-form route agrees with the determinantal-divisor
    oracle on ranks and invariant factors, and on the order of the unit
    class, which does not depend on the coordinates SNF picks: the
    order of v in coker M is prod(inv(M)) / prod(inv([M | v])) when both
    have the same rank, and infinite otherwise."""
    cases, _ktheory_s, _oracle_s = small_graph_sweep()
    assert len(cases) == 43_105
    for mat_rows, k0, k1, m, regular, inv in cases:
        n = len(mat_rows)
        if not regular:
            assert k0.rank == n and k0.torsion == () and k1 == ZERO_GROUP
            assert k0.unit_order() is None
            continue
        assert k0.torsion == tuple(d for d in inv if d >= 2), mat_rows
        assert k0.rank == n - len(inv), mat_rows
        assert k1.rank == len(regular) - len(inv), mat_rows
        inv_unit = minors_divisor_oracle([row + [1] for row in m])
        order = None
        if len(inv_unit) == len(inv):
            order = prod(inv) // prod(inv_unit)
        assert k0.unit_order() == order, mat_rows


def _regular_by_definition(graph):
    return [v for v in graph.vertices if graph.is_regular(v)]


def _connecting_by_definition(graph):
    counts = graph.adjacency()
    regular = _regular_by_definition(graph)
    return [[(v == w) - counts.get((w, v), 0) for w in regular] for v in graph.vertices], regular


def test_regular_vertices_and_connecting_matrix_match_their_definitions():
    """regular_vertices and connecting_matrix agree with the per-vertex
    is_regular and the adjacency() counts on every sweep graph, and with
    every singular override on the 1- and 2-vertex graphs and on every
    50th 3-vertex one."""
    cases, _ktheory_s, _oracle_s = small_graph_sweep()
    overridden = 0
    for k, (mat_rows, _k0, _k1, m, regular, _inv) in enumerate(cases):
        g = graph_from_adjacency(mat_rows)
        assert g.regular_vertices() == regular == _regular_by_definition(g), mat_rows
        assert connecting_matrix(g) == (m, regular) == _connecting_by_definition(g), mat_rows
        if len(mat_rows) == 3 and k % 50:
            continue
        for size in range(len(g.vertices) + 1):
            for override in itertools.combinations(g.vertices, size):
                h = DiscreteGraph(g.vertices, [(e.src, e.dst, e.label) for e in g.edges], override)
                assert h.regular_vertices() == _regular_by_definition(h), (mat_rows, override)
                assert connecting_matrix(h) == _connecting_by_definition(h), (mat_rows, override)
                overridden += 1
    assert overridden > 7_000


def test_unit_order():
    assert FGAbelianGroup(0, (2, 4), (1, 2)).unit_order() == 2
    assert FGAbelianGroup(0, (6,), (4,)).unit_order() == 3
    assert FGAbelianGroup(0, (2, 6), (1, 2)).unit_order() == 6
    assert FGAbelianGroup(2, (2,), (1, 0, 0)).unit_order() == 2
    assert FGAbelianGroup(0, (3,), (0,)).unit_order() == 1
    assert FGAbelianGroup(0, (), ()).unit_order() == 1
    assert FGAbelianGroup(1, (2,), (0, -1)).unit_order() is None
    assert Z_POINTED.unit_order() is None
    with pytest.raises(KTheoryError, match="no unit class"):
        FGAbelianGroup(1).unit_order()


@pytest.mark.parametrize(
    "doc, order",
    [
        (DOC_GRAPH, "infinite"),
        (THREE_LOOPS, 2),
        ({"vertices": ["v"], "edges": [["v", "v", "a"], ["v", "v", "b"]]}, 1),
        ({"kind": "one-vertex-loops"}, "infinite"),
    ],
)
def test_ktheory_cli_unit_order(tmp_path, capsys, doc, order):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main(["ktheory", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["K0"]["unit_order"] == order
    assert out["K1"]["unit"] is None


def test_ktheory_cli_unit_order_without_unit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "graph_ktheory", lambda graph: (FGAbelianGroup(1), ZERO_GROUP))
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(THREE_LOOPS))
    assert main(["ktheory", str(path)]) == 0
    k0 = json.loads(capsys.readouterr().out)["K0"]
    assert k0["unit"] is None and k0["unit_order"] is None


@pytest.mark.parametrize("unit, length", [([1], 1), ([1, 1, 1, 5], 4)])
def test_cokernel_refuses_a_unit_vector_of_the_wrong_length(unit, length):
    """The unit vector must have one entry per row: a short one was
    silently read as if padded, a long one had its tail ignored."""
    with pytest.raises(KTheoryError, match=rf"^unit vector has length {length}, expected 3$"):
        cokernel_with_unit([[2, 0], [0, 3], [0, 0]], unit)
    assert cokernel_with_unit([[2, 0], [0, 3], [0, 0]], [1, 1, 1]) == FGAbelianGroup(1, (6,), (5, 1))


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
    assert dim_bound(3, 0, x_is_point=True) == (7, 3)
    assert dim_bound(2, 0, x_is_point=True) == (5, 2)
    assert dim_bound(0, 0, x_is_point=False) == (1, None)


def test_dim_bound_monotone():
    for dz in range(4):
        for dx in range(4):
            here, _ = dim_bound(dz, dx, x_is_point=False)
            assert dim_bound(dz + 1, dx, x_is_point=False)[0] > here
            assert dim_bound(dz, dx + 1, x_is_point=False)[0] > here


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
