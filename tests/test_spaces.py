import ast
import math
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupoidlab
from groupoidlab import spaces
from groupoidlab.boundary import BoundaryPath, _canon_ev_periodic
from groupoidlab.qphi import GOLDEN_ANGLE, QPhi
from groupoidlab.spaces import (
    CANTOR_FULL,
    CIRCLE_FULL,
    Arc,
    Box,
    CantorBackend,
    CantorBox,
    CircleBackend,
    CircleBox,
    CirclePoint,
    FiniteBackend,
    FiniteBox,
    FinitePoint,
    MinimalSystem,
    PadicPoint,
    PairPoint,
    ProductBackend,
    SpaceBackend,
    box_contains,
    box_intersect,
    box_rep_point,
    circle_covered_by_arcs,
    circle_rotate,
    dense_indices_hitting,
    dense_sequence,
    draw,
    draw_bits,
    draws,
    eps_dense,
    finite_cyclic,
    golden_rotation,
    odometer,
    odometer_succ,
    point_backend,
    point_from_token,
)

bits = st.integers(min_value=0, max_value=1)


# ---------------------------------------------------------------------------
# points and canonical forms
# ---------------------------------------------------------------------------


@given(st.lists(bits, max_size=6), st.lists(bits, min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_padic_canonicalization_idempotent(pre, per):
    p = PadicPoint(tuple(pre), tuple(per))
    assert PadicPoint(p.pre, p.per) == p
    # canonical means primitive cycle and minimal head
    n = len(p.per)
    for d in range(1, n):
        if n % d == 0:
            assert p.per[:d] * (n // d) != p.per
    if p.pre:
        assert p.pre[-1] != p.per[-1]


@given(st.lists(bits, max_size=6), st.lists(bits, min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_padic_fraction_roundtrip(pre, per):
    p = PadicPoint(tuple(pre), tuple(per))
    assert Fraction(p.num, p.den) == ref_fraction(p.pre, p.per) == ref_fraction(pre, per)
    assert PadicPoint(*ref_bits(Fraction(p.num, p.den))) == p


# The reference for the 2-adic core: a point's value from its bit pair,
# and the canonical bit pair of a value by the first-repeat digit walk
# followed by canonicalisation.  An odometer step is then Fraction -> +k
# -> bit walk, the way the odometer stepped when points were held as bit
# pairs.


def ref_fraction(pre, per) -> Fraction:
    p_val = sum(b << i for i, b in enumerate(pre))
    w = sum(b << i for i, b in enumerate(per))
    return p_val - Fraction((1 << len(pre)) * w, (1 << len(per)) - 1)


def ref_bits(x: Fraction):
    seen, out, num, den = {}, [], x.numerator, x.denominator
    while num not in seen:
        seen[num] = len(out)
        b = num & 1
        out.append(b)
        num = (num - b * den) >> 1
    i = seen[num]
    return _canon_ev_periodic(out[:i], out[i:])


def ref_odometer(pre, per, k):
    return ref_bits(ref_fraction(pre, per) + k)


odd_rationals = st.builds(
    lambda n, d: Fraction(n, 2 * d + 1),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=0, max_value=200),
)


@given(st.lists(bits, max_size=6), st.lists(bits, min_size=1, max_size=5),
       st.integers(min_value=-10**9, max_value=10**9))
@settings(max_examples=300, deadline=None)
def test_odometer_matches_reference(pre, per, k):
    x = PadicPoint(tuple(pre), tuple(per))
    y = odometer_succ(x, k)
    assert (y.pre, y.per) == ref_odometer(x.pre, x.per, k)
    assert y == PadicPoint(*ref_odometer(pre, per, k))
    assert PadicPoint(y.pre, y.per) == y
    assert hash(PadicPoint(y.pre, y.per)) == hash(y)


@given(odd_rationals)
@settings(max_examples=300, deadline=None)
def test_padic_point_matches_reference(x):
    p = PadicPoint(*ref_bits(x))
    assert (p.pre, p.per) == ref_bits(x)
    assert Fraction(p.num, p.den) == x == ref_fraction(p.pre, p.per)
    assert PadicPoint(p.pre, p.per) == p
    assert p.bits(12) == tuple(ref_bits(x)[0] + ref_bits(x)[1] * 12)[:12]


@given(odd_rationals, odd_rationals, st.integers(min_value=0, max_value=12))
@settings(max_examples=300, deadline=None)
def test_cantor_distance_is_common_prefix(x, y, n):
    a, b = PadicPoint(*ref_bits(x)), PadicPoint(*ref_bits(y))
    # d(a, b) <= 2^-n exactly when the first n bits agree
    assert CantorBackend().dist_le(a, b, Fraction(1, 1 << n)) == (a.bits(n) == b.bits(n))


def test_padic_point_is_immutable():
    p = PadicPoint((1,), (0,))
    with pytest.raises(AttributeError):
        p.num = 3
    with pytest.raises(AttributeError):
        del p.den
    assert (p.num, p.den) == (1, 1) and p == pickle.loads(pickle.dumps(p))
    with pytest.raises(ValueError):
        PadicPoint((2,), (0,))
    with pytest.raises(ValueError):
        PadicPoint((1,), ())


def test_padic_equality_canonical_invariant():
    # 1 (0 1)^inf == (1 0)^inf
    assert PadicPoint((1,), (0, 1)) == PadicPoint((), (1, 0))
    # non-primitive cycles collapse
    assert PadicPoint((), (1, 0, 1, 0)) == PadicPoint((), (1, 0))


def test_circle_point_canonical():
    assert CirclePoint(QPhi(Fraction(5, 4))) == CirclePoint(QPhi(Fraction(1, 4)))
    p = CirclePoint(QPhi(Fraction(-1, 3), Fraction(1, 2)))
    assert CirclePoint(p.value) == p
    assert QPhi(0) <= p.value < QPhi(1)


def test_pair_point_canonicalization():
    p = PairPoint(CirclePoint(QPhi(Fraction(3, 2))), PadicPoint((0,), (0,)))
    assert PairPoint(CirclePoint(p.left.value), PadicPoint(p.right.pre, p.right.per)) == p
    assert p.left == CirclePoint(QPhi(Fraction(1, 2)))


def _validated_circle_point(rng):
    p = Fraction(rng.randrange(-64, 64), rng.randrange(1, 16))
    q = Fraction(rng.randrange(-8, 8), rng.randrange(1, 8))
    return CirclePoint(QPhi(p, q))


def _validated_padic_point(rng):
    pre = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 4)))
    per = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
    return PadicPoint(pre, per)


@pytest.mark.parametrize(
    "backend, validated",
    [(CircleBackend(), _validated_circle_point), (CantorBackend(), _validated_padic_point)],
    ids=["circle", "cantor"],
)
def test_random_point_matches_the_validated_construction(backend, validated):
    """random_point builds its point in canonical form from the draws the
    general constructors read: draw for draw the same point, with the same
    stored integers, and the generator left in the same state."""
    for seed in range(300):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(8):
            pt, ref = backend.random_point(rng), validated(ref_rng)
            assert pt == ref and hash(pt) == hash(ref) and pt.token() == ref.token()
            assert rng.getstate() == ref_rng.getstate()


# every range the samplers draw (widths 1-5, 7, 15, 16, 32 and 128, the
# circle's with negative starts), then wider ones: a width of 2**31 takes
# 32 bits, and 2**41 more than one 32-bit word
_DRAW_RANGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 6), (1, 8), (-8, 8), (1, 16),
    (0, 32), (-64, 64), (5, 133), (0, 4096), (-7, 2**31 - 7), (3, 2**31 + 3), (-(2**40), 2**40),
]


@pytest.mark.parametrize("start, stop", _DRAW_RANGES)
def test_draw_is_randrange_draw_for_draw(start, stop):
    """``draw`` and ``draws`` give the ``randrange(start, stop)`` stream of
    the same generator, value for value, and leave it in the same state."""
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        for count in (1, 0, 3, 1, 7):
            if count == 1:
                assert draw(rng, start, stop) == ref.randrange(start, stop)
            else:
                assert draws(rng, start, stop, count) == tuple(
                    ref.randrange(start, stop) for _ in range(count)
                )
            assert rng.getstate() == ref.getstate()


def test_draw_bits_is_the_bit_sum_of_draws():
    """``draw_bits(rng, k)`` is the value of the bits ``draws(rng, 0, 2, k)``,
    first bit least significant, and leaves the generator in the same
    state: each bit is ``getrandbits(2)`` redrawn while it is 2 or 3, so a
    ``getrandbits(1)`` per bit fails here."""
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        for k in range(9):
            want = sum(b << i for i, b in enumerate(draws(ref, 0, 2, k)))
            assert draw_bits(rng, k) == want
            assert rng.getstate() == ref.getstate()


def test_draw_indexing_a_tuple_is_choice():
    """``seq[draw(rng, 0, len(seq))]`` is ``rng.choice(seq)``: the way the
    samplers pick a box length."""
    for seed in range(500):
        rng, ref = random.Random(seed), random.Random(seed)
        for seq in ((4, 6, 8), (4, 8), (4, 6, 8), (1,)):
            assert seq[draw(rng, 0, len(seq))] == ref.choice(list(seq))
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("start, stop", [(0, 0), (3, 3), (5, 2), (0, -1), (-8, -9)])
def test_an_empty_draw_range_raises(start, stop):
    """``getrandbits(0)`` is always 0, so an empty range would redraw
    forever; it raises as ``randrange`` does, and draws nothing."""
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="^empty range"):
        draw(rng, start, stop)
    for count in (0, 1, 4):
        with pytest.raises(ValueError, match="^empty range"):
            draws(rng, start, stop, count)
    with pytest.raises(ValueError, match="^empty range"):
        rng.randrange(start, stop)
    assert rng.getstate() == state


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def test_rotation_examples():
    zero = CirclePoint(QPhi(0))
    assert circle_rotate(zero, 0) == zero
    assert circle_rotate(CirclePoint(QPhi(Fraction(1, 2))), 1) == CirclePoint(
        QPhi(Fraction(-3, 2), 1)
    )
    assert circle_rotate(circle_rotate(zero, 1), -1) == zero


def test_rotation_is_additive():
    t = CirclePoint(QPhi(Fraction(1, 3), Fraction(1, 5)))
    assert circle_rotate(circle_rotate(t, 3), 4) == circle_rotate(t, 7)


@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=-10**6, max_value=10**6),
)
@settings(max_examples=300, deadline=None)
def test_rotation_matches_field_addition(a, da, b, db, k):
    """circle_rotate updates the reduced triple in place; the public
    constructor on the field sum must give the same point, in [0, 1) and
    with a reduced triple.  The odd numerator over an even denominator
    keeps the point's denominator above 1."""
    t = CirclePoint(QPhi(Fraction(2 * a + 1, 2 * da), Fraction(b, db)))
    assert t.value.p.denominator > 1
    for steps in (k, -k, 10**6, -10**6):
        r = circle_rotate(t, steps)
        assert r == CirclePoint(t.value + QPhi(-steps, steps))
        assert QPhi(0) <= r.value < QPhi(1)
        v = r.value
        assert v._d > 0 and math.gcd(v._a, v._b, v._d) == 1


def test_golden_turn_matches_sum_then_mod1():
    """``QPhi.golden_turn`` (one triple per step) against the field sum
    followed by ``mod1``, over random circle points and |k| <= 10^6."""
    rng = random.Random(12)
    backend = CircleBackend()
    for _ in range(500):
        t = backend.random_point(rng)
        k = rng.randint(-(10**6), 10**6)
        for steps in (k, -k, 0, 1, -1):
            want = (t.value + steps * GOLDEN_ANGLE).mod1()
            got = t.value.golden_turn(steps)
            assert (got._a, got._b, got._d) == (want._a, want._b, want._d)
            assert circle_rotate(t, steps).value == want


def test_rotation_bijection_sampled():
    sys = golden_rotation()
    rng = random.Random(1)
    for _ in range(100):
        p = sys.backend.random_point(rng)
        assert sys.backward(sys.forward(p)) == p
        assert sys.forward(sys.backward(p)) == p


def test_odometer_examples():
    zero = PadicPoint((), (0,))
    assert odometer_succ(zero, 1) == PadicPoint((1,), (0,))
    assert odometer_succ(PadicPoint((1, 1), (0,)), 1) == PadicPoint((0, 0, 1), (0,))
    # -1 + 1 = 0 with an infinite carry
    assert odometer_succ(PadicPoint((), (1,)), 1) == zero


def test_odometer_group_law():
    rng = random.Random(3)
    sys = odometer()
    for _ in range(50):
        p = sys.backend.random_point(rng)
        a, b = rng.randrange(-9, 10), rng.randrange(-9, 10)
        assert odometer_succ(odometer_succ(p, a), b) == odometer_succ(p, a + b)
        assert sys.backward(sys.forward(p)) == p


# ---------------------------------------------------------------------------
# dense sequences
# ---------------------------------------------------------------------------


def test_dense_sequence_finite_cycles():
    fb = FiniteBackend(2)
    assert [dense_sequence(fb, i).index for i in (1, 2, 3)] == [0, 1, 0]
    pb = point_backend()
    assert all(dense_sequence(pb, i) == FinitePoint(0, 1) for i in range(1, 9))


def test_dense_sequence_cantor_cylinder():
    cb = CantorBackend()
    # basic open number 1 is the cylinder [0]; its representatives keep
    # leading bit 0 at every repetition
    from groupoidlab.spaces import pair_index

    for rep in range(3):
        i = pair_index(1, rep) + 1
        assert dense_sequence(cb, i).bit(0) == 0


@pytest.mark.parametrize(
    "backend", [CircleBackend(), CantorBackend(), FiniteBackend(3), point_backend()]
)
def test_dense_sequence_hits_basic_opens(backend):
    counts = [0] * 20
    boxes = [backend.basic_open(b) for b in range(20)]
    if backend.basic_count is not None:
        boxes = boxes[: backend.basic_count]
        counts = counts[: backend.basic_count]
    for i in range(1, 10_001):
        x = dense_sequence(backend, i)
        for b, box in enumerate(boxes):
            if box_contains(box, x):
                counts[b] += 1
    assert all(c >= 3 for c in counts), counts


@pytest.mark.parametrize("backend", [CircleBackend(), CantorBackend(), FiniteBackend(3)])
def test_is_basic_rep_matches_the_box(backend):
    """``is_basic_rep`` is the representative test, however it gets there:
    the circle rejects long-level arcs by a denominator bound first."""
    from groupoidlab.spaces import pair_index

    reps = [box_rep_point(backend.basic_open(b)) for b in range(300)]
    points = reps[::7] + [backend.random_point(random.Random(s)) for s in range(5)]
    indices = list(range(300))
    if isinstance(backend, CircleBackend):
        rng = random.Random(12)
        indices += [pair_index(rng.randrange(30), rng.randrange(2 ** 40)) for _ in range(150)]
    for i in indices:
        rep = box_rep_point(backend.basic_open(i))
        for pt in points + [rep]:
            assert backend.is_basic_rep(i, pt) == (rep == pt), (i, pt)


@pytest.mark.parametrize(
    "backend",
    [CircleBackend(), CantorBackend(), FiniteBackend(3), point_backend()],
)
def test_dense_indices_hitting_land_in_their_box(backend):
    """The closed-form positions of every basic open's representative,
    for the first 300 basic opens (or all of a finite basis), are
    increasing and their terms are the representative, inside the box."""
    count = backend.basic_count or 300
    for b in range(min(count, 300)):
        indices = dense_indices_hitting(backend, b, 4)
        assert indices == sorted(set(indices)) and indices[0] >= 1
        box = backend.basic_open(b)
        for i in indices:
            x = dense_sequence(backend, i)
            assert backend.is_basic_rep(b, x) and box_contains(box, x), (b, i)


# ---------------------------------------------------------------------------
# exact density
# ---------------------------------------------------------------------------


def midpoint_density_oracle(points, eps):
    """Independent circle oracle: the farthest point from the sample is a
    midpoint of a gap between consecutive sample values."""
    vals = sorted({p.value for p in points})
    if not vals:
        return False
    backend = CircleBackend()
    for i, v in enumerate(vals):
        nxt = vals[(i + 1) % len(vals)]
        gap = (nxt - v).mod1() if len(vals) > 1 else QPhi(1)
        mid = CirclePoint(v + gap / 2)
        if not any(backend.dist_le(mid, CirclePoint(w), eps) for w in vals):
            return False
    return True


def test_golden_orbit_prefix_density():
    """On the golden orbit of 0, the first 3 points are 1/4-dense and the
    first 2 are not, by ``eps_dense`` and by the midpoint oracle alike."""
    pts = [circle_rotate(CirclePoint(QPhi(0)), k) for k in range(3)]
    eps = Fraction(1, 4)
    assert eps_dense(CircleBackend(), pts, eps) and midpoint_density_oracle(pts, eps)
    assert not eps_dense(CircleBackend(), pts[:2], eps)
    assert not midpoint_density_oracle(pts[:2], eps)


def test_cantor_density_bruteforce_oracle():
    sys = odometer()
    rng = random.Random(11)
    for _ in range(10):
        z = sys.backend.random_point(rng)
        pts = []
        w = z
        for _ in range(rng.randrange(1, 20)):
            pts.append(w)
            w = sys.forward(w)
        eps = Fraction(1, 2 ** rng.randrange(1, 4))
        brute = all(
            any(sys.backend.dist_le(PadicPoint(tuple((v >> j) & 1 for j in range(3)), (0,)), p, eps) for p in pts)
            for v in range(8)
        )
        assert eps_dense(sys.backend, pts, eps) == brute


def test_product_density_bucketed():
    backend = ProductBackend(CantorBackend(), FiniteBackend(2))
    pts = [
        PairPoint(PadicPoint((b0, b1), (0,)), FinitePoint(i, 2))
        for b0 in (0, 1)
        for b1 in (0, 1)
        for i in (0, 1)
    ]
    assert eps_dense(backend, pts, Fraction(1, 4))
    assert not eps_dense(backend, pts[:-1], Fraction(1, 4))


def _words_of(n):
    return [tuple((v >> j) & 1 for j in range(n)) for v in range(1 << n)]


def _circle_probes(values):
    """0 and the midpoint of the forward gap from each value to each
    other one (the whole circle from a value to itself): the point
    farthest from any subset of ``values`` is among them."""
    probes = [CirclePoint(QPhi(0))]
    for v in values:
        for w in values:
            gap = (w - v).mod1()
            probes.append(CirclePoint(v + (gap if gap != QPhi(0) else QPhi(1)) / 2))
    return probes


def _finite_case(rng):
    pts = [FinitePoint(rng.randrange(3), 3) for _ in range(rng.randrange(4))]
    return FiniteBackend(3), pts, [FinitePoint(i, 3) for i in range(3)]


def _left_bucketed_case(rng):
    pts = [
        PairPoint(FinitePoint(rng.randrange(2), 2),
                  PadicPoint(tuple(rng.randrange(2) for _ in range(3)), (rng.randrange(2),)))
        for _ in range(rng.randrange(20))
    ]
    probes = [PairPoint(FinitePoint(i, 2), PadicPoint(w, (0,))) for i in range(2) for w in _words_of(3)]
    return ProductBackend(FiniteBackend(2), CantorBackend()), pts, probes


def _right_bucketed_case(rng):
    pts = [
        PairPoint(CirclePoint(QPhi(Fraction(rng.randrange(8), 8))), FinitePoint(rng.randrange(2), 2))
        for _ in range(rng.randrange(20))
    ]
    circle = _circle_probes(sorted({p.left.value for p in pts}))
    probes = [PairPoint(c, FinitePoint(i, 2)) for c in circle for i in range(2)]
    return ProductBackend(CircleBackend(), FiniteBackend(2)), pts, probes


@pytest.mark.parametrize(
    "case", [_finite_case, _left_bucketed_case, _right_bucketed_case],
    ids=["finite", "product-left", "product-right"],
)
def test_density_bruteforce_oracle(case):
    """``eps_dense`` against the brute-force ``dist_le`` oracle over probe
    points that include the farthest point from any sample: the bucketed
    default, the countable rule and the product bucketed on either side."""
    rng = random.Random(17)
    verdicts = set()
    for _ in range(60):
        backend, pts, probes = case(rng)
        eps = Fraction(1, 2 ** rng.randrange(0, 4))
        brute = bool(pts) and all(any(backend.dist_le(q, p, eps) for p in pts) for q in probes)
        assert eps_dense(backend, pts, eps) == brute, (pts, eps)
        verdicts.add(brute)
    assert verdicts == {True, False}


def test_torus_density_sweep():
    backend = ProductBackend(CircleBackend(), CircleBackend())
    grid = [
        PairPoint(CirclePoint(QPhi(Fraction(i, 4))), CirclePoint(QPhi(Fraction(j, 4))))
        for i in range(4)
        for j in range(4)
    ]
    assert eps_dense(backend, grid, Fraction(1, 8))
    assert not eps_dense(backend, grid, Fraction(1, 16))
    assert not eps_dense(backend, grid[:-1], Fraction(1, 8))


# ---------------------------------------------------------------------------
# freeness
# ---------------------------------------------------------------------------


def test_freeness_examples():
    assert golden_rotation().period is None
    assert odometer().period is None
    assert finite_cyclic(3).period == 3


def _periods_by_walk(system, z, bound):
    """The reference for the declared period: the orbit walk it replaced."""
    return [k for k in range(1, bound + 1) if system.power(z, k) == z]


def test_freeness_random_points():
    """The one declared period of a system is the least period that the
    orbit walk finds at every sampled point, and a free system's walk
    finds none."""
    rng = random.Random(23)
    systems = [(golden_rotation(), None), (odometer(), None), (golden_double(), None)]
    systems += [(finite_cyclic(n), n) for n in range(1, 7)]
    for sys, period in systems:
        assert sys.period == period
        for _ in range(100):
            z = sys.backend.random_point(rng)
            for bound in (rng.randrange(1, 50), 50):
                walk = _periods_by_walk(sys, z, bound)
                assert walk == ([] if period is None else list(range(period, bound + 1, period)))


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------


def test_arc_membership_exact():
    a = Arc(QPhi(Fraction(3, 4)), QPhi(Fraction(1, 2)))  # wraps through 0
    assert a.contains(QPhi(Fraction(7, 8)))
    assert a.contains(QPhi(Fraction(1, 8)))
    assert not a.contains(QPhi(Fraction(1, 2)))
    assert not a.contains(QPhi(Fraction(3, 4)))  # open at the start
    assert a.contains(QPhi(Fraction(3, 4)), closed=True)


def test_arc_intersection_wrapping():
    # the wrapping arc (3/4, 5/4) contains (0, 1/4) entirely
    a = CircleBox((Arc(QPhi(Fraction(3, 4)), QPhi(Fraction(1, 2))),))
    b = CircleBox((Arc(QPhi(0), QPhi(Fraction(1, 4))),))
    got = box_intersect(a, b)
    assert len(got.arcs) == 1
    arc = got.arcs[0]
    assert arc.start == QPhi(0) and arc.length == QPhi(Fraction(1, 4))
    # partial overlap through the wrap point
    c = CircleBox((Arc(QPhi(Fraction(7, 8)), QPhi(Fraction(1, 4))),))
    got2 = box_intersect(b, c)
    (piece,) = got2.arcs
    assert piece.start == QPhi(0) and piece.length == QPhi(Fraction(1, 8))


def test_cantor_box_canonical_merge():
    assert CantorBox(((0, 0), (0, 1))).words == ((0,),)
    assert CantorBox(((0,), (1,))).words == ((),)
    assert CantorBox(((0,), (0, 1))).words == ((0,),)


def test_circle_cover_oracle():
    # four overlapping arcs of length 5/16 spaced by 1/4 cover the circle;
    # touching open arcs (length exactly 1/4) do NOT cover the seams
    arcs = tuple(
        Arc(QPhi(Fraction(k, 4)) - QPhi(Fraction(1, 16)), QPhi(Fraction(5, 16)))
        for k in range(4)
    )
    assert circle_covered_by_arcs(arcs, CIRCLE_FULL)
    assert not circle_covered_by_arcs(arcs[:3], CIRCLE_FULL)
    seams = tuple(Arc(QPhi(Fraction(k, 4)), QPhi(Fraction(1, 4))) for k in range(4))
    assert not circle_covered_by_arcs(seams, CIRCLE_FULL)


def test_box_rep_points_inside():
    rng = random.Random(5)
    for backend in (CircleBackend(), CantorBackend(), FiniteBackend(4)):
        for i in range(12):
            box = backend.basic_open(i)
            assert box_contains(box, box_rep_point(box))


_QUARTER = QPhi(Fraction(1, 4))
_FULL_FINITE = FiniteBox(frozenset(range(4)), 4)
_BOXES = {
    "arcs": CircleBox((Arc(QPhi(0), _QUARTER), Arc(QPhi(Fraction(1, 2)), _QUARTER / 2))),
    "circle": CIRCLE_FULL,
    "cylinders": CantorBox(((0,), (1, 1))),
    "cantor": CANTOR_FULL,
    "finite": FiniteBox(frozenset({0, 2}), 4),
    "finite-full": _FULL_FINITE,
}


def _in_closure(b, pt) -> bool:
    if isinstance(b, CircleBox):
        return b.full or any(a.contains(pt.value, closed=True) for a in b.arcs)
    # cylinders and finite sets are clopen
    return b.contains(pt)


@pytest.mark.parametrize("name", sorted(_BOXES))
def test_box_method_set(name):
    """Every box kind answers the shared method set consistently on
    itself, maps under the identity to itself and names a point outside
    its closure unless that is everything."""
    b = _BOXES[name]
    assert b.contains(b.rep_point()) and box_contains(b, box_rep_point(b))
    assert b.intersect(b) == b == box_intersect(b, b)
    assert b.covered_by([b], closure=False)
    assert b.image(lambda p: p) == b
    out = b.point_outside_closure()
    assert (out is None) == (b in (CIRCLE_FULL, CANTOR_FULL, _FULL_FINITE))
    if out is not None:
        assert not _in_closure(b, out)


def test_basic_open_enumeration_total():
    # every index yields a non-empty box, however deep the enumeration
    rng = random.Random(9)
    for backend in (CircleBackend(), CantorBackend(), FiniteBackend(5)):
        for _ in range(60):
            i = rng.randrange(10_000)
            if backend.basic_count is not None:
                i %= backend.basic_count
            box = backend.basic_open(i)
            assert box_contains(box, box_rep_point(box))


# ---------------------------------------------------------------------------
# box translation is derived from the system's own map
# ---------------------------------------------------------------------------


def golden_double() -> MinimalSystem:
    """Rotation by 2*(phi - 1): an isometry other than the vetted rotation."""
    return MinimalSystem(
        "golden-double",
        CircleBackend(),
        lambda p, k: circle_rotate(p, 2 * k),
        period=None,
        point_like_ktheory=True,
    )


def _random_qphi(rng):
    return QPhi(Fraction(rng.randrange(-16, 16), rng.randrange(1, 9)),
                Fraction(rng.randrange(-4, 4), rng.randrange(1, 5)))


def _box_and_points(system, rng):
    """A random box of the system's space plus points that probe it,
    including the anchors and far ends of its pieces."""
    backend = system.backend
    points = [backend.random_point(rng) for _ in range(4)]
    if isinstance(backend, CircleBackend):
        arcs = []
        for _ in range(rng.randrange(1, 4)):
            length = QPhi(Fraction(rng.randrange(1, 17), 16))
            arcs.append(Arc(_random_qphi(rng), length))
        for a in arcs:
            points += [CirclePoint(a.start), CirclePoint(a.end),
                       CirclePoint(a.start + a.length / 2)]
        return CircleBox(tuple(arcs), full=rng.randrange(8) == 0), points
    if isinstance(backend, CantorBackend):
        words = [tuple(rng.randrange(2) for _ in range(rng.randrange(0, 6)))
                 for _ in range(rng.randrange(1, 4))]
        points += [PadicPoint(w, (rng.randrange(2),)) for w in words]
        return CantorBox(tuple(words)), points
    n = backend.size
    keep = frozenset(i for i in range(n) if rng.randrange(2))
    return FiniteBox(keep, n), points + [FinitePoint(i, n) for i in range(n)]


@pytest.mark.parametrize(
    "system",
    [golden_rotation(), odometer(), finite_cyclic(5), golden_double()],
    ids=lambda s: s.name,
)
@given(seed=st.integers(0, 2**32), k=st.integers(-300, 300))
@settings(max_examples=150, deadline=None)
def test_translate_box_commutes_with_the_map(system, seed, k):
    box, points = _box_and_points(system, random.Random(seed))
    moved = system.translate_box(box, k)
    for p in points:
        assert box_contains(moved, system.power(p, k)) == box_contains(box, p)


def test_boxes_cover_open_target_and_closure():
    quarter = CircleBox((Arc(QPhi(0), QPhi(Fraction(1, 4))),))
    # an open arc lies in itself but its closure does not
    assert quarter.covered_by([quarter], closure=False)
    assert not quarter.covered_by([quarter])
    halves = [CircleBox((Arc(QPhi(0), QPhi(Fraction(1, 2))),)),
              CircleBox((Arc(QPhi(Fraction(1, 2)), QPhi(Fraction(1, 2))),))]
    # two open half-circles miss their common end points
    assert not CircleBox((), True).covered_by(halves)
    assert CantorBox(((),)).covered_by([CantorBox(((0,),)), CantorBox(((1,),))])
    assert not FiniteBox(frozenset({0, 1}), 2).covered_by([FiniteBox(frozenset({0}), 2)])


@pytest.mark.parametrize(
    "point, token",
    [
        (CirclePoint(QPhi(Fraction(-1, 2), Fraction(1, 2))), "C:-1/2:1/2"),
        (PadicPoint((0, 1, 1), (1, 0)), "P:011.10"),
        (FinitePoint(2, 4), "F:2/4"),
        (PairPoint(PairPoint(PadicPoint((), (0,)), FinitePoint(0, 1)), CirclePoint(QPhi(0))),
         "((P:.0;F:0/1);C:0:0)"),
        (PairPoint(FinitePoint(1, 3), PairPoint(FinitePoint(0, 1), FinitePoint(2, 4))),
         "(F:1/3;(F:0/1;F:2/4))"),
    ],
)
def test_point_token_roundtrip(point, token):
    assert point.token() == token
    assert point_from_token(token) == point


@pytest.mark.parametrize(
    "token", ["Q:.0", "(P:.0;F:0/1;F:0/1)", "((P:.0;F:0/1))", "F:x/1", "F:0/*", "F:3/3", "F:0"]
)
def test_point_token_rejects(token):
    with pytest.raises(ValueError):
        point_from_token(token)


def _point_by_resplitting(tok: str):
    """The reference parse: strip, then split the inner text of a pair
    with ``split_top_level`` again at every level."""
    tok = tok.strip()
    if tok.startswith("(") and tok.endswith(")"):
        parts = spaces.split_top_level(tok[1:-1])
        if len(parts) != 2:
            raise ValueError(f"malformed pair token {tok!r}")
        return PairPoint(_point_by_resplitting(parts[0]), _point_by_resplitting(parts[1]))
    kind, _, rest = tok.partition(":")
    if kind not in spaces._POINT_PARSERS:
        raise ValueError(f"unknown point token {tok!r}")
    return spaces._POINT_PARSERS[kind](rest)


_LEAF_TOKENS = ["P:.0", "P:1.01", "F:0/1", "F:2/3", "C:1/2:0", "C:0:-1/3"]
_pair_tokens = st.recursive(
    st.sampled_from(_LEAF_TOKENS),
    lambda inner: st.tuples(st.sampled_from(["", " ", "\t"]), inner, inner).map(
        lambda t: f"({t[0]}{t[1]};{t[2]}{t[0]})"
    ),
    max_leaves=8,
)
_token_pieces = st.lists(
    st.sampled_from(["(", ")", ";", " ", "P:.0", "F:0/1", "C:0:0", "Q:1", "F:2/1", "()"]),
    max_size=14,
).map("".join)


@given(st.one_of(_pair_tokens, _token_pieces))
@settings(max_examples=600, deadline=None)
def test_point_token_parse_matches_resplitting(tok):
    """The one-scan parse accepts exactly the tokens the per-level
    re-split accepted, with the same point or the same error."""
    try:
        want = _point_by_resplitting(tok)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            point_from_token(tok)
        assert str(got.value) == str(exc)
    else:
        assert point_from_token(tok) == want


@pytest.mark.parametrize("depth", [1, 250, 500, 5000])
def test_point_token_parse_scans_once(monkeypatch, depth):
    """A pair token is scanned for its split points once, whatever its
    depth: the characters scanned equal its length, where re-splitting
    every level scanned about depth x length / 2.  Past the recursion
    limit the token is still refused as RecursionError, after that one
    scan."""
    scanned = []
    for name in ("_scan_depths", "split_top_level"):
        original = getattr(spaces, name)

        def counted(text, original=original):
            scanned.append(len(text))
            return original(text)

        monkeypatch.setattr(spaces, name, counted)
    token = "(P:.0;" * depth + "F:0/1" + ")" * depth
    if depth > 1000:
        with pytest.raises(RecursionError):
            point_from_token(token)
    else:
        point = point_from_token(token)
        for _ in range(depth):
            assert point.left == PadicPoint((), (0,))
            point = point.right
        assert point == FinitePoint(0, 1)
    assert scanned == [len(token)]


# the kind classes of spaces.py, and every module that must reach the
# space kinds only through backend and point methods
_KIND_CLASS = re.compile(r"(Circle|Cantor|Padic|Finite)(Point|Box|Backend)")


@pytest.mark.parametrize("module", ["cli", "graphs", "ktheory", "boundary"])
def test_space_kinds_stay_in_spaces(module):
    source = Path(groupoidlab.__file__).with_name(f"{module}.py").read_text()
    named = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert not sorted(n for n in named if _KIND_CLASS.fullmatch(n))


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_box_and_backend_kinds_own_their_operations():
    """Each box kind keeps its operations on its class: no ``isinstance``
    in the package names a box class, and ``eps_dense`` names no concrete
    backend class."""
    box_classes = {c.__name__ for c in get_args(Box)}
    backend_classes = {
        c.__name__ for c in vars(spaces).values()
        if isinstance(c, type) and issubclass(c, SpaceBackend) and c is not SpaceBackend
    }
    switches = []
    for path in sorted(Path(groupoidlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and _names(node) & box_classes):
                switches.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.FunctionDef) and node.name == "eps_dense":
                switches += sorted(_names(node) & backend_classes)
    assert len(box_classes) == 3 and "ProductBackend" in backend_classes
    assert not switches, switches


def test_every_draw_goes_through_draw():
    """Every random draw of the package goes through ``spaces.draw``,
    ``spaces.draws`` and ``spaces.draw_bits``, which read only
    ``getrandbits``: no module calls ``randrange``, ``randint`` or
    ``choice``, and ``getrandbits`` is read inside those three alone."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(groupoidlab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("randrange", "randint", "choice")
    ]
    assert not calls, calls
    readers = {}
    for path in sorted(Path(groupoidlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {
            id(node): f"{path.name}:{fn.name}"
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "getrandbits":
                where = owner.get(id(node), f"{path.name}:{node.lineno}")
                readers[where] = readers.get(where, 0) + 1
    assert readers == {"spaces.py:draw": 1, "spaces.py:draws": 1, "spaces.py:draw_bits": 1}, readers


def test_path_kinds_own_their_operations():
    """Each boundary-path kind answers for itself through its methods: no
    ``isinstance`` outside ``boundary.py`` names a boundary-path class."""
    path_classes = {c.__name__ for c in get_args(BoundaryPath)}
    switches = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(groupoidlab.__file__).parent.glob("*.py"))
        if path.name != "boundary.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        and _names(node) & path_classes
    ]
    assert len(path_classes) == 2
    assert not switches, switches


@pytest.mark.parametrize("module", ["groupoid", "cli"])
def test_trusted_construction_stays_with_the_path_classes(module):
    """``_unchecked`` constructors skip validation; only the modules that
    own the path and point classes may call them, where the invariant they
    rely on is stated."""
    source = Path(groupoidlab.__file__).with_name(f"{module}.py").read_text()
    calls = [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_unchecked"
    ]
    assert not calls, f"{module}.py calls _unchecked at lines {calls}"


_PACKAGE = Path(groupoidlab.__file__).parent
_REPO = _PACKAGE.parents[1]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")
    + sorted(_REPO.glob("tests/*.py"))
    + sorted(_REPO.glob("demos/*.py")),
    ids=lambda p: p.stem,
)
def test_every_import_is_used(path):
    """Every name a module, test file or demo imports is used in that
    file, so a deletion leaves no stale import behind (``__init__.py``
    imports to re-export, and an import marked ``# noqa: F401`` is kept
    for its side effect)."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        and "# noqa: F401" not in lines[node.lineno - 1]
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name} never uses {sorted(imported - used)}"


#: module-level names that no other part of the package names, each kept
#: for the reason given
_KEPT_UNREFERENCED = {
    "shift": "timed by the benchmark tracer (bench/tracing.py SPANS), ROADMAP item 8",
    "qphi_min": "timed by the benchmark tracer, ROADMAP item 8",
    "qphi_max": "timed by the benchmark tracer, ROADMAP item 8",
    "qphi_sign": "timed by the benchmark tracer, ROADMAP item 8",
    "random_path_from": "timed by the benchmark tracer, ROADMAP item 8",
    "BasicOpenBisection": "the exact bisection certificate, ROADMAP item 2",
    "stabilize_ktheory": "the stable claim's K-theory, ROADMAP item 1",
    "homeo_h": "the boundary homeomorphism, acceptance criteria 7 and 8",
    "homeo_h_inv": "its inverse, acceptance criteria 7 and 8",
    "principality_sample": "the sampled principality oracle: bench/workloads.py and "
    "acceptance criterion 2 call it",
    "isotropy_search": "the public isotropy decider within a window (principality_sample "
    "reads the same shift_period once); timed by the benchmark tracer",
}


def test_every_module_level_name_is_used():
    """Every module-level ``def`` or ``class`` of the package is named
    somewhere in the package outside its own definition and
    ``__init__.py``, or is kept above with its reason, so code that
    nothing reaches shows up when its last caller goes."""
    tops = [
        node
        for path in sorted(_PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.parse(path.read_text()).body
    ]
    named = [_names(node) for node in tops]
    unused = sorted(
        node.name
        for i, node in enumerate(tops)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in names for j, names in enumerate(named) if j != i)
    )
    assert unused == sorted(_KEPT_UNREFERENCED), unused
