import random
from fractions import Fraction
from math import floor, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidlab.qphi import GOLDEN_ANGLE, PHI, QPhi, qphi_mod1, qphi_sign


def fibonacci_bounds(n=60):
    """Rational lower/upper bounds for phi from consecutive Fibonacci
    ratios; the oracle interval is ~1e-24 wide at n=60."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    lo, hi = Fraction(b, a), Fraction(a + b, b)
    return (lo, hi) if lo < hi else (hi, lo)


PHI_LO, PHI_HI = fibonacci_bounds()


def interval_sign(p: Fraction, q: Fraction):
    """Sign of p + q*phi by interval arithmetic; None when the interval
    straddles zero (never happens for the sampled denominators)."""
    cands = [p + q * PHI_LO, p + q * PHI_HI]
    lo, hi = min(cands), max(cands)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    if lo == hi == 0:
        return 0
    return None


def test_sign_examples():
    assert qphi_sign(0, 0) == 0
    assert qphi_sign(1, -1) == -1  # 1 - phi < 0
    assert qphi_sign(-1, 1) == 1  # phi - 1 > 0


def test_sign_against_interval_oracle():
    rng = random.Random(20240517)
    for _ in range(10_000):
        p = Fraction(rng.randrange(-40, 41), rng.randrange(1, 20))
        q = Fraction(rng.randrange(-40, 41), rng.randrange(1, 20))
        expected = interval_sign(p, q)
        if expected is None:
            assert p == 0 and q == 0
            expected = 0
        assert qphi_sign(p, q) == expected


@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
)
@settings(max_examples=200, deadline=None)
def test_rational_embedding_matches_fractions(a, b):
    # with q = 0 the field arithmetic is plain rational arithmetic
    x, y = QPhi(a), QPhi(b)
    assert (x + y).p == a + b and (x + y).q == 0
    assert (x * y).p == a * b and (x * y).q == 0
    assert (x - y).p == a - b
    assert (x < y) == (a < b)
    assert floor(x) == floor(a)


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.fractions(min_value=-20, max_value=20, max_denominator=20),
)
@settings(max_examples=300, deadline=None)
def test_floor_and_mod1(p, q):
    x = QPhi(p, q)
    n = floor(x)
    r = x.mod1()
    assert QPhi(0) <= r < QPhi(1)
    assert r + n == x
    # floor agrees with the interval oracle
    lo = p + q * (PHI_LO if q >= 0 else PHI_HI)
    hi = p + q * (PHI_HI if q >= 0 else PHI_LO)
    assert floor(lo) <= n <= floor(hi)


@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
)
@settings(max_examples=300, deadline=None)
def test_qphi_mod1_of_a_triple_matches_the_constructor(a, b, d):
    # one reduction of (a + b*phi)/d gives the canonical triple in [0, 1)
    x = qphi_mod1(a, b, d)
    ref = QPhi(Fraction(a, d), Fraction(b, d)).mod1()
    assert x == ref and hash(x) == hash(ref)
    assert QPhi(0) <= x < QPhi(1)


def test_ring_structure():
    assert PHI * PHI == PHI + 1  # phi^2 = phi + 1
    assert GOLDEN_ANGLE == PHI - 1
    # phi * (phi - 1) = 1
    assert PHI * GOLDEN_ANGLE == QPhi(1)


def test_mul_mixed():
    x = QPhi(Fraction(1, 2), Fraction(1, 3))
    assert x * 6 == QPhi(3, 2)
    assert 6 * x == x * 6
    assert x / 2 == QPhi(Fraction(1, 4), Fraction(1, 6))


def test_order_is_total():
    rng = random.Random(7)
    vals = [QPhi(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)),
                 Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))) for _ in range(40)]
    s = sorted(vals)
    for a, b in zip(s, s[1:]):
        assert not b < a


def test_hash_consistent_with_eq():
    assert hash(QPhi(Fraction(2, 4), 0)) == hash(QPhi(Fraction(1, 2), 0))
    assert QPhi(Fraction(2, 4)) == QPhi(Fraction(1, 2))


def test_sign_zero_only_at_origin():
    # p + q*phi = 0 with rational p, q forces p = q = 0
    with pytest.raises(ValueError):
        qphi_sign("not a number", 0)
    assert qphi_sign(Fraction(-1), Fraction(1, 2)) != 0


# ---------------------------------------------------------------------------
# the integer-triple core against the two-Fraction reference
# ---------------------------------------------------------------------------
#
# The reference below is the arithmetic of Q(phi) written on the two
# rational coefficients of p + q*phi, the way QPhi computed it when it
# stored two Fractions.  Each operation of the triple (a + b*phi)/d must
# agree with it.


def ref_sign(p: Fraction, q: Fraction) -> int:
    # with p = a/b, q = c/d: sign of (2ad + bc) + bc*sqrt(5)
    a, b = p.numerator, p.denominator
    c, d = q.numerator, q.denominator
    if c == 0:
        return (a > 0) - (a < 0)
    t = 2 * a * d + b * c
    s = b * c
    if s > 0:
        if t >= 0:
            return 1
        return 1 if t * t < 5 * s * s else -1
    if t <= 0:
        return -1
    return -1 if t * t < 5 * s * s else 1


def ref_floor(p: Fraction, q: Fraction) -> int:
    # 2bd*(p + q*phi) = (2ad + bc) + bc*sqrt(5)
    a, b = p.numerator, p.denominator
    c, d = q.numerator, q.denominator
    big_r = 2 * a * d + b * c
    big_s = b * c
    if big_s >= 0:
        t = big_r + isqrt(5 * big_s * big_s)
    else:
        t = big_r - isqrt(5 * big_s * big_s) - 1
    return t // (2 * b * d)


def ref_mod1(p, q):
    return p - ref_floor(p, q), q


def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_mul(x, y):
    (p1, q1), (p2, q2) = x, y
    return p1 * p2 + q1 * q2, p1 * q2 + q1 * p2 + q1 * q2


def coeffs(x: QPhi):
    return x.p, x.q


# denominators with common factors, so sums and products need reduction
rationals = st.builds(
    Fraction,
    st.integers(min_value=-10**6, max_value=10**6),
    st.sampled_from([1, 2, 3, 4, 6, 9, 12, 35, 60, 97, 1024, 10**6 + 3]),
)
pairs = st.tuples(rationals, rationals)
# a small pool, so equal values built in different ways come up often
small = st.tuples(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2, 4), Fraction(3)]),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(2, 6)]),
)


@given(pairs)
@settings(max_examples=300, deadline=None)
def test_sign_matches_reference(x):
    assert QPhi(*x).sign() == ref_sign(*x)
    assert qphi_sign(*x) == ref_sign(*x)


@given(pairs, pairs)
@settings(max_examples=300, deadline=None)
def test_order_matches_reference(x, y):
    s = ref_sign(x[0] - y[0], x[1] - y[1])
    a, b = QPhi(*x), QPhi(*y)
    assert (a < b) == (s < 0)
    assert (a <= b) == (s <= 0)
    assert (a > b) == (s > 0)
    assert (a >= b) == (s >= 0)


@given(pairs)
@settings(max_examples=300, deadline=None)
def test_floor_and_mod1_match_reference(x):
    v = QPhi(*x)
    assert floor(v) == ref_floor(*x)
    assert coeffs(v.mod1()) == ref_mod1(*x)


@given(pairs, pairs)
@settings(max_examples=300, deadline=None)
def test_add_mul_match_reference(x, y):
    a, b = QPhi(*x), QPhi(*y)
    assert coeffs(a + b) == ref_add(x, y)
    assert coeffs(a - b) == ref_add(x, (-y[0], -y[1]))
    assert coeffs(a * b) == ref_mul(x, y)


@given(pairs, rationals)
@settings(max_examples=200, deadline=None)
def test_mixed_operands_match_reference(x, r):
    a = QPhi(*x)
    assert coeffs(a + r) == coeffs(r + a) == ref_add(x, (r, Fraction(0)))
    assert coeffs(a * r) == coeffs(r * a) == ref_mul(x, (r, Fraction(0)))
    assert coeffs(r - a) == ref_add((r, Fraction(0)), (-x[0], -x[1]))
    if r:
        assert coeffs(a / r) == (x[0] / r, x[1] / r)


@given(small, small, pairs)
@settings(max_examples=300, deadline=None)
def test_eq_and_hash_match_reference(x, y, z):
    a, b, c = QPhi(*x), QPhi(*y), QPhi(*z)
    assert (a == b) == (x == y)
    if a == b:
        assert hash(a) == hash(b)
    # the same value reached through arithmetic is the same key
    for same in ((a + c) - c, (a * 3) / 3, a * QPhi(1), -(-a)):
        assert same == a and hash(same) == hash(a)
    assert len({a, b, (a + c) - c}) == (1 if x == y else 2)


@given(pairs)
@settings(max_examples=200, deadline=None)
def test_repr_and_str_match_reference(x):
    p, q = x
    v = QPhi(p, q)
    assert repr(v) == (f"QPhi({p})" if q == 0 else f"QPhi({p}, {q})")
    assert str(v) == (str(p) if q == 0 else f"{p}+{q}phi")
