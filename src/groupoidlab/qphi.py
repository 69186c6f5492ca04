"""Exact arithmetic in Q(phi), phi the golden ratio.

A number ``(a + b*phi)/d`` is stored as a reduced integer triple
``(a, b, d)`` with ``d > 0`` and ``gcd(a, b, d) = 1``, so each value has
exactly one representation.  Since ``phi**2 = phi + 1`` this set is a
ring, and because ``2*(a + b*phi) = (2a + b) + b*sqrt(5)`` with
``sqrt(5)`` irrational, signs, floors and reductions mod 1 are decidable
by pure integer arithmetic.  The rational coefficients ``p = a/d`` and
``q = b/d`` of ``p + q*phi`` are available as ``Fraction`` views.  No
floating point is used anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def _sign_ab(a: int, b: int) -> int:
    # the sign of a + b*phi is the sign of (2a + b) + b*sqrt(5)
    if b == 0:
        return (a > 0) - (a < 0)
    t = 2 * a + b
    if b > 0:
        if t >= 0:
            return 1
        return 1 if t * t < 5 * b * b else -1
    if t <= 0:
        return -1
    return -1 if t * t < 5 * b * b else 1


def qphi_sign(p, q) -> int:
    """Exact sign of ``p + q*phi`` as ``-1``, ``0`` or ``+1``.

    Decided by case analysis on ``(2p + q) + q*sqrt(5)``: when the two
    terms have the same sign the answer is immediate, otherwise one
    integer squaring comparing ``(2p + q)**2`` against ``5*q**2``
    settles it.  Equality of the squares would force ``sqrt(5)`` to be
    rational, so it only occurs at ``p = q = 0``.
    """
    p, q = Fraction(p), Fraction(q)
    # scale by the positive common denominator of p and q
    return _sign_ab(p.numerator * q.denominator, q.numerator * p.denominator)


def _triple(a: int, b: int, d: int) -> "QPhi":
    """The QPhi ``(a + b*phi)/d`` for a triple already in reduced form."""
    x = object.__new__(QPhi)
    x._a = a
    x._b = b
    x._d = d
    return x


def _floor(a: int, b: int, d: int) -> int:
    """``floor(x)`` for ``x = (a + b*phi)/d``, ``d > 0``: ``2d*x = (2a + b) +
    b*sqrt5`` and ``floor(b*sqrt5) = isqrt(5*b*b)`` for ``b >= 0``; ``5*b*b``
    is never a perfect square for ``b != 0``, which settles ``b < 0`` too."""
    r = isqrt(5 * b * b)
    return (2 * a + b + (r if b >= 0 else -r - 1)) // (2 * d)


def _reduced(a: int, b: int, d: int) -> "QPhi":
    """The QPhi ``(a + b*phi)/d`` for any ``d > 0``."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _triple(a, b, d)


def qphi_mod1(a: int, b: int, d: int) -> "QPhi":
    """``(a + b*phi)/d`` reduced mod 1 into [0, 1), for any ``d > 0``,
    from the integer triple alone: no ``Fraction`` is built."""
    return _reduced(a, b, d).mod1()


class QPhi:
    """An element ``p + q*phi`` of Q(phi), held as ``(a + b*phi)/d``."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, p=0, q=0) -> None:
        if type(p) is int and type(q) is int:
            self._a, self._b, self._d = p, q, 1
            return
        p, q = Fraction(p), Fraction(q)
        pd, qd = p.denominator, q.denominator
        # over the lcm of two reduced denominators gcd(a, b, d) is already 1
        d = pd * qd // gcd(pd, qd)
        self._a = p.numerator * (d // pd)
        self._b = q.numerator * (d // qd)
        self._d = d

    @property
    def p(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def q(self) -> Fraction:
        return Fraction(self._b, self._d)

    @classmethod
    def coerce(cls, value) -> "QPhi":
        if isinstance(value, QPhi):
            return value
        return cls(value, 0)

    def __repr__(self) -> str:
        if self._b == 0:
            return f"QPhi({self.p})"
        return f"QPhi({self.p}, {self.q})"

    def __str__(self) -> str:
        if self._b == 0:
            return str(self.p)
        return f"{self.p}+{self.q}phi"

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QPhi(other)
        if not isinstance(other, QPhi):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def _cmp(self, other):
        """Sign of ``self - other``; None when ``other`` is not a number here."""
        if isinstance(other, (int, Fraction)):
            other = QPhi(other)
        elif not isinstance(other, QPhi):
            return None
        d1, d2 = self._d, other._d
        return _sign_ab(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1)

    def __lt__(self, other) -> bool:
        s = self._cmp(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other) -> bool:
        s = self._cmp(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other) -> bool:
        s = self._cmp(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other) -> bool:
        s = self._cmp(other)
        return NotImplemented if s is None else s >= 0

    def sign(self) -> int:
        return _sign_ab(self._a, self._b)

    def __add__(self, other) -> "QPhi":
        other = QPhi.coerce(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _reduced(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> "QPhi":
        return _triple(-self._a, -self._b, self._d)

    def __sub__(self, other) -> "QPhi":
        return self + (-QPhi.coerce(other))

    def __rsub__(self, other) -> "QPhi":
        return QPhi.coerce(other) + (-self)

    def __mul__(self, other) -> "QPhi":
        # (a1 + b1*phi)(a2 + b2*phi), using phi**2 = phi + 1
        other = QPhi.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 + b1 * b2, a1 * b2 + b1 * a2 + b1 * b2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QPhi":
        # division by a rational scalar only; enough for midpoints etc.
        other = Fraction(other)
        n, m = other.numerator, other.denominator
        if n == 0:
            raise ZeroDivisionError("QPhi division by zero")
        if n < 0:
            n, m = -n, -m
        return _reduced(self._a * m, self._b * m, self._d * n)

    def __floor__(self) -> int:
        return _floor(self._a, self._b, self._d)

    def golden_turn(self, k: int) -> "QPhi":
        """``(self + k*(phi - 1)) mod 1`` as one new triple: over the same
        ``d`` the sum is ``(a - k*d, b + k*d, d)`` and the reduction takes
        ``floor * d`` off ``a``.  Neither step changes ``gcd(a, b, d) = 1``."""
        d = self._d
        a, b = self._a - k * d, self._b + k * d
        return _triple(a - _floor(a, b, d) * d, b, d)

    def mod1(self) -> "QPhi":
        """Reduce into the fundamental domain [0, 1) of the circle."""
        n = _floor(self._a, self._b, self._d)
        if n == 0:
            return self
        # subtracting an integer keeps gcd(a, b, d) = 1
        return _triple(self._a - n * self._d, self._b, self._d)


#: phi itself and the golden rotation angle phi - 1 = 1/phi.
PHI = QPhi(0, 1)
GOLDEN_ANGLE = QPhi(-1, 1)


def qphi_min(a: QPhi, b: QPhi) -> QPhi:
    return a if a < b else b


def qphi_max(a: QPhi, b: QPhi) -> QPhi:
    return b if a < b else a
