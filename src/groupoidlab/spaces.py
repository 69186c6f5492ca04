"""Exact space backends and the vetted free minimal systems.

Points carry canonical exact representations (golden-field circle
values, 2-adic integers held as odd-denominator rationals and read as
eventually periodic bit streams, finite indices, pairs), so equality is
decidable and every metric comparison against a rational threshold is
exact.  Open sets are finite unions of "boxes" (arcs, cylinders and
finite index sets), which are closed under intersection and under
translation by the dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .qphi import QPhi

# frozen dataclasses and PadicPoint, which blocks attribute assignment,
# set their own fields through this
_set = object.__setattr__

# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CirclePoint:
    """A point of the circle R/Z with an exact Q(phi) coordinate in [0, 1)."""

    value: QPhi

    def __post_init__(self):
        object.__setattr__(self, "value", QPhi.coerce(self.value).mod1())

    @staticmethod
    def _unchecked(value: QPhi) -> "CirclePoint":
        # value must already be a QPhi in [0, 1)
        t = object.__new__(CirclePoint)
        _set(t, "value", value)
        return t

    def token(self) -> str:
        return f"C:{self.value.p}:{self.value.q}"

    @staticmethod
    def parse(rest: str) -> "CirclePoint":
        p, _, q = rest.partition(":")
        return CirclePoint(QPhi(Fraction(p), Fraction(q)))

    def approach(self, n: int) -> "CirclePoint":
        """The point at distance exactly 2^-(n+1), further round the circle."""
        return CirclePoint(self.value + QPhi(Fraction(1, 1 << (n + 1))))


class PadicPoint:
    """A rational 2-adic integer, seen as an eventually periodic bit stream.

    Outside, a point is ``pre + per*per*...`` read least-significant-bit
    first, with a canonical pair (primitive period, minimal preperiod).
    Inside, it is held as its rational value ``num/den`` in lowest terms
    with ``den`` odd and positive, so equality and hashing compare two
    integers and an odometer step is one integer addition.  The bit
    pair is derived from ``num/den`` on first use and then kept.
    Points are immutable.
    """

    __slots__ = ("num", "den", "_digits")

    def __init__(self, pre, per):
        pre, per = tuple(pre), tuple(per)
        if any(b not in (0, 1) for b in pre + per):
            raise ValueError("bits must be 0 or 1")
        if not per:
            raise ValueError("cycle must be non-empty")
        # the value is pre + 2^m * w/(1 - 2^L), where w is the value of
        # the period, m = len(pre) and L = len(per)
        p_val = sum(b << i for i, b in enumerate(pre))
        w = sum(b << i for i, b in enumerate(per))
        den = (1 << len(per)) - 1
        num = p_val * den - (w << len(pre))
        g = math.gcd(num, den)
        _set(self, "num", num // g)
        _set(self, "den", den // g)

    @staticmethod
    def _from_rational(num: int, den: int) -> "PadicPoint":
        # num/den must already be in lowest terms with den odd and positive
        x = object.__new__(PadicPoint)
        _set(x, "num", num)
        _set(x, "den", den)
        return x

    def __setattr__(self, name, value):
        raise AttributeError(f"PadicPoint is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PadicPoint is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, PadicPoint):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"PadicPoint(pre={self.pre!r}, per={self.per!r})"

    def __reduce__(self):
        return PadicPoint._from_rational, (self.num, self.den)

    def _pre_per(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        try:
            return self._digits
        except AttributeError:
            pass
        # digit extraction keeps the (odd) denominator fixed, so the state
        # is just the numerator; the walk is eventually periodic and the
        # first repeat gives the canonical minimal representation
        seen: dict[int, int] = {}
        bits: list[int] = []
        num, den = self.num, self.den
        while num not in seen:
            seen[num] = len(bits)
            b = num & 1
            bits.append(b)
            num = (num - b * den) >> 1
        i = seen[num]
        digits = (tuple(bits[:i]), tuple(bits[i:]))
        _set(self, "_digits", digits)
        return digits

    @property
    def pre(self) -> tuple[int, ...]:
        return self._pre_per()[0]

    @property
    def per(self) -> tuple[int, ...]:
        return self._pre_per()[1]

    def bit(self, i: int) -> int:
        pre, per = self._pre_per()
        if i < len(pre):
            return pre[i]
        return per[(i - len(pre)) % len(per)]

    def bits(self, n: int) -> tuple[int, ...]:
        return tuple(self.bit(i) for i in range(n))

    def token(self) -> str:
        return f"P:{''.join(map(str, self.pre))}.{''.join(map(str, self.per))}"

    @staticmethod
    def parse(rest: str) -> "PadicPoint":
        pre, _, per = rest.partition(".")
        return PadicPoint(tuple(map(int, pre)), tuple(map(int, per)))

    def approach(self, n: int) -> "PadicPoint":
        """The point at distance exactly 2^-(n+1): agree on the first n+1
        bits, flip the next, pad with zeros."""
        bits = list(self.bits(n + 2))
        bits[n + 1] ^= 1
        return PadicPoint(tuple(bits), (0,))


@dataclass(frozen=True)
class FinitePoint:
    """An element of a declared finite set {0, .., size-1}."""

    index: int
    size: int

    def __post_init__(self):
        if not 0 <= self.index < self.size:
            raise ValueError(f"index {self.index} out of range for size {self.size}")

    def token(self) -> str:
        return f"F:{self.index}/{self.size}"

    @staticmethod
    def parse(rest: str) -> "FinitePoint":
        idx, _, size = rest.partition("/")
        return FinitePoint(int(idx), int(size))


@dataclass(frozen=True)
class PairPoint:
    left: "Point"
    right: "Point"

    def token(self) -> str:
        return f"({self.left.token()};{self.right.token()})"


Point = CirclePoint | PadicPoint | FinitePoint | PairPoint

#: the tag before the first ':' of a point token -> parser of the rest
_POINT_PARSERS = {"C": CirclePoint.parse, "P": PadicPoint.parse, "F": FinitePoint.parse}


def split_top_level(text: str) -> list[str]:
    """``text`` split at each ';' outside parentheses."""
    depth = 0
    parts = []
    last = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ";" and depth == 0:
            parts.append(text[last:i])
            last = i + 1
    parts.append(text[last:])
    return parts


def point_from_token(tok: str) -> Point:
    """Parse ``Point.token()``: ``C:<p>:<q>``, ``P:<pre>.<per>``,
    ``F:<index>/<size>`` or ``(<point>;<point>)``."""
    tok = tok.strip()
    if tok.startswith("(") and tok.endswith(")"):
        parts = split_top_level(tok[1:-1])
        if len(parts) != 2:
            raise ValueError(f"malformed pair token {tok!r}")
        return PairPoint(point_from_token(parts[0]), point_from_token(parts[1]))
    kind, _, rest = tok.partition(":")
    if kind not in _POINT_PARSERS:
        raise ValueError(f"unknown point token {tok!r}")
    return _POINT_PARSERS[kind](rest)


def factor_point(backend: "SpaceBackend", tok: str, factor: str) -> Point:
    """``point_from_token(tok)``, which must be a point of ``backend``,
    the space a document names ``factor``."""
    pt = point_from_token(tok)
    if not backend.has_point(pt):
        raise ValueError(f"{tok.strip()} is not a point of {factor}")
    return pt


# ---------------------------------------------------------------------------
# boxes (finite unions of basic open sets)
# ---------------------------------------------------------------------------

# Every box kind owns its operations: ``contains(pt)``, ``intersect(b)``,
# ``rep_point()``, ``is_empty()``, ``covered_by(boxes, closure=True)``
# (does the union of the open ``boxes`` contain the closure of the box, or
# the box itself when ``closure`` is false), ``image(f)``, its image under
# a map of points that sends each piece to the piece of the same size at
# the image of its anchor, and ``point_outside_closure()``, or None when
# the closure is the whole space.


@dataclass(frozen=True)
class Arc:
    """Open arc (start, start+length) mod 1; 0 < length <= 1.

    Length exactly 1 is the circle minus the start point, which is a
    legitimate basic open set.
    """

    start: QPhi
    length: QPhi

    def __post_init__(self):
        object.__setattr__(self, "start", QPhi.coerce(self.start).mod1())
        object.__setattr__(self, "length", QPhi.coerce(self.length))
        if not (QPhi(0) < self.length <= QPhi(1)):
            raise ValueError("arc length must lie in (0, 1]")

    @property
    def end(self) -> QPhi:
        return (self.start + self.length).mod1()

    def contains(self, t: QPhi, closed: bool = False) -> bool:
        d = (t - self.start).mod1()
        if closed:
            return d <= self.length
        return QPhi(0) < d < self.length


@dataclass(frozen=True)
class CircleBox:
    """Finite union of open arcs, or the full circle."""

    arcs: tuple[Arc, ...]
    full: bool = False

    def is_empty(self) -> bool:
        return not self.full and not self.arcs

    def contains(self, pt: CirclePoint) -> bool:
        return self.full or any(a.contains(pt.value) for a in self.arcs)

    def intersect(self, other: "CircleBox") -> "CircleBox":
        if self.full:
            return other
        if other.full:
            return self
        arcs = [piece for x in self.arcs for y in other.arcs for piece in _arc_intersect(x, y)]
        return CircleBox(tuple(sorted(arcs, key=lambda r: (r.start, r.length))))

    def rep_point(self) -> CirclePoint:
        if self.full:
            return CirclePoint(QPhi(0))
        if not self.arcs:
            raise ValueError("empty box has no representative")
        a = self.arcs[0]
        return CirclePoint((a.start + a.length / 2).mod1())

    def image(self, f) -> "CircleBox":
        if self.full:
            return self
        return CircleBox(tuple(Arc(f(CirclePoint(a.start)).value, a.length) for a in self.arcs))

    def covered_by(self, boxes, closure: bool = True) -> bool:
        if any(b.full for b in boxes):
            return True
        return circle_covered_by_arcs(tuple(a for b in boxes for a in b.arcs), self, closure)

    def point_outside_closure(self) -> CirclePoint | None:
        if self.full:
            return None
        if not self.arcs:
            return CirclePoint(QPhi(0))
        # the complement of the closed arcs is a finite union of open
        # arcs; try the midpoint of the gap after each arc end
        for a in self.arcs:
            gaps = [g for g in ((o.start - a.end).mod1() for o in self.arcs) if g > QPhi(0)]
            t = (a.end + min(gaps, default=QPhi(1)) / 2).mod1()
            if not any(o.contains(t, closed=True) for o in self.arcs):
                return CirclePoint(t)
        return None


def _arc_intersect(a: Arc, b: Arc) -> list[Arc]:
    # work in the cover: a = (0, la) after shifting by -a.start
    la, lb = a.length, b.length
    off = (b.start - a.start).mod1()
    out = []
    for k in (QPhi(-1), QPhi(0)):
        lo = off + k  # candidate lift of b: (lo, lo + lb)
        s = lo if lo > QPhi(0) else QPhi(0)
        e = lo + lb if lo + lb < la else la
        if s < e:
            out.append(Arc((a.start + s).mod1(), e - s))
    return out


CIRCLE_FULL = CircleBox((), True)


@dataclass(frozen=True)
class CantorBox:
    """Finite union of cylinders [w] = {x : x starts with bits w}.

    Canonical form: sorted, no word an extension of another, and no two
    sibling words that could merge into their common parent.
    """

    words: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        words = set(self.words)
        changed = True
        while changed:
            changed = False
            for w in sorted(words, key=len, reverse=True):
                if w and any(w[: len(u)] == u for u in words if len(u) < len(w)):
                    words.discard(w)
                    changed = True
            for w in sorted(words, key=len, reverse=True):
                if w and w[:-1] + (1 - w[-1],) in words:
                    words.discard(w)
                    words.discard(w[:-1] + (1 - w[-1],))
                    words.add(w[:-1])
                    changed = True
                    break
        object.__setattr__(self, "words", tuple(sorted(words)))

    def is_empty(self) -> bool:
        return not self.words

    def contains(self, pt: PadicPoint) -> bool:
        return any(pt.bits(len(w)) == w for w in self.words)

    def intersect(self, other: "CantorBox") -> "CantorBox":
        return CantorBox(tuple(
            u if len(u) >= len(w) else w
            for u in self.words
            for w in other.words
            if u[: len(w)] == w[: len(u)]
        ))

    def rep_point(self) -> PadicPoint:
        if not self.words:
            raise ValueError("empty box has no representative")
        return PadicPoint(self.words[0], (0,))

    def image(self, f) -> "CantorBox":
        return CantorBox(tuple(f(PadicPoint(w, (0,))).bits(len(w)) for w in self.words))

    def covered_by(self, boxes, closure: bool = True) -> bool:
        # cylinders are closed: a box and its closure coincide
        return cantor_covered_by_words([w for b in boxes for w in b.words], self)

    def point_outside_closure(self) -> PadicPoint | None:
        for word in _words(max((len(w) for w in self.words), default=0)):
            if not any(word[: len(w)] == w for w in self.words):
                return PadicPoint(word, (0,))
        return None


def _words(n: int) -> list[tuple[int, ...]]:
    """All bit words of length n, least significant bit first."""
    return [tuple((v >> j) & 1 for j in range(n)) for v in range(1 << n)]


CANTOR_FULL = CantorBox(((),))


@dataclass(frozen=True)
class FiniteBox:
    """Subset of a finite set {0..size-1}."""

    indices: frozenset[int]
    size: int

    def is_empty(self) -> bool:
        return not self.indices

    def contains(self, pt: FinitePoint) -> bool:
        return pt.index in self.indices

    def intersect(self, other: "FiniteBox") -> "FiniteBox":
        if self.size != other.size:
            raise ValueError("finite boxes over different sets")
        return FiniteBox(self.indices & other.indices, self.size)

    def rep_point(self) -> FinitePoint:
        if not self.indices:
            raise ValueError("empty box has no representative")
        return FinitePoint(min(self.indices), self.size)

    def image(self, f) -> "FiniteBox":
        return FiniteBox(frozenset(f(FinitePoint(i, self.size)).index for i in self.indices), self.size)

    def covered_by(self, boxes, closure: bool = True) -> bool:
        return self.indices <= frozenset().union(*(b.indices for b in boxes))

    def point_outside_closure(self) -> FinitePoint | None:
        missing = next((i for i in range(self.size) if i not in self.indices), None)
        return None if missing is None else FinitePoint(missing, self.size)


Box = CircleBox | CantorBox | FiniteBox


# entry points kept by name: bench/tracing.py patches these module functions
def box_contains(b: Box, pt: Point) -> bool:
    return b.contains(pt)


def box_intersect(a: Box, b: Box) -> Box:
    return a.intersect(b)


def box_rep_point(b: Box) -> Point:
    """An explicit point inside a non-empty box."""
    return b.rep_point()


# --- exact coverage sweeps -------------------------------------------------

_LIFTS = tuple(QPhi(k) for k in (-1, 0, 1, 2))


def _lift(arcs) -> list[tuple[QPhi, QPhi]]:
    """Arcs given as (start in [0, 1), length) as intervals of the cover
    R, shifted by -1..2 so that every target inside [0, 2] sees them."""
    out = []
    for s, n in arcs:
        e = s + n
        out.extend((s + k, e + k) for k in _LIFTS)
    return out


def _sweep(start: QPhi, end: QPhi, pieces, closed_target: bool) -> bool:
    """Greedy exact test that the open intervals ``pieces`` cover
    [start, end], or (start, end) when ``closed_target`` is false.

    Each round moves ``reach`` to the furthest end of a piece that
    covers it; an open piece may only start at ``reach`` when nothing at
    ``reach`` needs covering (the open target's own start).  Reach
    strictly increases through piece ends, so the loop stops.
    """
    reach = start
    while reach <= end if closed_target else reach < end:
        touching = not closed_target and reach == start
        best = None
        for s, e in pieces:
            if (s <= reach if touching else s < reach) and e > reach and (best is None or e > best):
                best = e
        if best is None:
            return False
        reach = best
    return True


def circle_covered_by_arcs(arcs: tuple[Arc, ...], target: CircleBox, closure: bool = True) -> bool:
    """Exact test that open arcs cover the closure of ``target`` (or the
    open ``target`` itself when ``closure`` is false).

    Each target arc is checked by the greedy sweep over the arcs lifted
    to the cover.
    """
    if target.full:
        if not arcs:
            return False
        # c lies inside the first arc, so the whole circle is covered
        # exactly when (c, c + 1) or [c, c + 1] is
        c = (arcs[0].start + arcs[0].length / 2).mod1()
        targets = [(c, c + QPhi(1))]
    else:
        targets = [(a.start, a.start + a.length) for a in target.arcs]
    lifted = _lift((a.start, a.length) for a in arcs)
    return all(_sweep(s, e, lifted, closure) for s, e in targets)


def cantor_covered_by_words(words, target: CantorBox) -> bool:
    """Exact test that the cylinders of ``words`` cover ``target``."""
    words = list(words)
    if not target.words:
        return True
    if not words:
        return False
    depth = max(len(w) for w in words)

    def covered(prefix):
        if any(prefix[: len(w)] == w[: len(prefix)] and len(w) <= len(prefix) for w in words):
            return True
        if len(prefix) >= depth:
            return False
        return covered(prefix + (0,)) and covered(prefix + (1,))

    return all(covered(t) for t in target.words)


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------


def _unpair(n: int) -> tuple[int, int]:
    # inverse Cantor pairing: n -> (a, b) with index (a+b)(a+b+1)/2 + b
    w = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    return w - b, b


def pair_index(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


class SpaceBackend:
    """Base class; concrete backends fix the point type, the metric and
    a total enumeration of non-empty basic open boxes.

    The other modules reach a space kind only through this module: the
    backend declares its topology and dimension, whether the model
    graph accepts it as a factor (with the two box samplers of the
    contracting check), the resolution of the density check, and the
    K-theory of its function algebra.
    """

    #: covering dimension
    dim: int

    #: number of basic opens (None = countably many)
    basic_count: int | None

    #: the model graph accepts this space as its Z or X factor: compact,
    #: translated piece by piece (``Box.image``), with both box samplers
    model_factor: bool = False

    #: declared (rank K_0, rank K_1) of the function algebra, both groups
    #: free, None for countable rank; None when nothing is declared
    ktheory_ranks: tuple[int | None, int | None] | None = None

    def basic_open(self, i: int) -> Box:
        raise NotImplementedError

    def full_box(self) -> Box:
        raise NotImplementedError

    def is_basic_rep(self, i: int, pt: Point) -> bool:
        """Whether ``pt`` is the representative of basic open ``i``."""
        return box_rep_point(self.basic_open(i)) == pt

    def random_point(self, rng) -> Point:
        raise NotImplementedError

    def has_point(self, pt) -> bool:
        """Whether ``pt`` is a point of this space.  Documents are checked
        with it where they are read, so a point of the wrong kind never
        reaches the dynamics; paths and edges do not check it again."""
        raise NotImplementedError

    def dist_le(self, a: Point, b: Point, eps: Fraction) -> bool:
        raise NotImplementedError

    def random_box(self, rng) -> Box:
        """A random non-empty box for the Z factor of the contracting
        check, short of the whole space when it has more than one point."""
        raise NotImplementedError

    def random_box_around(self, x: Point, rng) -> Box:
        """A random box containing ``x``, for the X factor of the
        contracting check."""
        raise NotImplementedError

    def density_resolution(self, depth: int) -> tuple[Fraction, int]:
        """(eps, depth) for the density check of the model graph over
        this X: full resolution unless the dense sequence needs a long
        run-up to fill the space."""
        return Fraction(1, depth), depth

    def buckets(self, eps: Fraction):
        """If closeness at eps is an equivalence on this space, the
        (bucket key function, full list of bucket keys); else None."""
        return None

    def dense(self, points: list, eps: Fraction) -> bool:
        """Is the finite list ``points`` eps-dense (closed balls, exact)?
        By default: some point in every bucket."""
        buckets = self.buckets(eps)
        if buckets is None:
            raise NotImplementedError(f"no density test for {self!r}")
        key, keys = buckets
        return {key(p) for p in points}.issuperset(keys)

    def __repr__(self):
        return f"<{type(self).__name__}>"


class CircleBackend(SpaceBackend):
    dim = 1
    basic_count = None
    model_factor = True
    ktheory_ranks = (1, 1)

    def basic_open(self, i: int) -> Box:
        # overlapping dyadic arcs (k/2^l, (k+2)/2^l), l >= 1: a basis.
        level, k = _unpair(i)
        level += 1
        k %= 1 << level
        return CircleBox((Arc(QPhi(Fraction(k, 1 << level)), QPhi(Fraction(2, 1 << level))),))

    def full_box(self) -> Box:
        return CIRCLE_FULL

    def is_basic_rep(self, i: int, pt: CirclePoint) -> bool:
        # basic_open(i) has level L = a + 1, (a, k) = _unpair(i), and its
        # representative (k mod 2^L + 1)/2^L mod 1 has a reduced
        # denominator 2^E with E >= L + 1 - bitlength(k + 1).  A point
        # with a shorter denominator is rejected before the arc is built:
        # L grows like sqrt(2 i), and the gcds of QPhi sums over an L-bit
        # denominator are quadratic in L.
        a, k = _unpair(i)
        if a + 2 >= pt.value.p.denominator.bit_length() + (k + 1).bit_length():
            return False
        return super().is_basic_rep(i, pt)

    def random_point(self, rng) -> CirclePoint:
        p = Fraction(rng.randrange(-64, 64), rng.randrange(1, 16))
        q = Fraction(rng.randrange(-8, 8), rng.randrange(1, 8))
        return CirclePoint(QPhi(p, q))

    def has_point(self, pt) -> bool:
        return isinstance(pt, CirclePoint)

    def dist_le(self, a: CirclePoint, b: CirclePoint, eps: Fraction) -> bool:
        d = (a.value - b.value).mod1()
        # arc distance min(d, 1-d) <= eps
        return d <= QPhi(eps) or QPhi(1) - d <= QPhi(eps)

    def random_box(self, rng) -> CircleBox:
        start = QPhi(Fraction(rng.randrange(32), 32))
        length = QPhi(Fraction(rng.choice([4, 6, 8]), 32))
        return CircleBox((Arc(start, length),))

    def random_box_around(self, x: CirclePoint, rng) -> CircleBox:
        length = QPhi(Fraction(1, rng.choice([4, 8])))
        start = (x.value - length / 2).mod1()
        return CircleBox((Arc(start, length),))

    def density_resolution(self, depth: int) -> tuple[Fraction, int]:
        return Fraction(1, 4), min(depth, 16)

    def dense(self, points: list[CirclePoint], eps: Fraction) -> bool:
        return _arcs_cover_circle([p.value for p in points], QPhi(2 * eps))


class CantorBackend(SpaceBackend):
    dim = 0
    basic_count = None
    model_factor = True
    ktheory_ranks = (None, 0)

    def basic_open(self, i: int) -> Box:
        # all finite words ordered by length, then binary value
        length = 0
        base = 0
        while i >= base + (1 << length):
            base += 1 << length
            length += 1
        v = i - base
        word = tuple((v >> j) & 1 for j in range(length))
        return CantorBox((word,))

    def full_box(self) -> Box:
        return CANTOR_FULL

    def random_point(self, rng) -> PadicPoint:
        pre = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 4)))
        per = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
        return PadicPoint(pre, per)

    def has_point(self, pt) -> bool:
        return isinstance(pt, PadicPoint)

    def dist_le(self, a: PadicPoint, b: PadicPoint, eps: Fraction) -> bool:
        # d(a, b) = 2^-(longest common prefix) = 2^-v, v the 2-adic
        # valuation of a - b; the odd denominators do not change v
        if a == b:
            return True
        diff = a.num * b.den - b.num * a.den
        v = (diff & -diff).bit_length() - 1
        return Fraction(1, 1 << v) <= eps

    def random_box(self, rng) -> CantorBox:
        depth = rng.randrange(1, 4)
        return CantorBox((tuple(rng.randrange(2) for _ in range(depth)),))

    def random_box_around(self, x: PadicPoint, rng) -> CantorBox:
        return CantorBox((x.bits(rng.randrange(0, 3)),))

    def density_resolution(self, depth: int) -> tuple[Fraction, int]:
        return Fraction(1, 4), depth

    def buckets(self, eps: Fraction):
        # the closed eps-balls are the cylinders of the least depth n
        # with 2^-n <= eps
        n = 0
        while Fraction(1, 1 << n) > eps:
            n += 1
        return (lambda p: p.bits(n)), _words(n)


class FiniteBackend(SpaceBackend):
    dim = 0
    model_factor = True

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("finite backend needs at least one point")
        self.size = size
        self.basic_count = size
        self.ktheory_ranks = (size, 0)

    def basic_open(self, i: int) -> Box:
        return FiniteBox(frozenset({i % self.size}), self.size)

    def full_box(self) -> Box:
        return FiniteBox(frozenset(range(self.size)), self.size)

    def random_point(self, rng) -> FinitePoint:
        return FinitePoint(rng.randrange(self.size), self.size)

    def has_point(self, pt) -> bool:
        return isinstance(pt, FinitePoint) and pt.size == self.size

    def dist_le(self, a: FinitePoint, b: FinitePoint, eps: Fraction) -> bool:
        return a == b or eps >= 1

    def random_box(self, rng) -> FiniteBox:
        n = self.size
        keep = frozenset(i for i in range(n) if rng.randrange(2)) or frozenset({0})
        if len(keep) == n:
            keep = frozenset(list(keep)[:-1]) or frozenset({0})
        return FiniteBox(keep, n)

    def random_box_around(self, x: FinitePoint, rng) -> FiniteBox:
        return self.full_box()

    def density_resolution(self, depth: int) -> tuple[Fraction, int]:
        # the dense sequence takes its first ``size`` terms to visit every
        # point, so a shorter depth would miss some whatever the dynamics
        return Fraction(1, depth), max(depth, self.size)

    def buckets(self, eps: Fraction):
        if eps >= 1:
            return (lambda p: 0), [0]
        return (lambda p: p.index), range(self.size)

    def __repr__(self):
        return f"<FiniteBackend({self.size})>"


class ProductBackend(SpaceBackend):
    """The vertex space Z x X of a model graph: its points, the max
    metric and density.  It has no basis of its own; the graph layer
    holds its boxes as (Z box, X box) pairs."""

    def __init__(self, left: SpaceBackend, right: SpaceBackend):
        self.left = left
        self.right = right

    def random_point(self, rng) -> PairPoint:
        return PairPoint(self.left.random_point(rng), self.right.random_point(rng))

    def has_point(self, pt) -> bool:
        return (
            isinstance(pt, PairPoint)
            and self.left.has_point(pt.left)
            and self.right.has_point(pt.right)
        )

    def dist_le(self, a: PairPoint, b: PairPoint, eps: Fraction) -> bool:
        # max metric: both coordinates within eps
        return self.left.dist_le(a.left, b.left, eps) and self.right.dist_le(
            a.right, b.right, eps
        )

    def dense(self, points: list[PairPoint], eps: Fraction) -> bool:
        """Bucket the points by the first factor whose closeness at eps is
        an equivalence, and ask the other factor for density in every
        bucket (the max metric); two circles take the torus sweep."""
        for outer, inner, split in (
            (self.left, self.right, attrgetter("left", "right")),
            (self.right, self.left, attrgetter("right", "left")),
        ):
            buckets = outer.buckets(eps)
            if buckets is None:
                continue
            key, keys = buckets
            groups: dict = {}
            for p in points:
                o, i = split(p)
                groups.setdefault(key(o), []).append(i)
            return all(k in groups and inner.dense(groups[k], eps) for k in keys)
        if isinstance(self.left, CircleBackend) and isinstance(self.right, CircleBackend):
            return _torus_dense(points, eps)
        raise NotImplementedError(f"no density test for {self!r}")

    def __repr__(self):
        return f"<ProductBackend({self.left!r} x {self.right!r})>"


def point_backend() -> FiniteBackend:
    return FiniteBackend(1)


# ---------------------------------------------------------------------------
# dense sequences
# ---------------------------------------------------------------------------


def dense_sequence(backend: SpaceBackend, i: int) -> Point:
    """The i-th term (i >= 1) of a sequence visiting every basic open
    infinitely often, via the diagonal pairing (box index, repetition)."""
    if i < 1:
        raise ValueError("dense sequence is indexed from 1")
    n = i - 1
    if backend.basic_count is not None:
        box_idx = n % backend.basic_count
    else:
        box_idx, _rep = _unpair(n)
    return box_rep_point(backend.basic_open(box_idx))


def dense_indices_hitting(backend: SpaceBackend, box_idx: int, count: int) -> list[int]:
    """The first ``count`` sequence positions i whose term is the
    representative of basic open ``box_idx`` (all repetitions of it)."""
    if backend.basic_count is not None:
        base = box_idx % backend.basic_count
        return [base + 1 + k * backend.basic_count for k in range(count)]
    return [pair_index(box_idx, rep) + 1 for rep in range(count)]


# ---------------------------------------------------------------------------
# exact epsilon-density
# ---------------------------------------------------------------------------


def _torus_dense(points: list[PairPoint], eps: Fraction) -> bool:
    """Exact 2-circle density: closed eps-squares must cover the torus."""
    if not points:
        return False
    e = QPhi(eps)
    two_eps = QPhi(2 * eps)
    if two_eps >= QPhi(1):
        return True
    events = sorted({(p.left.value + s * e).mod1() for p in points for s in (-1, 1)})
    for i in range(len(events)):
        lo, hi = events[i], events[(i + 1) % len(events)]
        mid = (lo + ((hi - lo).mod1() / 2)).mod1()
        # the closed y-arcs of the squares active across this x-strip
        ys = [p.right.value for p in points if (mid - (p.left.value - e)).mod1() <= two_eps]
        if not _arcs_cover_circle(ys, two_eps):
            return False
    return True


def _arcs_cover_circle(centres: list[QPhi], width: QPhi) -> bool:
    """Closed arcs of length ``width`` around ``centres`` cover the circle
    exactly when every cyclic gap between distinct centres is at most
    ``width``."""
    vals = sorted(set(centres))
    if not vals:
        return False
    gaps = [b - a for a, b in zip(vals, vals[1:])] + [vals[0] + QPhi(1) - vals[-1]]
    return all(gap <= width for gap in gaps)


# entry point kept by name: bench/tracing.py patches this module function
def eps_dense(backend: SpaceBackend, points, eps: Fraction) -> bool:
    """Is the finite set ``points`` eps-dense (closed balls, exact)?"""
    return backend.dense(list(points), Fraction(eps))


# ---------------------------------------------------------------------------
# the two vetted free minimal systems (and a non-free control)
# ---------------------------------------------------------------------------


def circle_rotate(t: CirclePoint, steps: int) -> CirclePoint:
    """Rotate by steps * (phi - 1) on the circle, exactly: one integer
    update of the reduced triple, reduced mod 1 in the same step."""
    return CirclePoint._unchecked(t.value.golden_turn(steps))


def odometer_succ(x: PadicPoint, steps: int) -> PadicPoint:
    """Add an integer in the 2-adics with full carry propagation: on the
    value ``num/den`` that is ``num + steps*den`` over the same ``den``."""
    return PadicPoint._from_rational(x.num + steps * x.den, x.den)


class MinimalSystem:
    """A homeomorphism of a space backend with declared dynamical
    properties, used as the Z-factor of the model graph.

    The map must be an isometry that sends basic pieces to basic pieces
    (each arc, cylinder or finite index to the piece of the same size at
    the image of its anchor): box translation is derived from the map on
    anchor points alone, which is exact only under that precondition.

    ``period(p)`` is the least ``k >= 1`` with ``map^k(p) = p``, or
    ``None`` when no such ``k`` exists; the system is free exactly when
    it is ``None`` at every point.  It is declared with the map, from an
    exact argument about that map, so freeness is certified outright
    rather than by walking the orbit up to a bound.

    ``point_like_ktheory`` marks systems standing in for an infinite
    compact space whose function algebra has the K-theory of a point;
    that declared value, not the K-theory of the carrier space itself,
    is what the K-theory pipeline consumes.
    """

    def __init__(self, name, backend, power, *, period, point_like_ktheory):
        self.name = name
        self.backend = backend
        self._power = power
        self._period = period
        self.point_like_ktheory = point_like_ktheory

    def power(self, p: Point, k: int) -> Point:
        return self._power(p, k)

    def period(self, p: Point) -> int | None:
        return self._period(p)

    def forward(self, p: Point) -> Point:
        return self._power(p, 1)

    def backward(self, p: Point) -> Point:
        return self._power(p, -1)

    def translate_box(self, b: Box, k: int) -> Box:
        """Image of a box under the k-th power of the map, read off the
        images of its pieces' anchors."""
        return b.image(lambda p: self.power(p, k))

    def __repr__(self):
        return f"<MinimalSystem {self.name}>"


def golden_rotation() -> MinimalSystem:
    """Rotation by phi - 1 on the circle: free and minimal, with exact
    Q(phi) arithmetic.  No point has a period: k*(phi - 1) has phi
    coefficient k, so it is an integer only for k = 0."""
    return MinimalSystem(
        "golden-rotation",
        CircleBackend(),
        lambda p, k: circle_rotate(p, k),
        period=lambda p: None,
        point_like_ktheory=True,
    )


def odometer() -> MinimalSystem:
    """The 2-adic odometer (+1 with carry): a free minimal Cantor system.
    No point has a period: z + k = z in Z_2 only for k = 0."""
    return MinimalSystem(
        "odometer",
        CantorBackend(),
        lambda p, k: odometer_succ(p, k),
        period=lambda p: None,
        point_like_ktheory=True,
    )


def finite_cyclic(n: int) -> MinimalSystem:
    """Cyclic shift on n points: minimal but not free, since every point
    has period n; negative control."""
    backend = FiniteBackend(n)
    return MinimalSystem(
        f"finite-cyclic-{n}",
        backend,
        lambda p, k: FinitePoint((p.index + k) % n, n),
        period=lambda p: n,
        point_like_ktheory=False,
    )


#: config names of the Z systems and the X spaces -> (builder, the name of
#: its one positive-integer parameter, or None when it takes none)
SYSTEM_BUILDERS = {
    "odometer": (odometer, None),
    "golden-rotation": (golden_rotation, None),
    "finite-cyclic": (finite_cyclic, "order"),
}
X_BACKEND_BUILDERS = {
    "point": (point_backend, None),
    "cantor": (CantorBackend, None),
    "circle": (CircleBackend, None),
    "finite": (FiniteBackend, "size"),
}


# ---------------------------------------------------------------------------
# dynamical checks
# ---------------------------------------------------------------------------


def freeness_check(system: MinimalSystem, z: Point, bound: int) -> list[int]:
    """All periods 1 <= k <= bound with map^k(z) = z: the multiples of the
    system's exact least period at z.  An empty list means no period up
    to the bound; ``system.period(z) is None`` certifies that z has none
    at all."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    period = system.period(z)
    return [] if period is None else list(range(period, bound + 1, period))
