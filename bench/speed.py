"""Scaling measured times to a nominal machine speed.

The benchmark box shares its cores with other machines, and the speed of
the same pure-Python computation there drifted by a factor of up to two
within an hour.  ``Clock.timed`` therefore brackets every timed segment
with a fixed reference job that runs none of the program's code, and
reports the segment's time multiplied by the nominal reference time over
the mean of the two neighbouring reference timings.  On the box this was
measured on, reference and workload timings taken side by side correlate
at about 0.8, and scaling cut the spread of repeated config times from
0.23 to 0.14.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

REFERENCE_REPEATS = 5
# Median time of reference_work on a quiet core of the box the README's
# figures come from; scaled times are seconds at that speed.
REFERENCE_NOMINAL_S = 0.05


@dataclass(frozen=True)
class _Pt:
    a: Fraction
    b: int


def reference_work() -> int:
    """A fixed job with the program's kind of work (exact fractions,
    frozen dataclasses, tuple keys, dict updates) and none of its code."""
    table = {}
    for i in range(1, 4001):
        q = Fraction(i, 3 * i + 1) * Fraction(7, i + 2) - Fraction(1, 5)
        p = _Pt(q, i % 17)
        table[p] = table.get(p, 0) + 1
        if (q.numerator ^ q.denominator) & 1:
            table[(i, q.denominator % 97)] = i
    return len(table)


class Clock:
    def __init__(self):
        self.marks: list[float] = []

    def mark(self) -> float:
        times = []
        for _ in range(REFERENCE_REPEATS):
            t = perf_counter()
            reference_work()
            times.append(perf_counter() - t)
        self.marks.append(statistics.median(times))
        return self.marks[-1]

    def scaled(self, raw: float, before: float, after: float) -> float:
        return raw * REFERENCE_NOMINAL_S * 2 / (before + after)

    def timed(self, fn, *args):
        """(result, raw seconds, scaled seconds) of fn(*args)."""
        before = self.marks[-1] if self.marks else self.mark()
        t = perf_counter()
        out = fn(*args)
        raw = perf_counter() - t
        return out, raw, self.scaled(raw, before, self.mark())
