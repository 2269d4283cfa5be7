"""Machine-speed reference: op times are reported at a fixed reference speed.

The shared virtual machine this benchmark was built on changes speed by
±20% over tens of seconds (process CPU time drifts just as much as wall
time, so the slowdown is not stolen time).  Raw wall times of two runs of the
same code therefore differ by more than any useful regression bound.  Every
op is bracketed by a fixed pure-Python computation that uses no relthue code
(``reference_work``); an op's time is scaled by REFERENCE_S over the mean of
the two bracketing reference times, which cancels most of the drift.  A
scaled time reads "seconds on a machine where the reference takes
REFERENCE_S", close to wall seconds on the machine described in RECORD.md.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0014  # nominal time of one reference_work() call
REPEATS = 3


def reference_work() -> int:
    """A fixed mix like relthue's own: Fraction and big-integer arithmetic, calls, dicts."""
    total = Fraction(0)
    for i in range(1, 160):
        total += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    value = 0
    for x in range(-80, 81):
        value += ((x**5 - 4 * x**3 * 7) * 3**40) // (2 * x * x + 1)
    seen = {}
    for i in range(1200):
        seen[(i * 7919) % 1009, i % 3] = i
    return value + len(seen) + total.denominator % 97


def reference_seconds() -> float:
    """Median wall time of REPEATS reference_work() calls, measured now."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference took ``reference``, at reference speed."""
    return seconds * REFERENCE_S / reference
