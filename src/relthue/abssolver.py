"""Height-bounded enumeration of absolute Thue inequalities |F(a, b)| <= K'.

For each 0 < |b| <= Y_max candidates are restricted to integer windows around
root_j * b: if the product of the n factors |a - root_j * b| is at most K',
the smallest factor is at most K'^(1/n), so a lies within
W = max(1, ub(K'^(1/n))) of some root center (window widened by the root
enclosure).  Every candidate is then verified by exact evaluation, and the
windows argument makes the listing exhaustive for |b| <= Y_max.  Completeness
is claimed only within the height bound, which the result carries explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from . import _poly
from .forms import BinaryForm, IntegerPair
from .rootbounds import RootData, isolate_roots, nth_root_upper


@dataclass(frozen=True)
class AbsSolutionSet:
    """All (a, b) with |b| <= height and |F(a, b)| <= bound, sorted by (b, a)."""

    bound: Fraction
    height: int
    solutions: tuple[tuple[int, int, int], ...]  # (a, b, F(a, b))

    def pairs(self) -> tuple[IntegerPair, ...]:
        return tuple((a, b) for a, b, _ in self.solutions)

    def values_index(self) -> dict[int, list[IntegerPair]]:
        index: dict[int, list[IntegerPair]] = {}
        for a, b, v in self.solutions:
            index.setdefault(v, []).append((a, b))
        return index


def _merge_ranges(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(ranges):
        if lo > hi:
            continue
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def solve_abs(
    form: BinaryForm,
    bound,
    height: int,
    roots: RootData | None = None,
) -> AbsSolutionSet:
    """Enumerate |F(a, b)| <= bound for |b| <= height, exhaustively."""
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if height < 0:
        raise ValueError("height must be nonnegative")
    if roots is None:
        roots = isolate_roots(form)
    n = form.degree
    window = max(Fraction(1), nth_root_upper(bound, n, 32))
    found: list[tuple[int, int, int]] = []

    # b = 0: monic f gives F(a, 0) = a^n, so |a| <= bound^(1/n)
    a_cap = _poly.iroot(floor(bound), n) if bound >= 1 else 0
    for a in range(-a_cap, a_cap + 1):
        value = form.evaluate(a, 0)
        if abs(value) <= bound:
            found.append((a, 0, value))

    for b in range(-height, height + 1):
        if b == 0:
            continue
        ranges = []
        for lo, hi in roots.intervals:
            center_lo, center_hi = (lo * b, hi * b) if b > 0 else (hi * b, lo * b)
            ranges.append((ceil(center_lo - window), floor(center_hi + window)))
        for a_lo, a_hi in _merge_ranges(ranges):
            for a in range(a_lo, a_hi + 1):
                value = form.evaluate(a, b)
                if abs(value) <= bound:
                    found.append((a, b, value))

    found.sort(key=lambda t: (t[1], t[0]))
    return AbsSolutionSet(bound=bound, height=height, solutions=tuple(found))

