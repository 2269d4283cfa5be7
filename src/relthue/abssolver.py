"""Height-bounded enumeration of absolute Thue inequalities |F(a, b)| <= K'.

F(-a, -b) = (-1)^n F(a, b), so only b >= 0 is searched and each pair with
b < 0 is a negated one.  For b = 0, f is monic, so F(a, 0) = a^n and
|a| <= K'^(1/n).

For b > 0 and |F(a, b)| <= K', let rho_j be the root nearest a/b.  Every
other factor has |a - rho_i*b| >= |rho_i - rho_j|*b/2, so the product of the
n factors gives

    |a - rho_j*b| <= min(W, 2^(n-1)*K' / (b^(n-1)*B)),

where W = max(1, K'^(1/n)) bounds the smallest of n factors whose product is
at most K', and B = ``RootData.gap_product_lower`` bounds the product of the
gaps at any root from below.  So for each b every a within that half-width
of some root interval times b is evaluated: the windows shrink like
b^-(n-1), and once they are narrower than one cell each root holds at most
one candidate per b, and most b hold none.  The window ends are floors and
ceilings of integer numerators over one common denominator.

Every candidate is kept only after exact evaluation of F, so no step rounds
and the listing is exhaustive for |b| <= height.  Completeness is claimed
only within the height bound, which the result carries.  The cost is
O(n*height) window ends plus the cells inside them, in place of
O(n*height*K'^(1/n)) cells for fixed windows of half-width W.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm

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
    cap = floor(bound)  # values are integers, so |F(a, b)| <= bound exactly when |F(a, b)| <= floor(bound)
    found: list[tuple[int, int, int]] = []

    # b = 0: monic f gives F(a, 0) = a^n, so |a| <= bound^(1/n)
    a_cap = _poly.iroot(cap, n)
    for a in range(-a_cap, a_cap + 1):
        value = form.evaluate(a, 0)
        if abs(value) <= cap:
            found.append((a, 0, value))

    # b > 0: half-width min(window, spread / b^(n-1)) around each root interval times b
    window = max(Fraction(1), nth_root_upper(bound, n, 32))
    spread = 2 ** (n - 1) * bound / roots.gap_product_lower
    unit = lcm(*(end.denominator for interval in roots.intervals for end in interval))
    centers = [(int(lo * unit), int(hi * unit)) for lo, hi in roots.intervals]
    positive = []
    for b in range(1, height + 1):
        w_num, w_den = window.numerator, window.denominator
        if spread.numerator * w_den < w_num * spread.denominator * b ** (n - 1):
            w_num, w_den = spread.numerator, spread.denominator * b ** (n - 1)
        den, reach = unit * w_den, w_num * unit
        ranges = [(-((reach - lo * b * w_den) // den), (hi * b * w_den + reach) // den) for lo, hi in centers]
        start = ranges[0][0]  # the ranges are sorted; overlapping ones are scanned once
        for a_lo, a_hi in ranges:
            for a in range(max(a_lo, start), a_hi + 1):
                value = form.evaluate(a, b)
                if abs(value) <= cap:
                    positive.append((a, b, value))
            start = max(start, a_hi + 1)

    sign = (-1) ** n
    found += positive
    found += [(-a, -b, sign * value) for a, b, value in positive]
    found.sort(key=lambda t: (t[1], t[0]))
    return AbsSolutionSet(bound=bound, height=height, solutions=tuple(found))
