"""Independent brute-force enumeration of the relative inequality over a box.

Visits every coordinate quadruple (x1, x2, y1, y2) in [-H, H]^4 once and
keeps those with norm(F(x, y)) <= K^2, exactly.  Shares only the ring
arithmetic with the solver — no pruning logic — so it serves as ground truth
for the reduction.

For fixed y, G(x1, x2) = F(x1 + x2*w, y) has integer coordinates and total
degree at most n in (x1, x2), so its forward differences of order i in x1
and j in x2 vanish for i + j > n, and those of order i + j <= n at (-H, -H)
need only the seed values G(-H + i, -H + j) with i + j <= n (some seeds lie
outside the box when 2H+1 < n+1).  The rest of the y-slice follows by
additions alone: running sums in x2 give the x1-differences at the start of
every row, and running sums of those give the row's values, n integer-pair
additions per cell.  Runtime is O(H^4), with (n+1)(n+2)/2 evaluations of F
per y.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import floor

from .forms import BinaryForm
from .quadfield import QuadraticField, RingElement

Quad = tuple[int, int, int, int]


@dataclass(frozen=True)
class OracleResult:
    height: int
    solutions: tuple[tuple[Quad, int], ...]  # (quadruple, norm of F), solver sort order

    def quadruples(self) -> set[Quad]:
        return {quad for quad, _ in self.solutions}


def _differences(values: list[int]) -> list[int]:
    """Forward differences of orders 0, 1, ..., len - 1 of values at their first point."""
    diffs = list(values)
    for order in range(1, len(diffs)):
        for i in range(len(diffs) - 1, order - 1, -1):
            diffs[i] -= diffs[i - 1]
    return diffs


def _run(diffs: list[int], length: int) -> list[int]:
    """p(0), ..., p(length - 1) for the polynomial p whose forward differences at 0 are diffs."""
    values = [diffs[-1]] * length
    for d in reversed(diffs[:-1]):
        values = list(accumulate(values[: length - 1], initial=d))
    return values


def _row_starts(seed_rows: list[list[int]], side: int) -> list[list[int]]:
    """starts[i][t]: the i-th x1-difference at (-H, -H + t), from the seed rows x2 = -H + j.

    Row j holds the n + 1 - j seeds x1 = -H, ..., -H + n - j.
    """
    row_diffs = [_differences(row) for row in seed_rows]
    count = len(row_diffs)
    return [_run(_differences([d[i] for d in row_diffs[: count - i]]), side) for i in range(count)]


def brute_force(field: QuadraticField, form: BinaryForm, K, height: int) -> OracleResult:
    if height < 0:
        raise ValueError("height must be nonnegative")
    # Norms are integers, so norm <= K^2 exactly when norm <= floor(K^2).
    bound = floor(Fraction(K) ** 2)
    n = form.degree
    side = 2 * height + 1
    span = range(-height, height + 1)
    seeds = range(-height, -height + n + 1)
    # field.norm of (u1, u2), inlined: a RingElement per cell would cost more than the additions.
    cross, c = (1, (1 + field.m) // 4) if field.s == 2 else (0, field.m)
    found = []
    for y1 in span:
        for y2 in span:
            y = RingElement(y1, y2)
            norm_y = field.norm(y)
            seed_values = [
                [field.evaluate_form(form, RingElement(x1, x2), y) for x1 in seeds[: n + 1 - j]]
                for j, x2 in enumerate(seeds)
            ]
            starts1 = _row_starts([[v.u1 for v in row] for row in seed_values], side)
            starts2 = _row_starts([[v.u2 for v in row] for row in seed_values], side)
            for t, x2 in enumerate(span):
                row1 = _run([d[t] for d in starts1], side)
                row2 = _run([d[t] for d in starts2], side)
                for x1, u1, u2 in zip(span, row1, row2):
                    value_norm = u1 * u1 + cross * u1 * u2 + c * u2 * u2
                    if value_norm <= bound:
                        found.append((norm_y, (x1, x2, y1, y2), value_norm))
    found.sort(key=lambda t: (t[0], t[1][2], t[1][3], t[1][0], t[1][1]))
    return OracleResult(height=height, solutions=tuple((quad, nv) for _, quad, nv in found))
