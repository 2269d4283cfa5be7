"""Independent brute-force enumeration of the relative inequality over a box.

Visits every coordinate quadruple (x1, x2, y1, y2) in [-H, H]^4 once and
keeps those with norm(F(x, y)) <= K^2, exactly.  Shares only the ring
arithmetic with the solver — no pruning logic — so it serves as ground truth
for the reduction.

G(x1, x2, y1, y2) = F(x1 + x2*w, y1 + y2*w) = u1 + u2*w is walked in two
integer coordinates, v = s*u1 + (s-1)*u2 (s times its real part) and u2, with
s^2 * norm(G) = v^2 + m*u2^2.  Each is a polynomial of total degree at most n
in all four variables, so its forward differences of order (i, j, k, l)
vanish for i + j + k + l > n, and those of order i + j + k + l <= n at the
corner (-H, -H, -H, -H) need only the C(n+4, 4) seed values
G(-H + i, -H + j, -H + k, -H + l) with i + j + k + l <= n (some seeds lie
outside the box when 2H+1 < n+1).  F is evaluated only there, once per box;
every cell follows by integer additions.  Running sums over y2 and x2 spread
the differences of each order (i, k) in (x1, y1) over the whole (y2, x2)
plane at (x1, y1) = (-H, -H), as flat lists.  Stepping y1 adds those planes
elementwise and gives, at each y1, the n + 1 differences in x1 over the
plane; each x1 step then takes n plane additions per coordinate, and one
pass keeps the cells whose norm is at most floor(K^2).  Runtime is O(H^4);
memory is the C(n+2, 2) planes of (2H+1)^2 integers per coordinate,
O(n^2 * H^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import floor
from operator import add

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


def _sweep(planes: list[list[int]], count: int):
    """planes[0] at count consecutive points; each step adds to every difference plane the next order's."""
    for _ in range(count - 1):
        yield planes[0]
        for i in range(len(planes) - 1):
            planes[i] = list(map(add, planes[i], planes[i + 1]))
    yield planes[0]


def _tableau(seeds: dict[tuple[int, ...], int], n: int) -> dict[tuple[int, ...], int]:
    """Forward differences at the corner of every order in the simplex, from the seeds, one axis at a time."""
    table = dict(seeds)
    for axis in range(4):
        for start in [key for key in table if key[axis] == 0]:
            line = [(*start[:axis], t, *start[axis + 1 :]) for t in range(n + 1 - sum(start))]
            table.update(zip(line, _differences([table[key] for key in line])))
    return table


def _x_planes(table: dict[tuple[int, ...], int], n: int, side: int):
    """For y1 = -H, ..., H: the x1-differences of orders 0..n at x1 = -H, each a flat (y2, x2) plane.

    y_planes[i][k], the difference of order i in x1 and k in y1 at (-H, -H) over the plane, comes from
    running sums over y2 for each order j in x2, then over x2 for each y2.
    """
    y_planes = []
    for i in range(n + 1):
        y_planes.append([])
        for k in range(n + 1 - i):
            count = n + 1 - i - k
            by_y2 = [_run([table[i, j, k, l] for l in range(count - j)], side) for j in range(count)]
            y_planes[i].append([v for b in range(side) for v in _run([d[b] for d in by_y2], side)])
    return map(list, zip(*(_sweep(planes, side) for planes in y_planes)))


def brute_force(field: QuadraticField, form: BinaryForm, K, height: int) -> OracleResult:
    if height < 0:
        raise ValueError("height must be nonnegative")
    s, m, n = field.s, field.m, form.degree
    # norms are integers, so norm <= K^2 exactly when s^2 * norm = v^2 + m*u2^2 <= s^2 * floor(K^2)
    bound = s * s * floor(Fraction(K) ** 2)
    side = 2 * height + 1
    span = range(-height, height + 1)
    orders = [order for order in product(range(n + 1), repeat=4) if sum(order) <= n]
    seeds = [
        field.evaluate_form(form, RingElement(i - height, j - height), RingElement(k - height, l - height))
        for i, j, k, l in orders
    ]
    reals = _x_planes(_tableau({o: s * g.u1 + (s - 1) * g.u2 for o, g in zip(orders, seeds)}, n), n, side)
    imags = _x_planes(_tableau({o: g.u2 for o, g in zip(orders, seeds)}, n), n, side)
    cells = range(side * side)
    found = []
    for y1, real_planes, imag_planes in zip(span, reals, imags):
        for x1, values, imag_values in zip(span, _sweep(real_planes, side), _sweep(imag_planes, side)):
            kept = [(t, q) for t, v, u in zip(cells, values, imag_values) if (q := v * v + m * u * u) <= bound]
            for t, scaled_norm in kept:
                y2, x2 = divmod(t, side)
                y2, x2 = y2 - height, x2 - height
                found.append((field.norm(RingElement(y1, y2)), (x1, x2, y1, y2), scaled_norm // (s * s)))
    found.sort(key=lambda t: (t[0], t[1][2], t[1][3], t[1][0], t[1][1]))
    return OracleResult(height=height, solutions=tuple((quad, nv) for _, quad, nv in found))
