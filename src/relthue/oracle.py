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
every cell follows by integer additions.

Packed planes.  Each (y2, x2) plane, the difference of order i in x1 and k
in y1 at every point of the plane, is one Python integer of (2H+1)^2 lanes
of W bits, lane t = (y2 + H)*(2H+1) + (x2 + H) at bit t*W.  By Newton's
formula the plane is the sum over (j, l) of the corner difference of order
(i, j, k, l) times the plane of C(x2 + H, j)*C(y2 + H, l), and those
binomial planes are built once per box.  A packed integer is the sum of its
lane values times 2^(t*W), so adding two planes adds them lane by lane as an
exact integer identity, whatever the signs.  Stepping y1 adds the planes of
each order in y1 to the next lower one and gives, at each y1, the n + 1
differences in x1; each x1 step is then n big-integer additions per
coordinate.

Lane width.  At a point corner + t of the box (0 <= t_a <= 2H) the
difference of order a is the sum over b of T[a + b] * prod C(t_a, b_a), T
the corner tableau, so its size is at most the sum of |T[a + b]| *
prod C(2H, b_a); that bound is taken one axis at a time, in O(n) terms per
tableau entry.  W exceeds its bit length by two, so every entry the sweep
holds lies strictly between -2^(W-2) and 2^(W-2).  Only the value plane
carries a bias of 2^(W-2) in every lane: its lanes then lie in
[0, 2^(W-1)), so they are its base-2^W digits and each top bit, the guard
bit, is clear.  The difference planes stay plain signed integers.

Filter, then exact test.  A kept cell has v^2 + m*u2^2 <= bound, so
|v| <= isqrt(bound) and |u2| <= isqrt(bound // m).  Adding a constant to
every lane of a value plane sets a lane's guard bit exactly when the lane
reaches a threshold, with no carry out of the lane; two such sums, for
-radius and radius + 1, mark every lane inside the range at once.  This is
not pruning: the ranges follow from the inequality itself, every cell is
still visited, and the cells that pass are decided by v^2 + m*u2^2 <= bound
exactly.  Runtime is O(H^4) lane operations, O(H^2) big-integer additions of
O(H^2 * W) bits each; memory is the C(n+2, 2) planes per coordinate and the
C(n+2, 2) binomial planes, O(n^2 * H^2 * W) bits.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, floor, isqrt
from typing import NamedTuple

from .forms import BinaryForm
from .quadfield import QuadraticField

Quad = tuple[int, int, int, int]
Table = dict[tuple[int, ...], int]  # forward differences at the corner, by order (i, j, k, l)


class OracleResult(NamedTuple):
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


def _sweep(planes: list[int], count: int):
    """planes[0] at count consecutive points; each step adds to every difference plane the next order's."""
    for _ in range(count - 1):
        yield planes[0]
        for i in range(len(planes) - 1):
            planes[i] += planes[i + 1]
    yield planes[0]


def _tableau(seeds: Table, n: int) -> Table:
    """Forward differences at the corner of every order in the simplex, from the seeds, one axis at a time."""
    table = dict(seeds)
    for axis in range(4):
        for start in [key for key in table if key[axis] == 0]:
            line = [(*start[:axis], t, *start[axis + 1 :]) for t in range(n + 1 - sum(start))]
            table.update(zip(line, _differences([table[key] for key in line])))
    return table


def _tableaux(field: QuadraticField, form: BinaryForm, height: int) -> tuple[Table, Table]:
    """The corner tableaux of v and u2, from F at the C(n+4, 4) seeds."""
    s, n = field.s, form.degree
    orders = [order for order in product(range(n + 1), repeat=4) if sum(order) <= n]
    seeds = [field.evaluate_form(form, (i - height, j - height, k - height, l - height)) for i, j, k, l in orders]
    return (
        _tableau({o: s * g1 + (s - 1) * g2 for o, (g1, g2) in zip(orders, seeds)}, n),
        _tableau({o: g2 for o, (_, g2) in zip(orders, seeds)}, n),
    )


def _lane_width(tables: tuple[Table, ...], n: int, side: int) -> int:
    """W for both coordinates: 2^(W-2) exceeds |entry| of every plane the sweep holds."""
    binomials = [comb(side - 1, b) for b in range(n + 1)]
    bound = {key: max(abs(table[key]) for table in tables) for key in tables[0]}
    for axis in range(4):
        bound = {
            key: sum(
                bound[(*key[:axis], key[axis] + b, *key[axis + 1 :])] * binomials[b] for b in range(n + 1 - sum(key))
            )
            for key in bound
        }
    # the sweep holds the orders (i, 0, k, 0) over the (y2, x2) plane
    return max(bound[i, 0, k, 0] for i in range(n + 1) for k in range(n + 1 - i)).bit_length() + 2


def _window(bias: int, radius: int, ones: int) -> tuple[int, int]:
    """Addends that set a biased lane's guard bit from bias - radius on, and from bias + radius + 1 on."""
    guard = 2 * bias
    return (guard - (bias - radius)) * ones, (guard - (bias + radius + 1)) * ones


def brute_force(field: QuadraticField, form: BinaryForm, K, height: int) -> OracleResult:
    if height < 0:
        raise ValueError("height must be nonnegative")
    if K < 0:
        raise ValueError("K must be nonnegative")
    s, m, n = field.s, field.m, form.degree
    # norms are integers, so norm <= K^2 exactly when s^2 * norm = v^2 + m*u2^2 <= s^2 * floor(K^2)
    bound = s * s * floor(Fraction(K) ** 2)
    side = 2 * height + 1
    span = range(-height, height + 1)
    tables = _tableaux(field, form, height)
    width = _lane_width(tables, n, side)
    bias, lane = 1 << (width - 2), (1 << width) - 1
    rows = [sum(comb(c, j) << (c * width) for c in range(side)) for j in range(n + 1)]
    columns = [sum(comb(b, l) << (b * side * width) for b in range(side)) for l in range(n + 1)]
    binomial_planes = {(j, l): rows[j] * columns[l] for j in range(n + 1) for l in range(n + 1 - j)}
    ones = binomial_planes[0, 0]
    guards = ones << (width - 1)
    # a radius of at least 2^(W-2) - 1 would let every lane pass; capped there, the addends stay nonnegative
    v_low, v_high = _window(bias, min(isqrt(bound), bias - 1), ones)
    u_low, u_high = _window(bias, min(isqrt(bound // m), bias - 1), ones)

    def x_planes(table: Table):
        """For y1 = -H, ..., H: the x1-differences of orders 0..n at x1 = -H, each a packed (y2, x2) plane."""
        y_planes = [
            [
                sum(table[i, j, k, l] * plane for (j, l), plane in binomial_planes.items() if j + l <= n - i - k)
                for k in range(n + 1 - i)
            ]
            for i in range(n + 1)
        ]
        y_planes[0][0] += bias * ones
        return map(list, zip(*(_sweep(planes, side) for planes in y_planes)))

    found = []
    for y1, real_planes, imag_planes in zip(span, x_planes(tables[0]), x_planes(tables[1])):
        for x1, values, imag_values in zip(span, _sweep(real_planes, side), _sweep(imag_planes, side)):
            # guard bits of the lanes whose v and u2 both lie in range: set by the low addend, not by the high one
            passed = ((values + v_low) ^ (values + v_high)) & ((imag_values + u_low) ^ (imag_values + u_high)) & guards
            while passed:
                t = passed.bit_length() // width - 1
                passed ^= 1 << (t * width + width - 1)
                v = (values >> (t * width) & lane) - bias
                u = (imag_values >> (t * width) & lane) - bias
                if (scaled_norm := v * v + m * u * u) <= bound:
                    y2, x2 = divmod(t, side)
                    y2, x2 = y2 - height, x2 - height
                    found.append((field.norm(y1, y2), (x1, x2, y1, y2), scaled_norm // (s * s)))
    found.sort(key=lambda t: (t[0], t[1][2], t[1][3], t[1][0], t[1][1]))
    return OracleResult(tuple((quad, nv) for _, quad, nv in found))
