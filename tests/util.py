"""Shared helpers for the test suite: independent oracles and small builders.

The rectangle scan here is deliberately naive — it shares no pruning logic
with the package — so it can serve as ground truth for the windowed scan.
The windowed scan is the absolute enumeration the package used before its
windows shrank with b, kept as the reference for ``solve_abs`` at heights
where the rectangle is too large.  The cell scan is the brute-force oracle
as it was before it stepped by forward differences: one evaluation of F per
cell, kept as the reference for ``brute_force``.  The ring helpers give the
tests products, conjugates and part squares to check ``QuadraticField.norm``
against.  The exact kernels as they were before each job had one helper are
kept as references too: the Sturm chain with remainders divided over the
rationals, the gap enclosures from a nested loop over ordered root pairs, and
F evaluated in the ring from power tables of x and y.  The root isolation as
it was before the certified Newton jump is kept as well: Sturm bisection of
the Cauchy radius with both ends counted at every node, then bisection one
level at a time.
"""

from __future__ import annotations

import cProfile
import pstats
from collections import Counter
from fractions import Fraction
from math import ceil, floor, gcd, isqrt, lcm
from pathlib import Path

from hypothesis import assume
from hypothesis import strategies as st

import relthue
from relthue import BinaryForm, QuadraticField, RingElement, check_admissible
from relthue._poly import iroot, sign_at, sturm_chain, variations
from relthue.oracle import OracleResult
from relthue.rootbounds import RootData, isolate_roots, nth_root_upper


def count_roots(chain, lo, hi) -> int:
    """Distinct real roots in (lo, hi]: the sign changes of the Sturm chain lost from lo to hi."""
    return variations(chain, lo) - variations(chain, hi)


def form_from_roots(roots) -> BinaryForm:
    """Monic product of (x - r*y) over the given integer roots."""
    coeffs = [1]
    for r in roots:
        coeffs = [0] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= r * coeffs[k + 1]
    return BinaryForm(tuple(coeffs))


def rectangle_solutions(form: BinaryForm, bound, ymax: int) -> set[tuple[int, int]]:
    """Full-rectangle scan of |F(a, b)| <= bound, |b| <= ymax.

    The per-b a-range max|root|*|b| + K'^(1/n) provably contains every
    solution: if all factors |a - root_j*b| exceeded K'^(1/n) the product
    would exceed the bound.
    """
    bound = Fraction(bound)
    data = isolate_roots(form, Fraction(1, 2**10))
    root_cap = max(max(abs(lo), abs(hi)) for lo, hi in data.intervals)
    window = max(Fraction(1), nth_root_upper(bound, form.degree, 16))
    out = set()
    for b in range(-ymax, ymax + 1):
        a_cap = ceil(root_cap * abs(b) + window) + 1
        for a in range(-a_cap, a_cap + 1):
            if abs(form.evaluate(a, b)) <= bound:
                out.add((a, b))
    return out


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


def window_scan(form: BinaryForm, bound, height: int) -> tuple[tuple[int, int, int], ...]:
    """(a, b, F(a, b)) with |F(a, b)| <= bound and |b| <= height, sorted by (b, a).

    For every b it scans a window of half-width max(1, bound^(1/n)) around
    each root interval times b: if all n factors |a - root_j*b| exceeded
    bound^(1/n), their product would exceed the bound.
    """
    bound = Fraction(bound)
    roots = isolate_roots(form)
    n = form.degree
    window = max(Fraction(1), nth_root_upper(bound, n, 32))
    found = []
    a_cap = iroot(floor(bound), n) if bound >= 1 else 0
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
    return tuple(found)


@st.composite
def admissible_forms(draw):
    """Admissible forms of degree 3-5: split, partly split or root-free.

    A partly split form is a product of distinct linear factors and an irreducible real quadratic; a
    root-free one (in most draws) is a split form with f(0) moved by at most 3, kept when still admissible.
    """
    n = draw(st.integers(3, 5))
    kind = draw(st.sampled_from(("split", "partly split", "root-free")))
    if kind == "partly split":
        b, c = draw(st.integers(-4, 4)), draw(st.integers(-10, 2))
        disc = b * b - 4 * c
        assume(disc > 0 and isqrt(disc) ** 2 != disc)
        linear = form_from_roots(draw(st.lists(st.integers(-5, 5), min_size=n - 2, max_size=n - 2, unique=True)))
        coeffs = [0] * (n + 1)
        for i, u in enumerate(linear.coeffs):
            for j, v in enumerate((c, b, 1)):
                coeffs[i + j] += u * v
    else:
        coeffs = list(form_from_roots(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n, unique=True))).coeffs)
        if kind == "root-free":
            coeffs[0] += draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    form = BinaryForm(tuple(coeffs))
    assume(check_admissible(form).ok)
    return form


def profiled_calls(fn, *args) -> tuple[object, Counter]:
    """fn(*args) and the number of calls per (module, function) of the package during it."""
    # cProfile counts calls by code object, so no import alias can hide one
    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args)
    calls = Counter()
    for (filename, _, name), (_, total_calls, *_) in pstats.Stats(profiler).stats.items():
        if Path(filename).parent == Path(relthue.__file__).parent:
            calls[Path(filename).stem, name] += total_calls
    return result, calls


def cell_scan(field: QuadraticField, form: BinaryForm, K, height: int) -> OracleResult:
    """``brute_force`` one cell at a time: F evaluated afresh at every quadruple of [-H, H]^4."""
    K_sq = Fraction(K) ** 2
    span = range(-height, height + 1)
    found = []
    for y1 in span:
        for y2 in span:
            y = RingElement(y1, y2)
            norm_y = field.norm(y)
            for x1 in span:
                for x2 in span:
                    x = RingElement(x1, x2)
                    value = field.evaluate_form(form, x, y)
                    if field.norm(value) <= K_sq:
                        found.append((norm_y, (x1, x2, y1, y2), field.norm(value)))
    found.sort(key=lambda t: (t[0], t[1][2], t[1][3], t[1][0], t[1][1]))
    return OracleResult(height=height, solutions=tuple((quad, nv) for _, quad, nv in found))


def mul(field: QuadraticField, z: RingElement, v: RingElement) -> RingElement:
    """z*v, with w^2 = w - (1+m)/4 (s = 2) or (i*sqrt(m))^2 = -m (s = 1)."""
    if field.s == 2:
        cross = z.u2 * v.u2
        return RingElement(z.u1 * v.u1 - (1 + field.m) // 4 * cross, z.u1 * v.u2 + z.u2 * v.u1 + cross)
    return RingElement(z.u1 * v.u1 - field.m * z.u2 * v.u2, z.u1 * v.u2 + z.u2 * v.u1)


def conj(field: QuadraticField, z: RingElement) -> RingElement:
    """Complex conjugate, in the same basis: conj(w) = 1 - w (s = 2)."""
    if field.s == 2:
        return RingElement(z.u1 + z.u2, -z.u2)
    return RingElement(z.u1, -z.u2)


def real_part_sq(field: QuadraticField, z: RingElement) -> Fraction:
    """Exact square of Re(z)."""
    if field.s == 2:
        return Fraction((2 * z.u1 + z.u2) ** 2, 4)
    return Fraction(z.u1 * z.u1)


def imag_part_sq(field: QuadraticField, z: RingElement) -> Fraction:
    """Exact square of Im(z)."""
    if field.s == 2:
        return Fraction(field.m * z.u2 * z.u2, 4)
    return Fraction(field.m * z.u2 * z.u2)


def fraction_sturm_chain(coeffs) -> tuple[tuple[int, ...], ...]:
    """``_poly.sturm_chain`` with each remainder divided over the rationals, then scaled to coprime integers."""

    def primitive(poly):
        scale = lcm(*(Fraction(c).denominator for c in poly))
        ints = [int(c * scale) for c in poly]
        return tuple(c // gcd(*ints) for c in ints)

    def remainder(num, den):
        rem = [Fraction(c) for c in num]
        while len(rem) >= len(den) and rem:
            factor, shift = rem[-1] / den[-1], len(rem) - len(den)
            for i, d in enumerate(den):
                rem[shift + i] -= factor * d
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return rem

    chain = [primitive(coeffs)]
    chain.append(primitive([k * chain[0][k] for k in range(1, len(chain[0]))]))
    while rem := remainder(chain[-2], chain[-1]):
        chain.append(primitive([-c for c in rem]))
    return tuple(chain)


def nested_gap_enclosures(intervals):
    """``rootbounds._gap_enclosures`` by a nested loop over the ordered pairs (i, j), i != j."""
    n = len(intervals)
    a_lo = min(intervals[j + 1][0] - intervals[j][1] for j in range(n - 1))
    a_hi = min(intervals[j + 1][1] - intervals[j][0] for j in range(n - 1))
    b_lo = b_hi = None
    for i in range(n):
        p_lo = p_hi = Fraction(1)
        for j in range(n):
            if j > i:
                p_lo *= intervals[j][0] - intervals[i][1]
                p_hi *= intervals[j][1] - intervals[i][0]
            elif j < i:
                p_lo *= intervals[i][0] - intervals[j][1]
                p_hi *= intervals[i][1] - intervals[j][0]
        b_lo = p_lo if b_lo is None else min(b_lo, p_lo)
        b_hi = p_hi if b_hi is None else min(b_hi, p_hi)
    return a_lo, a_hi, b_lo, b_hi


def power_table_evaluate(field: QuadraticField, form: BinaryForm, x: RingElement, y: RingElement) -> RingElement:
    """F(x, y) in the ring as sum c_k x^k y^(n-k), from tables of the powers of x and of y."""
    n = form.degree
    xp, yp = [RingElement(1, 0)], [RingElement(1, 0)]
    for _ in range(n):
        xp.append(mul(field, xp[-1], x))
        yp.append(mul(field, yp[-1], y))
    terms = [mul(field, xp[k], yp[n - k]) for k in range(n + 1)]
    return RingElement(
        sum(c * t.u1 for c, t in zip(form.coeffs, terms)), sum(c * t.u2 for c, t in zip(form.coeffs, terms))
    )


def bisection_isolation(form: BinaryForm, width, start: RootData | None = None) -> RootData:
    """``isolate_roots(form, width)``, or ``refine(form, start, width)``, by bisection alone.

    The Sturm chain bisects (-R, R] with R the Cauchy radius 2^bitlen(1 + max|c_k|), counting the roots of
    every node afresh; each irrational root's interval is then halved one level at a time by the sign of f,
    and neighbours that still touch are halved together until they are strictly apart.
    """
    f, width = form.coeffs, Fraction(width)

    def bisect(lo, hi, target):
        sign_hi = sign_at(f, hi)
        while hi - lo > target:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if sign_at(f, mid) == sign_hi else (mid, hi)
        return [lo, hi]

    if start is None:
        chain = sturm_chain(f)
        radius = 1 << (1 + max(abs(c) for c in f[:-1])).bit_length()
        exact, items, work = [], [], [(Fraction(-radius), Fraction(radius))]
        while work:
            lo, hi = work.pop()
            count = count_roots(chain, lo, hi)
            if count == 1 and hi - lo <= 1:
                if sign_at(f, hi) == 0:
                    exact.append(int(hi))
                else:
                    items.append([lo, hi])
            elif count:
                mid = (lo + hi) / 2
                work += [(lo, mid), (mid, hi)]
        exact.sort()
        items += [[Fraction(r), Fraction(r)] for r in exact]
    else:
        exact, items = start.integer_roots, [list(iv) for iv in start.intervals]
    items = sorted(iv if iv[0] == iv[1] else bisect(*iv, width) for iv in items)
    for left, right in zip(items, items[1:]):
        while left[1] >= right[0]:
            for iv in (left, right):
                if iv[0] != iv[1]:
                    iv[:] = bisect(*iv, (iv[1] - iv[0]) / 2)
    intervals = tuple((lo, hi) for lo, hi in items)
    return RootData(intervals, tuple(exact), *nested_gap_enclosures(intervals))
