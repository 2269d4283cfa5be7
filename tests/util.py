"""Shared helpers for the test suite: independent oracles and small builders.

The rectangle scan here is deliberately naive — it shares no pruning logic
with the package — so it can serve as ground truth for the windowed scan.
The windowed scan is the absolute enumeration the package used before its
windows shrank with b, kept as the reference for ``solve_abs`` at heights
where the rectangle is too large.  The cell scan is the brute-force oracle
as it was before it stepped by forward differences: one evaluation of F per
cell, kept as the reference for ``brute_force``.  The list sweep is the
oracle as it was before its planes were packed into lanes: flat lists of
(y2, x2) values, built by running sums and stepped elementwise; it gives the
largest entry the sweep holds, which the packed lanes must fit.  The ring
helpers give the tests products, conjugates and part squares to check
``QuadraticField.norm`` against.  The exact kernels as they were before each job had one helper are
kept as references too: the Sturm chain with remainders divided over the
rationals, the gap enclosures from a nested loop over ordered root pairs, and
F evaluated in the ring from power tables of x and y.  A root isolation on
Fraction intervals is kept as well, the reference for ``isolate_roots`` and
``refine``: Sturm bisection of the Cauchy radius with both ends counted at
every node, then bisection one level at a time.  ``intervals`` is the Fraction
view of a ``RootData``'s integer ends, which only the tests read.  So are
the two reduction branches as they were before they read only the values the
absolute enumeration realized: the nonzero branch walked every integer |v|
within the part bound, and the zero branch kept the real pairs off every
root line by testing each root.  The nonzero branch also tries every
root-line real pair, as it did before the derivative test bounded them, and
reads the listing through ``values_index``, every row by its value.  Both
pair candidates as the reducer did before its parity classes and integer
kernel: every real pair is tried, kept when the divisions by s are exact,
and verified with ``evaluate_form``.  Both find every member of each orbit
of conjugation and negation, so ``representatives`` states on its own which
member the branches return.  The constants and
squared gates as they were before they were taken on integer numerators are
the references for the package's integer quotients and squared gates: every
quotient a Fraction, and the n-th root bounds derived from a Fraction power;
``constants`` and ``gaps`` are the package's own quotients and gap
enclosures, read as Fractions.  ``level64_stable_constants`` is the gate
stabilization as it was before it tried the certificate below level 64, the
reference for the gate floors and flag of every ``Problem``.
``NEAR_RATIONAL_ROOTS`` lists forms with roots next to rationals, where an
isolation's node ends close to a root.
"""

from __future__ import annotations

import cProfile
import pstats
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import ceil, floor, gcd, isqrt, lcm, prod
from operator import add
from pathlib import Path

from hypothesis import assume
from hypothesis import strategies as st

import relthue
from relthue import BinaryForm, Problem, QuadraticField, check_admissible
from relthue._poly import derivative, evaluate, iroot, sign, sturm_chain, variations
from relthue.abssolver import AbsSolutionSet
from relthue.forms import IntegerPair
from relthue.oracle import OracleResult, _tableaux
from relthue.reducer import Found
from relthue.rootbounds import ISOLATION_BITS, MAX_HALVINGS, RootData, _bounds, _dyadic_root, isolate_roots, refine


def sign_at(coeffs, x) -> int:
    """The sign of f(x) at an integer or Fraction x, from (numerator, denominator)."""
    return sign(evaluate(coeffs, x.numerator, x.denominator))


def count_roots(chain, lo, hi) -> int:
    """Distinct real roots in (lo, hi], at integers or Fractions: the chain's sign changes lost from lo to hi."""
    return variations(chain, lo.numerator, lo.denominator) - variations(chain, hi.numerator, hi.denominator)


def intervals(data: RootData) -> tuple[tuple[Fraction, Fraction], ...]:
    """The isolating intervals of ``data`` as Fractions: its ends over 2^level."""
    return tuple((Fraction(lo, 1 << data.level), Fraction(hi, 1 << data.level)) for lo, hi in data.ends)


def gaps(data: RootData) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The gap enclosures of ``data`` as Fractions: its ``gap_numerators`` over 2^level and 2^(level (n-1))."""
    gap_den, product_den = 1 << data.level, 1 << (data.level * (len(data.ends) - 1))
    dens = (gap_den, gap_den, product_den, product_den)
    return tuple(Fraction(num, den) for num, den in zip(data.gap_numerators, dens))


def constants(roots: RootData, K, epsilon) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(approx_coeff lower, upper, gate lower, upper) as Fractions of the package's integer pairs (``_bounds``).

    Those two bounds do not depend on the field, so any field serves."""
    K, epsilon = Fraction(K), Fraction(epsilon)
    k_root = _dyadic_root(K.numerator, K.denominator, len(roots.ends))
    lower, upper = (_bounds(roots, K, epsilon, k_root, QuadraticField(1), side) for side in (0, 1))
    return tuple(Fraction(num, den) for num, den in (lower[0], upper[0], lower[1], upper[1]))


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
    data = isolate_roots(form, 10)
    root_cap = max(max(abs(lo), abs(hi)) for lo, hi in intervals(data))
    window = max(Fraction(1), fraction_nth_root_upper(bound, form.degree, 16))
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


def last_window_row(roots, bound) -> int:
    """b_w: the last b whose half-width 2^(n-1) K' / (b^(n-1) B) reaches one cell, B the exact gap product."""
    n = len(roots)
    gap_product = min(prod(abs(r - q) for q in roots if q != r) for r in roots)
    return iroot(floor(2 ** (n - 1) * Fraction(bound) / gap_product), n - 1)


def window_scan(form: BinaryForm, bound, height: int) -> tuple[tuple[int, int, int], ...]:
    """(a, b, F(a, b)) with |F(a, b)| <= bound and |b| <= height, sorted by (b, a).

    For every b it scans a window of half-width max(1, bound^(1/n)) around
    each root interval times b: if all n factors |a - root_j*b| exceeded
    bound^(1/n), their product would exceed the bound.
    """
    bound = Fraction(bound)
    roots = isolate_roots(form)
    n = form.degree
    window = max(Fraction(1), fraction_nth_root_upper(bound, n, 32))
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
        for lo, hi in intervals(roots):
            center_lo, center_hi = (lo * b, hi * b) if b > 0 else (hi * b, lo * b)
            ranges.append((ceil(center_lo - window), floor(center_hi + window)))
        for a_lo, a_hi in _merge_ranges(ranges):
            for a in range(a_lo, a_hi + 1):
                value = form.evaluate(a, b)
                if abs(value) <= bound:
                    found.append((a, b, value))
    found.sort(key=lambda t: (t[1], t[0]))
    return tuple(found)


def _near_integer_roots(d):
    # x(x - 1)(x - c) + d with c = 2^70 + 3: two roots within ~2^-70 of 0 and 1, so an isolation at
    # width 2^-64 has an endpoint at 0 or 1, and the gap product is near 2^70
    coeffs = list(form_from_roots([0, 1, 2**70 + 3]).coeffs)
    coeffs[0] += d
    return tuple(coeffs)


NEAR_RATIONAL_ROOTS = (
    *(_near_integer_roots(d) for d in (1, -1, 2)),
    # x^3 - 2N x + N: a root within 1/(16N) above 1/2
    (2**70, -(2**71), 0, 1),
    (-(2**40), -(2**41), 0, 1),
    # x^3 - 100x + 1: (0, 2) solves at bound 8 next to the root near 0.01
    (1, -100, 0, 1),
)


@st.composite
def root_free_forms(draw, n: int):
    """prod(x - r_i) + delta of degree n >= 3, the r_i at least 3 apart and 1 <= |delta| <= 7: root-free by construction.

    Admissible: between neighbouring r_i the product reaches at least 1.5 * 1.5 * 4.5 > 7 in absolute value,
    with alternating signs, so adding delta keeps n distinct real roots.  No integer root: f(r_i) = delta, and
    at any other integer k the distances to the r_i are at least 1, 2 and 4, so |prod(k - r_i)| >= 8 > |delta|.
    """
    gaps = draw(st.lists(st.integers(3, 5), min_size=n - 1, max_size=n - 1))
    roots = [draw(st.integers(-12, 4))]
    for gap in gaps:
        roots.append(roots[-1] + gap)
    coeffs = list(form_from_roots(roots).coeffs)
    coeffs[0] += draw(st.sampled_from((-7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7)))
    return BinaryForm(tuple(coeffs))


@st.composite
def admissible_forms(draw):
    """Admissible forms of degree 3-7: split, partly split or root-free (:func:`root_free_forms`).

    A partly split form is a product of distinct linear factors and an irreducible real quadratic.
    """
    n = draw(st.integers(3, 7))
    kind = draw(st.sampled_from(("split", "partly split", "root-free")))
    if kind == "root-free":
        return draw(root_free_forms(n))
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
            norm_y = field.norm(y1, y2)
            for x1 in span:
                for x2 in span:
                    value_norm = field.norm(*field.evaluate_form(form, (x1, x2, y1, y2)))
                    if value_norm <= K_sq:
                        found.append((norm_y, (x1, x2, y1, y2), value_norm))
    found.sort(key=lambda t: (t[0], t[1][2], t[1][3], t[1][0], t[1][1]))
    return OracleResult(tuple((quad, nv) for _, quad, nv in found))


def _run(diffs: list[int], length: int) -> list[int]:
    """p(0), ..., p(length - 1) for the polynomial p whose forward differences at 0 are diffs."""
    values = [diffs[-1]] * length
    for d in reversed(diffs[:-1]):
        values = list(accumulate(values[: length - 1], initial=d))
    return values


def list_sweep_peak(field: QuadraticField, form: BinaryForm, height: int) -> int:
    """The largest |entry| of every (y2, x2) plane the list sweep holds over the box, for v and u2 both."""
    n, side = form.degree, 2 * height + 1
    peak = 0

    def sweep(planes: list[list[int]], count: int):
        nonlocal peak
        for step in range(count):
            peak = max(peak, *(abs(v) for plane in planes for v in plane))
            yield planes[0]
            if step < count - 1:
                planes[:-1] = [list(map(add, a, b)) for a, b in zip(planes, planes[1:])]

    for table in _tableaux(field, form, height):
        y_planes = []
        for i in range(n + 1):
            y_planes.append([])
            for k in range(n + 1 - i):
                count = n + 1 - i - k
                by_y2 = [_run([table[i, j, k, l] for l in range(count - j)], side) for j in range(count)]
                y_planes[i].append([v for b in range(side) for v in _run([d[b] for d in by_y2], side)])
        for x_planes in zip(*(sweep(planes, side) for planes in y_planes)):
            for _ in sweep(list(x_planes), side):
                pass
    return peak


def mul(field: QuadraticField, z: IntegerPair, v: IntegerPair) -> IntegerPair:
    """z*v on coordinate pairs (u1, u2), with w^2 = w - (1+m)/4 (s = 2) or (i*sqrt(m))^2 = -m (s = 1)."""
    (z1, z2), (v1, v2) = z, v
    if field.s == 2:
        cross = z2 * v2
        return (z1 * v1 - (1 + field.m) // 4 * cross, z1 * v2 + z2 * v1 + cross)
    return (z1 * v1 - field.m * z2 * v2, z1 * v2 + z2 * v1)


def conj(field: QuadraticField, z: IntegerPair) -> IntegerPair:
    """Complex conjugate, in the same basis: conj(w) = 1 - w (s = 2)."""
    u1, u2 = z
    if field.s == 2:
        return (u1 + u2, -u2)
    return (u1, -u2)


def real_part_sq(field: QuadraticField, z: IntegerPair) -> Fraction:
    """Exact square of Re(z)."""
    u1, u2 = z
    if field.s == 2:
        return Fraction((2 * u1 + u2) ** 2, 4)
    return Fraction(u1 * u1)


def imag_part_sq(field: QuadraticField, z: IntegerPair) -> Fraction:
    """Exact square of Im(z)."""
    u2 = z[1]
    if field.s == 2:
        return Fraction(field.m * u2 * u2, 4)
    return Fraction(field.m * u2 * u2)


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
    """The four gap enclosures of ``RootData`` by a nested loop over the ordered pairs (i, j), i != j."""
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


def power_table_evaluate(field: QuadraticField, form: BinaryForm, quad) -> IntegerPair:
    """F(x, y) = v1 + v2*w as (v1, v2), quad = (x1, x2, y1, y2), as sum c_k x^k y^(n-k) from power tables."""
    n, x, y = form.degree, quad[:2], quad[2:]
    xp, yp = [(1, 0)], [(1, 0)]
    for _ in range(n):
        xp.append(mul(field, xp[-1], x))
        yp.append(mul(field, yp[-1], y))
    terms = [mul(field, xp[k], yp[n - k]) for k in range(n + 1)]
    return tuple(sum(c * term[i] for c, term in zip(form.coeffs, terms)) for i in (0, 1))


def bisection_isolation(form: BinaryForm, bits: int, start: RootData | None = None) -> RootData:
    """``isolate_roots(form, bits)``, or ``refine(start, bits)`` for ``start`` of ``form``, by bisection alone.

    The Sturm chain bisects (-R, R] with R the Cauchy radius 2^bitlen(1 + max|c_k|), counting the roots of
    every node afresh; each irrational root's interval is then halved one level at a time by the sign of f
    down to width 2^-bits, and neighbours that still touch are halved together until they are strictly
    apart.  The Fraction intervals become ends over 2^level, level the largest of their denominators' levels.
    """
    f, width = form.coeffs, Fraction(1, 1 << bits)

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
        items += [[Fraction(r), Fraction(r)] for r in exact]
    else:
        items = [list(iv) for iv in intervals(start)]
    items = sorted(iv if iv[0] == iv[1] else bisect(*iv, width) for iv in items)
    for left, right in zip(items, items[1:]):
        while left[1] >= right[0]:
            for iv in (left, right):
                if iv[0] != iv[1]:
                    iv[:] = bisect(*iv, (iv[1] - iv[0]) / 2)
    found = tuple((lo, hi) for lo, hi in items)
    unit = max(end.denominator for iv in found for end in iv)
    ends = tuple((int(lo * unit), int(hi * unit)) for lo, hi in found)
    return RootData(form, unit.bit_length() - 1, ends)


def imag_value_range(problem: Problem) -> list[int]:
    """All integers v with v^2 * m^n <= (s^n K)^2 — the possible F(x2, y2) values."""
    limit = problem.abs_bound**2 / problem.field.m**problem.form.degree
    cap = isqrt(floor(limit))
    return list(range(-cap, cap + 1))


def pair_by_division(problem: Problem, imag_pair, real_pairs, found: Found) -> None:
    """The reducer's pairing as it was before the parity classes and the integer kernel.

    Each candidate is reconstructed only when the divisions by s are exact, and verified with ``evaluate_form``.
    """
    field, form, s = problem.field, problem.form, problem.field.s
    x2, y2 = imag_pair
    for a, b in real_pairs:
        if (a - (s - 1) * x2) % s or (b - (s - 1) * y2) % s:
            continue
        quad = ((a - (s - 1) * x2) // s, x2, (b - (s - 1) * y2) // s, y2)
        value_norm = field.norm(*field.evaluate_form(form, quad))
        if value_norm <= problem.norm_cap:
            found[quad] = value_norm


def values_index(abs_solutions: AbsSolutionSet) -> dict[int, list[tuple[int, int]]]:
    """Every row (a, b) of the absolute listing, by its value F(a, b), in listing order."""
    index: dict[int, list[tuple[int, int]]] = {}
    for a, b, v in abs_solutions.solutions:
        index.setdefault(v, []).append((a, b))
    return index


def range_walk_nonzero_branch(problem: Problem, abs_solutions: AbsSolutionSet) -> Found:
    """``reducer.nonzero_value_branch`` by a walk over every integer v_imag of ``imag_value_range``.

    Every real pair within the joint bound is tried, the root-line pairs of value 0 without the derivative test.
    """
    n = problem.form.degree
    index = values_index(abs_solutions)
    part_cap = floor(problem.abs_bound)  # |v_real| bound from the part inequality
    found: Found = {}
    for v_imag in imag_value_range(problem):
        if v_imag == 0:
            continue
        imag_pairs = index.get(v_imag, [])
        if not imag_pairs:
            continue
        joint = problem.abs_bound**4 / (v_imag * v_imag * 2 ** (2 * n) * problem.field.m**n)
        real_cap = min(part_cap, isqrt(floor(joint)))
        for v_real, real_pairs in index.items():
            if abs(v_real) > real_cap:
                continue
            for imag_pair in imag_pairs:
                pair_by_division(problem, imag_pair, real_pairs, found)
    return found


def root_test_zero_branch(problem: Problem, abs_solutions: AbsSolutionSet) -> Found:
    """``reducer.zero_value_branch`` with the real pairs at (x2, y2) = (0, 0) kept by testing a != r*b per root."""
    s, m, n = problem.field.s, problem.field.m, problem.form.degree
    roots = problem.roots.integer_roots
    real_pairs = [(a, b) for a, b, _ in abs_solutions.solutions]
    found: Found = {}
    pair_by_division(problem, (0, 0), [(a, b) for a, b in real_pairs if all(a != r * b for r in roots)], found)
    f_prime = derivative(problem.form.coeffs)
    bound = problem.K**2 * s ** (2 * (n - 1))
    for r in roots:
        slope_sq = evaluate(f_prime, r) ** 2
        for t in range(1, abs_solutions.height + 1):
            d_max = isqrt(floor(bound / (slope_sq * (m * t * t) ** (n - 1))))
            if d_max == 0:
                break
            window = [(a, b) for a, b in real_pairs if 0 < abs(a - r * b) <= s * d_max]
            pair_by_division(problem, (r * t, t), window, found)
            pair_by_division(problem, (-r * t, -t), window, found)
    return found


def representatives(field: QuadraticField, found: Found) -> Found:
    """The entries of ``found`` that the reduction branches return: the representative of each orbit.

    A quadruple is one when its imaginary pair (x2, y2) and its real pair (a, b) = (s*x1 + t*x2, s*y1 + t*y2)
    each lie in the upper half plane or on the nonnegative half of its axis: y2 > 0, or y2 = 0 and x2 >= 0, and
    b > 0, or b = 0 and a >= 0.
    """
    s, t = field.s, field.t

    def upper(u: int, v: int) -> bool:
        return v > 0 or (v == 0 and u >= 0)

    return {
        quad: value_norm
        for quad, value_norm in found.items()
        if upper(quad[1], quad[3]) and upper(s * quad[0] + t * quad[1], s * quad[2] + t * quad[3])
    }


def fraction_nth_root_lower(x, r: int, bits: int = 48) -> Fraction:
    """Largest c/2^bits with (c/2^bits)^r <= x, by a Fraction power: the reference for ``rootbounds._dyadic_root``."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    if r == 1:
        return x
    return Fraction(iroot((x.numerator << (bits * r)) // x.denominator, r), 1 << bits)


def fraction_nth_root_upper(x, r: int, bits: int = 48) -> Fraction:
    """Smallest c/2^bits with (c/2^bits)^r >= x: the lower bound when it is exact, else one dyadic step above."""
    lower = fraction_nth_root_lower(x, r, bits)
    return lower if lower**r == x else lower + Fraction(1, 1 << bits)


def fraction_constants(roots: RootData, K, epsilon) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """:func:`constants` in Fraction arithmetic, every quotient formed as it is written.

    The gap enclosures come from :func:`nested_gap_enclosures` of the Fraction intervals.
    """
    K, epsilon = Fraction(K), Fraction(epsilon)
    if K < 1:
        raise ValueError("K must be >= 1")
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie strictly between 0 and 1")
    n = len(roots.ends)
    gap_lower, gap_upper, product_lower, product_upper = nested_gap_enclosures(intervals(roots))
    if gap_lower <= 0 or product_lower <= 0:
        raise ValueError("root intervals are not strictly separated")
    shrink = (1 - epsilon) ** (n - 1)
    c_upper = K / (shrink * product_lower)
    c_lower = K / (shrink * product_upper)
    g_upper = fraction_nth_root_upper(K, n) / (epsilon * gap_lower)
    g_lower = fraction_nth_root_lower(K, n) / (epsilon * gap_upper)
    return c_lower, c_upper, g_lower, g_upper


def level64_stable_constants(form: BinaryForm, K, epsilon, field: QuadraticField) -> tuple[RootData, tuple, bool]:
    """``stable_constants`` as it was before it started below ``ISOLATION_BITS``: the certificate first tried at 64.

    The isolation starts at ``ISOLATION_BITS``; the certificate (lower floors equal to the upper ones) keeps the
    level at once, and otherwise each halving refines one level past the isolation's own until it leaves the
    upper floors as they were, each at most one above its lower floor, or ``MAX_HALVINGS`` halvings are spent.
    """
    K, epsilon, n = Fraction(K), Fraction(epsilon), form.degree
    k_root = _dyadic_root(K.numerator, K.denominator, n)

    def floors(data: RootData, side: int) -> tuple[int, int, int]:
        return tuple(num // den for num, den in _bounds(data, K, epsilon, k_root, field, side)[2:])

    data = isolate_roots(form, ISOLATION_BITS)
    caps = floors(data, 1)
    if len(data.integer_roots) == n:
        return data, caps, True
    lower = floors(data, 0)
    for _ in range(MAX_HALVINGS):
        if lower == caps:
            return data, caps, True
        finer = refine(data, data.level + 1)
        lower, finer_caps = floors(finer, 0), floors(finer, 1)
        if finer_caps == caps and all(cap - low <= 1 for cap, low in zip(caps, lower)):
            return finer, finer_caps, True
        data, caps = finer, finer_caps
    return data, caps, lower == caps


def fraction_thresholds(consts, n: int, field: QuadraticField, lower: bool = False) -> tuple[Fraction, ...]:
    """The squared gates (proportionality, real vanishing, imaginary vanishing) in Fraction arithmetic.

    ``consts`` is (approx_coeff lower, upper, gate lower, upper); each squared gate is max(gate^2, the upper
    bound of X^(2/e)), as ``rootbounds._bounds`` takes it on integers.  With ``lower``, the lower bounds:
    max(gate lower^2, the lower bound of X^(2/e) from the lower bound of approx_coeff).
    """
    s = field.s
    gate_sq = consts[2 if lower else 3] ** 2
    scaled_sq = Fraction(s * s) * consts[0 if lower else 1] ** 2
    root = fraction_nth_root_lower if lower else fraction_nth_root_upper
    return (
        max(gate_sq, root(scaled_sq / field.m, n - 2)),
        max(gate_sq, root(scaled_sq, n - 1)),
        max(gate_sq, root(scaled_sq / field.m, n - 1)),
    )
