"""Height-bounded enumeration of absolute Thue inequalities |F(a, b)| <= K'.

F(-a, -b) = (-1)^n F(a, b), so the solutions are closed under negation, and
the listing holds one pair of each {(a, b), (-a, -b)}, its representative:
b > 0, or b = 0 <= a.  The reducer pairs exactly these rows, so the
convention is decided here once.  For b = 0, f is monic, so F(a, 0) = a^n and
0 <= a <= K'^(1/n).

For b > 0 and |F(a, b)| <= K', let rho_j be the root nearest a/b.  Every
other factor has |a - rho_i*b| >= |rho_i - rho_j|*b/2, so the product of the
n factors gives

    |a - rho_j*b| <= min(W, 2^(n-1)*K' / (b^(n-1)*B)),

where W = max(1, K'^(1/n)) bounds the smallest of n factors whose product is
at most K', and B, the lower end of the gap product enclosure of
:class:`~relthue.rootbounds.RootData`, bounds the product of the gaps at any
root from below.  So for each b every a within that half-width
of some root interval times b is evaluated: the windows shrink like
b^-(n-1), and once they are narrower than one cell each root holds at most
one candidate per b, and most b hold none.  The window ends are floors and
ceilings of integer numerators over one common denominator, from the ends of
the root intervals over 2^level as ``RootData`` holds them.  The rows come
out sorted by (b, a) as they are built, from (0, 0, 0) on.

When every root is an integer the rows past

    b_w = floor((2^(n-1)*K' / B)^(1/(n-1))),

the last row whose half-width can reach one cell, need no scan: there the
half-width is below 1, so each root's window is the one cell a = r*b, where
F(r*b, b) = b^n f(r) = 0.  Those rows are not listed but held as a span: the
roots and the first row past b_w, b_w + 1.  :attr:`AbsSolutionSet.solutions`
is the one expansion of the listing: it expands the span into the rows
(r*b, b, 0), for the roots in ascending order, which is the order the scan
gives them, and prepends every row but (0, 0, 0), span included, negated in
reverse, which are the rows b < 0 and b = 0 > a in (b, a) order.  The reducer
reads only the scanned rows.  A form with an irrational root scans every row.

The isolation is a :class:`~relthue.rootbounds.RootData`, checked against
its form once, where it is built: n sorted, disjoint intervals, each point
an integer root and each other interval a dyadic node with a strict sign
change of f at its ends, so each holds exactly one root.  An isolation the
caller hands in is refused unless it is one of this form, so no isolation of
another form is scanned, and one coarser than the height needs is refined
first (:func:`solve_abs`).  Every candidate with b != 0 is kept only after
exact evaluation of F, and each root of a span is a point where the
isolation's check evaluated f(r) = 0 exactly; the row b = 0 holds a^n
exactly, so no step rounds and the listing is exhaustive for |b| <= height.  Completeness is claimed only
within the height bound, which the result carries.  The cost is O(n*height)
window ends plus the cells inside them, in place of O(n*height*K'^(1/n))
cells for fixed windows of half-width W; when every root is an integer it is
O(n*min(height, b_w)) window ends and their cells, whatever the height.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor
from operator import index
from typing import NamedTuple

from . import _poly
from .forms import BinaryForm
from .rootbounds import ROOT_PREC_BITS, RootData, _dyadic_root, isolate_roots, refine


class AbsSolutionSet(NamedTuple):
    """All (a, b) with |b| <= height and |F(a, b)| <= the bound solved for, as representatives: rows and a span.

    A representative has b > 0, or b = 0 <= a; F of degree ``degree`` gives each other row as one negated.
    ``rows`` holds the scanned representatives, b < ``span_start``, sorted by (b, a) from (0, 0, 0) on.  The
    span is (r*b, b, 0) for each r in ``span_roots`` and ``span_start`` <= b <= ``height``; it is empty when no
    row was left unscanned.
    """

    height: int
    degree: int
    rows: tuple[tuple[int, int, int], ...]  # (a, b, F(a, b))
    span_roots: tuple[int, ...]
    span_start: int

    @property
    def solutions(self) -> tuple[tuple[int, int, int], ...]:
        """Every row, the negated rows and the span expanded, sorted by (b, a)."""
        span = [(r * b, b, 0) for b in range(self.span_start, self.height + 1) for r in self.span_roots]
        positive, sign = (*self.rows[1:], *span), (-1) ** self.degree
        return (*[(-a, -b, sign * value) for a, b, value in reversed(positive)], *self.rows, *span)


def solve_abs(
    form: BinaryForm,
    bound,
    height: int,
    roots: RootData | None = None,
) -> AbsSolutionSet:
    """Enumerate |F(a, b)| <= bound for |b| <= height, exhaustively, with the isolation ``roots`` if given.

    Without ``roots`` the roots are isolated at ``ISOLATION_BITS``.  The isolation is refined to level L, the bit
    length of ``height`` plus 4, where a node is coarser than that (:func:`~relthue.rootbounds.refine`): a node of
    width w widens each window of row b by w*b cells, and w*b <= 2^-L * height < 1/16, so each root's window spans
    less than 1/16 of a cell more than the root itself needs, in every row.  Any other level lists the same rows:
    a coarser one scans more cells, and a finer one takes more bisection steps but can scan fewer cells, so L is
    not the cheapest level: over the first 100 problems of the benchmark's seed-0 ``sporadic`` stream, root-free
    forms at height 2000, L + 4 makes 109 exact evaluations here per problem, not 265.
    """
    bound, height = Fraction(bound), index(height)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if height < 0:
        raise ValueError("height must be nonnegative")
    if roots is None:
        roots = isolate_roots(form)
    elif roots.form != form:
        raise ValueError(f"roots: an isolation of {roots.form}, not of {form}")
    roots = refine(roots, height.bit_length() + 4)
    n = form.degree
    cap = floor(bound)  # values are integers, so |F(a, b)| <= bound exactly when |F(a, b)| <= floor(bound)

    # b = 0 <= a: monic f gives F(a, 0) = a^n, and a^n <= cap exactly when a <= floor(cap^(1/n))
    rows = [(a, 0, a**n) for a in range(_poly.iroot(cap, n) + 1)]

    # b > 0: half-width min(window, spread / b^(n-1)) around each root interval times b, with
    # window = max(1, K'^(1/n)) from its dyadic upper bound d/2^ROOT_PREC_BITS and spread = 2^(n-1) K' / B,
    # each a (numerator, denominator) pair
    d = _dyadic_root(bound.numerator, bound.denominator, n)[1]
    window = (d, 1 << ROOT_PREC_BITS) if d >> ROOT_PREC_BITS else (1, 1)
    # B is the gap product's lower numerator over 2^(level (n-1))
    spread = 2 ** (n - 1) * bound.numerator << (roots.level * (n - 1)), bound.denominator * roots.gap_numerators[2]
    unit = 1 << roots.level
    # past row b_w = floor(spread^(1/(n-1))) the half-width spread / b^(n-1) is below 1; when every root is an
    # integer r, each window there is the one cell a = r*b, where F = b^n f(r) = 0, so those rows are a span.
    span_roots = roots.integer_roots if len(roots.integer_roots) == n else ()
    scanned = min(height, _poly.iroot(spread[0] // spread[1], n - 1)) if span_roots else height
    for b in range(1, scanned + 1):
        w_num, w_den = window
        if spread[0] * w_den < w_num * spread[1] * b ** (n - 1):
            w_num, w_den = spread[0], spread[1] * b ** (n - 1)
        den, reach = unit * w_den, w_num * unit
        ranges = [(-((reach - lo * b * w_den) // den), (hi * b * w_den + reach) // den) for lo, hi in roots.ends]
        start = ranges[0][0]  # the ranges are sorted; overlapping ones are scanned once
        for a_lo, a_hi in ranges:
            for a in range(max(a_lo, start), a_hi + 1):
                value = form.evaluate(a, b)
                if abs(value) <= cap:
                    rows.append((a, b, value))
            start = max(start, a_hi + 1)
    return AbsSolutionSet(height, n, tuple(rows), span_roots=span_roots, span_start=scanned + 1)
