"""Rigorous real-root isolation and directed-rounded constant enclosures.

Roots of f(x) = F(x, 1) are found in one place: the Sturm chain that
:func:`~relthue.forms.check_admissible` builds bisects (-2^e, 2^e] until
each root is alone, and the integer roots fall out as point intervals
(:func:`integer_roots` is that first stage).  The other roots are
irrational; a Newton jump certified by two signs of f, or bisection by the
sign of f, refines their intervals on integer numerators.  From the
intervals the module derives one-sided rational bounds, always rounded in
the safe direction, for

* ``min_gap``      -- the smallest distance between two roots,
* ``gap_product``  -- the smallest over i of the product of |root_j - root_i|,
* ``approx_coeff`` -- K / ((1-eps)^(n-1) * gap_product), the coefficient in
  the best-approximation bound used by the large-|y| conclusions,
* ``gate``         -- K^(1/n) / (eps * min_gap), the |y| radius below which
  those conclusions are not asserted,

and, per field, upper bounds on the squared applicability thresholds of the
three large-|y| conclusions.  n-th roots of rationals are bounded by an
integer root on a dyadic grid, so the pipeline stays exact-directional:
tightening the intervals can only raise lower bounds and lower upper bounds.

:class:`Problem` validates one relative inequality and holds all of these
facts, computed once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import combinations
from math import floor, prod

from . import _poly
from .forms import BinaryForm, require_admissible
from .quadfield import QuadraticField

log = logging.getLogger(__name__)

DEFAULT_ISOLATION_WIDTH = Fraction(1, 2**64)
MAX_HALVINGS = 12  # refinement steps stable_constants tries before giving up
ROOT_PREC_BITS = 48
JUMP_LEVELS = 8  # refinements by fewer levels only bisect: a jump and its certificate cost more
NEWTON_STEPS, NEWTON_GUARD = 12, 8  # Newton steps tried before bisecting; bits kept below the target level

Interval = tuple[Fraction, Fraction]


def nth_root_lower(x: Fraction, r: int, bits: int = ROOT_PREC_BITS) -> Fraction:
    """Largest dyadic c/2^bits with (c/2^bits)^r <= x; exact for r = 1."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    if r == 1:
        return x
    target = x.numerator << (bits * r)
    # c^r <= floor(target / den) exactly when c^r * den <= target, as c^r is an integer
    return Fraction(_poly.iroot(target // x.denominator, r), 1 << bits)


def nth_root_upper(x: Fraction, r: int, bits: int = ROOT_PREC_BITS) -> Fraction:
    """Smallest dyadic c/2^bits with (c/2^bits)^r >= x; exact for r = 1.

    It is the lower bound when that is exact, and the next dyadic above it otherwise.
    """
    lower = nth_root_lower(x, r, bits)
    return lower if lower**r == x else lower + Fraction(1, 1 << bits)


@dataclass(frozen=True)
class RootData:
    """Isolating intervals (sorted, pairwise disjoint) plus gap enclosures.

    The integer roots are the point intervals.
    """

    intervals: tuple[Interval, ...]
    integer_roots: tuple[int, ...]
    min_gap_lower: Fraction
    min_gap_upper: Fraction
    gap_product_lower: Fraction
    gap_product_upper: Fraction


def _gap_enclosures(intervals):
    """Bounds (min gap lower, upper, min gap product lower, upper) from sorted disjoint intervals.

    The distance between roots i < j lies in [lo_j - hi_i, hi_j - lo_i]; each pair's enclosure is built once
    and read by both minima, on integer numerators over the largest denominator (the ends are dyadic).
    """
    n = len(intervals)
    scale = max(end.denominator for iv in intervals for end in iv)
    ends = [[end.numerator * scale // end.denominator for end in iv] for iv in intervals]
    dist = {}
    for i, j in combinations(range(n), 2):
        dist[i, j] = dist[j, i] = (ends[j][0] - ends[i][1], ends[j][1] - ends[i][0])
    lows = [prod(dist[i, j][0] for j in range(n) if j != i) for i in range(n)]
    highs = [prod(dist[i, j][1] for j in range(n) if j != i) for i in range(n)]
    gaps = dist.values()
    low, high = Fraction(min(lo for lo, _ in gaps), scale), Fraction(min(hi for _, hi in gaps), scale)
    return low, high, Fraction(min(lows), scale ** (n - 1)), Fraction(min(highs), scale ** (n - 1))


def _newton_node(f, lo: int, hi: int, level: int, sign_hi: int):
    """The k in [lo, hi) with the one root of (lo, hi)/2^level in (k, k + 1)/2^level, certified, or None.

    Newton's method runs on x/2^bits, bits = level + ``NEWTON_GUARD``: a step is x -= 2^bits f/f', the integer
    quotient of the homogenized values.  Each iterate's sign shrinks a bracket (a, b) of the root, and a step
    that would leave it stops just inside, so a root next to a dyadic end takes a step or two.  The
    certificate: f is nonzero with strictly opposite signs at the node's ends, hi's sign at k + 1.
    """
    one, df = 1 << (level + NEWTON_GUARD), _poly.derivative(f)
    a, b, x = lo << NEWTON_GUARD, hi << NEWTON_GUARD, (lo + hi) << (NEWTON_GUARD - 1)
    for _ in range(NEWTON_STEPS):
        value, slope = _poly.evaluate(f, x, one), _poly.evaluate(df, x, one)
        a, b = (a, x) if _poly.sign(value) == sign_hi else (x, b)
        step = value // slope if slope else x - (a + b) // 2  # a zero slope bisects the bracket
        if abs(step) < 1 << NEWTON_GUARD:
            k, unit = (x - step) >> NEWTON_GUARD, 1 << level
            signs = (_poly.sign(_poly.evaluate(f, k, unit)), _poly.sign(_poly.evaluate(f, k + 1, unit)))
            return k if lo <= k < hi and signs == (-sign_hi, sign_hi) else None
        x = min(max(x - step, a + 1), b - 1)
    return None


def _refine_interval(f, lo: Fraction, hi: Fraction, width: Fraction):
    """Refine the node [lo, hi] down to ``width``; a non-point node holds one irrational root of f in (lo, hi).

    The ends are integer numerators over one power of two.  The final level T, the least whose nodes are
    no wider than ``width``, needs no evaluation, and a certified Newton jump goes there at once.  Bisection,
    for a few levels or when the jump fails, reaches the same node: the numerators double, the midpoint is
    their old sum.  f is monic, so it vanishes at no dyadic non-integer and not at hi; lo may be an integer
    root, so signs are anchored at hi.
    """
    if lo == hi:
        return lo, hi
    shift = max(lo.denominator, hi.denominator).bit_length() - 1
    lo, hi = (lo.numerator << shift) // lo.denominator, (hi.numerator << shift) // hi.denominator
    sign_hi = _poly.sign(_poly.evaluate(f, hi, 1 << shift))
    gap = hi - lo
    level = max(shift, (-(-gap * width.denominator // width.numerator) - 1).bit_length())
    if (up := level - shift) > JUMP_LEVELS and (k := _newton_node(f, lo << up, hi << up, level, sign_hi)) is not None:
        return Fraction(k, 1 << level), Fraction(k + 1, 1 << level)
    while gap * width.denominator > width.numerator << shift:
        mid, lo, hi, shift = lo + hi, 2 * lo, 2 * hi, shift + 1
        if _poly.sign(_poly.evaluate(f, mid, 1 << shift)) == sign_hi:
            hi = mid
        else:
            lo = mid
    return Fraction(lo, 1 << shift), Fraction(hi, 1 << shift)


def _separate(f, items: list[list[Fraction]]) -> None:
    """Refine in place until all intervals are strictly pairwise disjoint.

    Sorted, the intervals hold the roots in order.  Each pair of neighbours
    is bisected on both sides until it is strictly apart; refining only
    shrinks an interval, so a pair already apart never clashes again.
    """
    items.sort()
    for left, right in zip(items, items[1:]):
        while left[1] >= right[0]:
            for iv in (left, right):
                if iv[0] != iv[1]:
                    iv[0], iv[1] = _refine_interval(f, iv[0], iv[1], (iv[1] - iv[0]) / 2)


def _initial_isolation(form: BinaryForm):
    """(integer roots, one [lo, hi] per root) from the Sturm chain of f.

    The chain bisects (-R, R] with R = 2^e above every root, so every midpoint is an integer until each root
    is alone in a unit interval (k-1, k]; only roots sharing a unit interval need rational midpoints.  A node
    carries the chain's sign variations at its ends, so a split evaluates the chain once.  f is monic, so its
    rational roots are integers: the root alone in such an interval (lo, hi] is hi exactly when f(hi) = 0, and
    becomes the point [hi, hi]; every other root is irrational.  This costs O(n log R) exact evaluations.
    """
    report = require_admissible(form)
    chain, radius, f = report.chain, report.radius, form.coeffs
    exact, items = [], []
    work = [(-radius, radius, *report.end_variations)]
    while work:
        lo, hi, v_lo, v_hi = work.pop()
        if v_lo == v_hi:
            continue
        if v_lo - v_hi == 1 and hi - lo <= 1:
            if _poly.sign_at(f, hi) == 0:
                exact.append(hi)
            else:
                items.append([Fraction(lo), Fraction(hi)])
            continue
        mid = (lo + hi) // 2 if hi - lo > 1 else Fraction(lo + hi) / 2
        v_mid = _poly.variations(chain, mid)
        work += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    exact.sort()
    items += [[Fraction(r), Fraction(r)] for r in exact]
    return tuple(exact), items


def integer_roots(form: BinaryForm) -> tuple[int, ...]:
    """All integers r with f(r) = 0, sorted ascending; the first stage of the isolation.

    Because f is monic, every rational root is an integer, so the zero set of
    F over Z^2 is exactly {(r*t, t)} for the returned r, together with (0, 0).
    Raises :class:`~relthue.forms.InadmissibleFormError` for inadmissible forms.
    """
    return _initial_isolation(form)[0]


def _refined(form: BinaryForm, exact, items: list[list[Fraction]], width: Fraction) -> RootData:
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    f = form.coeffs
    for iv in items:
        iv[0], iv[1] = _refine_interval(f, iv[0], iv[1], width)
    _separate(f, items)
    intervals = tuple((lo, hi) for lo, hi in items)
    return RootData(intervals, exact, *_gap_enclosures(intervals))


def isolate_roots(form: BinaryForm, width: Fraction = DEFAULT_ISOLATION_WIDTH) -> RootData:
    """Isolate the n real roots of f in disjoint intervals of width <= ``width``.

    Raises :class:`~relthue.forms.InadmissibleFormError` for inadmissible
    forms.  Bisection is deterministic, so requesting a smaller width always
    yields sub-intervals of the wider run (monotone enclosures).
    """
    return _refined(form, *_initial_isolation(form), width)


def refine(form: BinaryForm, data: RootData, width: Fraction) -> RootData:
    """Continue bisection of an existing isolation of ``form`` down to a smaller width."""
    return _refined(form, data.integer_roots, [[lo, hi] for lo, hi in data.intervals], width)


@dataclass(frozen=True)
class TheoremConstants:
    """Directed-rounded enclosures of approx_coeff and gate (the gap enclosures are in :class:`RootData`)."""

    approx_coeff_lower: Fraction
    approx_coeff_upper: Fraction
    gate_lower: Fraction
    gate_upper: Fraction


@dataclass(frozen=True)
class GateThresholds:
    """Upper bounds for the squared |y| gates of the three rigidity conclusions.

    A conclusion is asserted only when norm(y) strictly exceeds the squared
    bound, i.e. only strictly inside its proven range.
    """

    proportionality_sq: Fraction
    real_vanish_sq: Fraction
    imag_vanish_sq: Fraction

    def display(self) -> tuple[Fraction, Fraction, Fraction]:
        """Rational upper bounds for the three un-squared thresholds."""
        return (
            nth_root_upper(self.proportionality_sq, 2),
            nth_root_upper(self.real_vanish_sq, 2),
            nth_root_upper(self.imag_vanish_sq, 2),
        )


def constants(roots: RootData, K, epsilon) -> TheoremConstants:
    """Certified enclosures of approx_coeff and gate from root-gap enclosures.

    Requires rational K >= 1 and 0 < epsilon < 1.  Both upper bounds shrink
    monotonically as the isolation width shrinks.
    """
    K = Fraction(K)
    epsilon = Fraction(epsilon)
    if K < 1:
        raise ValueError("K must be >= 1")
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie strictly between 0 and 1")
    n = len(roots.intervals)
    if roots.min_gap_lower <= 0 or roots.gap_product_lower <= 0:
        raise ValueError("root intervals are not strictly separated")
    shrink = (1 - epsilon) ** (n - 1)
    c_upper = K / (shrink * roots.gap_product_lower)
    c_lower = K / (shrink * roots.gap_product_upper)
    g_upper = nth_root_upper(K, n) / (epsilon * roots.min_gap_lower)
    g_lower = nth_root_lower(K, n) / (epsilon * roots.min_gap_upper)
    return TheoremConstants(c_lower, c_upper, g_lower, g_upper)


def thresholds(consts: TheoremConstants, n: int, field: QuadraticField) -> GateThresholds:
    """Squared applicability gates for a form of degree n over ``field``, rounded upward.

    The three conclusions require |y| > max(gate, X^(1/e)) with
    X = s*approx_coeff (real-vanish) or s*approx_coeff/sqrt(m) (the others)
    and e = n-2 or n-1; squaring removes the square roots, so everything is
    an n-th root of a rational, bounded above dyadically.
    """
    s = field.s
    gate_sq = consts.gate_upper**2
    scaled_sq = Fraction(s * s) * consts.approx_coeff_upper**2
    return GateThresholds(
        proportionality_sq=max(gate_sq, nth_root_upper(scaled_sq / field.m, n - 2)),
        real_vanish_sq=max(gate_sq, nth_root_upper(scaled_sq, n - 1)),
        imag_vanish_sq=max(gate_sq, nth_root_upper(scaled_sq / field.m, n - 1)),
    )


def _gate_floors(th: GateThresholds) -> tuple[int, int, int]:
    return (
        floor(th.proportionality_sq),
        floor(th.real_vanish_sq),
        floor(th.imag_vanish_sq),
    )


def stable_constants(
    form: BinaryForm, K, epsilon, field: QuadraticField
) -> tuple[RootData, TheoremConstants, GateThresholds, bool]:
    """Isolate roots and halve the width until the integer gates stabilize.

    The gates are compared against integer norms, so refinement beyond the
    point where their floors stop moving cannot change any decision.  The
    flag is False when the floors still moved after ``MAX_HALVINGS`` halvings;
    the returned gates are then those of the finest isolation, still sound.
    """
    n = form.degree
    width = DEFAULT_ISOLATION_WIDTH
    data = isolate_roots(form, width)
    consts = constants(data, K, epsilon)
    gates = thresholds(consts, n, field)
    for _ in range(MAX_HALVINGS):
        width = width / 2
        finer = refine(form, data, width)
        finer_consts = constants(finer, K, epsilon)
        finer_gates = thresholds(finer_consts, n, field)
        if _gate_floors(finer_gates) == _gate_floors(gates):
            return finer, finer_consts, finer_gates, True
        data, consts, gates = finer, finer_consts, finer_gates
    return data, consts, gates, False


@dataclass(frozen=True)
class Problem:
    """One relative inequality |F(x, y)| <= K over the integers of ``field``, validated.

    The constructor is the one place a problem is checked (admissible form,
    K >= 1, 0 < epsilon < 1) and computes every per-problem fact the solver
    and the predicates use: the root isolation (integer roots included), the
    constants, the gates, ``abs_bound`` = s^n K, the bound of the absolute
    inequality behind both part bounds, and ``norm_cap`` = floor(K^2): norms
    are integers, so norm(F(x, y)) <= K^2 exactly when it is at most
    ``norm_cap``.  ``gates_stable`` is False when the gates had not settled
    after ``MAX_HALVINGS`` refinements; a warning is logged then.
    """

    field: QuadraticField
    form: BinaryForm
    K: Fraction
    epsilon: Fraction = Fraction(1, 2)
    roots: RootData = dataclass_field(init=False)
    consts: TheoremConstants = dataclass_field(init=False)
    gates: GateThresholds = dataclass_field(init=False)
    gates_stable: bool = dataclass_field(init=False)
    abs_bound: Fraction = dataclass_field(init=False)
    norm_cap: int = dataclass_field(init=False)

    def __post_init__(self):
        K, epsilon = Fraction(self.K), Fraction(self.epsilon)
        roots, consts, gates, stable = stable_constants(self.form, K, epsilon, self.field)
        if not stable:
            log.warning(
                "gates of %s over m = %d did not stabilize in %d halvings", self.form, self.field.m, MAX_HALVINGS
            )
        derived = {
            "K": K,
            "epsilon": epsilon,
            "roots": roots,
            "consts": consts,
            "gates": gates,
            "gates_stable": stable,
            "abs_bound": Fraction(self.field.s) ** self.form.degree * K,
            "norm_cap": floor(K * K),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def s(self) -> int:
        return self.field.s

    @property
    def integer_roots(self) -> tuple[int, ...]:
        return self.roots.integer_roots
