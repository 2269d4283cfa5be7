"""Rigorous real-root isolation and directed-rounded constant enclosures.

Roots of f(x) = F(x, 1) are found in one place: the Sturm chain that
:func:`~relthue.forms.check_admissible` builds bisects (-2^e, 2^e] until
each root is alone, and the integer roots fall out as point intervals
(:func:`integer_roots` is that first stage).  The other roots are
irrational, and bisection by the sign of f itself refines their
intervals, on integer numerators over one power of two.  From the
intervals the module derives one-sided rational bounds, always rounded in
the safe direction, for

* ``min_gap``      -- the smallest distance between two roots,
* ``gap_product``  -- the smallest over i of the product of |root_j - root_i|,
* ``approx_coeff`` -- K / ((1-eps)^(n-1) * gap_product), the coefficient in
  the best-approximation bound used by the large-|y| conclusions,
* ``gate``         -- K^(1/n) / (eps * min_gap), the |y| radius below which
  those conclusions are not asserted,

and, per field, upper bounds on the squared applicability thresholds of the
three large-|y| conclusions.  n-th roots of rationals and square roots are
bounded by dyadic binary search, so the whole pipeline stays exact-directional:
tightening the intervals can only raise lower bounds and lower upper bounds.

:class:`Problem` validates one relative inequality and holds all of these
facts, computed once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import floor

from . import _poly
from .forms import BinaryForm, require_admissible
from .quadfield import QuadraticField

log = logging.getLogger(__name__)

DEFAULT_ISOLATION_WIDTH = Fraction(1, 2**64)
MAX_HALVINGS = 12  # refinement steps stable_constants tries before giving up
ROOT_PREC_BITS = 48

Interval = tuple[Fraction, Fraction]


def nth_root_upper(x: Fraction, r: int, bits: int = ROOT_PREC_BITS) -> Fraction:
    """Smallest dyadic c/2^bits with (c/2^bits)^r >= x; exact for r = 1."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0)
    if r == 1:
        return x
    target = x.numerator << (bits * r)
    c = _poly.iroot(target // x.denominator, r)
    while c**r * x.denominator < target:
        c += 1
    return Fraction(c, 1 << bits)


def nth_root_lower(x: Fraction, r: int, bits: int = ROOT_PREC_BITS) -> Fraction:
    """Largest dyadic c/2^bits with (c/2^bits)^r <= x; exact for r = 1."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0)
    if r == 1:
        return x
    target = x.numerator << (bits * r)
    # c^r <= floor(target / den) exactly when c^r * den <= target, as c^r is an integer
    return Fraction(_poly.iroot(target // x.denominator, r), 1 << bits)


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
    n = len(intervals)
    a_lo = min(intervals[j + 1][0] - intervals[j][1] for j in range(n - 1))
    a_hi = min(intervals[j + 1][1] - intervals[j][0] for j in range(n - 1))
    b_lo = None
    b_hi = None
    for i in range(n):
        p_lo = Fraction(1)
        p_hi = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            if j > i:
                d_lo = intervals[j][0] - intervals[i][1]
                d_hi = intervals[j][1] - intervals[i][0]
            else:
                d_lo = intervals[i][0] - intervals[j][1]
                d_hi = intervals[i][1] - intervals[j][0]
            p_lo *= d_lo
            p_hi *= d_hi
        b_lo = p_lo if b_lo is None else min(b_lo, p_lo)
        b_hi = p_hi if b_hi is None else min(b_hi, p_hi)
    return a_lo, a_hi, b_lo, b_hi


def _refine_interval(f, lo: Fraction, hi: Fraction, width: Fraction):
    """Bisect [lo, hi] down to ``width``; a non-point interval holds one irrational root of f in (lo, hi).

    The endpoints are dyadic, so they are kept as integer numerators over
    one power of two and every step is integer arithmetic: the numerators
    double, the midpoint is their old sum, and their difference never
    changes.  f is monic, so it vanishes at no dyadic midpoint and not at
    hi; lo may be an integer root, so the sign is anchored at hi.
    """
    if lo == hi:
        return lo, hi
    shift = max(lo.denominator, hi.denominator).bit_length() - 1
    lo, hi = (lo.numerator << shift) // lo.denominator, (hi.numerator << shift) // hi.denominator
    sign_hi = _poly.sign(_poly.evaluate(f, hi, 1 << shift))
    gap = hi - lo
    while gap * width.denominator > width.numerator << shift:
        mid, lo, hi, shift = lo + hi, 2 * lo, 2 * hi, shift + 1
        if _poly.sign(_poly.evaluate(f, mid, 1 << shift)) == sign_hi:
            hi = mid
        else:
            lo = mid
    return Fraction(lo, 1 << shift), Fraction(hi, 1 << shift)


def _separate(f, items: list[list[Fraction]]) -> None:
    """Refine in place until all intervals are strictly pairwise disjoint."""
    while True:
        items.sort(key=lambda iv: (iv[0], iv[1]))
        clash = None
        for i in range(len(items) - 1):
            if items[i][1] >= items[i + 1][0]:
                clash = i
                break
        if clash is None:
            return
        for iv in (items[clash], items[clash + 1]):
            if iv[0] != iv[1]:
                width = (iv[1] - iv[0]) / 2
                iv[0], iv[1] = _refine_interval(f, iv[0], iv[1], width)


def _initial_isolation(form: BinaryForm):
    """(integer roots, one [lo, hi] per root) from the Sturm chain of f.

    The chain bisects (-R, R] with R = 2^e above every root, so every
    midpoint is an integer until each root is alone in a unit interval
    (k-1, k]; only roots sharing a unit interval need rational midpoints.
    f is monic, so its rational roots are integers: the root alone in such
    an interval (lo, hi] is hi exactly when f(hi) = 0, and becomes the point
    [hi, hi]; every other root is irrational.  This costs O(n log R) exact
    evaluations, whatever the size of f(0).
    """
    chain = require_admissible(form).chain
    f = form.coeffs
    radius = _poly.root_radius(f)
    exact, items = [], []
    work = [(-radius, radius, form.degree)]
    while work:
        lo, hi, count = work.pop()
        if count == 0:
            continue
        if count == 1 and hi - lo <= 1:
            if _poly.sign_at(f, hi) == 0:
                exact.append(hi)
            else:
                items.append([Fraction(lo), Fraction(hi)])
            continue
        mid = (lo + hi) // 2 if hi - lo > 1 else Fraction(lo + hi) / 2
        left = _poly.count_roots(chain, lo, mid)
        work.append((lo, mid, left))
        work.append((mid, hi, count - left))
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
    a_lo, a_hi, b_lo, b_hi = _gap_enclosures(intervals)
    return RootData(intervals, exact, a_lo, a_hi, b_lo, b_hi)


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
    constants, the gates and ``abs_bound`` = s^n K, the bound of the absolute
    inequality behind both part bounds.  ``gates_stable`` is False when the
    gates had not settled after ``MAX_HALVINGS`` refinements; a warning is
    logged then.
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
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def s(self) -> int:
        return self.field.s

    @property
    def integer_roots(self) -> tuple[int, ...]:
        return self.roots.integer_roots
