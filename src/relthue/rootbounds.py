"""Rigorous real-root isolation and directed-rounded constant enclosures.

Roots of f(x) = F(x, 1) are found in one place, in two steps.  The Sturm
chain that :func:`~relthue.forms.check_admissible` builds bisects
(-2^e, 2^e] until each root is alone in a node, and one loop, bisection by
the sign of f on integers, refines each node.  A zero of f that it meets is
an integer root and becomes a point (:func:`integer_roots` reads them off the
isolation at level 0); every other root is irrational and is held as a node
(c, level) of the dyadic bisection tree, the interval [c, c + 1]/2^level.
Every interval is so a pair of integer numerators over one power of two
(:class:`RootData`, whose constructor checks the intervals against the form
once).  From the intervals the module derives one-sided rational bounds,
always rounded in the safe direction, for

* ``min_gap``      -- the smallest distance between two roots,
* ``gap_product``  -- the smallest over i of the product of |root_j - root_i|,
* ``approx_coeff`` -- K / ((1-eps)^(n-1) * gap_product), the coefficient in
  the best-approximation bound used by the large-|y| conclusions,
* ``gate``         -- K^(1/n) / (eps * min_gap), the |y| radius below which
  those conclusions are not asserted,

and, per field, upper bounds on the squared applicability thresholds of the
three large-|y| conclusions.  n-th roots of rationals are bounded by an
integer root on a dyadic grid (one kernel, :func:`_dyadic_root`), so the
pipeline stays exact-directional: tightening the intervals can only raise
lower bounds and lower upper bounds.

The whole pipeline runs on integers: each bound is a pair of integer
numerator and denominator, not reduced, and one function (:func:`_bounds`)
gives every bound of one side, lower or upper, of an isolation.
:func:`stable_constants` isolates at level ``FIRST_BITS`` = 8 and keeps
the first of the levels 8, 16, 32 and 64 where the integer floors of the
lower and upper squared-gate bounds agree.  From level 64 on it halves the
isolation it holds, one level past its own, and keeps the first level where
the floors agree, or else the level after a halving that leaves the upper
floors as they were while each is at most one above its lower floor.  It
builds no Fraction, and it takes dyadic roots for the upper floors alone:
whether a lower floor reaches an integer is decided by integer powers
(:func:`_lower_reaches`).  The floors are all any decision reads, so the
kept isolation is only as fine as they need; a reader that needs finer
intervals refines it (``solve_abs`` for its height, :func:`enclosures` to
level 64).
:class:`Problem` validates one relative inequality and holds the kept
isolation, the floors of its bounds and squared gates that the predicates
and the reducer compare with, and the flag that says whether the gates
settled.  The integer pairs are the one definition of each bound;
:func:`enclosures` turns them into Fractions for the ``constants`` command,
the only reader that prints them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from . import _poly
from .forms import BinaryForm, InadmissibleFormError, Validated, check_admissible
from .quadfield import QuadraticField

ISOLATION_BITS = 64  # isolate_roots refines each irrational root to a node of width 2^-ISOLATION_BITS
FIRST_BITS = 8  # stable_constants tries the gate certificate at this level first, then at twice it, up to 64
MAX_HALVINGS = 12  # refinement steps stable_constants tries before giving up
ROOT_PREC_BITS = 48


def _dyadic_root(num: int, den: int, r: int) -> tuple[int, int]:
    """(c, d): c/2^p is the largest and d/2^p the smallest dyadic whose r-th power is <= and >= num/den.

    p is ``ROOT_PREC_BITS``; d is c when c/2^p is exact and c + 1 otherwise.  Every n-th root bound comes from here.
    """
    if num < 0:
        raise ValueError("negative radicand")
    target = num << (ROOT_PREC_BITS * r)
    # c^r <= floor(target / den) exactly when c^r * den <= target, as c^r is an integer
    c = _poly.iroot(target // den, r)
    return c, c if c**r * den == target else c + 1


class RootData(Validated, namedtuple("RootData", "form level ends integer_roots gap_numerators")):
    """The checked isolation of the n real roots of one form: sorted, pairwise disjoint intervals, and their gaps.

    Root i of f lies in [lo, hi]/2^level for (lo, hi) = ``ends[i]``.  ``level`` is the finest level any node of
    the isolation reached, 0 when every root is an integer.  An irrational root's interval is its node
    [c, c + 1]/2^l, l <= level, and an integer root r is the point (r << level, r << level).  The constructor is
    the one place an isolation is checked against its form, so no reader checks one again: f must be of degree
    n >= 3 and monic (else :class:`~relthue.forms.InadmissibleFormError`), and ``ends`` must hold n intervals,
    sorted and disjoint, each point an integer root and each other interval a node, hi - lo = 2^u with 2^u
    dividing lo and 2^u <= 2^level, with a strict sign change of f at its ends (else ValueError).  f has n roots
    and each interval holds an odd number of them, so exactly one, and it is irrational: a node at a level >= 0
    holds no integer inside, and f is monic.  So :func:`refine` can continue the bisection of every isolation.
    ``integer_roots`` holds the points' r, ascending, and ``gap_numerators`` the gap enclosures on integers:
    (min gap lower, upper) as numerators over 2^level, (min gap product lower, upper) over 2^(level (n-1)).
    The constructor derives both from the ends, once per isolation, so ``repr`` shows the form and its
    isolation alone.
    """

    __slots__ = ()
    _given = 3

    def __new__(cls, form: BinaryForm, level: int, ends: tuple[tuple[int, int], ...]):
        f, unit = form.coeffs, 1 << level
        if form.degree < 3:  # the gaps need at least two roots, and every solver reads a cubic or higher
            raise InadmissibleFormError(f"{form}: {check_admissible(form).reason}")
        if f[-1] != 1:
            raise InadmissibleFormError(f"{form}: f is not monic")
        if len(ends) != form.degree:
            raise ValueError(f"roots: not {form.degree} intervals")
        last = None
        for lo, hi in ends:
            if lo > hi or (last is not None and lo <= last):
                raise ValueError("roots: the intervals are not sorted and disjoint")
            if lo < hi:
                width = hi - lo
                if width & (width - 1) or lo % width or width > unit:
                    raise ValueError(f"roots: an interval that is not a node [c, c + 1]/2^l, 0 <= l <= {level}")
                if _poly.evaluate(f, lo, unit) * _poly.evaluate(f, hi, unit) >= 0:
                    raise ValueError(f"roots: an interval without a sign change of {form}")
            elif lo % unit or _poly.evaluate(f, lo // unit):
                raise ValueError(f"roots: a point that is not an integer root of {form}")
            last = hi
        # The distance between roots i < j lies in [lo_j - hi_i, hi_j - lo_i]; each pair's enclosure is built
        # once and multiplies into the products at both roots.  The intervals are sorted, so the smallest gap
        # is between neighbours.
        n = len(ends)
        lows, highs = [1] * n, [1] * n
        for i, j in combinations(range(n), 2):
            low, high = ends[j][0] - ends[i][1], ends[j][1] - ends[i][0]
            lows[i] *= low
            lows[j] *= low
            highs[i] *= high
            highs[j] *= high
        pairs = list(zip(ends, ends[1:]))
        gaps = min(b[0] - a[1] for a, b in pairs), min(b[1] - a[0] for a, b in pairs), min(lows), min(highs)
        integer_roots = tuple(lo >> level for lo, hi in ends if lo == hi)
        return tuple.__new__(cls, (form, level, ends, integer_roots, gaps))

    def __repr__(self) -> str:
        return f"RootData(form={self.form!r}, level={self.level!r}, ends={self.ends!r})"


def _initial_isolation(form: BinaryForm) -> list[tuple[int, int, int]]:
    """One node (lo, hi, level) per root, in root order: the first node of the Sturm bisection holding it alone.

    The bisection of (-R, R], R = 2^e above every root, has integer midpoints until each root is alone in a
    node; only roots sharing a unit interval need nodes at levels >= 1, whose ends are numerators over
    2^level.  A node carries the chain's sign variations V at its ends, and one holding two or more roots is
    split at its midpoint, where the chain is evaluated once.  A node holding one root is returned as it is,
    wide at level 0 or a unit node.  This costs O(n log R) evaluations of the chain, and none of f.
    """
    report = check_admissible(form)
    if not report.ok:
        raise InadmissibleFormError(f"form {form.coeffs} inadmissible: {report.reason}")
    chain, radius = report.chain, report.radius
    items = []
    work = [(-radius, radius, 0, *report.end_variations)]
    while work:
        lo, hi, level, v_lo, v_hi = work.pop()
        if v_lo - v_hi > 1:
            if hi - lo == 1:
                lo, hi, level = 2 * lo, 2 * hi, level + 1
            mid = (lo + hi) // 2
            v_mid = _poly.variations(chain, mid, 1 << level)
            work += [(mid, hi, level, v_mid, v_hi), (lo, mid, level, v_lo, v_mid)]  # the lower node pops first
        elif v_lo - v_hi == 1:
            items.append((lo, hi, level))
    return items


def _bisect(f, lo: int, hi: int, level: int, bits: int) -> tuple[int, int, int]:
    """The interval [lo, hi]/2^level holding one root of f, bisected to that root's point or to its node at a
    level >= ``bits``, as (lo, hi, level).

    A point lo = hi is an integer root and comes back with no evaluation.  Any other interval is a node, wide
    at level 0 or a unit, whose root lies in (lo, hi]; lo may be another root, so signs are anchored at hi.
    f is monic, so a zero at hi or at a midpoint is an integer root, the point (r, r, 0).  Otherwise each step
    keeps the half where f changes sign, and a unit node goes on into the next level.  An irrational root lies
    in one node of each level, so the node reached does not depend on the node the bisection starts from.
    """
    if lo == hi:
        return lo, hi, level
    anchor = _poly.evaluate(f, hi, 1 << level)
    if anchor == 0:
        r = hi >> level
        return r, r, 0
    positive = anchor > 0  # the sign of f at hi, as a bool each step compares with
    while hi - lo > 1 or level < bits:
        if hi - lo == 1:
            lo, hi, level = 2 * lo, 2 * hi, level + 1
        mid = (lo + hi) // 2
        side = _poly.evaluate(f, mid, 1 << level)
        if side == 0:
            r = mid >> level
            return r, r, 0
        lo, hi = (lo, mid) if (side > 0) == positive else (mid, hi)
    return lo, hi, level


def integer_roots(form: BinaryForm) -> tuple[int, ...]:
    """All integers r with f(r) = 0, sorted ascending: the points of the isolation at level 0.

    Because f is monic, every rational root is an integer, so the zero set of
    F over Z^2 is exactly {(r*t, t)} for the returned r, together with (0, 0).
    Raises :class:`~relthue.forms.InadmissibleFormError` for inadmissible forms.
    """
    return isolate_roots(form, 0).integer_roots


def _refined(form: BinaryForm, items: list[tuple[int, int, int]], bits: int) -> RootData:
    """RootData from one interval (lo, hi, level) per root, in root order, each bisected to level ``bits``.

    Neighbours that still touch are then refined one level at a time, together, until they are strictly
    apart; refining only shrinks an interval, so a pair already apart never clashes again.  The ends are
    put over 2^level for the finest level any node reached.
    """
    f = form.coeffs
    items = [_bisect(f, *item, bits) for item in items]
    for i in range(len(items) - 1):
        left, right = items[i], items[i + 1]
        while not left[1] << right[2] < right[0] << left[2]:  # hi/2^level of left < lo/2^level of right
            left, right = (_bisect(f, *item, item[2] + 1) for item in (left, right))
        items[i], items[i + 1] = left, right
    level = max(item[2] for item in items)
    ends = tuple((lo << (level - node), hi << (level - node)) for lo, hi, node in items)
    return RootData(form, level, ends)


def isolate_roots(form: BinaryForm, bits: int = ISOLATION_BITS) -> RootData:
    """Isolate the n real roots of f in disjoint intervals, each irrational one a node at level >= ``bits``.

    Every interval is a node [c, c + 1]/2^l of the bisection of (-R, R], or an integer root's point, so its
    width is at most 2^-bits.  Raises :class:`~relthue.forms.InadmissibleFormError` for inadmissible forms.
    Bisection is deterministic, so a larger ``bits`` always yields sub-intervals of the coarser run
    (monotone enclosures).
    """
    return _refined(form, _initial_isolation(form), bits)


def refine(data: RootData, bits: int) -> RootData:
    """Continue the bisection of the isolation ``data`` of ``data.form`` down to level ``bits``.

    ``data`` itself comes back when no node is coarser than ``bits``: a node's width over 2^level is at most
    2^-bits then.
    """
    if max(hi - lo for lo, hi in data.ends) << bits <= 1 << data.level:
        return data
    items = []
    for lo, hi in data.ends:
        up = (hi - lo).bit_length() - 1 if hi > lo else data.level  # the levels from the node's own to data.level
        items.append((lo >> up, hi >> up, data.level - up))
    return _refined(data.form, items, bits)


def _radicands(
    roots: RootData, K: Fraction, epsilon: Fraction, k_root: tuple[int, int], field: QuadraticField, side: int
) -> tuple:
    """(numerator, denominator) of approx_coeff, gate and gate^2 at ``roots``, from checked K and epsilon, their
    lower bounds for ``side`` 0 and their upper bounds for ``side`` 1, and the three squared gates' radicands.

    ``k_root`` holds the numerators of K^(1/n)'s dyadic bounds.  The intervals of ``roots`` are sorted and disjoint,
    as its constructor checked, so the lower gap bounds are positive; a lower bound divides by an upper gap bound
    and an upper one by a lower.  The three conclusions require |y| > max(gate, X^(1/e)) with X = s*approx_coeff
    (real vanishing) or s*approx_coeff/sqrt(m) (the others) and e = n-2 (proportionality) or n-1.  Squaring removes
    the square roots, so each squared gate is max(gate^2, (num/den)^(1/r)) for its radicand (num, den, r), with
    num/den = X^2 and r = e.
    """
    n, level = len(roots.ends), roots.level
    gap, product = roots.gap_numerators[1 - side], roots.gap_numerators[3 - side]
    e_num, e_den = epsilon.numerator, epsilon.denominator
    # K / ((1 - eps)^(n-1) * gap_product) and K^(1/n) / (eps * min_gap), the gaps over 2^(level (n-1)) and 2^level
    coeff = K.numerator * e_den ** (n - 1) << (level * (n - 1)), K.denominator * (e_den - e_num) ** (n - 1) * product
    gate = k_root[side] * e_den << level, (e_num << ROOT_PREC_BITS) * gap
    scaled_num, scaled_den = (field.s * coeff[0]) ** 2, coeff[1] ** 2  # (s * approx_coeff)^2
    m_den = scaled_den * field.m
    radicands = (scaled_num, m_den, n - 2), (scaled_num, scaled_den, n - 1), (scaled_num, m_den, n - 1)
    return coeff, gate, (gate[0] ** 2, gate[1] ** 2), radicands


def _bounds(
    roots: RootData, K: Fraction, epsilon: Fraction, k_root: tuple[int, int], field: QuadraticField, side: int
) -> tuple[tuple[int, int], ...]:
    """(numerator, denominator) of approx_coeff, gate and the three squared gates at ``roots`` (:func:`_radicands`):
    their lower bounds for ``side`` 0, their upper bounds for ``side`` 1.

    The r-th root of each radicand is bounded dyadically on ``side``; a conclusion is asserted only when norm(y)
    strictly exceeds its upper bound.  The pairs are not reduced: each reader takes a floor, a dyadic root or a
    cross-multiplied comparison of them, which depend on the value alone.  Upper bounds shrink with the intervals.
    """
    coeff, gate, (gate_num, gate_den), radicands = _radicands(roots, K, epsilon, k_root, field, side)

    def at_least_gate(num: int, den: int, r: int) -> tuple[int, int]:
        """max(gate^2, the bound of (num/den)^(1/r) on ``side``)."""
        if r > 1:
            num, den = _dyadic_root(num, den, r)[side], 1 << ROOT_PREC_BITS
        return (num, den) if num * gate_den > gate_num * den else (gate_num, gate_den)

    return (coeff, gate, *(at_least_gate(*radicand) for radicand in radicands))


def _lower_reaches(roots: RootData, K: Fraction, epsilon: Fraction, k_root, field: QuadraticField, targets) -> bool:
    """Whether the floor of each lower squared gate of :func:`_bounds` at ``roots`` reaches its integer F in
    ``targets``, with no root taken: that bound is max(gate^2, c/2^p), for c the largest integer with
    c^r den <= num 2^(pr), or max(gate^2, num/den) for r = 1, so its floor reaches F when gate^2 >= F or
    F^r den <= num, and only then.
    """
    _, _, (gate_num, gate_den), radicands = _radicands(roots, K, epsilon, k_root, field, 0)
    return all(gate_num >= F * gate_den or F**r * den <= num for F, (num, den, r) in zip(targets, radicands))


def stable_constants(
    form: BinaryForm, K: Fraction, epsilon: Fraction, field: QuadraticField
) -> tuple[RootData, tuple[int, int, int], bool]:
    """Isolate the roots only as finely as the integer gates need, and refine the isolation until they settle.

    K and epsilon come as :class:`Problem` has checked them.  Returns the kept isolation, the floors of the upper
    bounds of its three squared gates and whether they settled.  The gates are compared against integer norms, so
    refinement beyond the point where their floors stop moving cannot change any decision.  The certificate: at a
    level where the floors of the lower bounds equal those of the upper bounds, no finer isolation can move a floor,
    since a finer upper bound lies between the two (the upper bounds shrink with the intervals and never fall below
    the true gate), so the level is kept at once.  The isolation starts at ``FIRST_BITS``, and while the certificate
    fails below ``ISOLATION_BITS`` it is refined to twice that level, at most ``ISOLATION_BITS``: 8, 16, 32, 64.
    Refined to ``ISOLATION_BITS``, every isolation is the one ``isolate_roots`` gives there, and a certificate at a
    coarser level holds there too, so the floors and the flag are those of an isolation started at
    ``ISOLATION_BITS``.  From there each halving refines the isolation one level past its own ``level``, and two
    rules stop them: the certificate, or the floors settle when one halving leaves the upper floors as they were and
    each is at most one above its lower floor; the finer level is kept.  The second rule is for a squared gate that
    is exactly an integer, whose lower floor can stay one below its upper floor at every level.  A lower floor is
    never above its upper one, so both rules only ask whether each lower floor reaches an integer, its cap or its
    cap - 1, which :func:`_lower_reaches` decides with integer powers: only the caps take dyadic roots.  When every
    root is an integer, the intervals are points and the enclosures exact, so no refinement can move a gate, none is
    tried and no lower bound is taken.  The flag is False when neither rule held after ``MAX_HALVINGS`` halvings;
    the returned floors are then those of the finest isolation, still sound.  The bounds of K^(1/n) are taken once,
    not once per halving, and no halving builds a Fraction.
    """
    n = form.degree
    k_root = _dyadic_root(K.numerator, K.denominator, n)

    def floors(data: RootData) -> tuple[int, int, int]:
        return tuple(num // den for num, den in _bounds(data, K, epsilon, k_root, field, 1)[2:])

    data, bits, halvings = isolate_roots(form, FIRST_BITS), FIRST_BITS, 0
    caps = floors(data)
    if len(data.integer_roots) == n:  # every root an integer: the enclosures are exact already
        return data, caps, True
    while not _lower_reaches(data, K, epsilon, k_root, field, caps):  # the certificate
        if bits < ISOLATION_BITS:  # the certificate alone, at 8, 16, 32 and 64 bits
            bits = min(2 * bits, ISOLATION_BITS)
            data = refine(data, bits)
            caps = floors(data)
            continue
        if halvings == MAX_HALVINGS:
            return data, caps, False
        halvings += 1
        finer = refine(data, data.level + 1)
        finer_caps = floors(finer)
        if finer_caps == caps and _lower_reaches(finer, K, epsilon, k_root, field, [cap - 1 for cap in caps]):
            return finer, finer_caps, True
        data, caps = finer, finer_caps
    return data, caps, True


class Problem(
    Validated,
    namedtuple("Problem", "field form K epsilon roots gates_stable abs_bound norm_cap part_cap joint_cap gate_caps")
):
    """One relative inequality |F(x, y)| <= K over the integers of ``field``, validated.

    The constructor is the one place a problem is checked (admissible form, K >= 1 and 0 < epsilon < 1, both read
    off numerators and denominators) and computes every per-problem fact the solver and the predicates use, on
    integers: the root isolation (integer roots included), the floors of the gates and ``abs_bound`` = s^n K, the
    bound of the absolute inequality behind both part bounds.  The isolation is the one :func:`stable_constants`
    keeps, at the first level where the gates are certain, which may be as coarse as ``FIRST_BITS``.  Norms and
    form values are integers, and an integer v has v <= B exactly when v <= floor(B) and v > B exactly when
    v > floor(B), so the bounds are held as integer floors, each an integer quotient: ``norm_cap`` = floor(K^2)
    for norm(F(x, y)), ``part_cap`` = floor((s^n K)^2) and ``joint_cap`` = floor((s^n K)^4) for the squared part
    and joint bounds, and ``gate_caps``, the floors of the three squared gates (proportionality, real vanishing,
    imaginary vanishing).  ``gates_stable`` is False when neither stopping rule of :func:`stable_constants` (lower
    floors equal to the upper ones, or a halving that leaves the upper floors as they were, each at most one above
    its lower floor) held after ``MAX_HALVINGS`` halvings; a warning is logged then.  The constants and the
    squared gates themselves are held nowhere as Fractions: :func:`enclosures` builds them from the kept
    isolation, refined to ``ISOLATION_BITS``, for the ``constants`` command.
    """

    __slots__ = ()
    _given = 4

    def __new__(cls, field: QuadraticField, form: BinaryForm, K, epsilon=Fraction(1, 2)):
        K, epsilon = Fraction(K), Fraction(epsilon)
        if K.numerator < K.denominator:
            raise ValueError("K must be >= 1")
        if not 0 < epsilon.numerator < epsilon.denominator:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        roots, gate_caps, stable = stable_constants(form, K, epsilon, field)
        if not stable:
            import logging  # only this warning needs it: every run that settles its gates skips loading it
            logging.getLogger(__name__).warning(
                "gates of %s over m = %d did not stabilize in %d halvings", form, field.m, MAX_HALVINGS
            )
        bound_num = field.s**form.degree * K.numerator  # s^n K = bound_num / K.denominator
        derived = {
            "roots": roots,
            "gates_stable": stable,
            "abs_bound": Fraction(bound_num, K.denominator),
            "norm_cap": K.numerator**2 // K.denominator**2,
            "part_cap": bound_num**2 // K.denominator**2,
            "joint_cap": bound_num**4 // K.denominator**4,
            "gate_caps": gate_caps,
        }
        return super().__new__(cls, field, form, K, epsilon, **derived)


def enclosures(problem: Problem) -> tuple[tuple[Fraction, Fraction], ...]:
    """The certified bounds the ``constants`` command prints, as Fractions of the problem's integer pairs.

    (lower, upper) of A, B, C and G, then, for each squared gate (proportionality, real vanishing, imaginary
    vanishing), the upper bound of its square root and the squared gate itself, at the problem's isolation
    refined to ``ISOLATION_BITS`` (a kept isolation finer than that is left as it is).  Each is built from the
    pairs of ``RootData.gap_numerators`` and :func:`_bounds`, the one definition of each bound; a Fraction
    shows only the value, so it does not matter that the pairs are not reduced.
    """
    roots, K, n = refine(problem.roots, ISOLATION_BITS), problem.K, problem.form.degree
    gap_lower, gap_upper, product_lower, product_upper = roots.gap_numerators
    gap_den, product_den = 1 << roots.level, 1 << (roots.level * (n - 1))
    k_root = _dyadic_root(K.numerator, K.denominator, n)
    lower, upper = (_bounds(roots, K, problem.epsilon, k_root, problem.field, side) for side in (0, 1))
    return (
        (Fraction(gap_lower, gap_den), Fraction(gap_upper, gap_den)),
        (Fraction(product_lower, product_den), Fraction(product_upper, product_den)),
        (Fraction(*lower[0]), Fraction(*upper[0])),
        (Fraction(*lower[1]), Fraction(*upper[1])),
        *((Fraction(_dyadic_root(num, den, 2)[1], 1 << ROOT_PREC_BITS), Fraction(num, den)) for num, den in upper[2:]),
    )
