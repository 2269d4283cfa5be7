"""Reduction of the relative inequality to absolute inequalities over Z.

For a solution (x, y) write v_imag = F(x2, y2) and v_real = F(a, b) with
(a, b) = (s*x1 + (s-1)*x2, s*y1 + (s-1)*y2).  The part bounds confine v_imag
to a small integer range; splitting on v_imag = 0 versus v_imag != 0 gives:

* zero branch: (x2, y2) runs over the zero set of F on Z^2, that is (0, 0)
  and the integer-root lines (r*t, t), and (a, b) over |F(a, b)| <= s^n K.
  A pair with x2 = r*y2 and a = r*b is a member x = r*y of the zero family
  of r; members are not enumerated but kept as :class:`ZeroFamily` and
  expanded by :meth:`RelativeSolutionSet.quadruples`.  Off the families,
  x - r*y = d = (a - r*b)/s is a nonzero rational integer and every other
  factor of F(x, y) has |x - rho*y| >= |r - rho|*|t|*sqrt(m)/s, so
  |F(x, y)| >= |d|*|f'(r)|*(|t|*sqrt(m)/s)^(n-1).  This exact derivative
  test ends each root line at the first t where even |d| = 1 fails, and
  pairs (r*t, t) only with real pairs in the window 0 < |a - r*b| <= s*d_max(t);
* nonzero branch: for each realized value v_imag, v_real is confined by the
  joint bound, and (a, b) runs over the exact-value solutions.

Candidates are reconstructed via x1 = (a - (s-1)*x2)/s, y1 = (b - (s-1)*y2)/s
(kept only when integral, which for s = 2 is the parity filter a = x2 and
b = y2 mod 2) and every candidate is verified exactly against the original
inequality.  One absolute enumeration at bound s^n K serves both branches.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import floor, isqrt

from . import _poly
from .abssolver import AbsSolutionSet, solve_abs
from .forms import BinaryForm, IntegerPair
from .quadfield import QuadraticField, RingElement
from .rootbounds import Problem
from .theorem import TheoremReport, full_report

log = logging.getLogger(__name__)

Quad = tuple[int, int, int, int]  # (x1, x2, y1, y2)
Found = dict[Quad, tuple[RingElement, RingElement, RingElement, int]]  # quad -> (x, y, F(x, y), its norm)


@dataclass(frozen=True)
class ZeroFamily:
    """One integer-root line of F: every (w*root, w) with w in the ring solves exactly.

    A member x = r*y has F(x, y) = 0, and every predicate of
    :func:`~relthue.theorem.full_report` holds for it: its real pair is
    (r*b, b) and its imaginary pair (r*y2, y2), so both part values and the
    joint product are 0; x2*y1 = r*y2*y1 = x1*y2 (proportionality); b = 0
    forces a = r*b = 0 (real-pair vanishing); y2 = 0 forces x2 = r*y2 = 0
    (imaginary vanishing).  Members are therefore checked once per family,
    by this argument, and not one by one.
    """

    root: int


@dataclass(frozen=True)
class RelativeSolution:
    x: RingElement
    y: RingElement
    value: RingElement
    value_norm: int
    report: TheoremReport

    @property
    def quadruple(self) -> Quad:
        return (self.x.u1, self.x.u2, self.y.u1, self.y.u2)


@dataclass(frozen=True)
class RelativeSolutionSet:
    """The solutions within reach: the zero families plus every solution outside them.

    ``solutions`` holds only the solutions that are not family members, each
    verified exactly and with its predicate report; when F has no integer
    root, (0, 0) is one of them, otherwise it is a member of every family.
    ``families`` holds one :class:`ZeroFamily` per integer root.  The reach is
    |y2| <= ``search_height`` and |s*y1 + (s-1)*y2| <= ``search_height``;
    :meth:`family_members` lists the members within it and
    :meth:`quadruples` the whole solution set within it.
    """

    solutions: tuple[RelativeSolution, ...]
    search_height: int
    families: tuple[ZeroFamily, ...]
    cross_check_ok: bool
    field: QuadraticField

    def family_members(self, box: int | None = None) -> Iterator[Quad]:
        """Every family member (r*y, y) within reach, each once.

        With ``box``, only the members whose four coordinates all lie in
        [-box, box]; only those are generated, so the work grows with the box
        and not with the reach.
        """
        s, height = self.field.s, self.search_height
        for i, family in enumerate(self.families):
            r = family.root
            # |y1|, |y2| <= cap keeps r*y1 and r*y2 in the box; reach alone implies |y1| <= height
            cap = height if box is None else min(height, box // max(abs(r), 1))
            for y2 in range(-cap, cap + 1):
                # y1 with |s*y1 + (s-1)*y2| <= height
                y1_lo = max(-cap, -((height + (s - 1) * y2) // s))
                y1_hi = min(cap, (height - (s - 1) * y2) // s)
                for y1 in range(y1_lo, y1_hi + 1):
                    if i == 0 or y1 or y2:  # (0, 0) is in every family
                        yield (r * y1, r * y2, y1, y2)

    def quadruples(self) -> set[Quad]:
        return {sol.quadruple for sol in self.solutions}.union(self.family_members())


def imag_value_range(problem: Problem) -> list[int]:
    """All integers v with v^2 * m^n <= (s^n K)^2 — the possible F(x2, y2) values."""
    limit = problem.abs_bound**2 / problem.field.m**problem.form.degree
    cap = isqrt(floor(limit))
    return list(range(-cap, cap + 1))


def _reconstruct(field: QuadraticField, imag_pair, real_pair) -> Quad | None:
    """Invert the coordinate split; None when the division is not integral."""
    s = field.s
    x2, y2 = imag_pair
    a, b = real_pair
    if (a - (s - 1) * x2) % s or (b - (s - 1) * y2) % s:
        return None
    return ((a - (s - 1) * x2) // s, x2, (b - (s - 1) * y2) // s, y2)


def _verify(field, form, norm_cap: int, quad: Quad):
    """(x, y, F(x, y), norm(F(x, y))) when the quadruple solves the inequality, else None.

    Norms are integers, so norm(F(x, y)) <= K^2 exactly when it is at most ``norm_cap`` = floor(K^2).
    """
    x = RingElement(quad[0], quad[1])
    y = RingElement(quad[2], quad[3])
    value = field.evaluate_form(form, x, y)
    value_norm = field.norm(value)
    if value_norm <= norm_cap:
        return x, y, value, value_norm
    return None


def _pair(problem: Problem, imag_pair: IntegerPair, real_pairs: Iterable[IntegerPair], found: Found) -> None:
    """Reconstruct and verify each (imag_pair, real pair) candidate, recording the solutions in ``found``."""
    field, form = problem.field, problem.form
    for real_pair in real_pairs:
        quad = _reconstruct(field, imag_pair, real_pair)
        if quad is None:
            continue
        verified = _verify(field, form, problem.norm_cap, quad)
        if verified is not None:
            found[quad] = verified


def zero_value_branch(problem: Problem, abs_solutions: AbsSolutionSet) -> Found:
    """Solutions with F(x2, y2) = 0 that are not zero-family members, verified exactly.

    ``abs_solutions`` is the enumeration of |F(a, b)| <= s^n K; its height
    bounds y2 too.  For y2 = t != 0 on the line of root r, only real pairs with
    0 < |a - r*b| <= s*d_max(t) are tried, where d_max(t) is the largest d
    with d^2 * f'(r)^2 * (m*t^2)^(n-1) <= K^2 * s^(2(n-1)) (see the module
    docstring); the line ends where d_max(t) = 0.
    """
    s, m, n = problem.s, problem.field.m, problem.form.degree
    roots = problem.integer_roots
    real_pairs = abs_solutions.pairs()
    found: Found = {}
    # y2 = x2 = 0: x and y are rational integers, members when (a, b) is on a root line
    _pair(problem, (0, 0), [(a, b) for a, b in real_pairs if all(a != r * b for r in roots)], found)
    f_prime = _poly.derivative(problem.form.coeffs)
    bound = problem.K**2 * s ** (2 * (n - 1))
    for r in roots:
        slope_sq = _poly.evaluate(f_prime, r) ** 2
        for t in range(1, abs_solutions.height + 1):
            d_max = isqrt(floor(bound / (slope_sq * (m * t * t) ** (n - 1))))
            if d_max == 0:
                break
            window = [(a, b) for a, b in real_pairs if 0 < abs(a - r * b) <= s * d_max]
            _pair(problem, (r * t, t), window, found)
            _pair(problem, (-r * t, -t), window, found)
    return found


def nonzero_value_branch(problem: Problem, abs_solutions: AbsSolutionSet) -> Found:
    """Candidates with F(x2, y2) = v_imag != 0, verified exactly; ``abs_solutions`` as for the zero branch."""
    n = problem.form.degree
    index = abs_solutions.values_index()
    part_cap = floor(problem.abs_bound)  # |v_real| bound from the part inequality
    found: Found = {}
    for v_imag in imag_value_range(problem):
        if v_imag == 0:
            continue
        imag_pairs = index.get(v_imag, [])
        if not imag_pairs:
            log.debug("imag value %d not realized within height %d; skipped", v_imag, abs_solutions.height)
            continue
        joint = problem.abs_bound**4 / (v_imag * v_imag * 2 ** (2 * n) * problem.field.m**n)
        real_cap = min(part_cap, isqrt(floor(joint)))
        for v_real, real_pairs in index.items():
            if abs(v_real) > real_cap:
                continue
            for imag_pair in imag_pairs:
                _pair(problem, imag_pair, real_pairs, found)
    return found


def solve_relative(
    field: QuadraticField,
    form: BinaryForm,
    K,
    epsilon=Fraction(1, 2),
    height: int = 100,
) -> RelativeSolutionSet:
    """Solve |F(x, y)| <= K over the ring of integers, exhaustively within reach.

    The documented reach is |y2| <= height and |s*y1 + (s-1)*y2| <= height:
    every solution satisfying both is either a member of one of the returned
    zero families or appears in ``solutions``.  Each entry of ``solutions``
    is verified exactly and carries a structure-predicate report (a failed
    applicable predicate would indicate a bug and flips ``cross_check_ok``);
    family members satisfy every predicate by the argument on
    :class:`ZeroFamily`.
    """
    problem = Problem(field, form, K, epsilon)
    abs_solutions = solve_abs(form, problem.abs_bound, height, roots=problem.roots)
    candidates = zero_value_branch(problem, abs_solutions)
    candidates.update(nonzero_value_branch(problem, abs_solutions))
    solutions = [
        RelativeSolution(x=x, y=y, value=value, value_norm=value_norm, report=full_report(problem, x, y))
        for x, y, value, value_norm in candidates.values()
    ]
    solutions.sort(key=lambda sol: (sol.report.norm_y, sol.y.u1, sol.y.u2, sol.x.u1, sol.x.u2))
    cross_check_ok = all(sol.report.ok for sol in solutions)
    if not cross_check_ok:
        log.warning("a verified solution failed an applicable structure predicate")
    return RelativeSolutionSet(
        solutions=tuple(solutions),
        search_height=height,
        families=tuple(ZeroFamily(r) for r in problem.integer_roots),
        cross_check_ok=cross_check_ok,
        field=field,
    )
