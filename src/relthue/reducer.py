"""Reduction of the relative inequality to absolute inequalities over Z.

For a solution (x, y) write v_imag = F(x2, y2) and v_real = F(a, b) with
(a, b) = (s*x1 + (s-1)*x2, s*y1 + (s-1)*y2).  The part bounds confine v_imag
to a small integer range; splitting on v_imag = 0 versus v_imag != 0 gives:

* zero branch: (x2, y2) runs over the zero set of F on Z^2 (integer-root
  lines, truncated at the height bound), (a, b) over |F(a, b)| <= s^n K;
* nonzero branch: for each realized value v_imag, v_real is confined by the
  joint bound, and (a, b) runs over the exact-value solutions.

Candidates are reconstructed via x1 = (a - (s-1)*x2)/s, y1 = (b - (s-1)*y2)/s
(kept only when integral, which for s = 2 is the parity filter a = x2 and
b = y2 mod 2) and every candidate is verified exactly against the original
inequality.  One absolute enumeration at bound s^n K serves both branches.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import floor, isqrt

from .abssolver import AbsSolutionSet, solve_abs
from .forms import BinaryForm
from .quadfield import QuadraticField, RingElement
from .rootbounds import Problem
from .theorem import TheoremReport, full_report

log = logging.getLogger(__name__)

Quad = tuple[int, int, int, int]  # (x1, x2, y1, y2)
Found = dict[Quad, tuple[RingElement, RingElement, RingElement]]  # quad -> (x, y, F(x, y))


@dataclass(frozen=True)
class ZeroFamily:
    """One integer-root line of F: every (w*root, w) with w in the ring solves exactly."""

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
    solutions: tuple[RelativeSolution, ...]
    search_height: int
    families: tuple[ZeroFamily, ...]
    cross_check_ok: bool

    def quadruples(self) -> set[Quad]:
        return {sol.quadruple for sol in self.solutions}


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


def _verify(field, form, K_sq, quad: Quad):
    """(x, y, F(x, y)) when the quadruple solves the inequality, else None."""
    x = RingElement(quad[0], quad[1])
    y = RingElement(quad[2], quad[3])
    value = field.evaluate_form(form, x, y)
    if field.norm(value) <= K_sq:
        return x, y, value
    return None


def _zero_set_members(problem: Problem, height: int) -> list[tuple[int, int]]:
    members = {(0, 0)}
    for r in problem.integer_roots:
        for t in range(-height, height + 1):
            members.add((r * t, t))
    return sorted(members)


def zero_value_branch(problem: Problem, abs_solutions: AbsSolutionSet) -> Found:
    """Candidates with F(x2, y2) = 0, verified exactly.

    ``abs_solutions`` is the enumeration of |F(a, b)| <= s^n K; its height
    bounds (x2, y2) too.
    """
    field, form = problem.field, problem.form
    K_sq = problem.K * problem.K
    found: Found = {}
    for imag_pair in _zero_set_members(problem, abs_solutions.height):
        for a, b, _ in abs_solutions.solutions:
            quad = _reconstruct(field, imag_pair, (a, b))
            if quad is None:
                continue
            verified = _verify(field, form, K_sq, quad)
            if verified is not None:
                found[quad] = verified
    return found


def nonzero_value_branch(problem: Problem, abs_solutions: AbsSolutionSet) -> Found:
    """Candidates with F(x2, y2) = v_imag != 0, verified exactly; ``abs_solutions`` as for the zero branch."""
    field, form = problem.field, problem.form
    n = form.degree
    K_sq = problem.K * problem.K
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
        joint = problem.abs_bound**4 / (v_imag * v_imag * 2 ** (2 * n) * field.m**n)
        real_cap = min(part_cap, isqrt(floor(joint)))
        for v_real in sorted(index):
            if abs(v_real) > real_cap:
                continue
            for imag_pair in imag_pairs:
                for real_pair in index[v_real]:
                    quad = _reconstruct(field, imag_pair, real_pair)
                    if quad is None:
                        continue
                    verified = _verify(field, form, K_sq, quad)
                    if verified is not None:
                        found[quad] = verified
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
    every solution satisfying both appears in the output, each entry is
    verified exactly, and each carries a structure-predicate report (a failed
    applicable predicate would indicate a bug and flips ``cross_check_ok``).
    """
    problem = Problem(field, form, K, epsilon)
    abs_solutions = solve_abs(form, problem.abs_bound, height, roots=problem.roots)
    candidates = zero_value_branch(problem, abs_solutions)
    candidates.update(nonzero_value_branch(problem, abs_solutions))
    solutions = [
        RelativeSolution(x=x, y=y, value=value, value_norm=field.norm(value), report=full_report(problem, x, y))
        for x, y, value in candidates.values()
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
    )
