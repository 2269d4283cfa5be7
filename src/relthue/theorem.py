"""Executable predicates that every solution of the relative inequality satisfies.

For a solution (x, y) with coordinate split ((a, b), (x2, y2)) the checks are:

* part bounds:   |F(a, b)| <= s^n K  and  |F(x2, y2)| <= s^n K / sqrt(m)^n,
* joint bound:   |F(a, b)| * |F(x2, y2)| <= s^(2n) K^2 / (2^n sqrt(m)^n),
* proportionality: norm(y) above its gate forces x2*y1 == x1*y2,
* real-pair vanishing: above its gate, s*y1+(s-1)*y2 == 0 forces
  s*x1+(s-1)*x2 == 0,
* imag-coordinate vanishing: above its gate, y2 == 0 forces x2 == 0.

All pass/fail decisions are exact integer/rational comparisons (the bounds
are squared to remove sqrt(m)); gate applicability is decided against upper
enclosures, so a conclusion is never asserted outside its proven range.
Every check reads its bounds and gates from one :class:`~relthue.rootbounds.Problem`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quadfield import RingElement
from .rootbounds import Problem


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of all checks for one candidate pair, with the exact values."""

    real_value: int
    imag_value: int
    norm_y: int
    real_bound_ok: bool
    imag_bound_ok: bool
    joint_bound_ok: bool
    proportional_applicable: bool
    proportional_holds: bool
    real_vanish_applicable: bool
    real_vanish_holds: bool
    imag_vanish_applicable: bool
    imag_vanish_holds: bool

    @property
    def ok(self) -> bool:
        """True when every unconditional bound holds and every applicable conclusion does."""
        return (
            self.real_bound_ok
            and self.imag_bound_ok
            and self.joint_bound_ok
            and (self.proportional_holds or not self.proportional_applicable)
            and (self.real_vanish_holds or not self.real_vanish_applicable)
            and (self.imag_vanish_holds or not self.imag_vanish_applicable)
        )


def check_part_bounds(problem: Problem, v_real: int, v_imag: int) -> tuple[bool, bool]:
    """(real flag, imag flag) for the single-product bounds on v_real = F(a, b), v_imag = F(x2, y2), squared."""
    bound = problem.abs_bound**2
    return (v_real * v_real <= bound, v_imag * v_imag * problem.field.m**problem.form.degree <= bound)


def check_joint_bound(problem: Problem, v_real: int, v_imag: int) -> bool:
    """The multiplied bound, tested as an exact fourth-power comparison."""
    n = problem.form.degree
    lhs = v_real * v_real * v_imag * v_imag * 2 ** (2 * n) * problem.field.m**n
    return lhs <= problem.abs_bound**4


def check_proportionality(problem: Problem, x: RingElement, y: RingElement) -> tuple[bool, bool]:
    """(applicable, holds) for the cross-product conclusion x2*y1 == x1*y2."""
    applicable = problem.field.norm(y) > problem.gates.proportionality_sq
    return applicable, x.u2 * y.u1 == x.u1 * y.u2


def check_real_vanishing(problem: Problem, x: RingElement, y: RingElement) -> tuple[bool, bool]:
    """(applicable, holds): y's real pair vanishing forces x's real pair to vanish."""
    s = problem.field.s
    applicable = problem.field.norm(y) > problem.gates.real_vanish_sq and s * y.u1 + (s - 1) * y.u2 == 0
    return applicable, s * x.u1 + (s - 1) * x.u2 == 0


def check_imag_vanishing(problem: Problem, x: RingElement, y: RingElement) -> tuple[bool, bool]:
    """(applicable, holds): y2 == 0 forces x2 == 0 above the gate."""
    applicable = problem.field.norm(y) > problem.gates.imag_vanish_sq and y.u2 == 0
    return applicable, x.u2 == 0


def full_report(problem: Problem, x: RingElement, y: RingElement) -> TheoremReport:
    real_pair, imag_pair = problem.field.split_coordinates(x, y)
    v_real, v_imag = problem.form.evaluate(*real_pair), problem.form.evaluate(*imag_pair)
    real_ok, imag_ok = check_part_bounds(problem, v_real, v_imag)
    prop = check_proportionality(problem, x, y)
    realv = check_real_vanishing(problem, x, y)
    imagv = check_imag_vanishing(problem, x, y)
    return TheoremReport(
        real_value=v_real,
        imag_value=v_imag,
        norm_y=problem.field.norm(y),
        real_bound_ok=real_ok,
        imag_bound_ok=imag_ok,
        joint_bound_ok=check_joint_bound(problem, v_real, v_imag),
        proportional_applicable=prop[0],
        proportional_holds=prop[1],
        real_vanish_applicable=realv[0],
        real_vanish_holds=realv[1],
        imag_vanish_applicable=imagv[0],
        imag_vanish_holds=imagv[1],
    )
