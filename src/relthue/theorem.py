"""Executable predicates that every solution of the relative inequality satisfies.

For a solution (x, y) with coordinate split ((a, b), (x2, y2)), where
(a, b) = (s*x1 + (s-1)*x2, s*y1 + (s-1)*y2), :func:`full_report` decides:

* part bounds:   |F(a, b)| <= s^n K  and  |F(x2, y2)| <= s^n K / sqrt(m)^n,
* joint bound:   |F(a, b)| * |F(x2, y2)| <= s^(2n) K^2 / (2^n sqrt(m)^n),
* proportionality: norm(y) above its gate forces x2*y1 == x1*y2,
* real-pair vanishing: above its gate, b == 0 forces a == 0,
* imag-coordinate vanishing: above its gate, y2 == 0 forces x2 == 0.

All pass/fail decisions are exact integer comparisons.  The bounds are
squared to remove sqrt(m), and every side a report computes (a value, a
product of values, norm(y)) is an integer, so each is compared with the
integer floor of its bound: v <= B exactly when v <= floor(B), and N > G
exactly when N > floor(G).  Those floors, like the bounds and gates they
come from, are computed once per problem and held by
:class:`~relthue.rootbounds.Problem` (``part_cap``, ``joint_cap``,
``gate_caps``).  Gate applicability is decided against upper enclosures, so
a conclusion is never asserted outside its proven range.  The split, the two
part values and norm(y) are each computed once per report.  Each inequality
is still written out here rather than shared with the reducer's pruning, so a
report checks the bounds the reducer prunes with independently.
"""

from __future__ import annotations

from typing import NamedTuple

from .rootbounds import Problem


class TheoremReport(NamedTuple):
    """Outcome of all checks for one candidate pair."""

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


def full_report(problem: Problem, quad: tuple[int, int, int, int]) -> TheoremReport:
    """Every check of the module docstring for the candidate x = x1 + x2*w, y = y1 + y2*w, quad = (x1, x2, y1, y2)."""
    field, form = problem.field, problem.form
    (a, b), (x2, y2) = field.split_coordinates(quad)
    x1, y1 = quad[0], quad[2]
    v_real, v_imag = form.evaluate(a, b), form.evaluate(x2, y2)
    n, m = form.degree, field.m
    norm_y = field.norm(y1, y2)
    proportionality_cap, real_vanish_cap, imag_vanish_cap = problem.gate_caps
    return TheoremReport(
        norm_y=norm_y,
        real_bound_ok=v_real * v_real <= problem.part_cap,
        imag_bound_ok=v_imag * v_imag * m**n <= problem.part_cap,
        joint_bound_ok=(v_real * v_imag) ** 2 * 2 ** (2 * n) * m**n <= problem.joint_cap,
        proportional_applicable=norm_y > proportionality_cap,
        proportional_holds=x2 * y1 == x1 * y2,
        real_vanish_applicable=norm_y > real_vanish_cap and b == 0,
        real_vanish_holds=a == 0,
        imag_vanish_applicable=norm_y > imag_vanish_cap and y2 == 0,
        imag_vanish_holds=x2 == 0,
    )
