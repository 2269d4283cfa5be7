import math
import random
from fractions import Fraction

import pytest

from relthue import BinaryForm, Problem, QuadraticField, brute_force, full_report
from relthue.rootbounds import enclosures
from util import imag_part_sq, real_part_sq

F1 = BinaryForm((0, -4, 0, 1))
K3 = QuadraticField(3)
P3 = Problem(K3, F1, 1)
P1 = Problem(QuadraticField(1), F1, 10)  # s = 1, abs_bound 10, squared gates 100, 10, 10
# x^3 - 3xy^2 - y^3 over m = 7 (s = 2): squared gates 131.x, 30.x, 13.x, one apart from the next
P7 = Problem(QuadraticField(7), BinaryForm((-1, -3, 0, 1)), 10)
W = (0, 1)
ZERO = (0, 0)


def coords(x, y):
    """The quadruple (x1, x2, y1, y2) that full_report takes, from the pairs x = (x1, x2) and y = (y1, y2)."""
    return (*x, *y)


def part_bounds(x, y, problem=P3):
    """(real flag, imag flag) of the part bounds of full_report."""
    report = full_report(problem, coords(x, y))
    return report.real_bound_ok, report.imag_bound_ok


def gated(name, x, y, problem=P3):
    """(applicable, holds) of one gated conclusion of full_report."""
    report = full_report(problem, coords(x, y))
    return getattr(report, f"{name}_applicable"), getattr(report, f"{name}_holds")


def test_part_bounds_examples():
    assert part_bounds(W, ZERO) == (True, True)  # 1 <= 8, 27 <= 64
    assert part_bounds(ZERO, ZERO) == (True, True)
    assert part_bounds((4, 0), (2, 0)) == (True, True)
    # a clear non-solution violates the real part bound: F(6,0) = 216 > 8
    assert part_bounds((3, 0), ZERO)[0] is False
    # F(2, 0) = 8 = s^n K: on the real bound, which is not strict
    assert part_bounds((1, 0), ZERO) == (True, True)
    # F(-1, 1) = 3 inside |v| <= 8, but 3^2 * 3^3 > 64: the imag bound carries sqrt(m)^n
    assert part_bounds((0, -1), (0, 1)) == (True, False)


def test_joint_bound_examples():
    # 1 * 1 * 2^6 * 27 = 1728 <= 2^12 = 4096
    assert full_report(P3, coords(W, ZERO)).joint_bound_ok
    assert full_report(P3, coords(ZERO, ZERO)).joint_bound_ok
    # zero factor: F(2,0) = 8, F(0,0) = 0
    assert full_report(P3, coords((1, 0), ZERO)).joint_bound_ok
    # F(2, 0) * F(1, 1) = -24 passes both part bounds, but 24^2 * 2^6 = 36864 > 10^4
    report = full_report(P1, coords((2, 1), (0, 1)))
    assert (report.real_bound_ok, report.imag_bound_ok, report.joint_bound_ok) == (True, True, False)


def test_proportionality_example():
    applicable, holds = gated("proportional", (4, 0), (2, 0))
    assert applicable  # norm(y) = 4 > threshold^2 = 4/3
    assert holds  # 0*2 == 4*0
    applicable, _ = gated("proportional", (4, 0), ZERO)
    assert not applicable
    applicable, holds = gated("proportional", ZERO, (2, 0))
    assert applicable and holds
    # the gate is strict: norm(y) = 100 is not above it, 101 is
    assert gated("proportional", W, (10, 0), P1) == (False, False)
    assert gated("proportional", W, (10, 1), P1) == (True, False)
    assert not gated("proportional", ZERO, (11, 0), P7)[0]  # 121
    assert gated("proportional", ZERO, (12, 0), P7)[0]  # 144


def test_real_vanishing_example():
    y = (-1, 2)  # i*sqrt(3): norm 3 > gate 2, real pair 2*(-1)+2 = 0
    applicable, _ = gated("real_vanish", ZERO, y)
    assert applicable
    # every actual solution with this y must have a vanishing real pair
    for x1 in range(-6, 7):
        for x2 in range(-6, 7):
            x = (x1, x2)
            if K3.norm(*K3.evaluate_form(F1, coords(x, y))) <= 1:
                assert gated("real_vanish", x, y)[1], (x1, x2)
    applicable, _ = gated("real_vanish", ZERO, (1, 0))
    assert not applicable  # real pair of y is 2 != 0
    assert gated("real_vanish", ZERO, y)[1]  # x = 0 vacuously vanishes
    # the gate reads y's real pair and the conclusion x's: (a, b) = (2*1 + 0, 2*(-1) + 2) = (2, 0)
    assert gated("real_vanish", (1, 0), y) == (True, False)
    assert gated("real_vanish", ZERO, (2, 0)) == (False, True)  # (a, b) = (0, 4)
    # y = t*(1, -2) has b = 0 and norm 7t^2
    assert not gated("real_vanish", ZERO, (2, -4), P7)[0]  # 28
    assert gated("real_vanish", ZERO, (3, -6), P7)[0]  # 63


def test_imag_vanishing_example():
    y = (2, 0)
    applicable, holds = gated("imag_vanish", (4, 0), y)
    assert applicable and holds
    assert not gated("imag_vanish", (4, 0), (1, 1))[0]
    # x = (0,1) with this y would violate the conclusion, so it cannot solve:
    assert K3.norm(*K3.evaluate_form(F1, coords(W, y))) > 1
    assert gated("imag_vanish", (0, 1), y) == (True, False)
    assert not gated("imag_vanish", ZERO, (3, 0), P7)[0]  # 9
    assert gated("imag_vanish", ZERO, (4, 0), P7)[0]  # 16


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("K", [1, 10])
def test_soundness_on_box(m, K):
    field = QuadraticField(m)
    problem = Problem(field, F1, K)
    result = brute_force(field, F1, K, 2)
    assert result.solutions  # sanity: the sweep is not vacuous
    for quad, _ in result.solutions:
        assert full_report(problem, quad).ok, quad


def test_am_gm_step():
    # (Re z * Im z)^2 <= (|z|^2 / 2)^2, exactly, for random ring elements
    rng = random.Random(11)
    for m in (1, 2, 3, 7, 11):
        field = QuadraticField(m)
        for _ in range(500):
            z = (rng.randint(-50, 50), rng.randint(-50, 50))
            re_sq, im_sq = real_part_sq(field, z), imag_part_sq(field, z)
            assert re_sq * im_sq <= Fraction(field.norm(*z), 2) ** 2


def test_bounds_that_are_not_integers_are_decided_by_their_floors():
    # x^3 - 3xy^2 - y^3 over m = 1 (s = 1), F(1, 1) = -3 and F(2, 1) = 1
    form, field = BinaryForm((-1, -3, 0, 1)), QuadraticField(1)
    problem = Problem(field, form, Fraction(299, 100))  # (s^n K)^2 = 8.9401, below 9 = F(1, 1)^2
    assert (problem.part_cap, problem.norm_cap) == (8, 8)
    assert part_bounds((1, 0), (1, 0), problem) == (False, True)
    assert part_bounds((0, 1), (0, 1), problem) == (True, False)
    assert part_bounds((2, 0), (1, 0), problem) == (True, True)
    problem = Problem(field, form, Fraction(707, 250))  # (s^n K)^4 = 63.97..., below 1 * 1 * 2^6 * 1^3
    assert problem.joint_cap == 63
    report = full_report(problem, coords((2, 2), (1, 1)))  # F(2, 1) = 1 on both sides
    assert (report.real_bound_ok, report.imag_bound_ok, report.joint_bound_ok) == (True, True, False)


@pytest.mark.parametrize("problem", [P3, P1, P7, Problem(QuadraticField(2), BinaryForm((-1, -3, 0, 1)), Fraction(7, 2))])
def test_problem_caps_are_the_floors_of_its_bounds(problem):
    assert problem.part_cap == math.floor(problem.abs_bound**2)
    assert problem.joint_cap == math.floor(problem.abs_bound**4)
    assert problem.norm_cap == math.floor(problem.K**2)
    squared_gates = [square for _, square in enclosures(problem)[4:]]
    assert problem.gate_caps == tuple(math.floor(g) for g in squared_gates)
