import random
from fractions import Fraction

import pytest

from relthue import BinaryForm, Problem, QuadraticField, RingElement, brute_force, full_report
from relthue.theorem import (
    check_imag_vanishing,
    check_joint_bound,
    check_part_bounds,
    check_proportionality,
    check_real_vanishing,
)
from util import imag_part_sq, real_part_sq

F1 = BinaryForm((0, -4, 0, 1))
K3 = QuadraticField(3)
P3 = Problem(K3, F1, 1)
W = RingElement(0, 1)
ZERO = RingElement(0, 0)


def part_values(field, x, y):
    """(F(a, b), F(x2, y2)) for the coordinate split of (x, y)."""
    real_pair, imag_pair = field.split_coordinates(x, y)
    return F1.evaluate(*real_pair), F1.evaluate(*imag_pair)


def test_part_bounds_examples():
    assert check_part_bounds(P3, *part_values(K3, W, ZERO)) == (True, True)  # 1 <= 8, 27 <= 64
    assert check_part_bounds(P3, *part_values(K3, ZERO, ZERO)) == (True, True)
    assert check_part_bounds(P3, *part_values(K3, RingElement(4, 0), RingElement(2, 0))) == (True, True)
    # a clear non-solution violates the real part bound: F(6,0) = 216 > 8
    assert check_part_bounds(P3, *part_values(K3, RingElement(3, 0), ZERO))[0] is False


def test_joint_bound_examples():
    # 1 * 1 * 2^6 * 27 = 1728 <= 2^12 = 4096
    assert check_joint_bound(P3, *part_values(K3, W, ZERO))
    assert check_joint_bound(P3, *part_values(K3, ZERO, ZERO))
    # zero factor: F(2,0) = 8, F(0,0) = 0
    assert check_joint_bound(P3, *part_values(K3, RingElement(1, 0), ZERO))


def test_proportionality_example():
    applicable, holds = check_proportionality(P3, RingElement(4, 0), RingElement(2, 0))
    assert applicable  # norm(y) = 4 > threshold^2 = 4/3
    assert holds  # 0*2 == 4*0
    applicable, _ = check_proportionality(P3, RingElement(4, 0), ZERO)
    assert not applicable
    applicable, holds = check_proportionality(P3, ZERO, RingElement(2, 0))
    assert applicable and holds


def test_real_vanishing_example():
    y = RingElement(-1, 2)  # i*sqrt(3): norm 3 > gate 2, real pair 2*(-1)+2 = 0
    applicable, _ = check_real_vanishing(P3, ZERO, y)
    assert applicable
    # every actual solution with this y must have a vanishing real pair
    for x1 in range(-6, 7):
        for x2 in range(-6, 7):
            x = RingElement(x1, x2)
            if K3.norm(K3.evaluate_form(F1, x, y)) <= 1:
                assert check_real_vanishing(P3, x, y)[1], (x1, x2)
    applicable, _ = check_real_vanishing(P3, ZERO, RingElement(1, 0))
    assert not applicable  # real pair of y is 2 != 0
    assert check_real_vanishing(P3, ZERO, y)[1]  # x = 0 vacuously vanishes


def test_imag_vanishing_example():
    y = RingElement(2, 0)
    applicable, holds = check_imag_vanishing(P3, RingElement(4, 0), y)
    assert applicable and holds
    assert not check_imag_vanishing(P3, RingElement(4, 0), RingElement(1, 1))[0]
    # x = (0,1) with this y would violate the conclusion, so it cannot solve:
    assert K3.norm(K3.evaluate_form(F1, RingElement(0, 1), y)) > 1


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("K", [1, 10])
def test_soundness_on_box(m, K):
    field = QuadraticField(m)
    problem = Problem(field, F1, K)
    result = brute_force(field, F1, K, 2)
    assert result.solutions  # sanity: the sweep is not vacuous
    for quad, _ in result.solutions:
        x = RingElement(quad[0], quad[1])
        y = RingElement(quad[2], quad[3])
        report = full_report(problem, x, y)
        assert report.ok, quad


def test_am_gm_step():
    # (Re z * Im z)^2 <= (|z|^2 / 2)^2, exactly, for random ring elements
    rng = random.Random(11)
    for m in (1, 2, 3, 7, 11):
        field = QuadraticField(m)
        for _ in range(500):
            z = RingElement(rng.randint(-50, 50), rng.randint(-50, 50))
            re_sq, im_sq = real_part_sq(field, z), imag_part_sq(field, z)
            assert re_sq * im_sq <= Fraction(field.norm(z), 2) ** 2
