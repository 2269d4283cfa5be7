import random
from fractions import Fraction

import pytest

from relthue import BinaryForm, solve_abs
from util import form_from_roots, rectangle_solutions

F1 = BinaryForm((0, -4, 0, 1))


def equation_pairs(form, value, height):
    """All (a, b) with F(a, b) = value and |b| <= height, from the inequality's listing."""
    return tuple((a, b) for a, b, v in solve_abs(form, abs(value), height).solutions if v == value)


def test_small_inequality_frozen_set():
    # |x^3 - 4xy^2| <= 1, |b| <= 2: fixed by the rectangle oracle, frozen here
    result = solve_abs(F1, 1, 2)
    expected = {
        (-4, -2), (0, -2), (4, -2),
        (-2, -1), (0, -1), (2, -1),
        (-1, 0), (0, 0), (1, 0),
        (-2, 1), (0, 1), (2, 1),
        (-4, 2), (0, 2), (4, 2),
    }
    assert set(result.pairs()) == expected
    assert set(result.pairs()) == rectangle_solutions(F1, 1, 2)


def test_zero_bound_gives_zero_set():
    result = solve_abs(F1, 0, 3)
    expected = {(0, 0)}
    for r in (-2, 0, 2):
        for t in range(-3, 4):
            expected.add((r * t, t))
    assert set(result.pairs()) == expected
    assert all(v == 0 for _, _, v in result.solutions)


def test_height_zero_monic_axis():
    result = solve_abs(F1, 1, 0)
    assert set(result.pairs()) == {(-1, 0), (0, 0), (1, 0)}


def test_equation_zero_set():
    pairs = equation_pairs(F1, 0, 2)
    expected = {(0, 0)}
    for r in (-2, 0, 2):
        for t in range(-2, 3):
            expected.add((r * t, t))
    assert set(pairs) == expected


def test_equation_examples():
    assert equation_pairs(F1, 1, 0) == ((1, 0),)
    assert (3, 1) in equation_pairs(F1, 15, 1)
    assert set(equation_pairs(F1, 15, 1)) == {(a, b) for (a, b) in rectangle_solutions(F1, 15, 1) if F1.evaluate(a, b) == 15}


def test_sorted_and_duplicate_free():
    result = solve_abs(F1, 10, 5)
    keys = [(b, a) for a, b, _ in result.solutions]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_values_are_exact():
    result = solve_abs(F1, 7, 4)
    for a, b, v in result.solutions:
        assert v == F1.evaluate(a, b)
        assert abs(v) <= 7


def test_sign_flip_symmetry():
    # F(-a,-b) = (-1)^n F(a,b), so the solution set is symmetric for any n
    result = set(solve_abs(F1, 9, 6).pairs())
    assert result == {(-a, -b) for a, b in result}
    quartic = form_from_roots([-3, -1, 2, 4])
    result = set(solve_abs(quartic, 25, 5).pairs())
    assert result == {(-a, -b) for a, b in result}


def test_rectangle_oracle_equivalence_random_forms():
    rng = random.Random(42)
    for _ in range(8):
        k = rng.choice((3, 4))
        roots = rng.sample(range(-4, 5), k)
        form = form_from_roots(roots)
        bound = Fraction(rng.randint(1, 40))
        ymax = rng.randint(2, 12)
        assert set(solve_abs(form, bound, ymax).pairs()) == rectangle_solutions(form, bound, ymax)


def test_rectangle_oracle_equivalence_irrational_roots():
    form = BinaryForm((-1, -3, 0, 1))  # irreducible cubic
    for bound, ymax in ((1, 8), (Fraction(19, 2), 6), (50, 5)):
        assert set(solve_abs(form, bound, ymax).pairs()) == rectangle_solutions(form, bound, ymax)


def test_validation():
    with pytest.raises(ValueError):
        solve_abs(F1, -1, 3)
    with pytest.raises(ValueError):
        solve_abs(F1, 1, -1)


def test_zero_values_on_root_lines():
    result = solve_abs(F1, 30, 6)
    for a, b, v in result.solutions:
        if v == 0:
            assert (b == 0 and a == 0) or (b != 0 and a % b == 0 and a // b in (-2, 0, 2))
