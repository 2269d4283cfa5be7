import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relthue import BinaryForm, InadmissibleFormError, solve_abs
from relthue.rootbounds import FIRST_BITS, ISOLATION_BITS, RootData, isolate_roots
from util import (
    NEAR_RATIONAL_ROOTS,
    admissible_forms,
    form_from_roots,
    last_window_row,
    profiled_calls,
    rectangle_solutions,
    window_scan,
)

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
    assert {(a, b) for a, b, _ in result.solutions} == expected
    assert {(a, b) for a, b, _ in result.solutions} == rectangle_solutions(F1, 1, 2)


@pytest.mark.parametrize("coeffs", [(-1, -3, 0, 1), (0, -2, -1, 1)])
def test_a_bound_below_one_keeps_only_the_zeros(coeffs):
    # values are integers, so |F| <= 1/2 keeps F = 0 alone; the values +-1 lie between the bound and its ceiling
    form = BinaryForm(coeffs)
    got = solve_abs(form, Fraction(1, 2), 30)
    assert got.solutions == window_scan(form, Fraction(1, 2), 30)
    assert all(value == 0 for *_, value in got.solutions)
    assert any(abs(value) == 1 for *_, value in solve_abs(form, 1, 30).solutions)


def test_zero_bound_gives_zero_set():
    result = solve_abs(F1, 0, 3)
    expected = {(0, 0)}
    for r in (-2, 0, 2):
        for t in range(-3, 4):
            expected.add((r * t, t))
    assert {(a, b) for a, b, _ in result.solutions} == expected
    assert all(v == 0 for _, _, v in result.solutions)


def test_height_zero_monic_axis():
    result = solve_abs(F1, 1, 0)
    assert {(a, b) for a, b, _ in result.solutions} == {(-1, 0), (0, 0), (1, 0)}


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
    result = {(a, b) for a, b, _ in solve_abs(F1, 9, 6).solutions}
    assert result == {(-a, -b) for a, b in result}
    quartic = form_from_roots([-3, -1, 2, 4])
    result = {(a, b) for a, b, _ in solve_abs(quartic, 25, 5).solutions}
    assert result == {(-a, -b) for a, b in result}


def test_rectangle_oracle_equivalence_random_forms():
    rng = random.Random(42)
    for _ in range(8):
        k = rng.choice((3, 4))
        roots = rng.sample(range(-4, 5), k)
        form = form_from_roots(roots)
        bound = Fraction(rng.randint(1, 40))
        ymax = rng.randint(2, 12)
        found = {(a, b) for a, b, _ in solve_abs(form, bound, ymax).solutions}
        assert found == rectangle_solutions(form, bound, ymax)


def test_rectangle_oracle_equivalence_irrational_roots():
    form = BinaryForm((-1, -3, 0, 1))  # irreducible cubic
    for bound, ymax in ((1, 8), (Fraction(19, 2), 6), (50, 5)):
        found = {(a, b) for a, b, _ in solve_abs(form, bound, ymax).solutions}
        assert found == rectangle_solutions(form, bound, ymax)


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


# the four root-free forms of the `sporadic` benchmark workload
SPORADIC_FORMS = (
    (-1, -3, 0, 1),  # x^3 - 3xy^2 - y^3
    (2, 0, -4, 0, 1),  # x^4 - 4x^2y^2 + 2y^4
    (6, 0, -5, 0, 1),  # (x^2 - 2y^2)(x^2 - 3y^2)
    (-1, 3, 3, -4, -1, 1),  # x^5 - x^4y - 4x^3y^2 + 3x^2y^3 + 3xy^4 - y^5
)


@pytest.mark.parametrize("coeffs", SPORADIC_FORMS)
@pytest.mark.parametrize("s", (1, 2))
def test_sporadic_forms_equal_the_window_scan(coeffs, s):
    # K' = s^n K for K in {1, 10, 7/2}, as in the relative problems of the benchmark, at H = 2000; the scan
    # at the largest bound contains every solution at the smaller ones
    form = BinaryForm(coeffs)
    scan = window_scan(form, s**form.degree * 10, 2000)
    for K in (Fraction(1), Fraction(10), Fraction(7, 2)):
        bound = s**form.degree * K
        assert solve_abs(form, bound, 2000).solutions == tuple(row for row in scan if abs(row[2]) <= bound)


@settings(deadline=None, max_examples=40)
@given(
    admissible_forms(),
    st.fractions(min_value=0, max_value=500, max_denominator=3),
    st.integers(0, 400),
    st.sampled_from((ISOLATION_BITS, 16, FIRST_BITS, 3, 1)),
)
@example(BinaryForm((0, -2, -1, 1)), Fraction(500), 60, ISOLATION_BITS)  # split: windows stay wide
@example(BinaryForm((-1, -3, 0, 1)), Fraction(80), 400, ISOLATION_BITS)  # windows below one cell
@example(BinaryForm((1, -7, 0, 1)), Fraction(23), 300, 1)  # windows around coarse intervals
@example(BinaryForm((-1, -3, 0, 1)), Fraction(80), 400, FIRST_BITS)  # refined from level 8 to 400.bit_length() + 4 = 13
def test_equals_the_window_scan(form, bound, height, bits):
    # the roots handed in may be coarse: the windows must then cover each whole interval times b
    got = solve_abs(form, bound, height, roots=isolate_roots(form, bits))
    assert got.solutions == window_scan(form, bound, height)


@pytest.mark.parametrize("coeffs", NEAR_RATIONAL_ROOTS)
def test_roots_near_rationals_equal_the_window_scan(coeffs):
    form = BinaryForm(coeffs)
    for bound in (0, 1, 8, 27, 100):
        for roots in (None, isolate_roots(form, 1)):
            assert solve_abs(form, bound, 60, roots=roots).solutions == window_scan(form, bound, 60)


@settings(deadline=None, max_examples=100)
@given(admissible_forms(), st.fractions(min_value=0, max_value=300, max_denominator=4), st.integers(0, 40))
def test_solutions_come_sorted_by_b_then_a(form, bound, height):
    solutions = solve_abs(form, bound, height).solutions
    assert list(solutions) == sorted(solutions, key=lambda t: (t[1], t[0]))


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.integers(-6, 6), min_size=3, max_size=5, unique=True),
    st.fractions(min_value=0, max_value=300, max_denominator=4),
    st.integers(-5, 40),
)
# x^3 - 4xy^2 at K' = 3: b_w = 1, and the row b = 1 holds (-1, 1) and (1, 1) with F = 3 and -3 off the root lines
@example([-2, 0, 2], Fraction(3), 4)
@example([-2, 0, 2], Fraction(0), 3)  # b_w = 0: every row b > 0 is the root lines alone
@example([0, 1, 3, -4], Fraction(1, 2), 10)
def test_forms_with_only_integer_roots_equal_the_window_scan(roots, bound, offset):
    # past b_w every window is the one cell r*b per root, listed without a scan; heights fall on both sides of it
    form, height = form_from_roots(roots), max(0, last_window_row(roots, bound) + offset)
    assert solve_abs(form, bound, height).solutions == window_scan(form, bound, height)


def test_a_form_with_integer_and_irrational_roots_scans_every_row():
    # (x - y)(x^2 - 2y^2): past its b_w the convergents of sqrt(2) still solve, such as F(7, 5) = -2
    form = BinaryForm((2, -2, -1, 1))
    for bound in (0, 2, 5, 12):
        got = solve_abs(form, bound, 60).solutions
        assert got == window_scan(form, bound, 60)
        assert ((7, 5, -2) in got) == (bound >= 2)


def test_rows_past_the_last_window_make_no_evaluation():
    # relthue abs --coeffs "0 -4 0 1" --kprime 10: b_w = 3, so only the rows b <= 3 evaluate F, whatever the height:
    # 31 cells, and 52 exact polynomial evaluations in all with the root isolation and its check, the README's
    # figures
    assert (last_window_row([-2, 0, 2], 10), last_window_row([-2, 0, 2], 3)) == (3, 1)
    assert solve_abs(F1, 10, 10).solutions == window_scan(F1, 10, 10)
    for height in (10, 10**5):
        result, calls = profiled_calls(solve_abs, F1, 10, height)
        assert (calls["forms", "evaluate"], calls["_poly", "evaluate"]) == (31, 52)
        assert [row for row in result.solutions if row[1] > 3] == [
            (r * b, b, 0) for b in range(4, height + 1) for r in (-2, 0, 2)
        ]


def test_roots_of_another_form_put_no_wrong_value_in_the_listing():
    # the integer roots -1, 0, 1 of x^3 - xy^2 are not all roots of x^3 - 4xy^2: as its isolation they are refused
    # where they are built, and as the isolation of x^3 - xy^2 by solve_abs, so no row is listed unevaluated
    with pytest.raises(ValueError, match="not an integer root"):
        RootData(F1, 0, ((-1, -1), (0, 0), (1, 1)))
    with pytest.raises(ValueError, match="not of"):
        solve_abs(F1, 1, 6, roots=isolate_roots(form_from_roots([-1, 0, 1])))


def test_an_isolation_of_another_form_is_refused():
    # the isolation of x^3 - 7xy^2 + y^3 would scan x^3 - 3xy^2 - y^3 at K' = 10, H = 30 in the wrong windows and
    # list 21 of its 31 rows: solve_abs refuses it by its form, and its ends are no isolation of x^3 - 3xy^2 - y^3,
    # which changes sign across none of them
    form, other = BinaryForm((-1, -3, 0, 1)), isolate_roots(BinaryForm((1, -7, 0, 1)))
    assert len(solve_abs(form, 10, 30).solutions) == 31
    with pytest.raises(ValueError, match="not of"):
        solve_abs(form, 10, 30, roots=other)
    with pytest.raises(ValueError, match="sign change"):
        other._replace(form=form)


def test_isolations_that_are_not_n_sorted_disjoint_intervals_are_refused(monkeypatch):
    # the constructor refuses each, and _replace, _make and unpickling go through it
    roots = isolate_roots(F1)  # the points -2, 0, 2
    for level, ends in (
        (0, ((-2, -2), (0, 0))),  # two intervals for three roots
        (0, ((0, 0), (-2, -2), (2, 2))),  # not sorted
        (1, ((1, 1), (0, 0), (6, 6))),  # not sorted, and 1/2 is no root: built, it had the integer roots (0, 0, 3)
        (1, ((-4, -4), (1, 3), (4, 4))),  # [1/2, 3/2] holds no root
        (1, ((-4, -4), (1, 1), (4, 4))),  # a point at 1/2
        (1, ((-4, -4), (-1, 1), (4, 4))),  # [-1/2, 1/2] changes sign around the root 0, but is no node
        (0, ((-4, -4), (-2, 2), (4, 4))),  # [-2, 2] is no node either, and holds the root 0 inside
    ):
        with monkeypatch.context() as patch:
            patch.setattr(RootData, "__getnewargs__", lambda self: (F1, level, ends))
            forged = pickle.dumps(roots)
        for build in (
            lambda: RootData(F1, level, ends),
            lambda: roots._replace(level=level, ends=ends),
            lambda: RootData._make((F1, level, ends, (), (1, 1, 1, 1))),
            lambda: pickle.loads(forged),
        ):
            with pytest.raises(ValueError, match="roots"):
                build()
    with pytest.raises(InadmissibleFormError, match="monic"):
        roots._replace(form=BinaryForm((0, -4, 0, 2)))
    # an integer root is always a point, as no node at a level >= 0 holds an integer inside; a node coarser than
    # the height needs is an isolation too, and solve_abs refines it; the integer roots are the points
    mixed = BinaryForm((2, -2, -1, 1))  # (x - 1)(x^2 - 2): the points -1.5 < -sqrt(2) < -1.25, 1 and 1.25 < sqrt(2)
    coarse = RootData(mixed, 2, ((-6, -5), (4, 4), (5, 6)))
    assert (coarse.integer_roots, roots.integer_roots) == ((1,), (-2, 0, 2))
    assert solve_abs(mixed, 10, 5, roots=coarse) == solve_abs(mixed, 10, 5)
    with pytest.raises(ValueError, match="roots: an interval that is not a node"):
        RootData(mixed, 2, ((-16, 0), (4, 4), (5, 6)))  # [-4, 0] changes sign, but is a node above level 0
    assert solve_abs(F1, 10, 5, roots=roots) == solve_abs(F1, 10, 5)


def test_the_span_holds_the_root_lines_past_the_last_window():
    # x^3 - 4xy^2 at K' = 10: b_w = 3, so the rows |b| <= 3 are scanned and the rest are the span from b = 4
    result = solve_abs(F1, 10, 100)
    assert (result.span_roots, result.span_start) == ((-2, 0, 2), 4)
    assert max(b for _, b, _ in result.rows) == 3
    assert len(result.solutions) == 2 * len(result.rows) - 1 + 2 * 3 * 97
    # a form with an irrational root, or a height within b_w, leaves no span: the rows and their negations
    within = solve_abs(F1, 10, 3)
    assert len(within.solutions) == 2 * len(within.rows) - 1 and within.span_start == 4
    mixed = solve_abs(BinaryForm((2, -2, -1, 1)), 5, 60)
    assert (mixed.span_roots, mixed.span_start, len(mixed.solutions)) == ((), 61, 2 * len(mixed.rows) - 1)


def test_the_rows_are_one_pair_of_each_negated_pair_from_the_origin():
    # |x^3 - 4xy^2| <= 1 at b_w = 1: the representatives b > 0, or b = 0 <= a, from (0, 0, 0) on, and the span
    result = solve_abs(F1, 1, 2)
    assert result.rows == ((0, 0, 0), (1, 0, 1), (-2, 1, 0), (0, 1, 0), (2, 1, 0))
    assert (result.span_roots, result.span_start, result.degree) == ((-2, 0, 2), 2, 3)
    negated = ((-4, -2, 0), (0, -2, 0), (4, -2, 0), (-2, -1, 0), (0, -1, 0), (2, -1, 0), (-1, 0, -1))
    assert result.solutions == (*negated, *result.rows, (-4, 2, 0), (0, 2, 0), (4, 2, 0))


@settings(deadline=None, max_examples=60)
@given(admissible_forms(), st.fractions(min_value=0, max_value=300, max_denominator=3), st.integers(0, 40))
def test_the_rows_hold_one_pair_of_each_negated_pair_of_the_window_scan(form, bound, height):
    result = solve_abs(form, bound, height)
    rows, pairs = result.rows, [(a, b) for a, b, _ in result.rows]
    assert rows[0] == (0, 0, 0)
    assert not {(-a, -b) for a, b in pairs[1:]} & set(pairs)
    scanned = [row for row in window_scan(form, bound, height) if abs(row[1]) < result.span_start]
    assert sorted(rows + tuple((-a, -b, (-1) ** form.degree * v) for a, b, v in rows[1:])) == sorted(scanned)


def test_a_height_that_is_not_an_integer_is_refused_at_once():
    for height in (10.0, 2.5, Fraction(10)):
        with pytest.raises(TypeError):
            solve_abs(BinaryForm((0, -4, 0, 1)), 10, height)
