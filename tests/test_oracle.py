from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relthue import BinaryForm, QuadraticField, brute_force
from relthue.oracle import _lane_width, _tableaux
from util import cell_scan, list_sweep_peak, profiled_calls

F1 = BinaryForm((0, -4, 0, 1))
# (x - 9967)(x + 10009)(x - 10037) + 5: no integer root, |f(0)| about 1.0e12
CUBIC_NEAR_10_12 = (1001288139016, -100181257, -9995, 1)


def test_height_zero():
    result = brute_force(QuadraticField(3), F1, 1, 0)
    assert result.quadruples() == {(0, 0, 0, 0)}
    assert result.solutions[0][1] == 0


def test_known_members_height_one():
    result = brute_force(QuadraticField(3), F1, 1, 1)
    quads = result.quadruples()
    assert {(1, 0, 0, 0), (0, 1, 0, 0), (-1, 0, 0, 0)} <= quads
    # everything in the box satisfies the inequality exactly
    field = QuadraticField(3)
    for quad, norm_value in result.solutions:
        assert field.norm(*field.evaluate_form(F1, quad)) == norm_value <= 1


def test_sorted_deterministic():
    field = QuadraticField(7)
    first = brute_force(field, F1, 1, 2)
    second = brute_force(field, F1, 1, 2)
    assert first == second
    order = [(field.norm(q[2], q[3]), q[2], q[3], q[0], q[1]) for q, _ in first.solutions]
    assert order == sorted(order)


def test_rejects_negative_height():
    with pytest.raises(ValueError):
        brute_force(QuadraticField(3), F1, 1, -1)


def test_rejects_negative_K():
    # |F| <= -1 has no solution, while K^2 = 1 would keep the units
    for K in (-1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="K must be nonnegative"):
            brute_force(QuadraticField(3), F1, K, 1)
    result = brute_force(QuadraticField(3), F1, 0, 1)
    assert result.solutions and all(norm_value == 0 for _, norm_value in result.solutions)


@st.composite
def integer_forms(draw):
    """Forms of degree 3-5 with small integer coefficients: the oracle needs no admissibility."""
    n = draw(st.integers(3, 5))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return BinaryForm((*coeffs, draw(st.sampled_from((-2, -1, 1, 2)))))


@settings(deadline=None)
@given(
    integer_forms(),
    st.sampled_from([QuadraticField(m) for m in (1, 2, 3, 5, 7, 11, 15, 19)]),  # s = 1 and s = 2
    st.builds(Fraction, st.integers(0, 24), st.integers(1, 3)),  # K^2 an integer or not, e.g. 7/2
    st.integers(0, 4),  # where 2H+1 < n+1 the seeds reach outside the box
)
def test_equals_the_cell_scan(form, field, K, height):
    assert brute_force(field, form, K, height) == cell_scan(field, form, K, height)


# K = 1/2: the units x = +-1, y = 0 have norm 1 = ceil(K^2), which a bound of ceil(K^2) would keep
@pytest.mark.parametrize("m,K", [(1, Fraction(1, 2)), (3, Fraction(7, 2)), (7, 10)])
def test_equals_the_cell_scan_on_workload_forms(m, K):
    field = QuadraticField(m)
    for coeffs in ((0, -4, 0, 1), (-1, -3, 0, 1), (6, 0, -5, 0, 1)):
        form = BinaryForm(coeffs)
        assert brute_force(field, form, K, 3) == cell_scan(field, form, K, 3)


def test_evaluates_the_form_only_at_the_seeds():
    form = BinaryForm((-1, 3, 3, -4, -1, 1))
    for height in (7, 3):
        _, calls = profiled_calls(brute_force, QuadraticField(7), form, 10, height)
        # C(n+4, 4) seeds once per box, whatever its size, in place of one evaluation per cell
        assert calls["quadfield", "evaluate_form"] == comb(form.degree + 4, 4) == 126


# large m: a nonzero imaginary coordinate brings a factor of about sqrt(m), so kept norms reach 10^19 in a small box
@pytest.mark.parametrize("m", [999_999_937, 2**31 - 1])  # s = 1 and s = 2, both prime
@pytest.mark.parametrize("height", [0, 1, 2])
def test_equals_the_cell_scan_at_large_m(m, height):
    field = QuadraticField(m)
    kept_imaginary = False
    for coeffs in ((0, -4, 0, 1), (-1, -3, 0, 1), (6, 0, -5, 0, 1)):
        form = BinaryForm(coeffs)
        for K in (1, 10**6, Fraction(7 * 10**12, 2)):
            result = brute_force(field, form, K, height)
            assert result == cell_scan(field, form, K, height)
            kept_imaginary |= any(x2 or y2 for (_, x2, _, y2), _ in result.solutions)
    assert kept_imaginary == (height > 0)


# the box of `relthue check`: lanes of 15^2 cells, with entries far beyond 64 bits
@pytest.mark.parametrize(
    "coeffs,m,K",
    [((-1, 3, 3, -4, -1, 1), 2**31 - 1, 10**22), (CUBIC_NEAR_10_12, 7, 10**13)],
)
def test_equals_the_cell_scan_at_the_check_box(coeffs, m, K):
    field, form = QuadraticField(m), BinaryForm(coeffs)
    result = brute_force(field, form, K, 7)
    assert result == cell_scan(field, form, K, 7)
    assert any(x2 or y2 for (_, x2, _, y2), _ in result.solutions)
    assert len(result.solutions) < 15**4


def test_cells_on_the_filter_ends_are_kept():
    # m = 3 (s = 2), K = 3: bound = s^2 * K^2 = 36, so the filter admits |v| <= 6 and |u2| <= isqrt(36 // 3) = 3
    result = brute_force(QuadraticField(3), BinaryForm((-1, -3, 0, 1)), 3, 2)
    norms = dict(result.solutions)
    assert norms[2, 0, -1, 0] == 9  # F = 3: v = 6, u2 = 0, v^2 = bound
    assert norms[1, 0, -1, 1] == 9  # F = 3w: v = 3, u2 = 3, v^2 + m*u2^2 = bound


@pytest.mark.parametrize("height", [0, 1, 3])
def test_lanes_hold_every_entry_of_the_list_sweep(height):
    # at height 0 the bound is the largest entry itself, so a lane one bit narrower would not hold it
    for m, coeffs in ((7, (-1, 3, 3, -4, -1, 1)), (2**31 - 1, (0, -4, 0, 1)), (5, CUBIC_NEAR_10_12)):
        field, form = QuadraticField(m), BinaryForm(coeffs)
        width = _lane_width(_tableaux(field, form, height), form.degree, 2 * height + 1)
        assert list_sweep_peak(field, form, height) < 2 ** (width - 2)
