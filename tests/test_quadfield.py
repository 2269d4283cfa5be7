import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relthue import BinaryForm, QuadraticField
from util import conj, imag_part_sq, mul, power_table_evaluate, real_part_sq

F1 = BinaryForm((0, -4, 0, 1))

elements = st.tuples(st.integers(-30, 30), st.integers(-30, 30))
fields = st.sampled_from([QuadraticField(m) for m in (1, 2, 3, 5, 6, 7, 11, 163)])


def test_field_validation():
    for m in (4, 8, 9, 12, 18):
        with pytest.raises(ValueError):
            QuadraticField(m)
    with pytest.raises(ValueError):
        QuadraticField(0)
    assert QuadraticField(1).s == 1
    assert QuadraticField(2).s == 1
    assert QuadraticField(3).s == 2
    assert QuadraticField(7).s == 2
    assert QuadraticField(163).s == 2


@pytest.mark.parametrize("m", [7.9, Fraction(15, 2), "7"])
def test_m_that_is_not_an_integer_is_refused_not_truncated(m):
    with pytest.raises(TypeError):
        QuadraticField(m)


def test_basis_relation_is_decided_at_construction():
    # w^2 = t*w - q: w = (1 + i*sqrt(m))/2 for m = 3 (mod 4), w = i*sqrt(m) otherwise
    for m, s, q, t in ((1, 1, 1, 0), (2, 1, 2, 0), (3, 2, 1, 1), (7, 2, 2, 1), (163, 2, 41, 1)):
        field = QuadraticField(m)
        assert (field.s, field.q, field.t) == (s, q, t)
        assert repr(field) == f"QuadraticField(m={m})"  # the derived fields stay out of repr


def test_squarefree_check_is_fast_for_large_m():
    # primes near 10^6: trial division to sqrt(m) would take ~10^6 steps
    p, q = 999983, 1000003
    start = time.perf_counter()
    assert QuadraticField(p * q).m == p * q
    with pytest.raises(ValueError, match=f"not square-free \\(divisible by {p}\\^2\\)"):
        QuadraticField(p * p)
    with pytest.raises(ValueError, match="not square-free"):
        QuadraticField(4 * p * q)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "m,p",
    [
        (3**2 * 7, 3),
        (5**2 * 11, 5),
        (101**2 * 97, 101),  # 101 just above m^(1/3) ~ 99.6: trial division stops below it, the cofactor is 101^2
        (101**2 * 103, 101),  # 101 just below m^(1/3) ~ 101.7: trial division finds it
    ],
)
def test_trial_division_by_two_and_odd_d_finds_odd_squares(m, p):
    with pytest.raises(ValueError, match=rf"not square-free \(divisible by {p}\^2\)"):
        QuadraticField(m)
    assert QuadraticField(m // p).m == m // p


def test_m_is_limited_to_2_pow_63():
    assert QuadraticField(10**18 + 3).m == 10**18 + 3
    with pytest.raises(ValueError, match="not square-free"):
        QuadraticField(2**63)  # at the limit: checked, and divisible by 4
    for m in (2**63 + 1, 10**30):  # rejected before any trial division
        with pytest.raises(ValueError, match=r"exceeds the supported limit 2\^63"):
            QuadraticField(m)


def test_mul_examples():
    k3 = QuadraticField(3)
    w = (0, 1)
    assert mul(k3, w, w) == (-1, 1)  # w^2 = w - 1
    assert mul(k3, (1, 0), (5, -7)) == (5, -7)
    k1 = QuadraticField(1)
    assert mul(k1, (0, 1), (0, 1)) == (-1, 0)  # i*i


def test_norm_examples():
    assert QuadraticField(3).norm(0, 1) == 1
    assert QuadraticField(7).norm(0, 0) == 0
    assert QuadraticField(2).norm(3, 1) == 11


def test_norm_keeps_the_cross_term_when_s_is_2():
    # 1 + w = (3 + i*sqrt(m))/2: |1 + w|^2 = (9 + m)/4 = 1 + 1 + (1+m)/4, the middle 1 being t*u1*u2
    assert QuadraticField(3).norm(1, 1) == 3
    assert QuadraticField(7).norm(1, 1) == 4
    assert QuadraticField(7).norm(2, -1) == 4  # 2 - w = (3 - i*sqrt(7))/2, its conjugate


@given(fields, elements, elements)
def test_norm_multiplicative(field, z, w):
    assert field.norm(*mul(field, z, w)) == field.norm(*z) * field.norm(*w)


@given(fields, elements)
def test_norm_zero_iff_zero(field, z):
    assert (field.norm(*z) == 0) == (z == (0, 0))
    assert field.norm(*z) >= 0


@given(fields, elements)
def test_conjugate_norm_identity(field, z):
    assert mul(field, z, conj(field, z)) == (field.norm(*z), 0)


@given(fields, elements)
def test_part_squares_sum_to_norm(field, z):
    assert real_part_sq(field, z) + imag_part_sq(field, z) == field.norm(*z)


def test_evaluate_form_examples():
    k3 = QuadraticField(3)
    value = k3.evaluate_form(F1, (0, 1, 0, 0))  # F(w, 0)
    assert value == (-1, 0)  # w^3 = -1
    assert k3.norm(*value) == 1
    assert k3.evaluate_form(F1, (1, 0, 0, 0)) == (1, 0)
    assert k3.evaluate_form(F1, (4, 0, 2, 0)) == (0, 0)


@given(fields, st.integers(-8, 8), st.integers(-8, 8))
def test_evaluate_form_embeds_integer_evaluation(field, a, b):
    assert field.evaluate_form(F1, (a, 0, b, 0)) == (F1.evaluate(a, b), 0)


@given(fields, st.lists(st.integers(-5, 5), min_size=1, max_size=6), st.integers(-5, 5).filter(bool), elements, elements)
def test_evaluate_form_equals_the_power_table_sum(field, lower, lead, x, y):
    form = BinaryForm((*lower, lead))  # degree 1-6, zero coefficients included
    assert field.evaluate_form(form, (*x, *y)) == power_table_evaluate(field, form, (*x, *y))


def test_split_coordinates_examples():
    k3 = QuadraticField(3)
    assert k3.split_coordinates((0, 1, 0, 0)) == ((1, 0), (1, 0))
    assert k3.split_coordinates((4, 0, 2, 0)) == ((8, 4), (0, 0))
    k1 = QuadraticField(1)
    assert k1.split_coordinates((3, 2, 1, 5)) == ((3, 1), (2, 5))
