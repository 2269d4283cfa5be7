import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relthue import BinaryForm, QuadraticField, RingElement
from util import conj, imag_part_sq, mul, power_table_evaluate, real_part_sq

F1 = BinaryForm((0, -4, 0, 1))

elements = st.builds(RingElement, st.integers(-30, 30), st.integers(-30, 30))
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


def test_m_is_limited_to_2_pow_63():
    assert QuadraticField(10**18 + 3).m == 10**18 + 3
    with pytest.raises(ValueError, match="not square-free"):
        QuadraticField(2**63)  # at the limit: checked, and divisible by 4
    for m in (2**63 + 1, 10**30):  # rejected before any trial division
        with pytest.raises(ValueError, match=r"exceeds the supported limit 2\^63"):
            QuadraticField(m)


def test_mul_examples():
    k3 = QuadraticField(3)
    w = RingElement(0, 1)
    assert mul(k3, w, w) == RingElement(-1, 1)  # w^2 = w - 1
    assert mul(k3, RingElement(1, 0), RingElement(5, -7)) == RingElement(5, -7)
    k1 = QuadraticField(1)
    assert mul(k1, RingElement(0, 1), RingElement(0, 1)) == RingElement(-1, 0)  # i*i


def test_norm_examples():
    assert QuadraticField(3).norm(RingElement(0, 1)) == 1
    assert QuadraticField(7).norm(RingElement(0, 0)) == 0
    assert QuadraticField(2).norm(RingElement(3, 1)) == 11


@given(fields, elements, elements)
def test_norm_multiplicative(field, z, w):
    assert field.norm(mul(field, z, w)) == field.norm(z) * field.norm(w)


@given(fields, elements)
def test_norm_zero_iff_zero(field, z):
    assert (field.norm(z) == 0) == z.is_zero
    assert field.norm(z) >= 0


@given(fields, elements)
def test_conjugate_norm_identity(field, z):
    assert mul(field, z, conj(field, z)) == RingElement(field.norm(z), 0)


@given(fields, elements)
def test_part_squares_sum_to_norm(field, z):
    assert real_part_sq(field, z) + imag_part_sq(field, z) == field.norm(z)


def test_evaluate_form_examples():
    k3 = QuadraticField(3)
    w = RingElement(0, 1)
    zero = RingElement(0, 0)
    value = k3.evaluate_form(F1, w, zero)
    assert value == RingElement(-1, 0)  # w^3 = -1
    assert k3.norm(value) == 1
    assert k3.evaluate_form(F1, RingElement(1, 0), zero) == RingElement(1, 0)
    assert k3.evaluate_form(F1, RingElement(4, 0), RingElement(2, 0)) == RingElement(0, 0)


@given(fields, st.integers(-8, 8), st.integers(-8, 8))
def test_evaluate_form_embeds_integer_evaluation(field, a, b):
    value = field.evaluate_form(F1, RingElement(a, 0), RingElement(b, 0))
    assert value == RingElement(F1.evaluate(a, b), 0)


@given(fields, st.lists(st.integers(-5, 5), min_size=1, max_size=6), st.integers(-5, 5).filter(bool), elements, elements)
def test_evaluate_form_equals_the_power_table_sum(field, lower, lead, x, y):
    form = BinaryForm((*lower, lead))  # degree 1-6, zero coefficients included
    assert field.evaluate_form(form, x, y) == power_table_evaluate(field, form, x, y)


def test_split_coordinates_examples():
    k3 = QuadraticField(3)
    assert k3.split_coordinates(RingElement(0, 1), RingElement(0, 0)) == ((1, 0), (1, 0))
    assert k3.split_coordinates(RingElement(4, 0), RingElement(2, 0)) == ((8, 4), (0, 0))
    k1 = QuadraticField(1)
    assert k1.split_coordinates(RingElement(3, 2), RingElement(1, 5)) == ((3, 1), (2, 5))
