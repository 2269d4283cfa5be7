import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relthue import BinaryForm, _poly, check_admissible, integer_roots
from util import count_roots, form_from_roots, root_free_forms

F1 = BinaryForm((0, -4, 0, 1))  # x^3 - 4 x y^2


def test_evaluate_examples():
    assert F1.evaluate(1, 0) == 1
    assert F1.evaluate(0, 0) == 0
    assert F1.evaluate(3, 1) == 15  # 27 - 12


def test_evaluate_matches_direct_sum():
    rng = random.Random(7)
    form = BinaryForm((5, -2, 0, 3, 1))
    n = form.degree
    for _ in range(200):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        expected = sum(c * a**k * b ** (n - k) for k, c in enumerate(form.coeffs))
        assert form.evaluate(a, b) == expected


def test_admissible_pass():
    assert check_admissible(BinaryForm((-1, -3, 0, 1))).ok  # x^3 - 3x - 1
    assert check_admissible(F1).ok


def test_admissible_complex_roots():
    report = check_admissible(BinaryForm((0, 1, 0, 1)))  # x^3 + x
    assert not report.ok
    assert "complex" in report.reason
    f = (0, 1, 0, 1)
    radius = _poly.root_radius(f)
    assert count_roots(_poly.sturm_chain(f), -radius, radius) == 1


def test_admissible_degree_too_small():
    report = check_admissible(BinaryForm((0, 0, 1)))  # x^2
    assert not report.ok
    assert "degree" in report.reason


def test_admissible_non_monic():
    report = check_admissible(BinaryForm((0, 0, 0, 2)))
    assert not report.ok
    assert "monic" in report.reason


def test_admissible_repeated_root():
    # (x^2 - 1)^2 = x^4 - 2 x^2 + 1
    report = check_admissible(BinaryForm((1, 0, -2, 0, 1)))
    assert not report.ok
    assert "repeated" in report.reason


def test_integer_roots_examples():
    assert integer_roots(F1) == (-2, 0, 2)
    assert integer_roots(BinaryForm((-1, -3, 0, 1))) == ()
    assert integer_roots(BinaryForm((0, -2, -1, 1))) == (-1, 0, 2)  # x(x+1)(x-2)


def test_integer_roots_divide_constant_term():
    rng = random.Random(21)
    for _ in range(30):
        roots = rng.sample(range(-6, 7), 3)
        form = form_from_roots(roots)
        found = integer_roots(form)
        assert found == tuple(sorted(roots))
        if form.coeffs[0] != 0:
            assert all(form.coeffs[0] % r == 0 for r in found if r != 0)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        BinaryForm((1,))
    with pytest.raises(ValueError):
        BinaryForm((1, 2, 0))


@pytest.mark.parametrize("coeffs", [(0.5, -4.7, 0, 1), (0, Fraction(-9, 2), 0, 1), ("0", "-4", "0", "1")])
def test_coefficients_that_are_not_integers_are_refused_not_truncated(coeffs):
    with pytest.raises(TypeError):
        BinaryForm(coeffs)


@given(
    st.integers(-15, 15),
    st.integers(-15, 15),
    st.integers(-6, 6),
    st.lists(st.integers(-5, 5), min_size=4, max_size=5).filter(lambda c: c[-1] != 0),
)
def test_homogeneity(a, b, t, coeffs):
    form = BinaryForm(tuple(coeffs))
    assert form.evaluate(t * a, t * b) == t**form.degree * form.evaluate(a, b)


@given(st.integers(-20, 20))
def test_monic_forms_on_axis(a):
    for form in (F1, BinaryForm((-1, -3, 0, 1)), form_from_roots([-3, 1, 2, 4])):
        assert form.evaluate(a, 0) == a**form.degree


def test_products_of_distinct_factors_admissible():
    rng = random.Random(99)
    for _ in range(25):
        k = rng.choice((3, 4))
        roots = rng.sample(range(-8, 9), k)
        assert check_admissible(form_from_roots(roots)).ok
    # squared factor must fail
    assert not check_admissible(form_from_roots([1, 1, -2])).ok


@given(st.integers(3, 7).flatmap(root_free_forms))
def test_root_free_forms_are_admissible_without_an_integer_root(form):
    assert check_admissible(form).ok
    assert integer_roots(form) == ()


@given(st.lists(st.integers(-60, 60), min_size=3, max_size=7))
def test_end_variations_are_those_at_the_root_radius(lower):
    # every root of monic f lies in (-R, R), so the chain's sign changes at -R and R are those at -inf and +inf
    f = (*lower, 1)
    chain = _poly.sturm_chain(f)
    radius = _poly.root_radius(f)
    at_radius = (_poly.variations(chain, -radius), _poly.variations(chain, radius))
    report = check_admissible(BinaryForm(f))
    assert report.ok == (len(chain[-1]) == 1 and at_radius[0] - at_radius[1] == len(lower))
    if report.ok:
        assert (report.radius, report.end_variations) == (radius, at_radius)
    # sign changes counted in one pass over integers, zeros dropped, as over the list of the nonzero ones
    kept = [v for v in lower if v]
    assert _poly.sign_changes(iter(lower)) == sum((u < 0) != (v < 0) for u, v in zip(kept, kept[1:]))
    assert _poly.sign_changes([0, 0, 3, -2, 0, -5, 7, 0]) == 2 and _poly.sign_changes([0, -4, 0]) == 0
