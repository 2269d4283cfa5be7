import logging
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relthue import BinaryForm, InadmissibleFormError, Problem, QuadraticField, rootbounds
from relthue.rootbounds import constants, isolate_roots, nth_root_lower, nth_root_upper, refine, thresholds

F1 = BinaryForm((0, -4, 0, 1))  # roots -2, 0, 2
F3 = BinaryForm((-1, -3, 0, 1))  # x^3 - 3x - 1, irreducible


def test_isolate_exact_integer_roots():
    data = isolate_roots(F1, Fraction(1, 1024))
    assert len(data.intervals) == 3
    for (lo, hi), root in zip(data.intervals, (-2, 0, 2)):
        assert lo <= root <= hi
        assert hi - lo <= Fraction(1, 1024)
    # exact roots collapse to points
    assert all(lo == hi for lo, hi in data.intervals)


def test_isolate_irrational_roots():
    data = isolate_roots(F3, Fraction(1, 1024))
    assert len(data.intervals) == 3
    lo, hi = data.intervals[1]
    assert Fraction(-35, 100) < lo <= hi < Fraction(-34, 100)  # middle root ~ -0.3472963
    assert all(hi - lo <= Fraction(1, 1024) for lo, hi in data.intervals)
    # intervals strictly separated and sorted
    for left, right in zip(data.intervals, data.intervals[1:]):
        assert left[1] < right[0]


def test_intervals_certified_by_sign_change_or_exact_root():
    quartic = BinaryForm((6, 0, -5, 0, 1))  # (x^2-2)(x^2-3): four close irrational roots
    for form in (F1, F3, quartic):
        data = isolate_roots(form, Fraction(1, 2**20))
        f = form.dehomogenized()

        def at(x):
            return sum(c * x**k for k, c in enumerate(f))

        assert len(data.intervals) == form.degree
        for lo, hi in data.intervals:
            if lo == hi:
                assert at(lo) == 0  # exact rational root, pinned
            else:
                assert at(lo) * at(hi) < 0  # sign change brackets the root


def test_isolate_rejects_inadmissible():
    with pytest.raises(InadmissibleFormError):
        isolate_roots(BinaryForm((0, 0, 1)))  # x^2: degree and repeated root
    with pytest.raises(ValueError):
        isolate_roots(F1, Fraction(0))


def test_constants_exact_root_example():
    data = isolate_roots(F1)
    consts = constants(data, 1, Fraction(1, 2))
    assert data.min_gap_lower <= 2 <= data.min_gap_upper
    assert data.gap_product_lower <= 4 <= data.gap_product_upper
    assert 1 <= consts.approx_coeff_upper <= 1 + Fraction(1, 2**30)
    assert 1 <= consts.gate_upper <= 1 + Fraction(1, 2**30)


def test_constants_irrational_gap():
    data = isolate_roots(F3)
    # min gap ~ 1.1847925 between the two smaller roots
    assert data.min_gap_lower <= Fraction(1184793, 1000000)
    assert data.min_gap_upper >= Fraction(1184792, 1000000)
    assert data.min_gap_upper - data.min_gap_lower < Fraction(1, 2**50)


def test_constants_validation():
    data = isolate_roots(F1)
    with pytest.raises(ValueError):
        constants(data, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        constants(data, 1, Fraction(0))
    with pytest.raises(ValueError):
        constants(data, 1, Fraction(1))


def test_refinement_monotone():
    width = Fraction(1, 2**8)
    data = isolate_roots(F3, width)
    consts = constants(data, 10, Fraction(1, 3))
    for _ in range(8):
        width /= 2
        finer = refine(data, width)
        finer_consts = constants(finer, 10, Fraction(1, 3))
        assert finer.min_gap_lower >= data.min_gap_lower
        assert finer.gap_product_lower >= data.gap_product_lower
        assert finer_consts.approx_coeff_upper <= consts.approx_coeff_upper
        assert finer_consts.gate_upper <= consts.gate_upper
        # refined intervals nest inside the coarser ones
        for (lo, hi), (flo, fhi) in zip(data.intervals, finer.intervals):
            assert lo <= flo <= fhi <= hi
        data, consts = finer, finer_consts


def test_thresholds_exact_values():
    field = QuadraticField(3)
    consts = constants(isolate_roots(F1), 1, Fraction(1, 2))
    gates = thresholds(consts, 3, field)
    # s*C = 2, so squared gates are 4/3, 2 and ub(2/sqrt(3)) respectively
    assert gates.proportionality_sq == Fraction(4, 3)
    assert gates.real_vanish_sq == 2
    assert gates.imag_vanish_sq**2 >= Fraction(4, 3)  # tight upper bound of 2/sqrt(3)
    assert (gates.imag_vanish_sq - Fraction(1, 2**40)) ** 2 < Fraction(4, 3)
    lin = gates.display()
    assert lin[0] ** 2 >= Fraction(4, 3)
    assert lin[1] ** 2 >= 2


def test_stable_constants_runs():
    field = QuadraticField(7)
    problem = Problem(field, F3, Fraction(3, 2))
    assert problem.K == Fraction(3, 2)
    assert problem.gates == thresholds(problem.consts, 3, field)
    assert problem.gates.proportionality_sq > 0
    assert problem.roots.width <= Fraction(1, 2**64)
    assert problem.gates_stable


def test_unstable_gates_are_flagged_and_logged(monkeypatch, caplog):
    monkeypatch.setattr(rootbounds, "MAX_HALVINGS", 0)
    with caplog.at_level(logging.WARNING, logger="relthue.rootbounds"):
        problem = Problem(QuadraticField(7), F3, Fraction(3, 2))
    assert not problem.gates_stable
    assert "did not stabilize" in caplog.text


def test_problem_validates_once_at_construction():
    with pytest.raises(InadmissibleFormError):
        Problem(QuadraticField(3), BinaryForm((0, 1, 0, 1)), 1)  # x^3 + x: complex roots
    with pytest.raises(ValueError, match="K must be >= 1"):
        Problem(QuadraticField(3), F1, Fraction(1, 2))
    with pytest.raises(ValueError, match="epsilon"):
        Problem(QuadraticField(3), F1, 1, Fraction(1))
    assert Problem(QuadraticField(3), F1, 1).integer_roots == (-2, 0, 2)


@given(
    st.fractions(min_value=0, max_value=1000),
    st.integers(1, 5),
)
def test_nth_root_bounds_bracket(x, r):
    lo = nth_root_lower(x, r, 32)
    hi = nth_root_upper(x, r, 32)
    assert lo**r <= x <= hi**r
    assert hi - lo <= Fraction(2, 2**32)


def test_nth_root_exact_powers():
    assert nth_root_upper(Fraction(1), 3) == 1
    assert nth_root_lower(Fraction(1), 3) == 1
    assert nth_root_upper(Fraction(8), 3) == 2
    assert nth_root_lower(Fraction(27), 3) == 3
    assert nth_root_upper(Fraction(5, 3), 1) == Fraction(5, 3)
