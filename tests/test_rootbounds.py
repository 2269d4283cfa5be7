import logging
from fractions import Fraction
from math import floor
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relthue import (
    BinaryForm,
    InadmissibleFormError,
    Problem,
    QuadraticField,
    _poly,
    check_admissible,
    integer_roots,
    rootbounds,
)
from relthue.abssolver import solve_abs
from relthue.rootbounds import constants, isolate_roots, nth_root_lower, nth_root_upper, refine, thresholds
from util import (
    bisection_isolation,
    count_roots,
    form_from_roots,
    fraction_sturm_chain,
    nested_gap_enclosures,
    profiled_calls,
)

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
        f = form.coeffs

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
        finer = refine(F3, data, width)
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
    assert max(hi - lo for lo, hi in problem.roots.intervals) <= Fraction(1, 2**64)
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
    # tight: one dyadic step past either bound crosses x
    step = Fraction(1, 2**32)
    assert (lo + step) ** r > x
    assert r == 1 or x == 0 or (hi - step) ** r < x


@given(st.integers(0, 2**600), st.integers(1, 7), st.integers(0, 2**85), st.integers(-1, 1))
def test_iroot_is_the_floor_of_the_real_root(k, r, base, step):
    # besides a k drawn at random, an exact r-th power and its neighbours, where an off-by-one shows
    for value in (k, max(0, base**r + step)):
        root = _poly.iroot(value, r)
        assert root**r <= value < (root + 1) ** r


def test_nth_root_exact_powers():
    assert nth_root_upper(Fraction(1), 3) == 1
    assert nth_root_lower(Fraction(1), 3) == 1
    assert nth_root_upper(Fraction(8), 3) == 2
    assert nth_root_lower(Fraction(27), 3) == 3
    assert nth_root_upper(Fraction(5, 3), 1) == Fraction(5, 3)


@st.composite
def polynomials(draw):
    """Degree 1-7, monic or not; half of them times (a x + b)^2, so with a repeated factor."""
    poly = [*draw(st.lists(st.integers(-9, 9), min_size=1, max_size=5)), draw(st.sampled_from((1, -1, 2, -3, 6)))]
    if draw(st.booleans()):
        b, a = draw(st.integers(-5, 5)), draw(st.integers(1, 3))
        for _ in range(2):
            poly = [b * c + a * prev for c, prev in zip([*poly, 0], [0, *poly])]
    return poly


@given(polynomials())
def test_integer_sturm_chain_equals_the_rational_one(poly):
    assert _poly.sturm_chain(poly) == fraction_sturm_chain(poly)


@given(
    st.integers(0, 6),
    st.lists(st.tuples(st.one_of(st.just(0), st.integers(1, 40)), st.integers(1, 40)), min_size=2, max_size=6),
    st.integers(-100, 100),
)
def test_gap_enclosures_equal_the_nested_loop(k, shape, start):
    # sorted, disjoint dyadic intervals: (width, gap to the next) in units of 2^-k; width 0 is a point
    intervals, lo = [], Fraction(start, 2**k)
    for width, gap in shape:
        intervals.append((lo, lo + Fraction(width, 2**k)))
        lo = intervals[-1][1] + Fraction(gap, 2**k)
    assert rootbounds._gap_enclosures(intervals) == nested_gap_enclosures(intervals)


def test_separate_bisects_neighbours_until_strictly_apart():
    # (x^2 - 2)(x^2 - 3): sqrt 2 in [1, 3/2] and sqrt 3 in [3/2, 2] touch, and still do after one halving each
    items = [[Fraction(3, 2), Fraction(2)], [Fraction(1), Fraction(3, 2)]]
    rootbounds._separate((6, 0, -5, 0, 1), items)
    assert items == [[Fraction(11, 8), Fraction(3, 2)], [Fraction(13, 8), Fraction(7, 4)]]


# Floors of the three squared gates and gates_stable, recorded before the
# isolation started from a power-of-two interval; norms are integers, so the
# floors fix every predicate decision even though the enclosures moved.
GATE_FLOORS = [
    ((-1, -3, 0, 1), 7, 10, (131, 30, 13)),  # x^3 - 3xy^2 - y^3
    ((-1, -3, 0, 1), 2, Fraction(7, 2), (14, 6, 6)),
    ((-1, -3, 0, 1), 1, 50, (5747, 75, 75)),
    ((6, 0, -5, 0, 1), 7, 10, (125, 125, 125)),  # (x^2 - 2y^2)(x^2 - 3y^2)
    ((6, 0, -5, 0, 1), 3, 1, (39, 39, 39)),
    ((-1, 3, 3, -4, -1, 1), 7, 10, (27, 27, 27)),  # x^5 - x^4y - 4x^3y^2 + 3x^2y^3 + 3xy^4 - y^5
    ((-1, 3, 3, -4, -1, 1), 2, Fraction(7, 2), (17, 17, 17)),
]


@pytest.mark.parametrize("coeffs,m,K,floors", GATE_FLOORS)
def test_gate_floors_of_irrational_root_forms(coeffs, m, K, floors):
    problem = Problem(QuadraticField(m), BinaryForm(coeffs), K)
    gates = problem.gates
    assert (floor(gates.proportionality_sq), floor(gates.real_vanish_sq), floor(gates.imag_vanish_sq)) == floors
    assert problem.gates_stable
    assert problem.integer_roots == ()


@given(st.lists(st.integers(-(10**12), 10**12), min_size=3, max_size=5, unique=True))
def test_integer_roots_of_split_forms(roots):
    assert integer_roots(form_from_roots(roots)) == tuple(sorted(roots))


def test_integer_roots_cost_is_logarithmic_in_the_coefficients():
    split = form_from_roots([10**10 + 7, -(10**10) + 3, 10**10 - 11])  # |f(0)| ~ 10^30
    root_free = BinaryForm((split.coeffs[0] + 1, *split.coeffs[1:]))
    for form, expected in ((split, (-(10**10) + 3, 10**10 - 11, 10**10 + 7)), (root_free, ())):
        found, calls = profiled_calls(integer_roots, form)
        assert found == expected
        n, f = form.degree, form.coeffs
        # the Fujiwara exponent, written out: a Cauchy radius 2^bitlen(1 + max|c_k|) is ~2^100 here
        e = max(-(-abs(f[k]).bit_length() // (n - k)) for k in range(n))
        # one chain evaluation per bisection node; the isolation reuses the admissibility check's two at -R and R
        assert calls["_poly", "variations"] <= n * (e + 2)
        assert calls["_poly", "sturm_chain"] == 1


def test_root_radius_is_fujiwaras_power_of_two():
    f = (16270, -889, -21, 1)  # e = max(ceil(14/3), ceil(10/2), ceil(5/1)) = 5, largest root ~ 32.999 > 2^5
    assert _poly.root_radius(f) == 64
    assert check_admissible(BinaryForm(f)).ok
    assert isolate_roots(BinaryForm(f), Fraction(1, 2**10)).intervals[-1][0] > 32
    assert _poly.root_radius((0, 4, -5, 1)) == 8  # x(x - 1)(x - 4): Cauchy's 2^bitlen(6) is below Fujiwara's 16


@given(st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=7), st.integers(0, 40))
def test_root_radius_bounds_every_root_and_never_exceeds_cauchys(low, scale):
    f = (*(c << scale for c in low), 1)
    radius = _poly.root_radius(f)
    assert radius & (radius - 1) == 0
    assert radius <= 1 << (1 + max(abs(c) for c in f[:-1])).bit_length()
    chain = _poly.sturm_chain(f)
    assume(len(chain[-1]) == 1)  # squarefree, so the chain counts the distinct roots in (lo, hi]
    far = 1 << (2 + max(abs(c) for c in f[:-1])).bit_length()
    assert _poly.sign_at(f, radius) != 0
    assert count_roots(chain, -radius, radius) == count_roots(chain, -far, far)


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return tuple(out)


@st.composite
def isolation_forms(draw):
    """Admissible forms of degree 3-7 whose roots sit where a jump or its certificate could go wrong.

    Either prod(x - r_i) + delta with small delta, whose roots lie next to integers (dyadic points) and, for
    a repeated r_i, are close pairs sharing a unit interval; or (x - t)((x - t)^2 + a(x - t) - 1) times
    distinct linear factors, where the integer root t is the left end of the unit interval of the
    irrational root near t + 1/a.
    """
    n = draw(st.integers(3, 7))
    if draw(st.booleans()):
        coeffs = list(form_from_roots(draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))).coeffs)
        coeffs[0] += draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    else:
        t, a = draw(st.integers(-20, 20)), draw(st.integers(-300, 300))
        coeffs = _times((-t, 1), (t * t - a * t - 1, a - 2 * t, 1))
        for r in draw(st.lists(st.integers(-40, 40), min_size=n - 3, max_size=n - 3, unique=True)):
            coeffs = _times(coeffs, (-r, 1))
    form = BinaryForm(tuple(coeffs))
    assume(check_admissible(form).ok)
    return form


@settings(deadline=None, max_examples=60)
@given(isolation_forms())
def test_isolation_and_problem_facts_equal_the_bisection_reference(form):
    for width in (Fraction(1, 2), Fraction(1, 2**10), Fraction(1, 2**64)):
        data, reference = isolate_roots(form, width), bisection_isolation(form, width)
        assert data == reference
        assert refine(form, data, width / 2) == bisection_isolation(form, width / 2, reference)
    field = QuadraticField(7)
    problem = Problem(field, form, 10)
    with (
        mock.patch.object(rootbounds, "isolate_roots", bisection_isolation),
        mock.patch.object(rootbounds, "refine", lambda form, data, width: bisection_isolation(form, width, data)),
    ):
        assert problem == Problem(field, form, 10)


def test_newton_node_refuses_a_jump_to_the_integer_root_at_lo():
    # roots 0, 1/5, 21/20, 11/10, 6/5: clustered as no monic integer form's roots can be, so Newton from 1/2
    # overshoots past 0, is stopped just inside the bracket and converges to the root at lo, not to 1/5
    f = (0, 1386, -10665, 22025, -17750, 5000)  # x(5x - 1)(20x - 21)(10x - 11)(5x - 6)
    k = rootbounds._newton_node(f, 0, 1 << 64, 64, _poly.sign(_poly.evaluate(f, 1)))
    assert k is None or Fraction(k, 1 << 64) < Fraction(1, 5) < Fraction(k + 1, 1 << 64)


def test_solve_abs_evaluation_count():
    # x^3 - 3xy^2 - y^3 at K' = 80, H = 2000, the README's example: isolation, windows and candidates
    result, calls = profiled_calls(solve_abs, BinaryForm((-1, -3, 0, 1)), 80, 2000)
    assert len(result.pairs()) == 157
    assert calls["_poly", "evaluate"] == 304


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=7),
    st.integers(-(10**6), 10**6),
    st.integers(1, 10**6),
)
def test_evaluate_is_the_homogenized_value(coeffs, p, q):
    d = len(coeffs) - 1
    x = Fraction(p, q)
    value = _poly.evaluate(coeffs, p, q)
    assert type(value) is int
    assert value == q**d * sum(c * x**k for k, c in enumerate(coeffs))
    assert _poly.evaluate(coeffs, p) == sum(c * p**k for k, c in enumerate(coeffs))


@pytest.mark.parametrize(
    "coeffs",
    [
        (-1, 3, 3, -4, -1, 1),  # x^5 - x^4 - 4x^3 + 3x^2 + 3x - 1, no rational root
        (6, 0, -5, 0, 1),  # (x^2 - 2)(x^2 - 3)
        (0, 3, -3, -1, 1),  # x(x - 1)(x^2 - 3)
    ],
)
def test_polynomials_are_evaluated_at_integers_only(monkeypatch, coeffs):
    calls = []
    evaluate = _poly.evaluate

    def spy(c, a, b=1):
        calls.append((c, a, b))
        return evaluate(c, a, b)

    monkeypatch.setattr(_poly, "evaluate", spy)
    Problem(QuadraticField(7), BinaryForm(coeffs), 10)
    assert calls
    for c, a, b in calls:
        assert all(type(v) is int for v in (*c, a, b)), (c, a, b)
