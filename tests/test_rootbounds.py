import logging
import pickle
import re
from fractions import Fraction
from math import floor
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
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
    solve_relative,
)
from relthue import abssolver
from relthue.abssolver import solve_abs
from relthue.rootbounds import (
    ISOLATION_BITS,
    ROOT_PREC_BITS,
    RootData,
    _dyadic_root,
    enclosures,
    isolate_roots,
    refine,
)
from util import (
    NEAR_RATIONAL_ROOTS,
    admissible_forms,
    bisection_isolation,
    constants,
    count_roots,
    form_from_roots,
    fraction_constants,
    fraction_nth_root_lower,
    fraction_nth_root_upper,
    fraction_sturm_chain,
    fraction_thresholds,
    gaps,
    intervals,
    level64_stable_constants,
    nested_gap_enclosures,
    profiled_calls,
    root_free_forms,
    sign_at,
)

F1 = BinaryForm((0, -4, 0, 1))  # roots -2, 0, 2
F3 = BinaryForm((-1, -3, 0, 1))  # x^3 - 3x - 1, irreducible


def test_isolate_exact_integer_roots():
    data = isolate_roots(F1, 10)
    assert len(data.ends) == 3
    for (lo, hi), root in zip(intervals(data), (-2, 0, 2)):
        assert lo <= root <= hi
        assert hi - lo <= Fraction(1, 1024)
    # exact roots collapse to points, and with no irrational root the common level is 0
    assert all(lo == hi for lo, hi in intervals(data))
    assert (data.level, data.ends) == (0, ((-2, -2), (0, 0), (2, 2)))


def test_isolate_irrational_roots():
    data = isolate_roots(F3, 10)
    assert len(data.ends) == 3
    lo, hi = intervals(data)[1]
    assert Fraction(-35, 100) < lo <= hi < Fraction(-34, 100)  # middle root ~ -0.3472963
    assert all(hi - lo <= Fraction(1, 1024) for lo, hi in intervals(data))
    # intervals strictly separated and sorted
    for left, right in zip(data.ends, data.ends[1:]):
        assert left[1] < right[0]


def test_intervals_certified_by_sign_change_or_exact_root():
    quartic = BinaryForm((6, 0, -5, 0, 1))  # (x^2-2)(x^2-3): four close irrational roots
    for form in (F1, F3, quartic):
        data = isolate_roots(form, 20)
        f = form.coeffs

        def at(x):
            return sum(c * x**k for k, c in enumerate(f))

        assert len(data.ends) == form.degree
        for lo, hi in intervals(data):
            if lo == hi:
                assert at(lo) == 0  # exact rational root, pinned
            else:
                assert at(lo) * at(hi) < 0  # sign change brackets the root


def test_isolate_rejects_inadmissible():
    with pytest.raises(InadmissibleFormError):
        isolate_roots(BinaryForm((0, 0, 1)))  # x^2: degree and repeated root


def test_constants_exact_root_example():
    data = isolate_roots(F1)
    _, coeff_upper, _, gate_upper = constants(data, 1, Fraction(1, 2))
    # the integer roots -2, 0, 2 are points: the gaps are exact, over 2^0
    assert (data.level, data.gap_numerators) == (0, (2, 2, 4, 4))
    assert 1 <= coeff_upper <= 1 + Fraction(1, 2**30)
    assert 1 <= gate_upper <= 1 + Fraction(1, 2**30)


def test_constants_irrational_gap():
    gap_lower, gap_upper, _, _ = gaps(isolate_roots(F3))
    # min gap ~ 1.1847925 between the two smaller roots
    assert gap_lower <= Fraction(1184793, 1000000)
    assert gap_upper >= Fraction(1184792, 1000000)
    assert gap_upper - gap_lower < Fraction(1, 2**50)


def test_constants_validation():
    field = QuadraticField(3)
    with pytest.raises(ValueError):
        Problem(field, F1, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        Problem(field, F1, 1, Fraction(0))
    with pytest.raises(ValueError):
        Problem(field, F1, 1, Fraction(1))


def test_k_and_epsilon_are_checked_before_the_isolation(monkeypatch):
    calls = []
    evaluate = _poly.evaluate

    def spy(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(_poly, "evaluate", spy)
    with pytest.raises(ValueError, match="K must be >= 1"):
        Problem(QuadraticField(7), F3, Fraction(1, 2))
    assert calls == []
    with pytest.raises(ValueError, match="epsilon"):
        Problem(QuadraticField(7), F3, 1, Fraction(1))
    assert calls == []
    # the form is checked after K: x^3 + x has complex roots
    with pytest.raises(ValueError, match="K must be >= 1"):
        Problem(QuadraticField(3), BinaryForm((0, 1, 0, 1)), 0)


def test_solve_relative_builds_no_enclosure_constant_or_gate_fraction(monkeypatch):
    # the isolation, the stable loop and the solver run on integers; only enclosures() turns the bounds into
    # Fractions, for the constants command
    built = []

    def counted(*args):
        built.append(Fraction(*args))
        return built[-1]

    monkeypatch.setattr(rootbounds, "Fraction", counted)
    quartic = BinaryForm((6, 0, -5, 0, 1))  # (x^2-2)(x^2-3): close roots, separated after the refinement
    for form in (F1, F3, quartic):
        refine(isolate_roots(form), 70)
        assert built == []
        result = solve_relative(QuadraticField(7), form, Fraction(3, 2), height=5)
        assert result.cross_check_ok
        # the only Fractions are K, epsilon and s^n K, as Problem keeps them, each built once
        assert built == [Fraction(3, 2), Fraction(1, 2), Fraction(2**form.degree * 3, 2)]
        built.clear()


def test_refinement_monotone():
    bits = 8
    data = isolate_roots(F3, bits)
    consts = constants(data, 10, Fraction(1, 3))
    for _ in range(8):
        bits += 1
        finer = refine(data, bits)
        finer_consts = constants(finer, 10, Fraction(1, 3))
        assert gaps(finer)[0] >= gaps(data)[0]
        assert gaps(finer)[2] >= gaps(data)[2]
        assert finer_consts[1] <= consts[1]  # approx_coeff upper
        assert finer_consts[3] <= consts[3]  # gate upper
        # refined intervals nest inside the coarser ones
        for (lo, hi), (flo, fhi) in zip(intervals(data), intervals(finer)):
            assert lo <= flo <= fhi <= hi
        data, consts = finer, finer_consts


def test_thresholds_exact_values():
    proportionality, real_vanish, imag_vanish = enclosures(Problem(QuadraticField(3), F1, 1))[4:]
    # s*C = 2, so squared gates are 4/3, 2 and ub(2/sqrt(3)) respectively
    assert proportionality[1] == Fraction(4, 3)
    assert real_vanish[1] == 2
    assert imag_vanish[1] ** 2 >= Fraction(4, 3)  # tight upper bound of 2/sqrt(3)
    assert (imag_vanish[1] - Fraction(1, 2**40)) ** 2 < Fraction(4, 3)
    assert proportionality[0] ** 2 >= Fraction(4, 3)
    assert real_vanish[0] ** 2 >= 2


def test_stable_constants_runs():
    field = QuadraticField(7)
    problem = Problem(field, F3, Fraction(3, 2))
    assert problem.K == Fraction(3, 2)
    squared_gates = [square for _, square in enclosures(problem)[4:]]
    assert problem.gate_caps == tuple(floor(square) for square in squared_gates)
    assert squared_gates[0] > 0
    # the certificate holds at the first level, and the constants command prints the enclosures at ISOLATION_BITS
    assert problem.roots == isolate_roots(F3, rootbounds.FIRST_BITS)
    assert max(hi - lo for lo, hi in intervals(problem.roots)) <= Fraction(1, 2**rootbounds.FIRST_BITS)
    gap_lower, gap_upper = gaps(isolate_roots(F3))[:2]
    assert enclosures(problem)[0] == (gap_lower, gap_upper) and gap_upper - gap_lower <= Fraction(2, 2**64)
    assert problem.gates_stable


@pytest.mark.parametrize("coeffs,refined", [((0, -4, 0, 1), False), ((0, -2, 0, 1), True)])
def test_stable_constants_refines_only_when_a_root_is_irrational(monkeypatch, coeffs, refined):
    # x^3 - 4xy^2 has the integer roots -2, 0, 2: its enclosures are exact, so no refinement can move a gate;
    # x^3 - 2xy^2 has the irrational roots +-sqrt(2) beside 0
    form, field = BinaryForm(coeffs), QuadraticField(7)
    calls, sides, bounds = [], [], rootbounds._bounds
    monkeypatch.setattr(rootbounds, "refine", lambda *args: calls.append(args) or refine(*args))
    monkeypatch.setattr(rootbounds, "_bounds", lambda *args: sides.append(args[5]) or bounds(*args))
    data, caps, stable = rootbounds.stable_constants(form, 1, Fraction(1, 2), field)
    assert stable and bool(calls) == refined
    assert 0 in sides if refined else sides == [1]  # no lower floors where the enclosures are exact
    if not refined:
        assert data == isolate_roots(form) == refine(data, 65)
        assert caps == gate_floors(fraction_thresholds(fraction_constants(data, 1, Fraction(1, 2)), 3, field))


def test_a_moved_gate_floor_takes_a_second_halving(monkeypatch):
    # no workload problem moves a floor at the first halving, so one moved floor is forced: the upper floors at
    # ISOLATION_BITS, the first the halvings compare with, read -1, a floor no gate has, and with the certificate
    # withheld (every lower floor one below its upper floor) the isolation must come back two levels finer, and
    # stable
    field, bounds = QuadraticField(7), rootbounds._bounds

    def withheld(*args):
        coeff, gate, *squares = bounds(*args)
        if args[5]:
            return (None, None, *[(-1, 1)] * 3) if args[0].level == ISOLATION_BITS else (coeff, gate, *squares)
        return (coeff, gate, *((num - den, den) for num, den in bounds(*args[:5], 1)[2:]))

    monkeypatch.setattr(rootbounds, "_bounds", withheld)
    data, caps, stable = rootbounds.stable_constants(F3, Fraction(3, 2), Fraction(1, 2), field)
    assert stable and data.level == ISOLATION_BITS + 2
    assert data == refine(isolate_roots(F3), ISOLATION_BITS + 2)
    consts = fraction_constants(data, Fraction(3, 2), Fraction(1, 2))
    assert caps == gate_floors(fraction_thresholds(consts, 3, field))


# x^4 - x^3 - 50x^2 + 50x = x(x - 1)(x^2 - 50) at K = 4: the min gap is 1 exactly (between the integer roots 0
# and 1, beside the irrational +-sqrt(50)) and every squared gate is the gate's, 2 / (eps * 1)^2 = 8 exactly; the
# lower bound of K^(1/4) = sqrt(2) squares to just below 8, so the lower floors read 7 at every level and the
# certificate can never fire
NO_CERTIFICATE = (BinaryForm((0, 50, -50, -1, 1)), Fraction(4), Fraction(1, 2))


def test_without_a_certificate_the_floors_settle_after_one_halving():
    form, K, epsilon = NO_CERTIFICATE
    field = QuadraticField(7)
    consts = fraction_constants(isolate_roots(form), K, epsilon)
    lower, upper = (gate_floors(fraction_thresholds(consts, 4, field, lower=side)) for side in (True, False))
    assert (lower, upper) == ((7, 7, 7), (8, 8, 8))
    data, caps, stable = rootbounds.stable_constants(form, K, epsilon, field)
    assert (data.level, caps, stable) == (ISOLATION_BITS + 1, (8, 8, 8), True)
    assert data.integer_roots == (0, 1)


# x^3 - 2(10^k x - 1)^2 over m = 7 at K = 10: two roots ~10^(-3k/2) apart, and the floors of the squared gates
# still fall after twelve halvings.  At k = 6 the first halving, from level 64, leaves the upper floors as they
# were, as each close root lies in the half of its node nearer the other, but they are far above the lower floors;
# at k = 24 the isolation starts at level 200, where a halving to level 65 would leave it as it is
@pytest.mark.parametrize("k,start", [(6, ISOLATION_BITS), (24, 200)])
def test_gates_that_still_fall_are_not_reported_settled(caplog, k, start):
    form, field, K, epsilon = BinaryForm((-2, 4 * 10**k, -2 * 10 ** (2 * k), 1)), QuadraticField(7), 10, Fraction(1, 2)
    with caplog.at_level(logging.WARNING, logger="relthue.rootbounds"):
        problem = Problem(field, form, K, epsilon)
    assert (problem.roots.level, problem.gates_stable) == (start + rootbounds.MAX_HALVINGS, False)
    assert caplog.text.count("did not stabilize") == 1
    for level in (start, start + 1):  # the kept floors lie below those of the first level and its halving
        consts = fraction_constants(refine(isolate_roots(form), level), K, epsilon)
        floors = gate_floors(fraction_thresholds(consts, 3, field))
        assert all(cap < floor for cap, floor in zip(problem.gate_caps, floors))


def test_the_certificate_keeps_the_first_level():
    # x^3 - 3xy^2 - y^3: the lower and upper floors first agree at level 16, so that level is kept and no halving
    # is taken; at level 8 they do not agree yet
    field, K, epsilon = QuadraticField(7), Fraction(10), Fraction(1, 2)
    problem = Problem(field, F3, K, epsilon)
    assert (problem.roots.level, problem.gate_caps, problem.gates_stable) == (16, (131, 30, 13), True)
    assert problem.roots == isolate_roots(F3, 16)
    coarse = fraction_constants(isolate_roots(F3, rootbounds.FIRST_BITS), K, epsilon)
    lower, upper = (gate_floors(fraction_thresholds(coarse, 3, field, lower=side)) for side in (True, False))
    assert lower != upper


def test_unstable_gates_are_flagged_and_logged(monkeypatch, caplog):
    monkeypatch.setattr(rootbounds, "MAX_HALVINGS", 0)
    with caplog.at_level(logging.WARNING, logger="relthue.rootbounds"):
        problem = Problem(QuadraticField(7), *NO_CERTIFICATE)
        assert Problem(QuadraticField(7), F3, Fraction(3, 2)).gates_stable  # the certificate needs no halving
    assert not problem.gates_stable
    assert problem.gate_caps == (8, 8, 8) and problem.roots.level == ISOLATION_BITS
    assert caplog.text.count("did not stabilize") == 1


def test_validated_records_are_immutable_values_with_the_dataclass_repr():
    field = QuadraticField(7)
    problem = Problem(field, F3, Fraction(3, 2))
    roots = problem.roots
    assert repr(field) == "QuadraticField(m=7)" and field == (7, 2, 2, 1)
    assert repr(roots) == f"RootData(form={F3!r}, level={roots.level}, ends={roots.ends})"
    assert roots.integer_roots == ()
    points = isolate_roots(F1)
    assert repr(points) == "RootData(form=BinaryForm(coeffs=(0, -4, 0, 1)), level=0, ends=((-2, -2), (0, 0), (2, 2)))"
    assert points.integer_roots == (-2, 0, 2)
    assert roots.gap_numerators == isolate_roots(F3, roots.level).gap_numerators
    assert repr(problem) == (
        f"Problem(field=QuadraticField(m=7), form=BinaryForm(coeffs=(-1, -3, 0, 1)), K=Fraction(3, 2), "
        f"epsilon=Fraction(1, 2), roots={roots!r}, gates_stable=True, abs_bound=Fraction(12, 1), norm_cap=2, "
        f"part_cap=144, joint_cap=20736, gate_caps={problem.gate_caps!r})"
    )
    for record, args in ((F3, F3), (field, (7,)), (roots, roots[:3]), (problem, problem[:4])):
        twin = type(record)(*args)
        assert twin == record and hash(twin) == hash(record) and twin is not record
        assert pickle.loads(pickle.dumps(record)) == record
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_an_isolation_of_a_form_of_degree_below_three_is_refused(monkeypatch):
    # x - 3 has no gap to take, and the gaps of x^2 - 2 came out as (4, 6, 4, 6) though isolate_roots refuses it:
    # each is refused first, for its degree, however it is built
    roots = isolate_roots(F1)
    reason = check_admissible(BinaryForm((-2, 0, 1))).reason
    assert reason == "degree too small (need n >= 3)"
    for form, level, ends in ((BinaryForm((-3, 1)), 0, ((3, 3),)), (BinaryForm((-2, 0, 1)), 1, ((-3, -2), (2, 3)))):
        with monkeypatch.context() as patch:
            patch.setattr(RootData, "__getnewargs__", lambda self: (form, level, ends))
            forged = pickle.dumps(roots)
        for build in (
            lambda: RootData(form, level, ends),
            lambda: roots._replace(form=form, level=level, ends=ends),
            lambda: RootData._make((form, level, ends, (), (1, 1, 1, 1))),
            lambda: pickle.loads(forged),
        ):
            with pytest.raises(InadmissibleFormError, match=re.escape(reason)):
                build()


def test_replace_and_make_go_through_the_constructor():
    field = QuadraticField(7)
    problem = Problem(field, F3, Fraction(3, 2))
    roots = problem.roots
    assert field._replace(m=5) == QuadraticField(5) == (5, 1, 5, 0)
    assert QuadraticField._make((7, 2, 2, 1)) == field
    assert problem._replace(K=2) == Problem(field, F3, 2)
    assert RootData._make(roots) == roots._replace(level=roots.level) == roots
    assert BinaryForm._make([(0, -4, 0, 1)]) == F1
    with pytest.raises(ValueError, match="leading coefficient"):
        BinaryForm((0, 1, 0, 1))._replace(coeffs=(1, 0))
    with pytest.raises(ValueError, match="not square-free"):
        field._replace(m=12)
    with pytest.raises(ValueError, match="K must be >= 1"):
        problem._replace(K=Fraction(1, 2))
    # a derived field cannot be replaced, and _make checks the derived fields it is given
    for record, derived in ((field, "s"), (field, "q"), (field, "t"), (roots, "gap_numerators"), (problem, "part_cap"),
                            (problem, "gate_caps"), (problem, "roots"), (F1, "degree")):
        with pytest.raises(ValueError, match="can be replaced"):
            record._replace(**{derived: getattr(record, derived)})
    with pytest.raises(ValueError, match="does not hold"):
        QuadraticField._make((5, 2, 2, 1))
    with pytest.raises(ValueError, match="does not hold"):
        Problem._make((*problem[:-1], (0, 0, 0)))


def test_problem_validates_once_at_construction():
    with pytest.raises(InadmissibleFormError):
        Problem(QuadraticField(3), BinaryForm((0, 1, 0, 1)), 1)  # x^3 + x: complex roots
    with pytest.raises(ValueError, match="K must be >= 1"):
        Problem(QuadraticField(3), F1, Fraction(1, 2))
    with pytest.raises(ValueError, match="epsilon"):
        Problem(QuadraticField(3), F1, 1, Fraction(1))
    assert Problem(QuadraticField(3), F1, 1).roots.integer_roots == (-2, 0, 2)


@given(
    st.fractions(min_value=0, max_value=1000),
    st.integers(1, 5),
)
def test_nth_root_bounds_bracket(x, r):
    lo, hi = (Fraction(end, 2**ROOT_PREC_BITS) for end in _dyadic_root(x.numerator, x.denominator, r))
    assert lo**r <= x <= hi**r
    assert hi - lo <= Fraction(1, 2**ROOT_PREC_BITS)
    # tight: one dyadic step past either bound crosses x
    step = Fraction(1, 2**ROOT_PREC_BITS)
    assert (lo + step) ** r > x
    assert x == 0 or (hi - step) ** r < x
    # the Fraction-power references agree wherever they are dyadic (for r = 1 they return x itself)
    assert r == 1 or (lo, hi) == (fraction_nth_root_lower(x, r), fraction_nth_root_upper(x, r))


@given(st.integers(0, 2**600), st.integers(1, 7), st.integers(0, 2**85), st.integers(-1, 1))
def test_iroot_is_the_floor_of_the_real_root(k, r, base, step):
    # besides a k drawn at random, an exact r-th power and its neighbours, where an off-by-one shows
    for value in (k, max(0, base**r + step)):
        root = _poly.iroot(value, r)
        assert root**r <= value < (root + 1) ** r


def test_roots_of_a_negative_radicand_or_of_an_order_below_one_are_refused():
    for k, r in ((-1, 2), (-(2**70), 3), (8, 0), (8, -3)):
        with pytest.raises(ValueError, match="iroot needs k >= 0, r >= 1"):
            _poly.iroot(k, r)
    with pytest.raises(ValueError, match="negative radicand"):
        _dyadic_root(-1, 2, 3)


def test_nth_root_exact_powers():
    assert _dyadic_root(1, 1, 3) == (1 << 48, 1 << 48)
    assert _dyadic_root(8, 1, 3) == (2 << 48, 2 << 48)
    assert _dyadic_root(27, 1, 3) == (3 << 48, 3 << 48)
    assert _dyadic_root(16, 2, 3) == (2 << 48, 2 << 48)  # the value counts, not the pair
    assert _dyadic_root(5, 3, 1) == ((5 << 48) // 3, (5 << 48) // 3 + 1)


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


@given(admissible_forms(), st.integers(0, 6))
def test_gap_enclosures_equal_the_nested_loop(form, k):
    # an isolation of a split, partly split or root-free form at level k: points and nodes, some of them split
    # past level k to part their roots, so the ends are over 2^level with nodes of several widths
    data = isolate_roots(form, k)
    assert gaps(data) == nested_gap_enclosures(intervals(data))


def test_separate_bisects_neighbours_until_strictly_apart():
    # (x^2 - 2)(x^2 - 3): sqrt 2 in [1, 3/2] and sqrt 3 in [3/2, 2] touch, and still do after one halving each;
    # so do -sqrt 3 and -sqrt 2
    data = rootbounds._refined(BinaryForm((6, 0, -5, 0, 1)), [(-4, -3, 1), (-3, -2, 1), (2, 3, 1), (3, 4, 1)], 1)
    assert intervals(data)[2:] == ((Fraction(11, 8), Fraction(3, 2)), (Fraction(13, 8), Fraction(7, 4)))
    assert (data.level, data.ends) == (3, ((-14, -13), (-12, -11), (11, 12), (13, 14)))


def gate_floors(squared_gates) -> tuple[int, ...]:
    return tuple(floor(square) for square in squared_gates)


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
    assert problem.gate_caps == gate_floors(square for _, square in enclosures(problem)[4:]) == floors
    assert problem.gates_stable
    assert problem.roots.integer_roots == ()


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
        # the chain's variations at -R and R come from the signs of its leading coefficients, so it is evaluated
        # only to split the nodes of (-R, R] holding two or more roots, at most n // 2 of them per level
        radius = _poly.root_radius(f)
        multi = _multi_root_nodes((-(10**10) + 3, 10**10 - 11, 10**10 + 7), -radius, radius)
        assert calls["_poly", "variations"] == multi
        assert multi <= n // 2 * (e + 2)
        # a node with one root costs one evaluation of f per level, and one more at its unit interval's end
        chain_length = len(_poly.sturm_chain(f))
        assert calls["_poly", "evaluate"] <= chain_length * calls["_poly", "variations"] + n * (e + 3)
        assert calls["_poly", "sturm_chain"] == 1


def _multi_root_nodes(roots, lo, hi) -> int:
    """The nodes of the bisection of (lo, hi] that hold two or more of the given points."""
    if sum(lo < r <= hi for r in roots) < 2:
        return 0
    mid = (lo + hi) // 2
    return 1 + _multi_root_nodes(roots, lo, mid) + _multi_root_nodes(roots, mid, hi)


def test_root_radius_is_fujiwaras_power_of_two():
    f = (16270, -889, -21, 1)  # e = max(ceil(14/3), ceil(10/2), ceil(5/1)) = 5, largest root ~ 32.999 > 2^5
    assert _poly.root_radius(f) == 64
    assert check_admissible(BinaryForm(f)).ok
    assert intervals(isolate_roots(BinaryForm(f), 10))[-1][0] > 32
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
    assert sign_at(f, radius) != 0
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
    for bits in (1, 10, 64):
        data, reference = isolate_roots(form, bits), bisection_isolation(form, bits)
        assert data == reference
        assert refine(data, bits + 1) == bisection_isolation(form, bits + 1, reference)
    field = QuadraticField(7)
    problem = Problem(field, form, 10)
    with (
        mock.patch.object(rootbounds, "isolate_roots", lambda form, bits: bisection_isolation(form, bits)),
        mock.patch.object(rootbounds, "refine", lambda data, bits: bisection_isolation(data.form, bits, data)),
    ):
        assert problem == Problem(field, form, 10)


@settings(deadline=None, max_examples=60)
@given(st.one_of(isolation_forms(), admissible_forms()))
def test_a_coarse_isolation_refined_to_isolation_bits_is_the_isolation_there(form):
    # the enclosures are monotone: a certificate at a coarse level holds at ISOLATION_BITS, where the refined
    # isolation is the one isolate_roots gives, so stable_constants may try the certificate coarse first
    fine = isolate_roots(form)
    for bits in (0, 1, rootbounds.FIRST_BITS, 16):
        assert refine(isolate_roots(form, bits), ISOLATION_BITS) == fine


@pytest.mark.parametrize("coeffs", NEAR_RATIONAL_ROOTS)
def test_a_coarse_isolation_of_roots_near_rationals_refined_to_isolation_bits_is_the_isolation_there(coeffs):
    test_a_coarse_isolation_refined_to_isolation_bits_is_the_isolation_there.hypothesis.inner_test(BinaryForm(coeffs))


def test_the_kept_level_and_the_refinements_a_solve_takes(monkeypatch):
    # the first seed-0 grid problem: the certificate holds at FIRST_BITS, and H = 10 needs level
    # 10.bit_length() + 4 = 8, so refine hands solve_abs the kept isolation itself: the only isolation built
    # is the one isolate_roots gives
    field, form = QuadraticField(337558), BinaryForm((5825522, -99628, -72, 1))
    _, calls = profiled_calls(solve_relative, field, form, Fraction(29, 4), Fraction(1, 2), 10)
    assert calls["rootbounds", "isolate_roots"] == calls["rootbounds", "_refined"] == 1
    problem = Problem(field, form, Fraction(29, 4))
    assert problem.roots == isolate_roots(form, 8) and problem.roots.level == rootbounds.FIRST_BITS == 8
    # at H = 2000 solve_abs refines it to level 2000.bit_length() + 4 = 15, and lists what the isolation at
    # ISOLATION_BITS lists, which it takes as it is
    refined = []

    def recorded(data, bits):
        finer = refine(data, bits)
        refined.append((data.level, bits, finer is data))
        return finer

    monkeypatch.setattr(abssolver, "refine", recorded)
    assert solve_abs(form, problem.abs_bound, 2000, roots=problem.roots) == solve_abs(form, problem.abs_bound, 2000)
    assert refined == [(8, 15, False), (ISOLATION_BITS, 15, True)]
    # x^3 - 3xy^2 - y^3 at K = 10 takes one refinement, to 16, where the certificate holds (the levels double)
    monkeypatch.setattr(rootbounds, "refine", recorded)
    refined.clear()
    assert Problem(QuadraticField(7), F3, 10).roots.level == 16
    assert refined == [(8, 16, False)]


def test_bisection_passes_the_integer_root_at_lo_for_the_root_inside():
    # roots 0, 1/5, 21/20, 11/10, 6/5: clustered as no monic integer form's roots can be; the node (0, 1) holds
    # the integer root 0 at lo and the one root 1/5 inside, and its refinement must hold 1/5
    f = (0, 1386, -10665, 22025, -17750, 5000)  # x(5x - 1)(20x - 21)(10x - 11)(5x - 6)
    lo, hi, level = rootbounds._refine_node(f, 0, 1, 0, 64)
    assert level == 64 and hi == lo + 1 and Fraction(lo, 1 << 64) < Fraction(1, 5) < Fraction(hi, 1 << 64)


def test_solve_abs_evaluation_count():
    # x^3 - 3xy^2 - y^3 at K' = 80, H = 2000, the README's example: isolation, its check, windows and candidates,
    # one call per evaluation of f; the Sturm chain is evaluated only where nodes hold two or more roots, not at
    # -R and R; the check evaluates f at both ends of each of the three irrational intervals
    result, calls = profiled_calls(solve_abs, BinaryForm((-1, -3, 0, 1)), 80, 2000)
    assert len(result.solutions) == 157
    assert calls["_poly", "evaluate"] == 437


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


@pytest.mark.parametrize("roots", [(-(2**20), 1, 2**30), (-8, 4, 12, 16), (-3, 0, 2, 64, 96)])
def test_integer_roots_at_the_midpoint_of_a_single_root_node(roots):
    # each root is the midpoint of a dyadic node of (-R, R] that holds it alone, where f vanishes at the midpoint
    form = form_from_roots(roots)
    assert integer_roots(form) == tuple(sorted(roots))
    assert intervals(isolate_roots(form)) == tuple((r, r) for r in sorted(roots))


def test_integer_root_at_the_upper_end_of_a_finer_node():
    # (x - 1)((x - 1)^2 - 10(x - 1) - 1): the roots 0.901.. and 1 share nodes down to level 4, so 1 is found
    # as the upper end of the node (15, 16]/2^4, numerator 16
    form = BinaryForm((-10, 22, -13, 1))
    assert integer_roots(form) == (1,)
    data = isolate_roots(form)
    assert data.integer_roots == (1,) and data.ends[1] == (1 << data.level, 1 << data.level)


@st.composite
def constant_cases(draw):
    """(form, m, K, epsilon): degree 3-7, split or root-free, both ring shapes, K a perfect n-th power or not."""
    n = draw(st.integers(3, 7))
    split = form_from_roots(draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n, unique=True)))
    form = draw(st.one_of(st.just(split), root_free_forms(n)))
    power = st.fractions(min_value=1, max_value=40, max_denominator=9).map(lambda q: q**n)
    K = draw(st.one_of(power, st.fractions(min_value=1, max_value=10**9, max_denominator=10**4)))
    m = draw(st.sampled_from((1, 2, 3, 5, 7, 11, 15, 19, 999_999_937)))  # s = 1 and s = 2
    return form, m, K, draw(st.sampled_from((Fraction(1, 2), Fraction(1, 3), Fraction(7, 8))))


@settings(deadline=None, max_examples=150)
@given(constant_cases(), st.sampled_from((1, 10, 64)))
# x^3 - 3xy^2 - y^3 over m = 1 at K = 50: the real-vanishing gate is a square root of s*approx_coeff, above gate^2
@example((F3, 1, Fraction(50), Fraction(1, 2)), 64)
def test_bounds_equal_the_fraction_references(case, bits):
    form, m, K, epsilon = case
    data, field, n = isolate_roots(form, bits), QuadraticField(m), form.degree
    consts = fraction_constants(data, K, epsilon)
    K, epsilon = Fraction(K), Fraction(epsilon)
    k_root = _dyadic_root(K.numerator, K.denominator, n)
    for side in (0, 1):
        bounds = tuple(Fraction(num, den) for num, den in rootbounds._bounds(data, K, epsilon, k_root, field, side))
        assert bounds[:2] == (consts[side], consts[2 + side])
        assert bounds[2:] == fraction_thresholds(consts, n, field, lower=not side)


@settings(deadline=None, max_examples=40)
@given(constant_cases())
def test_problem_equals_the_one_built_on_the_fraction_references(case):
    # the integer gate floors of a Problem equal the references at its isolation, and its enclosures() equal them
    # at that isolation refined to ISOLATION_BITS, as the constants command prints them
    form, m, K, epsilon = case
    field = QuadraticField(m)
    problem = Problem(field, form, K, epsilon)
    kept = fraction_constants(problem.roots, K, epsilon)
    assert problem.gate_caps == gate_floors(fraction_thresholds(kept, form.degree, field))
    printed = refine(problem.roots, ISOLATION_BITS)
    consts = fraction_constants(printed, K, epsilon)
    squared_gates = fraction_thresholds(consts, form.degree, field)
    assert problem.gate_caps == gate_floors(squared_gates)
    gap_lower, gap_upper, product_lower, product_upper = nested_gap_enclosures(intervals(printed))
    assert enclosures(problem) == (
        (gap_lower, gap_upper),
        (product_lower, product_upper),
        consts[:2],
        consts[2:],
        *((fraction_nth_root_upper(square, 2), square) for square in squared_gates),
    )


@settings(deadline=None, max_examples=60)
@given(constant_cases(), st.integers(ISOLATION_BITS, ISOLATION_BITS + 3))
# x(x - 1)(x - 2)(x - 3) at K = 4: the squared gate is 2 / (eps * min gap)^2 = 8 exactly, every squared gate is
# the gate's, and the lower bound of K^(1/4) = sqrt(2) squares to just below 8, so its floor would read 7
@example((form_from_roots((0, 1, 2, 3)), 5, Fraction(4), Fraction(1, 2)), ISOLATION_BITS)
def test_integer_gate_floors_equal_the_floors_of_the_fraction_references(case, bits):
    form, m, K, epsilon = case
    field, n = QuadraticField(m), form.degree
    data = isolate_roots(form, bits)
    K, epsilon = Fraction(K), Fraction(epsilon)
    k_root = _dyadic_root(K.numerator, K.denominator, n)
    lower, upper = (
        tuple(num // den for num, den in rootbounds._bounds(data, K, epsilon, k_root, field, side)[2:])
        for side in (0, 1)
    )
    consts = fraction_constants(data, K, epsilon)
    assert upper == gate_floors(fraction_thresholds(consts, n, field))
    assert lower == gate_floors(fraction_thresholds(consts, n, field, lower=True))


@pytest.mark.parametrize("k,level", [(6, 64), (24, 200), (48, 400)])
def test_near_double_roots_isolate_at_the_level_their_gap_needs(k, level):
    form = BinaryForm((-2, 4 * 10**k, -2 * 10 ** (2 * k), 1))  # x^3 - 2(10^k x - 1)^2: two roots ~10^(-3k/2) apart
    roots = isolate_roots(form)
    assert roots.level == level and roots.integer_roots == ()
    assert all(left[1] < right[0] for left, right in zip(roots.ends, roots.ends[1:]))
    for lo, hi in roots.ends:  # f changes sign across each interval, so a root lies in each
        assert _poly.sign(form.evaluate(lo, 1 << level)) == -_poly.sign(form.evaluate(hi, 1 << level)) != 0


# x^3 - 2(10^k x - 1)^2 over m = 7 at K = 10, whose gates still fall after twelve halvings
CLOSE_ROOT_CUBICS = [
    (BinaryForm((-2, 4 * 10**k, -2 * 10 ** (2 * k), 1)), 7, Fraction(10), Fraction(1, 2)) for k in (6, 24)
]


@settings(deadline=None, max_examples=60)
@given(constant_cases())
@example(CLOSE_ROOT_CUBICS[0])
@example(CLOSE_ROOT_CUBICS[1])
@example((NO_CERTIFICATE[0], 7, *NO_CERTIFICATE[1:]))
def test_the_gates_equal_those_of_the_certificate_tried_first_at_isolation_bits(case):
    # gate_caps and gates_stable as they were when every Problem isolated at ISOLATION_BITS first; the kept
    # isolation may be coarser, and refined to ISOLATION_BITS it is the one kept then, or both are finer still
    form, m, K, epsilon = case
    field = QuadraticField(m)
    problem = Problem(field, form, K, epsilon)
    roots, caps, stable = level64_stable_constants(form, K, epsilon, field)
    assert (problem.gate_caps, problem.gates_stable) == (caps, stable)
    assert refine(problem.roots, ISOLATION_BITS) == refine(roots, ISOLATION_BITS)
