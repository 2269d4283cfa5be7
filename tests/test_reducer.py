import logging
import time
from fractions import Fraction
from functools import cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relthue

from relthue import (
    BinaryForm,
    Problem,
    QuadraticField,
    brute_force,
    check_admissible,
    solve_abs,
    solve_relative,
)
from relthue import reducer
from relthue.cli import main
from relthue.quadfield import MAX_M
from relthue.reducer import _evaluate, nonzero_value_branch, zero_value_branch
from relthue.theorem import full_report
import sweep
from util import (
    admissible_forms,
    form_from_roots,
    imag_value_range,
    last_window_row,
    profiled_calls,
    range_walk_nonzero_branch,
    representatives,
    root_test_zero_branch,
    values_index,
)

F1 = BinaryForm((0, -4, 0, 1))
F2 = BinaryForm((0, -2, -1, 1))
F3 = BinaryForm((-1, -3, 0, 1))


def branch_input(m, form, K, height):
    """The problem and the absolute enumeration both branches read, as solve_relative builds them."""
    problem = Problem(QuadraticField(m), form, K)
    return problem, solve_abs(form, problem.abs_bound, height, roots=problem.roots)


def orbit(field, quad):
    """The orbit of ``quad`` under conjugation and (x, y) -> (-x, -y), as a frozenset of quadruples."""
    (x1, x2, y1, y2), t = quad, field.t
    conjugate = (x1 + t * x2, -x2, y1 + t * y2, -y2)
    return frozenset({quad, conjugate, tuple(-c for c in quad), tuple(-c for c in conjugate)})


def test_imag_value_range_examples():
    assert imag_value_range(Problem(QuadraticField(3), F1, 1)) == [-1, 0, 1]
    assert imag_value_range(Problem(QuadraticField(163), F1, 1)) == [0]
    assert imag_value_range(Problem(QuadraticField(2), F1, 1)) == [0]


def test_imag_value_range_grows_with_K():
    small = imag_value_range(Problem(QuadraticField(3), F1, 1))
    large = imag_value_range(Problem(QuadraticField(3), F1, 10))
    assert set(small) <= set(large)
    assert large == list(range(-15, 16))  # k^2 * 27 <= 6400


def test_zero_branch_parity_reconstruction():
    # family member (2t, t) with (a, b) = (2, 0): x1 = 1 - t integral only for even t
    problem, abs_solutions = branch_input(3, F1, 1, 6)
    field = problem.field
    found = zero_value_branch(problem, abs_solutions)
    assert problem.roots.integer_roots == (-2, 0, 2)
    for quad in found:
        # reconstruction parity: a = 2*x1 + x2 and b = 2*y1 + y2 are integers by construction
        assert field.norm(*field.evaluate_form(F1, quad)) <= 1
    # the (a,b)=(8,4) member over (x2,y2)=(0,0) is in the family of root 2, not in the branch output
    assert (4, 0, 2, 0) not in found
    assert (4, 0, 2, 0) in solve_relative(field, F1, 1, Fraction(1, 2), 6).quadruples()


def test_orbits_with_a_representative_on_an_axis_are_found():
    # x = w, y = 0 has the imaginary pair (1, 0), y2 = 0 < x2, and the real pair (1, 0), b = 0 < a: its orbit under
    # conjugation and negation is x in {w, 1 - w, -w, w - 1}, y = 0; the branch returns the one candidate it
    # verified for all four, and solve_relative expands it into the other three
    problem, abs_solutions = branch_input(3, F1, 1, 6)
    found = nonzero_value_branch(problem, abs_solutions)
    assert (0, 1, 0, 0) in found
    assert found == representatives(problem.field, range_walk_nonzero_branch(problem, abs_solutions))
    quads = solve_relative(problem.field, F1, 1, height=6).quadruples()
    assert {(0, 1, 0, 0), (1, -1, 0, 0), (0, -1, 0, 0), (-1, 1, 0, 0)} <= quads


def test_nonzero_branch_worked_example():
    # x = w, y = 0: imag value 1 realized by (1, 0), real pair (1, 0), x1 = 0
    problem, abs_solutions = branch_input(3, F1, 1, 6)
    field = problem.field
    found = nonzero_value_branch(problem, abs_solutions)
    assert (0, 1, 0, 0) in found
    for quad in found:
        assert F1.evaluate(quad[1], quad[3]) != 0
        assert field.norm(*field.evaluate_form(F1, quad)) <= 1


def test_branches_disjoint_by_imag_value():
    problem, abs_solutions = branch_input(3, F1, 1, 6)
    zero_found = zero_value_branch(problem, abs_solutions)
    nonzero_found = nonzero_value_branch(problem, abs_solutions)
    assert not (set(zero_found) & set(nonzero_found))


# K = 9/2 on F1 over m = 3: cells of norm 21 = ceil(K^2) lie in the box, so a cap of ceil(K^2) would keep them
@pytest.mark.parametrize("m,K,form", [(3, 1, F1), (1, 1, F2), (2, 10, F3), (7, 10, F2), (3, Fraction(9, 2), F1)])
def test_oracle_equivalence_small(m, K, form):
    field = QuadraticField(m)
    result = solve_relative(field, form, K, Fraction(1, 2), 12)
    oracle = brute_force(field, form, K, 3)
    box = {q for q in result.quadruples() if max(abs(c) for c in q) <= 3}
    assert box == oracle.quadruples()
    assert result.cross_check_ok


SQUAREFREE_M = [m for m in range(1, 51) if all(m % (d * d) for d in range(2, 8))]  # both classes mod 4
SMALL_CUBICS = [
    BinaryForm((*coeffs, 1))
    for coeffs in product(range(-2, 3), repeat=3)
    if check_admissible(BinaryForm((*coeffs, 1))).ok
]


@pytest.mark.parametrize("m", [m for m in SQUAREFREE_M if m <= 31])
def test_oracle_sweep_of_the_small_monic_cubics(m):
    # every admissible monic cubic with coefficients in [-2, 2], every K in {1, 7/2, 10}: the solver at
    # H = (2s-1)*2, restricted to the box 2, equals brute_force on it, for 20 m of both ring shapes
    field = QuadraticField(m)
    assert len(SMALL_CUBICS) == 26
    mismatches = []
    for form, K in product(SMALL_CUBICS, (1, Fraction(7, 2), 10)):
        result = solve_relative(field, form, K, Fraction(1, 2), (2 * field.s - 1) * 2)
        box = {q for q in result.quadruples() if max(map(abs, q)) <= 2}
        if box != brute_force(field, form, K, 2).quadruples():
            mismatches.append((form, K))
    assert not mismatches


@pytest.mark.parametrize("m", sweep.SQUAREFREE_M + sweep.LARGE_M)
def test_oracle_sweep_of_the_cubics_with_roots_next_to_integers(m):
    # the 16 cubics prod(x - r_i) + delta of the sweep, |f(0)| near 10^12 and each root next to an integer, every
    # K in {1, 7/2, 10}: the solver at H = (2s-1)*3, restricted to the box 3, equals brute_force on it
    table = sweep.near_integer_forms(3)
    assert len(table) == 16 and sweep.BOXES[3] == 3
    assert not [(form, K) for form, K in product(table, sweep.KS) if sweep.mismatch(form, m, K, 3) is not None]


SMALL_FORMS = {3: SMALL_CUBICS, 4: [form for form in sweep.forms(4) if max(map(abs, form.coeffs)) <= 2]}


@pytest.mark.parametrize("degree,K", product(SMALL_FORMS, sweep.FLOOR_KS))
def test_oracle_sweep_where_the_integer_floors_of_K_decide(degree, K):
    # K a billionth off an integer, and for each ring shape the m on both sides of m^n = (s^n K)^2: the largest
    # whose part bound admits F(x2, y2) != 0 and the least that admits none (m = 2 for quartics at K = 4 + 10^-9,
    # but not at 4 - 10^-9); the 26 cubics and 20 quartics with coefficients in [-2, 2], at the sweep's boxes
    ms, table = sweep.part_bound_ms(degree, K), SMALL_FORMS[degree]
    assert [Problem(QuadraticField(m), table[0], K).part_cap >= m**degree for m in ms] == [True, False, True, False]
    box = sweep.BOXES[degree]
    assert not [(form, m) for form, m in product(table, ms) if sweep.mismatch(form, m, K, box) is not None]


@pytest.mark.parametrize("m", [1, 2, 3, 7])
def test_oracle_sweep_of_the_sextics_and_septics(m):
    # the sweep's sextics and septics prod(x - r_i) + delta, each root next to an integer, and its fixed forms
    # 2T_6(x/2), 2T_7(x/2) and two split septics, every K in {1, 7/2, 10}, at box 2 for both ring shapes
    table = [form for degree in (6, 7) for form in (*sweep.near_integer_forms(degree), *sweep.fixed_forms(degree))]
    assert len(table) == 20 and sweep.BOXES[6] == sweep.BOXES[7] == 2
    assert not [(form, K) for form, K in product(table, sweep.KS) if sweep.mismatch(form, m, K, 2) is not None]


@settings(deadline=None)
@given(
    admissible_forms(),
    st.sampled_from(SQUAREFREE_M),
    st.fractions(min_value=1, max_value=20, max_denominator=3),
)
def test_oracle_equivalence_random_admissible_forms(form, m, K):
    field = QuadraticField(m)
    box_height = 3
    result = solve_relative(field, form, K, Fraction(1, 2), (2 * field.s - 1) * box_height)
    box = {q for q in result.quadruples() if max(abs(c) for c in q) <= box_height}
    assert box == brute_force(field, form, K, box_height).quadruples()
    assert result.cross_check_ok


# admissible forms without an integer root, degrees 3-5, beside the root-free kind of admissible_forms()
ROOT_FREE = [BinaryForm(c) for c in ((-1, -3, 0, 1), (1, -4, 0, 1), (-3, -7, 2, 1), (6, 0, -5, 0, 1),
                                     (1, 0, -4, 0, 1), (1, 8, 0, -6, 0, 1))]


@settings(deadline=None, max_examples=200)
@example(F1, 1, Fraction(5), 4)  # the root-line real pair (0, 1) solves at b = b_max = 1
@example(F1, 1, Fraction(17), 4)  # and (0, 2) at b = b_max = 2
@given(
    st.one_of(admissible_forms(), st.sampled_from(ROOT_FREE)),
    st.sampled_from(SQUAREFREE_M),
    st.fractions(min_value=1, max_value=60, max_denominator=3),
    st.integers(0, 25),
)
def test_branches_equal_the_range_walk_references(form, m, K, height):
    # the references find every member of each orbit; the branches return its representative
    problem, abs_solutions = branch_input(m, form, K, height)
    field = problem.field
    zero_reference = representatives(field, root_test_zero_branch(problem, abs_solutions))
    assert zero_value_branch(problem, abs_solutions) == zero_reference
    nonzero_reference = representatives(field, range_walk_nonzero_branch(problem, abs_solutions))
    assert nonzero_value_branch(problem, abs_solutions) == nonzero_reference


def test_nonzero_branch_reads_only_realized_values(monkeypatch):
    # at height 0 the realized values are the cubes a^3, |a| <= 100, while the part bound admits every
    # integer |v| <= 10^6: a walk over that range tries about 2*10^6 values; the branch pairs only the
    # imaginary representatives, (a, 0) with 0 < a <= 100, each once
    paired = []
    orbits = reducer._orbits
    monkeypatch.setattr(
        reducer, "_orbits", lambda kernel, pair, *rest: paired.append(pair) or orbits(kernel, pair, *rest)
    )
    problem, abs_solutions = branch_input(1, F3, 10**6, 0)
    realized = len(values_index(abs_solutions))
    assert realized == 201
    # y = 0 here, so the branch finds every x = x1 + x2*i with x2 != 0 and (x1^2 + x2^2)^3 <= K^2, one of each
    # orbit: x2 > 0 and x1 >= 0
    assert len(nonzero_value_branch(problem, abs_solutions)) == 7_854
    assert sorted(paired) == [(a, 0) for a in range(1, 101)]


def test_all_emitted_solutions_verified():
    field = QuadraticField(3)
    result = solve_relative(field, F1, Fraction(3, 2), Fraction(1, 2), 8)
    for sol in result.solutions:
        assert sol.value_norm == field.norm(*field.evaluate_form(F1, sol.quadruple)) <= Fraction(3, 2) ** 2
        assert sol.report.ok


def test_large_m_forces_zero_imag_coords():
    field = QuadraticField(163)
    result = solve_relative(field, F3, 1, Fraction(1, 2), 20)
    assert all(q[1] == 0 and q[3] == 0 for q in result.quadruples())
    embedded = {(q[0], q[2]) for q in result.quadruples()}
    assert embedded == {(a, b) for a, b, _ in solve_abs(F3, 1, 10).solutions}
    assert result.families == ()  # irreducible: no zero families


def test_reducible_reports_families():
    result = solve_relative(QuadraticField(7), F1, 1, Fraction(1, 2), 5)
    assert result.families == (-2, 0, 2)
    assert result.search_height == 5


def test_sort_order_and_uniqueness():
    field = QuadraticField(3)
    result = solve_relative(field, F1, 1, Fraction(1, 2), 6)
    quads = [s.quadruple for s in result.solutions]
    keys = [(field.norm(y1, y2), y1, y2, x1, x2) for x1, x2, y1, y2 in quads]
    assert keys == sorted(keys)
    assert len(quads) == len(set(quads))


@pytest.mark.parametrize("m", [1, 3])
def test_oracle_equivalence_quartic_with_integer_roots(m):
    form = BinaryForm((0, 6, -5, -2, 1))  # x(x-1)(x+2)(x-3) = x^4-2x^3-5x^2+6x
    field = QuadraticField(m)
    result = solve_relative(field, form, 1, Fraction(1, 2), 8)
    oracle = brute_force(field, form, 1, 2)
    box = {q for q in result.quadruples() if max(abs(c) for c in q) <= 2}
    assert box == oracle.quadruples()
    assert result.families == (-2, 0, 1, 3)


def test_oracle_equivalence_quartic_biquadratic():
    # (x^2-2)(x^2-3): reducible over Q but without rational roots, so the
    # zero set over Z^2 is just the origin and no families are reported
    form = BinaryForm((6, 0, -5, 0, 1))
    field = QuadraticField(3)
    result = solve_relative(field, form, 2, Fraction(1, 2), 8)
    oracle = brute_force(field, form, 2, 2)
    box = {q for q in result.quadruples() if max(abs(c) for c in q) <= 2}
    assert box == oracle.quadruples()
    assert result.families == ()


def test_oracle_equivalence_rational_K():
    field = QuadraticField(3)
    K = Fraction(3, 2)
    result = solve_relative(field, F3, K, Fraction(1, 2), 9)
    oracle = brute_force(field, F3, K, 3)
    box = {q for q in result.quadruples() if max(abs(c) for c in q) <= 3}
    assert box == oracle.quadruples()
    for sol in result.solutions:
        assert sol.value_norm <= K**2


def test_rejects_small_K():
    with pytest.raises(ValueError):
        solve_relative(QuadraticField(3), F1, Fraction(1, 2))


def test_a_failed_predicate_clears_the_cross_check_and_logs_one_warning(monkeypatch, caplog):
    def failing(problem, quad):
        return full_report(problem, quad)._replace(joint_bound_ok=False)

    monkeypatch.setattr(reducer, "full_report", failing)
    with caplog.at_level(logging.WARNING, logger="relthue.reducer"):
        result = solve_relative(QuadraticField(3), F3, 10, height=6)
    assert result.solutions
    assert result.cross_check_ok is False
    records = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
    assert records == [("relthue.reducer", logging.WARNING, "a verified solution failed an applicable structure predicate")]


def test_s1_reconstruction_degenerates():
    # for s = 1 the real pair is (x1, y1) itself: solutions embed absolute pairs directly
    field = QuadraticField(2)
    result = solve_relative(field, F1, 1, Fraction(1, 2), 8)
    abs_pairs = {(a, b) for a, b, _ in solve_abs(F1, 1, 8).solutions}
    for q in result.quadruples():
        if q[1] == 0 and q[3] == 0:
            assert (q[0], q[2]) in abs_pairs


def test_each_problem_fact_is_computed_once(capsys):
    _, calls = profiled_calls(solve_relative, QuadraticField(3), F1, 1, Fraction(1, 2), 6)
    assert calls["forms", "check_admissible"] == 1
    assert calls["_poly", "sturm_chain"] == 1  # the isolation bisects with the admissibility chain
    status, calls = profiled_calls(main, ["abs", "--coeffs", "0 -4 0 1", "--kprime", "1", "--ymax", "2"])
    capsys.readouterr()
    assert status == 0
    assert calls["forms", "check_admissible"] == 1
    assert calls["_poly", "sturm_chain"] == 1


def test_family_members_are_neither_verified_nor_reported():
    result, calls = profiled_calls(solve_relative, QuadraticField(3), F1, 1, Fraction(1, 2), 20)
    assert len(result.quadruples()) > 1000
    assert calls["reducer", "_verify"] < 100
    # one report per orbit of the solutions off the families
    quads = [sol.quadruple for sol in result.solutions]
    assert calls["theorem", "full_report"] == len({orbit(result.field, quad) for quad in quads}) < len(quads)
    # the verification kernel takes norm(F(x, y)) on plain integers, and each report takes the ring norm of y once
    assert calls["quadfield", "norm"] == calls["theorem", "full_report"]


def test_no_process_global_cache():
    sources = Path(relthue.__file__).parent.glob("*.py")
    assert not [path.name for path in sources if "lru_cache" in path.read_text(encoding="utf-8")]


# Problems with zero-branch solutions off the family lines: F(x2, y2) = 0 with y2 != 0, x != r*y
OFF_LINE = [
    (BinaryForm((0, -1, 0, 1)), 1, 30),  # x^3 - x*y^2
    (BinaryForm((0, -1, 0, 1)), 3, 30),
    (F1, 1, 60),
    (BinaryForm((0, 6, -5, -2, 1)), 3, 10),  # x(x-1)(x+2)(x-3), s = 2
]


@pytest.mark.parametrize("form,m,K", OFF_LINE)
def test_oracle_equivalence_off_family_zero_branch(form, m, K):
    field = QuadraticField(m)
    box_height = 4
    result = solve_relative(field, form, K, Fraction(1, 2), (2 * field.s - 1) * box_height)
    oracle = brute_force(field, form, K, box_height)
    box = {q for q in result.quadruples() if max(abs(c) for c in q) <= box_height}
    assert box == oracle.quadruples()
    assert result.cross_check_ok
    members = set(result.family_members())
    off_line = [
        q for q in box if form.evaluate(q[1], q[3]) == 0 and q[3] != 0 and q not in members
    ]
    assert off_line  # the derivative-test window is exercised
    assert {sol.quadruple for sol in result.solutions}.isdisjoint(members)


@pytest.mark.parametrize("m,K,form", [(3, 1, F1), (1, 10, F1), (2, 1, F2), (7, Fraction(3, 2), F2)])
def test_family_members_solve_and_pass_every_predicate(m, K, form):
    field = QuadraticField(m)
    height = 6
    result = solve_relative(field, form, K, Fraction(1, 2), height)
    problem = Problem(field, form, K)
    members = list(result.family_members())
    assert len(members) == len(set(members))
    s = field.s
    for x1, x2, y1, y2 in members:
        assert any(x1 == r * y1 and x2 == r * y2 for r in result.families)
        assert abs(y2) <= height and abs(s * y1 + (s - 1) * y2) <= height
        assert field.evaluate_form(form, (x1, x2, y1, y2)) == (0, 0)
        assert full_report(problem, (x1, x2, y1, y2)).ok


@cache
def field_of(m: int) -> QuadraticField:
    return QuadraticField(m)  # the square-free check of an m near MAX_M takes ~0.5 s, so each is built once


# square-free m of both ring shapes, from 1 up to MAX_M - 5 (s = 2) and MAX_M - 2 (s = 1)
KERNEL_M = [1, 2, 3, 5, 7, 11, 15, 19, 163, 999_999_937, 2**31 - 1, MAX_M - 5, MAX_M - 2]
SMALL_M = st.integers(1, 10**4).filter(lambda m: all(m % (d * d) for d in range(2, 101)))


@settings(deadline=None, max_examples=300)
@given(
    st.integers(3, 5).flatmap(lambda n: st.tuples(*[st.integers(-50, 50)] * n, st.integers(-50, 50).filter(bool))),
    st.one_of(st.sampled_from(KERNEL_M), SMALL_M),
    st.tuples(*[st.integers(-(10**6), 10**6)] * 4),
)
def test_verification_kernel_equals_the_ring_evaluation(coeffs, m, quad):
    field, form = field_of(m), BinaryForm(coeffs)
    assert _evaluate(form.coeffs, field.q, field.t, *quad) == field.norm(*field.evaluate_form(form, quad))


class Unreadable(tuple):
    """Rows that refuse every read."""

    def refuse(self, *args):
        raise AssertionError("the nonzero branch read the listing")

    __iter__ = __len__ = __getitem__ = refuse


def test_nonzero_branch_builds_no_index_when_the_part_bound_admits_no_value(monkeypatch):
    # m^n = 163^3 > (s^n K)^2 = 64: no v_imag != 0 meets the part bound, so the listing is not even read,
    # and nothing is sorted or split into classes
    problem, abs_solutions = branch_input(163, F1, 1, 20)
    with monkeypatch.context() as patch:
        patch.setattr(reducer, "_classes", Unreadable.refuse)
        assert nonzero_value_branch(problem, abs_solutions._replace(rows=Unreadable())) == {}
    result = solve_relative(problem.field, F1, 1, Fraction(1, 2), 20)
    assert all(sol.quadruple[1] == sol.quadruple[3] == 0 for sol in result.solutions)


@pytest.mark.parametrize("form,m,K", [case for case in OFF_LINE if QuadraticField(case[1]).s == 2])
def test_parity_classes_equal_the_division_references(monkeypatch, form, m, K):
    # for s = 2 each imaginary pair meets only the real pairs of its class (a mod 2, b mod 2): the branches
    # find what the references find by testing each division, and verify each candidate once, all integral
    problem, abs_solutions = branch_input(m, form, K, 12)
    verified = []
    verify = reducer._verify
    monkeypatch.setattr(reducer, "_verify", lambda kernel, quad: verified.append(quad) or verify(kernel, quad))
    field = problem.field
    zero_found = zero_value_branch(problem, abs_solutions)
    assert zero_found == representatives(field, root_test_zero_branch(problem, abs_solutions))
    nonzero_found = nonzero_value_branch(problem, abs_solutions)
    assert nonzero_found == representatives(field, range_walk_nonzero_branch(problem, abs_solutions))
    assert zero_found and nonzero_found
    assert len(verified) == len(set(verified))
    realized = {(a, b) for a, b, _ in abs_solutions.solutions}
    assert all((2 * x1 + x2, 2 * y1 + y2) in realized for x1, x2, y1, y2 in verified)


def test_each_orbit_is_verified_by_one_candidate_and_each_solution_once(monkeypatch):
    # x^3 - 4xy^2, m = 1, K = 100, H = 100: 2,710 calls, the README's figure; verifying every candidate, not one
    # per orbit, takes 44,164 calls, and one per orbit with every root-line real pair, not only those the
    # derivative test admits, 12,700
    calls = []
    verify = reducer._verify

    def counting(kernel, quad):
        verified = verify(kernel, quad)
        calls.append((quad, verified is not None))
        return verified

    monkeypatch.setattr(reducer, "_verify", counting)
    result = solve_relative(QuadraticField(1), F1, 100, height=100)
    assert len(calls) == 2_710
    assert len({quad for quad, _ in calls}) == len(calls)
    assert sum(accepted for _, accepted in calls) == len(result.solutions) == 2_212


def test_each_orbit_is_reported_once_and_every_member_has_its_own_report(monkeypatch):
    # x^3 - 4xy^2, m = 1, K = 100, H = 100: 2,212 solutions off the families, in orbits of up to four
    reported = []
    report = reducer.full_report
    monkeypatch.setattr(reducer, "full_report", lambda problem, quad: reported.append(quad) or report(problem, quad))
    result = solve_relative(QuadraticField(1), F1, 100, height=100)
    problem = Problem(QuadraticField(1), F1, 100)
    orbits = {orbit(result.field, sol.quadruple) for sol in result.solutions}
    assert len(result.solutions) == 2_212
    assert len(reported) == len(orbits) == 587
    assert {orbit(result.field, quad) for quad in reported} == orbits
    assert all(sol.report == full_report(problem, sol.quadruple) for sol in result.solutions)


@settings(deadline=None)
@given(
    admissible_forms(),
    st.fractions(min_value=1, max_value=30, max_denominator=3),
    st.integers(1, 8),
    st.data(),
)
def test_solutions_come_in_orbits_of_conjugation_and_negation(form, K, height, data):
    # m small enough that the part bound admits v_imag != 0, m^n <= (s^n K)^2: m = 1 and m = 3 always are
    n = form.degree
    m = data.draw(st.sampled_from([m for m in SQUAREFREE_M if m**n <= ((2 if m % 4 == 3 else 1) ** n * K) ** 2]))
    field = QuadraticField(m)
    t, sign = field.t, (-1) ** n
    result = solve_relative(field, form, K, Fraction(1, 2), height)
    problem = Problem(field, form, K)
    quads = result.quadruples()
    for x1, x2, y1, y2 in quads:
        assert (x1 + t * x2, -x2, y1 + t * y2, -y2) in quads  # conjugate
        assert (-x1, -x2, -y1, -y2) in quads
    by_quad = {sol.quadruple: sol for sol in result.solutions}
    for quad, sol in by_quad.items():
        (x1, x2, y1, y2), (v1, v2) = quad, field.evaluate_form(form, quad)
        assert sol.value_norm == field.norm(v1, v2)
        # F(conj x, conj y) = conj F(x, y) and F(-x, -y) = (-1)^n F(x, y); conj(v1 + v2*w) = (v1 + t*v2) - v2*w
        members = {
            (x1 + t * x2, -x2, y1 + t * y2, -y2): (v1 + t * v2, -v2),
            (-x1, -x2, -y1, -y2): (sign * v1, sign * v2),
            (-x1 - t * x2, x2, -y1 - t * y2, y2): (sign * (v1 + t * v2), -sign * v2),
        }
        # the solver shares one report per orbit, so each member's report is decided here on its own
        report = full_report(problem, quad)
        assert sol.report == report
        for member, value in members.items():
            assert field.evaluate_form(form, member) == value
            assert by_quad[member].value_norm == sol.value_norm
            assert full_report(problem, member) == report


# degree 5 with s = 2 and degree 4 with m = 1, where solutions of the nonzero branch lie in the oracle box
@pytest.mark.parametrize(
    "coeffs,m,K,box",
    [
        ((0, 4, 0, -5, 0, 1), 3, 1, 4),  # x(x^2 - 1)(x^2 - 4)
        ((1, 8, 0, -6, 0, 1), 7, Fraction(19, 2), 3),
        ((6, 0, -5, 0, 1), 1, Fraction(5, 2), 3),  # (x^2 - 2)(x^2 - 3)
        ((0, 6, -5, -2, 1), 1, 3, 4),  # x(x - 1)(x + 2)(x - 3)
    ],
)
def test_oracle_equivalence_where_the_nonzero_branch_reaches_the_box(coeffs, m, K, box):
    field, form = QuadraticField(m), BinaryForm(coeffs)
    result = solve_relative(field, form, K, Fraction(1, 2), (2 * field.s - 1) * box)
    found = {q for q in result.quadruples() if max(map(abs, q)) <= box}
    assert found == brute_force(field, form, K, box).quadruples()
    assert any(form.evaluate(q[1], q[3]) for q in found)
    assert result.cross_check_ok


# x^3 - 4xy^2 over m = 1: x = i, y = b pairs the imaginary pair (1, 0) with the real pair (0, b) on the line of the
# root 0, where |F(i, b)| = 1 + 4b^2.  With d = |x2 - 0*y2| = 1 and f'(0)^2 = 16 the derivative test keeps
# b <= b_max, 16*b^4 <= part_cap = K^2: b_max = 1 at K = 5 and 2 at K = 17, where |F| = K.  At K = 1, x = i, y = 0
# has the real pair (0, 0).
@pytest.mark.parametrize("K,quad", [(1, (0, 1, 0, 0)), (5, (0, 1, 1, 0)), (17, (0, 1, 2, 0))])
def test_real_pairs_of_value_zero_are_paired_up_to_b_max(K, quad):
    problem, abs_solutions = branch_input(1, F1, K, 4)
    found = nonzero_value_branch(problem, abs_solutions)
    assert quad in found
    assert found == representatives(problem.field, range_walk_nonzero_branch(problem, abs_solutions))


def test_oracle_equivalence_where_root_line_real_pairs_solve_with_s_2():
    # x^3 - xy^2 over m = 3: in box 3 the nonzero branch has solutions whose real pair (2*x1 + x2, 2*y1 + y2) is
    # (r*b, b) on a root line, at b = 1 and at b = 2
    field, form = QuadraticField(3), BinaryForm((0, -1, 0, 1))
    result = solve_relative(field, form, 8, height=9)
    found = {q for q in result.quadruples() if max(map(abs, q)) <= 3}
    assert found == brute_force(field, form, 8, 3).quadruples()
    heights = {
        abs(2 * y1 + y2)
        for x1, x2, y1, y2 in found
        if form.evaluate(x2, y2) and (2 * x1 + x2) in {r * (2 * y1 + y2) for r in (-1, 0, 1)}
    }
    assert {1, 2} <= heights
    assert result.cross_check_ok


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.integers(-6, 6), min_size=3, max_size=5, unique=True),
    st.sampled_from([1, 2, 3, 7]),
    st.fractions(min_value=1, max_value=1000, max_denominator=3),
    st.integers(1, 12),
)
# b_w = 10: the window of the root 0 at t = 1, |a| <= 25, reaches the span rows (+-2b, b) at b = 11 and 12
@example([-2, 0, 2], 1, Fraction(100), 90)
def test_the_zero_branch_reads_no_span_row(roots, m, K, offset):
    # the reference pairs every row of the expanded listing, span rows included; the branch reads the scanned rows
    form = form_from_roots(roots)
    problem = Problem(QuadraticField(m), form, K)
    b_w = last_window_row(roots, problem.abs_bound)
    abs_solutions = solve_abs(form, problem.abs_bound, b_w + offset, roots=problem.roots)
    assert abs_solutions.span_start == b_w + 1
    reference = representatives(problem.field, root_test_zero_branch(problem, abs_solutions))
    assert zero_value_branch(problem, abs_solutions) == reference


def test_an_integer_root_form_solves_at_any_height_in_the_same_time():
    # x^3 - 4xy^2, m = 1, K = 10: every row past b_w = 3 is a span row, so H = 10^6 costs what H = 100 costs
    field = QuadraticField(1)
    expected = solve_relative(field, F1, 10, height=100).solutions
    start = time.perf_counter()
    result = solve_relative(field, F1, 10, height=10**6)
    seconds = time.perf_counter() - start
    assert len(result.solutions) == 84
    assert result.solutions == expected
    assert seconds < 0.1
