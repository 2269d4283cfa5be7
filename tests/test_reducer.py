from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relthue

from relthue import (
    BinaryForm,
    Problem,
    QuadraticField,
    RingElement,
    brute_force,
    solve_abs,
    solve_relative,
)
from relthue.cli import main
from relthue.reducer import imag_value_range, nonzero_value_branch, zero_value_branch
from relthue.theorem import full_report
from util import admissible_forms, form_from_roots, profiled_calls

F1 = BinaryForm((0, -4, 0, 1))
F2 = BinaryForm((0, -2, -1, 1))
F3 = BinaryForm((-1, -3, 0, 1))


def branch_input(m, form, K, height):
    """The problem and the absolute enumeration both branches read, as solve_relative builds them."""
    problem = Problem(QuadraticField(m), form, K)
    return problem, solve_abs(form, problem.abs_bound, height, roots=problem.roots)


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
    assert problem.integer_roots == (-2, 0, 2)
    for quad in found:
        x1, x2, y1, y2 = quad
        # reconstruction parity: a = 2*x1 + x2 and b = 2*y1 + y2 are integers by construction
        assert field.norm(field.evaluate_form(F1, RingElement(x1, x2), RingElement(y1, y2))) <= 1
    # the (a,b)=(8,4) member over (x2,y2)=(0,0) is in the family of root 2, not in the branch output
    assert (4, 0, 2, 0) not in found
    assert (4, 0, 2, 0) in solve_relative(field, F1, 1, Fraction(1, 2), 6).quadruples()


def test_nonzero_branch_worked_example():
    # x = w, y = 0: imag value 1 realized by (1, 0), real pair (1, 0), x1 = 0
    problem, abs_solutions = branch_input(3, F1, 1, 6)
    field = problem.field
    found = nonzero_value_branch(problem, abs_solutions)
    assert (0, 1, 0, 0) in found
    for quad in found:
        x = RingElement(quad[0], quad[1])
        y = RingElement(quad[2], quad[3])
        assert F1.evaluate(x.u2, y.u2) != 0
        assert field.norm(field.evaluate_form(F1, x, y)) <= 1


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


def test_all_emitted_solutions_verified():
    field = QuadraticField(3)
    result = solve_relative(field, F1, Fraction(3, 2), Fraction(1, 2), 8)
    for sol in result.solutions:
        assert sol.value == field.evaluate_form(F1, sol.x, sol.y)
        assert sol.value_norm <= Fraction(3, 2) ** 2
        assert sol.report.ok


def test_large_m_forces_zero_imag_coords():
    field = QuadraticField(163)
    result = solve_relative(field, F3, 1, Fraction(1, 2), 20)
    assert all(q[1] == 0 and q[3] == 0 for q in result.quadruples())
    embedded = {(q[0], q[2]) for q in result.quadruples()}
    assert embedded == set(solve_abs(F3, 1, 10).pairs())
    assert result.families == ()  # irreducible: no zero families


def test_reducible_reports_families():
    result = solve_relative(QuadraticField(7), F1, 1, Fraction(1, 2), 5)
    assert [f.root for f in result.families] == [-2, 0, 2]
    assert result.search_height == 5


def test_sort_order_and_uniqueness():
    field = QuadraticField(3)
    result = solve_relative(field, F1, 1, Fraction(1, 2), 6)
    keys = [
        (field.norm(sol.y), sol.y.u1, sol.y.u2, sol.x.u1, sol.x.u2)
        for sol in result.solutions
    ]
    assert keys == sorted(keys)
    quads = [s.quadruple for s in result.solutions]
    assert len(quads) == len(set(quads))


@pytest.mark.parametrize("m", [1, 3])
def test_oracle_equivalence_quartic_with_integer_roots(m):
    form = BinaryForm((0, 6, -5, -2, 1))  # x(x-1)(x+2)(x-3) = x^4-2x^3-5x^2+6x
    field = QuadraticField(m)
    result = solve_relative(field, form, 1, Fraction(1, 2), 8)
    oracle = brute_force(field, form, 1, 2)
    box = {q for q in result.quadruples() if max(abs(c) for c in q) <= 2}
    assert box == oracle.quadruples()
    assert [f.root for f in result.families] == [-2, 0, 1, 3]


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


def test_s1_reconstruction_degenerates():
    # for s = 1 the real pair is (x1, y1) itself: solutions embed absolute pairs directly
    field = QuadraticField(2)
    result = solve_relative(field, F1, 1, Fraction(1, 2), 8)
    abs_pairs = set(solve_abs(F1, 1, 8).pairs())
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
    assert calls["theorem", "full_report"] == len(result.solutions)
    # one norm(F(x, y)) per verified candidate, reused by its solution, and one norm(y) per report
    assert calls["quadfield", "norm"] == calls["reducer", "_verify"] + len(result.solutions)


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
    roots = [f.root for f in result.families]
    s = field.s
    for x1, x2, y1, y2 in members:
        x, y = RingElement(x1, x2), RingElement(y1, y2)
        assert any(x1 == r * y1 and x2 == r * y2 for r in roots)
        assert abs(y2) <= height and abs(s * y1 + (s - 1) * y2) <= height
        assert field.evaluate_form(form, x, y).is_zero
        assert full_report(problem, x, y).ok
