"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
All tolerances are pinned here; every expected value is either hand-checkable
exact arithmetic or produced by an independent oracle (full-box or
full-rectangle scans).
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from relthue import (
    BinaryForm,
    Problem,
    QuadraticField,
    brute_force,
    check_admissible,
    full_report,
    solve_abs,
    solve_relative,
)
from relthue.rootbounds import isolate_roots, refine
from util import constants, form_from_roots, gaps, imag_part_sq, imag_value_range, mul, real_part_sq, rectangle_solutions

FORMS = {
    "x^3-4xy^2": BinaryForm((0, -4, 0, 1)),
    "x^3-x^2y-2xy^2": BinaryForm((0, -2, -1, 1)),
    "x^3-3xy^2-y^3": BinaryForm((-1, -3, 0, 1)),
}
M_VALUES = (1, 2, 3, 7)
K_VALUES = (1, 10)
YMAX = 20
BOX = 4
EPS = Fraction(1, 2)


def _report(number: int, ok: bool, message: str) -> None:
    line = f"ACCEPTANCE criterion {number}: {'PASS' if ok else 'FAIL'} - {message}"
    print(line)
    assert ok, line


@dataclass(frozen=True)
class Instance:
    name: str
    form: BinaryForm
    field: QuadraticField
    K: int
    solved: object
    oracle: object
    problem: Problem


@pytest.fixture(scope="module")
def instances():
    built = []
    for (name, form), m, K in itertools.product(FORMS.items(), M_VALUES, K_VALUES):
        field = QuadraticField(m)
        solved = solve_relative(field, form, K, EPS, YMAX)
        oracle = brute_force(field, form, K, BOX)
        built.append(Instance(name, form, field, K, solved, oracle, Problem(field, form, K, EPS)))
    return built


def test_criterion_1_oracle_equivalence(instances):
    checked = 0
    for inst in instances:
        box = {q for q in inst.solved.quadruples() if max(abs(c) for c in q) <= BOX}
        assert box == inst.oracle.quadruples(), (inst.name, inst.field.m, inst.K)
        checked += 1
    _report(1, checked == 24, f"solve == oracle on [-4,4]^4 for all {checked} instances, exact set equality")


def test_criterion_2_predicate_soundness(instances):
    rng = random.Random(20260809)
    checked = 0
    for inst in instances:
        for quad, _ in inst.oracle.solutions:
            report = full_report(inst.problem, quad)
            assert report.ok, (inst.name, inst.field.m, inst.K, quad)
            checked += 1
    oracle_count = checked

    sampled = 0
    height = 10
    rounds = 0
    while sampled < 1000 and rounds < 60:
        rounds += 1
        for inst in instances:
            hits = 0
            tries = 0
            K_sq = Fraction(inst.K) ** 2
            while hits < 12 and tries < 3000 and sampled < 1000:
                tries += 1
                quad = tuple(rng.randint(-height, height) for _ in range(4))
                if inst.field.norm(*inst.field.evaluate_form(inst.form, quad)) > K_sq:
                    continue
                hits += 1
                sampled += 1
                report = full_report(inst.problem, quad)
                assert report.ok, (inst.name, inst.field.m, inst.K, (x, y))
    assert sampled >= 1000, f"rejection sampling found only {sampled} solutions"
    _report(2, True, f"predicates pass on {oracle_count} oracle solutions + {sampled} sampled solutions, zero violations")


def test_criterion_3_constants_reproduction():
    data = isolate_roots(BinaryForm((0, -4, 0, 1)))
    gap_lower, gap_upper, product_lower, product_upper = gaps(data)
    _, coeff_upper, _, gate_upper = constants(data, 1, Fraction(1, 2))
    ok = (
        gap_lower <= 2 <= gap_upper
        and product_lower <= 4 <= product_upper
        and 1 <= coeff_upper <= 1 + Fraction(1, 2**30)
        and 1 <= gate_upper <= 1 + Fraction(1, 2**30)
    )
    _report(3, ok, "A encloses 2, B encloses 4, C_upper and G_upper within [1, 1+2^-30] at default precision")


def test_criterion_4_imag_value_range():
    form = FORMS["x^3-4xy^2"]
    ok = (
        imag_value_range(Problem(QuadraticField(3), form, 1)) == [-1, 0, 1]
        and imag_value_range(Problem(QuadraticField(163), form, 1)) == [0]
        and imag_value_range(Problem(QuadraticField(2), form, 1)) == [0]
    )
    _report(4, ok, "value range {-1,0,1} for m=3, {0} for m=163, {0} for m=2 (n=3, K=1)")


def test_criterion_5_large_m_reduction():
    form = FORMS["x^3-3xy^2-y^3"]
    field = QuadraticField(163)
    result = solve_relative(field, form, 1, EPS, YMAX)
    zero_imag = all(q[1] == 0 and q[3] == 0 for q in result.quadruples())
    embedded = {(q[0], q[2]) for q in result.quadruples()}
    matches = embedded == {(a, b) for a, b, _ in solve_abs(form, 1, YMAX // 2).solutions}
    _report(5, zero_imag and matches, f"m=163: all {len(embedded)} solutions have x2=y2=0 and equal the absolute solution set over Z")


def test_criterion_6_norm_and_am_gm():
    rng = random.Random(424242)
    pairs_per_field = 10_000
    for m in (1, 2, 3, 7, 11):
        field = QuadraticField(m)
        for _ in range(pairs_per_field):
            z = (rng.randint(-200, 200), rng.randint(-200, 200))
            w = (rng.randint(-200, 200), rng.randint(-200, 200))
            assert field.norm(*mul(field, z, w)) == field.norm(*z) * field.norm(*w)
            re_sq, im_sq = real_part_sq(field, z), imag_part_sq(field, z)
            assert re_sq * im_sq <= Fraction(field.norm(*z), 2) ** 2
    _report(6, True, "norm multiplicativity and AM-GM: 10^4 random pairs per m in {1,2,3,7,11}, zero failures")


def _random_admissible_forms(rng: random.Random, count: int):
    forms = []
    while len(forms) < 12:
        degree = rng.choice((3, 4))
        roots = rng.sample(range(-5, 6), degree)
        forms.append(form_from_roots(roots))
    attempts = 0
    while len(forms) < count and attempts < 4000:
        attempts += 1
        degree = rng.choice((3, 4))
        coeffs = tuple(rng.randint(-6, 6) for _ in range(degree)) + (1,)
        form = BinaryForm(coeffs)
        if check_admissible(form).ok:
            forms.append(form)
    k = 2
    while len(forms) < count:  # deterministic admissible fallback: x^3 - kx - 1
        forms.append(BinaryForm((-1, -k, 0, 1)))
        k += 1
    return forms


def test_criterion_7_abs_completeness_in_box():
    rng = random.Random(777)
    forms = _random_admissible_forms(rng, 20)
    assert len(forms) == 20
    for form in forms:
        bound = Fraction(rng.randint(1, 50))
        ymax = rng.randint(5, 30)
        got = {(a, b) for a, b, _ in solve_abs(form, bound, ymax).solutions}
        want = rectangle_solutions(form, bound, ymax)
        assert got == want, (form.coeffs, bound, ymax)
    _report(7, True, "solve_abs equals full-rectangle brute force for 20 random admissible forms (K' <= 50, Y_max <= 30)")


def test_criterion_8_precision_monotonicity():
    for name, form in FORMS.items():
        bits = 16
        data = isolate_roots(form, bits)
        consts = constants(data, 1, EPS)
        for _ in range(8):
            bits += 1
            finer = refine(data, bits)
            finer_consts = constants(finer, 1, EPS)
            assert gaps(finer)[0] >= gaps(data)[0], name
            assert gaps(finer)[2] >= gaps(data)[2], name
            assert finer_consts[1] <= consts[1], name  # approx_coeff upper
            assert finer_consts[3] <= consts[3], name  # gate upper
            data, consts = finer, finer_consts
    _report(8, True, "halving the isolation width never hurts any enclosure across the criterion-1 forms")
