"""The standing mutation table: each entry breaks the package in one place, and its tests must notice.

    python tests/mutants.py              # every entry
    python tests/mutants.py 0 3          # the entries at these indexes

For each entry the runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, replaces the entry's snippet (which must occur exactly once in its file) and runs the
entry's tests there with ``pytest -x``, one process at a time.  Every entry runs with the fixed
``--hypothesis-seed`` ``HYPOTHESIS_SEED`` and an empty example database, so its verdict is the
same on every run, whichever entries ran before it; tier-1 keeps random draws.  An entry is
*killed* when its tests fail or run past ``TIMEOUT_S`` (a mutant can make a loop run forever),
and *survived* when they pass.  An entry whose tests pytest cannot find (exit 4 or 5, a node id
that no longer exists) raises instead of counting as killed; a collection error the mutant
causes (exit 2) is a kill.  Entries with a ``survives`` reason are expected to survive; the
runner exits 1 when any entry ends otherwise than expected, and its last line counts the
outcomes and gives its wall time.  Tier-1 only checks that every snippet is still there once
and that every test an entry names is defined (``test_mutants.py``); running the table takes
minutes.  Add each new mutation here, not to prose.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
HYPOTHESIS_SEED = 0
BISECT = "tests/test_rootbounds.py::test_bisect_ends_at_the_point_of_an_integer_root_or_at_a_unit_node_at_bits"
LOWER_REACHES = "tests/test_rootbounds.py::test_the_lower_floors_reach_a_floor_exactly_when_an_integer_power_does"
EVALUATE = "tests/test_rootbounds.py::test_evaluate_is_the_homogenized_value"


@dataclass(frozen=True)
class Mutant:
    file: str  # under src/relthue
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout root
    survives: str | None = None  # why the mutant is expected to survive


MUTANTS = [
    # reduction branches read only realized values
    # (the imaginary pairs and the real pairs of each are prefixes of one |F|-ordered list per class)
    Mutant("reducer.py", "sizes[: bisect_right(sizes, imag_cap)]", "sizes[: bisect_right(sizes, imag_cap) - 1]",
           ("tests/test_reducer.py::test_nonzero_branch_worked_example",)),
    Mutant("reducer.py", "sizes[: bisect_right(sizes, imag_cap)]",
           "sizes[: __import__('bisect').bisect_left(sizes, imag_cap)]",
           ("tests/test_reducer.py::test_nonzero_branch_worked_example",)),
    Mutant("reducer.py", "pairs[: bisect_right(sizes, real_cap)]", "pairs[: bisect_right(sizes, real_cap) - 1]",
           ("tests/test_reducer.py::test_nonzero_branch_worked_example",)),
    Mutant("reducer.py", "for row in rows if row[2])", "for row in rows)",
           ("tests/test_reducer.py::test_branches_disjoint_by_imag_value",)),
    Mutant("reducer.py", "for a, b, v in aligned if v or not roots]", "for a, b, v in aligned if v]",
           ("tests/test_reducer.py",)),
    # the branches verify one representative per orbit of conjugation and negation; solve_relative expands each
    # solved one and verifies each other member once
    Mutant("reducer.py", "zeros + pairs[: bisect_right(sizes, real_cap)], found)",
           "(zeros + pairs[: bisect_right(sizes, real_cap)]) * (y2 > 0), found)",
           ("tests/test_reducer.py::test_orbits_with_a_representative_on_an_axis_are_found",)),
    Mutant("reducer.py", "if member != quad:", "if y2 > 0:",
           ("tests/test_reducer.py::test_orbits_with_a_representative_on_an_axis_are_found",)),
    Mutant("reducer.py", "for row in rows if row[2])", "for row in rows if row[2] and row[1])",
           ("tests/test_reducer.py::test_orbits_with_a_representative_on_an_axis_are_found",)),
    Mutant("reducer.py", "for member in {conjugate, negated_real, (-x1, -x2, -y1, -y2)}:",
           "for member in {negated_real, (-x1, -x2, -y1, -y2)}:",
           ("tests/test_reducer.py::test_orbits_with_a_representative_on_an_axis_are_found",)),
    Mutant("reducer.py", "for member in {conjugate, negated_real, (-x1, -x2, -y1, -y2)}:",
           "for member in {conjugate, (-x1, -x2, -y1, -y2)}:",
           ("tests/test_reducer.py::test_orbits_with_a_representative_on_an_axis_are_found",)),
    # the root-line real pairs of the nonzero branch end at the derivative test's b_max
    Mutant("reducer.py", "b_max = _poly.iroot(problem.part_cap // (m * slope_sq * (x2 - r * y2) ** 2), exponent)",
           "b_max = _poly.iroot(problem.part_cap // (m * slope_sq * (x2 - r * y2) ** 2), exponent) - 1",
           ("tests/test_reducer.py::test_real_pairs_of_value_zero_are_paired_up_to_b_max",)),
    Mutant("reducer.py", "                zeros += [(r * b, b) for b in range(first, min(height, b_max) + 1, s)]\n",
           "                zeros += []\n",
           ("tests/test_reducer.py::test_real_pairs_of_value_zero_are_paired_up_to_b_max",)),
    Mutant("reducer.py", "zeros = [(0, 0)] if key == (0, 0) else []", "zeros = []",
           ("tests/test_reducer.py::test_real_pairs_of_value_zero_are_paired_up_to_b_max",)),
    Mutant("reducer.py", "height, exponent = abs_solutions.height, 2 * (n - 1)",
           "height, exponent = abs_solutions.height, 2 * n",
           ("tests/test_reducer.py::test_real_pairs_of_value_zero_are_paired_up_to_b_max",)),
    # the oracle seeded once per box
    Mutant("oracle.py", "if sum(order) <= n]", "if 0 < sum(order) <= n]", ("tests/test_oracle.py",)),
    Mutant("oracle.py", "{o: g2 for o, (_, g2) in zip(orders, seeds)}",
           "{o: g2 * any(o) for o, (_, g2) in zip(orders, seeds)}", ("tests/test_oracle.py",)),
    Mutant("oracle.py", "comb(b, l) << (b * side * width) for b in range(side)",
           "comb(b + 1, l) << (b * side * width) for b in range(side)", ("tests/test_oracle.py",)),
    Mutant("oracle.py",
           "        yield planes[0]\n        for i in range(len(planes) - 1):\n            planes[i] += planes[i + 1]\n",
           "        for i in range(len(planes) - 1):\n            planes[i] += planes[i + 1]\n        yield planes[0]\n",
           ("tests/test_oracle.py",)),
    Mutant("oracle.py", "zip(span, _sweep(real_planes, side), _sweep(imag_planes, side))",
           "zip(span, list(_sweep(real_planes, side + 1))[1:], list(_sweep(imag_planes, side + 1))[1:])",
           ("tests/test_oracle.py",)),
    Mutant("oracle.py", "{o: s * g1 + (s - 1) * g2 for o, (g1, g2) in zip(orders, seeds)}",
           "{o: s * g1 for o, (g1, g2) in zip(orders, seeds)}", ("tests/test_oracle.py",)),
    # packed planes: lanes of W bits, a biased value plane, a range filter on the guard bits
    Mutant("oracle.py", "(guard - (bias + radius + 1)) * ones", "(guard - (bias + radius)) * ones",
           ("tests/test_oracle.py::test_cells_on_the_filter_ends_are_kept",)),
    Mutant("oracle.py", "for k in range(n + 1 - i)).bit_length() + 2", "for k in range(n + 1 - i)).bit_length() + 1",
           ("tests/test_oracle.py::test_lanes_hold_every_entry_of_the_list_sweep",)),
    Mutant("oracle.py", "        y_planes[0][0] += bias * ones\n",
           "        y_planes[0][0] += bias * ones\n        y_planes[1][0] += bias * ones\n",
           ("tests/test_oracle.py::test_equals_the_cell_scan_on_workload_forms",)),
    Mutant("abssolver.py", "cap = floor(bound)", "cap = -(-bound // 1)",
           ("tests/test_abssolver.py::test_a_bound_below_one_keeps_only_the_zeros",)),
    Mutant("rootbounds.py", '"norm_cap": K.numerator**2 // K.denominator**2,', '"norm_cap": -(-K * K // 1),',
           ("tests/test_reducer.py",)),
    Mutant("reducer.py", "return norm if norm <= norm_cap else None", "return norm if norm < norm_cap else None",
           ("tests/test_reducer.py::test_oracle_equivalence_small",)),
    # problem setup and predicate reports on integers
    Mutant("rootbounds.py", "return c, c if c**r * den == target else c + 1", "return c, c",
           ("tests/test_rootbounds.py::test_bounds_equal_the_fraction_references",)),
    Mutant("rootbounds.py", '"part_cap": bound_num**2 // K.denominator**2,', '"part_cap": -(-(bound_num**2) // K.denominator**2),',
           ("tests/test_theorem.py::test_bounds_that_are_not_integers_are_decided_by_their_floors",)),
    # one dyadic interval format from the isolation to the window scan
    Mutant("rootbounds.py", "while not left[1] << right[2] < right[0] << left[2]:",
           "while not left[1] << right[2] <= right[0] << left[2]:",
           ("tests/test_rootbounds.py::test_separate_bisects_neighbours_until_strictly_apart",)),
    Mutant("rootbounds.py", "level = max(item[2] for item in items)", "level = bits",
           ("tests/test_rootbounds.py::test_isolate_exact_integer_roots",)),
    # one sign-bisection loop per root: a point comes back unevaluated, a zero of f at hi or at a midpoint is the
    # integer root there, and the loop ends at a unit node at level bits
    Mutant("rootbounds.py", "lo, hi = (lo, mid) if (side > 0) == positive else (mid, hi)",
           "lo, hi = (mid, hi) if (side > 0) == positive else (lo, mid)", (BISECT,)),
    Mutant("rootbounds.py", "        if side == 0:\n            r = mid >> level\n            return r, r, 0\n", "", (BISECT,)),
    Mutant("rootbounds.py", "if anchor == 0:", "if anchor == 0 and False:", (BISECT,)),
    Mutant("rootbounds.py", "r = hi >> level", "r = hi", (BISECT,)),
    Mutant("rootbounds.py", "while hi - lo > 1 or level < bits:", "while hi - lo > 1 or level < bits - 1:", (BISECT,)),
    Mutant("theorem.py", "proportional_applicable=norm_y > proportionality_cap,",
           "proportional_applicable=norm_y >= proportionality_cap,", ("tests/test_theorem.py::test_proportionality_example",)),
    # verification on plain integers, bound-first exits, no final sort
    Mutant("quadfield.py", "((1 + m) // 4, 1)", "((m - 1) // 4, 1)", ("tests/test_quadfield.py",)),
    Mutant("quadfield.py", "u1 * u1 + self.t * u1 * u2 + self.q * u2 * u2", "u1 * u1 + self.q * u2 * u2",
           ("tests/test_quadfield.py::test_norm_keeps_the_cross_term_when_s_is_2",)),
    Mutant("reducer.py", "v1 * x2 + v2 * x1 + t * cross + c * p2", "v1 * x2 + v2 * x1 + c * p2",
           ("tests/test_reducer.py::test_verification_kernel_equals_the_ring_evaluation",)),
    Mutant("reducer.py", "if imag_cap == 0:", "if imag_cap <= 1:",
           ("tests/test_reducer.py::test_nonzero_branch_worked_example",)),
    Mutant("rootbounds.py", "if len(data.integer_roots) == n:", "if any(lo == hi for lo, hi in data.ends):",
           ("tests/test_rootbounds.py::test_stable_constants_refines_only_when_a_root_is_irrational",)),
    Mutant("reducer.py", "classes.setdefault((row[0] % s, row[1] % s), [])", "classes.setdefault((row[0] % s, 0), [])",
           ("tests/test_reducer.py::test_parity_classes_equal_the_division_references",)),
    Mutant("reducer.py", "key = (r * t % s, t % s)", "key = (r * t % s, 0)",
           ("tests/test_reducer.py::test_parity_classes_equal_the_division_references",)),
    Mutant("abssolver.py", "for a, b, value in reversed(positive)]", "for a, b, value in positive]",
           ("tests/test_abssolver.py::test_solutions_come_sorted_by_b_then_a",)),
    Mutant("abssolver.py", "(*[(-a, -b, sign * value) for a, b, value in reversed(positive)], *self.rows",
           "(*self.rows", ("tests/test_abssolver.py::test_small_inequality_frozen_set",)),
    # plain Horner at integer points (b = 1), and the even orders of iroot through isqrt
    Mutant("_poly.py", "if b == 1:", "if b > 0:", (EVALUATE,)),
    Mutant("_poly.py", "            acc = acc * a + c\n", "            acc = (acc + c) * a\n", (EVALUATE,)),
    Mutant("_poly.py", "r // 2", "min(r // 2, 2)",
           ("tests/test_rootbounds.py::test_iroot_is_the_floor_of_the_real_root",)),
    # the basis decided once, and no arithmetic that no input reaches
    Mutant("_poly.py", "x = 1 << ((k.bit_length() + r - 1) // r)", "x = 1 << ((k.bit_length() - 1) // r)",
           ("tests/test_rootbounds.py::test_iroot_is_the_floor_of_the_real_root",)),
    Mutant("abssolver.py", "for a in range(_poly.iroot(cap, n) + 1)]", "for a in range(_poly.iroot(cap, n))]",
           ("tests/test_abssolver.py",)),
    Mutant("abssolver.py", "for a in range(_poly.iroot(cap, n) + 1)]", "for a in range(1, _poly.iroot(cap, n) + 1)]",
           ("tests/test_abssolver.py::test_the_rows_are_one_pair_of_each_negated_pair_from_the_origin",)),
    # per-problem setup on integers: gate floors without Fractions
    Mutant("rootbounds.py", "k_root[side] * e_den << level", "k_root[0] * e_den << level",
           ("tests/test_rootbounds.py::test_integer_gate_floors_equal_the_floors_of_the_fraction_references",)),
    Mutant("rootbounds.py", "gap_numerators[1 - side]", "gap_numerators[side]",
           ("tests/test_rootbounds.py::test_bounds_equal_the_fraction_references",)),
    Mutant("quadfield.py", "chain((2,), range(3, ", "chain((2,), range(5, ",
           ("tests/test_quadfield.py::test_trial_division_by_two_and_odd_d_finds_odd_squares",)),
    # the constants held only as integer pairs, turned into Fractions once for printing
    Mutant("rootbounds.py", "Fraction(_dyadic_root(num, den, 2)[1], 1 << ROOT_PREC_BITS)",
           "Fraction(_dyadic_root(num, den, 2)[0], 1 << ROOT_PREC_BITS)",
           ("tests/test_rootbounds.py::test_thresholds_exact_values",)),
    # the gate certificate: lower floors equal to the upper ones end the refinement at once
    Mutant("rootbounds.py", "num, den = _dyadic_root(num, den, r)[side], 1 << ROOT_PREC_BITS",
           "num, den = _dyadic_root(num, den, r)[1], 1 << ROOT_PREC_BITS",
           ("tests/test_rootbounds.py::test_bounds_equal_the_fraction_references",)),
    Mutant("rootbounds.py",
           "if finer_caps == caps and _lower_reaches(finer, K, epsilon, k_root, field, [cap - 1 for cap in caps]):",
           "if _lower_reaches(finer, K, epsilon, k_root, field, finer_caps):",
           ("tests/test_rootbounds.py::test_without_a_certificate_the_floors_settle_after_one_halving",)),
    # the lower side of both rules takes no root: its floor is at least F exactly when gate^2 >= F or F^r den <= num,
    # tried with F = cap for the certificate and F = cap - 1 for the second rule
    Mutant("rootbounds.py", "F**r * den <= num", "F**r * den < num", (LOWER_REACHES,)),
    Mutant("rootbounds.py", "[cap - 1 for cap in caps]", "[cap for cap in caps]",
           ("tests/test_rootbounds.py::test_without_a_certificate_the_floors_settle_after_one_halving",)),
    # each halving refines the isolation it holds, and settles only floors already close to their lower ones
    Mutant("rootbounds.py", "refine(data, data.level + 1)", "refine(data, ISOLATION_BITS + 1)",
           ("tests/test_rootbounds.py::test_gates_that_still_fall_are_not_reported_settled",)),
    Mutant("rootbounds.py",
           "if finer_caps == caps and _lower_reaches(finer, K, epsilon, k_root, field, [cap - 1 for cap in caps]):",
           "if finer_caps == caps:",
           ("tests/test_rootbounds.py::test_gates_that_still_fall_are_not_reported_settled",)),
    # the validated types check their input in __new__; the chain's end variations come from its leading
    # coefficients; text listings are built without JSON rows
    Mutant("forms.py", "if len(coeffs) < 2:", "if len(coeffs) < 1:",
           ("tests/test_forms.py::test_constructor_rejects_bad_input",)),
    Mutant("forms.py", "if coeffs[-1] == 0:", "if coeffs[-1] is None:",
           ("tests/test_forms.py::test_constructor_rejects_bad_input",)),
    Mutant("quadfield.py", "if m < 1:", "if m < 0:", ("tests/test_cli.py::test_m_is_checked_by_the_field",)),
    Mutant("quadfield.py", "if m > MAX_M:", "if m > MAX_M * MAX_M:",
           ("tests/test_quadfield.py::test_m_is_limited_to_2_pow_63",)),
    Mutant("rootbounds.py", "if K.numerator < K.denominator:", "if K < 0:",
           ("tests/test_rootbounds.py::test_problem_validates_once_at_construction",)),
    Mutant("rootbounds.py", "if not 0 < epsilon.numerator < epsilon.denominator:", "if not (0 < epsilon <= 1):",
           ("tests/test_rootbounds.py::test_problem_validates_once_at_construction",)),
    Mutant("forms.py", "[s if len(p) % 2 else -s for", "[s for",
           ("tests/test_forms.py::test_admissible_pass",)),
    Mutant("cli.py", "if norm >= _TOO_LONG:", "if norm < 0:",
           ("tests/test_cli.py::test_values_too_long_to_print_name_their_input",)),
    # the root-line rows past b_w held as a span when every root is an integer, expanded on read
    Mutant("abssolver.py", "min(height, _poly.iroot(spread[0] // spread[1], n - 1))",
           "min(height, _poly.iroot(spread[0] // spread[1], n - 1) - 1)",
           ("tests/test_abssolver.py::test_forms_with_only_integer_roots_equal_the_window_scan",)),
    Mutant("abssolver.py",
           "span = [(r * b, b, 0) for b in range(self.span_start, self.height + 1) for r in self.span_roots]",
           "span = []",
           ("tests/test_abssolver.py::test_forms_with_only_integer_roots_equal_the_window_scan",)),
    Mutant("abssolver.py", "for r in self.span_roots]", "for r in reversed(self.span_roots)]",
           ("tests/test_abssolver.py::test_forms_with_only_integer_roots_equal_the_window_scan",)),
    Mutant("abssolver.py", "span_start=scanned + 1)", "span_start=scanned)",
           ("tests/test_abssolver.py::test_forms_with_only_integer_roots_equal_the_window_scan",)),
    Mutant("abssolver.py", "(*self.rows[1:], *span)", "(*self.rows[1:], *span[::-1])",
           ("tests/test_abssolver.py::test_forms_with_only_integer_roots_equal_the_window_scan",)),
    Mutant("abssolver.py", "span_roots = roots.integer_roots if len(roots.integer_roots) == n else ()",
           "span_roots = roots.integer_roots if roots.integer_roots else ()",
           ("tests/test_abssolver.py::test_a_form_with_integer_and_irrational_roots_scans_every_row",)),
    # the factor 2 of the spread is slack for the listing (over the solutions of 3,000 random forms where the
    # shrinking bound is the smaller one, |a - rho_j*b| reaches at most 0.48 of it), but it moves b_w, where the span
    # starts
    Mutant("abssolver.py", "spread = 2 ** (n - 1) * bound.numerator", "spread = 2 ** (n - 2) * bound.numerator",
           ("tests/test_abssolver.py::test_the_span_holds_the_root_lines_past_the_last_window",)),
    # an isolation checked once against its form, where it is built, and a caller's refused unless it is the form's
    Mutant("rootbounds.py", "elif lo % unit or _poly.evaluate(f, lo // unit):", "elif False:",
           ("tests/test_abssolver.py::test_roots_of_another_form_put_no_wrong_value_in_the_listing",)),
    Mutant("rootbounds.py", 'raise ValueError(f"roots: an interval without a sign change of {form}")', "pass",
           ("tests/test_abssolver.py::test_an_isolation_of_another_form_is_refused",)),
    Mutant("abssolver.py", "elif roots.form != form:", "elif False:",
           ("tests/test_abssolver.py::test_an_isolation_of_another_form_is_refused",)),
    Mutant("rootbounds.py", "if form.degree < 3:", "if False:",
           ("tests/test_rootbounds.py::test_an_isolation_of_a_form_of_degree_below_three_is_refused",)),
    # an isolation only as fine as each decision needs: the gate certificate from level 8 on, solve_abs refined for
    # its height, the printed enclosures at ISOLATION_BITS, and every interval a node that refine can continue
    Mutant("rootbounds.py", "if width & (width - 1) or lo % width or width > unit:", "if width < 0:",
           ("tests/test_abssolver.py::test_isolations_that_are_not_n_sorted_disjoint_intervals_are_refused",)),
    Mutant("rootbounds.py", "roots, K, n = refine(problem.roots, ISOLATION_BITS), problem.K, problem.form.degree",
           "roots, K, n = problem.roots, problem.K, problem.form.degree",
           ("tests/test_cli.py::test_irrational_constants_match_golden[constants_irrational-extra0]",)),
    Mutant("rootbounds.py", "bits = min(2 * bits, ISOLATION_BITS)", "bits = ISOLATION_BITS",
           ("tests/test_rootbounds.py::test_the_kept_level_and_the_refinements_a_solve_takes",)),
    Mutant("abssolver.py", "roots = refine(roots, height.bit_length() + 4)", "pass",
           ("tests/test_rootbounds.py::test_the_kept_level_and_the_refinements_a_solve_takes",)),
    Mutant("abssolver.py", "height.bit_length() + 4)", "height.bit_length() + 3)",
           ("tests/test_rootbounds.py::test_the_kept_level_and_the_refinements_a_solve_takes",)),
    # one predicate report per orbit, decided for its representative and shared by its members
    Mutant("reducer.py", "report = full_report(problem, quad)",
           "report = next(iter(sol.report for sol in solutions), None) or full_report(problem, quad)",
           ("tests/test_reducer.py::test_each_orbit_is_reported_once_and_every_member_has_its_own_report",)),
    # the zero families held as their roots
    Mutant("reducer.py", "families=problem.roots.integer_roots,", "families=(),",
           ("tests/test_reducer.py::test_reducible_reports_families",)),
    # expected survivors
    Mutant("oracle.py", "min(isqrt(bound // m), bias - 1)", "min(isqrt(bound), bias - 1)", ("tests/test_oracle.py",),
           survives="a looser filter only costs time: every cell that passes it is decided by the exact norm test"),
    Mutant("rootbounds.py", "if num * gate_den > gate_num * den else", "if num * gate_den >= gate_num * den else",
           ("tests/test_rootbounds.py",),
           survives="equivalent: on equality both sides of the comparison are the same value, so every floor and "
           "every printed bound is the same"),
]


def run(mutant: Mutant, work: Path) -> str:
    """'killed', 'timeout' or 'survived' for one mutant, applied in the copy at ``work`` and then undone."""
    path = work / "src" / "relthue" / mutant.file
    original = path.read_text(encoding="utf-8")
    if original.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.file}: the snippet must occur exactly once: {mutant.snippet!r}")
    path.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)  # no example saved by an earlier entry is replayed
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               f"--hypothesis-seed={HYPOTHESIS_SEED}", *mutant.tests]
    try:
        proc = subprocess.run(command, cwd=work, capture_output=True, timeout=TIMEOUT_S)
        if proc.returncode in (4, 5):  # usage error or no tests collected: a stale node id, not a kill
            raise ValueError(f"{mutant.tests}: pytest found no such tests (exit {proc.returncode})")
        return "survived" if proc.returncode == 0 else "killed"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        path.write_text(original, encoding="utf-8")


def main(argv: list[str]) -> int:
    chosen = [int(arg) for arg in argv] or range(len(MUTANTS))
    start, outcomes, unexpected = time.perf_counter(), Counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        for index in chosen:
            mutant = MUTANTS[index]
            outcome = run(mutant, work)
            outcomes[outcome] += 1
            expected = outcome == "survived" if mutant.survives else outcome != "survived"
            unexpected += not expected
            note = f" (expected: {mutant.survives})" if mutant.survives else ""
            print(f"{index:2d} {outcome:8s} {'' if expected else 'UNEXPECTED '}{mutant.file}: "
                  f"{mutant.replacement.strip()!r}{note}", flush=True)
    counts = ", ".join(f"{count} {outcome}" for outcome, count in sorted(outcomes.items()))
    print(f"{len(chosen)} entries: {counts}, {unexpected} unexpected, in {time.perf_counter() - start:.0f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
