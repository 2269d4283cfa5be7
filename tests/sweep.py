"""A deterministic sweep of small monic forms against the oracle: every case of a fixed table, every run.

    PYTHONPATH=src python tests/sweep.py          # degrees 3, 4 and 5
    PYTHONPATH=src python tests/sweep.py 3        # the cubics alone

The table holds every admissible monic form of degree 3, 4 or 5 whose other coefficients lie in
[-3, 3] (87 cubics, 114 quartics and 58 quintics), each with every squarefree m <= 31 (both ring
shapes) and every K in {1, 7/2, 10}, at epsilon 1/2.  A case runs ``solve_relative`` at height
H = (2s-1)*box, which reaches every solution with all four coordinates in [-box, box], and compares
its solutions in that box with ``brute_force`` on it; it also requires ``cross_check_ok``, which holds
only when each solution's predicate report agrees with its verified value.  The box is 3 for the
cubics and 2 otherwise.  Each mismatch is printed as it is found, and the last line counts the
cases and the mismatches and gives the wall time; the runner exits 1 when any case mismatches.
A mismatch is a defect of the solver or of the oracle: no case is dropped or re-picked to hide one.
Tier-1 runs a slice of this table (``test_oracle_sweep_of_the_small_monic_cubics``); the whole of
it takes about a minute.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from itertools import product

from relthue import BinaryForm, QuadraticField, brute_force, check_admissible, solve_relative

COEFFS = range(-3, 4)
BOXES = {3: 3, 4: 2, 5: 2}
SQUAREFREE_M = [m for m in range(1, 32) if all(m % (d * d) for d in range(2, 6))]
KS = (Fraction(1), Fraction(7, 2), Fraction(10))
EPSILON = Fraction(1, 2)


def forms(degree: int) -> list[BinaryForm]:
    """Every admissible monic form of ``degree`` with its other coefficients in ``COEFFS``."""
    candidates = (BinaryForm((*coeffs, 1)) for coeffs in product(COEFFS, repeat=degree))
    return [form for form in candidates if check_admissible(form).ok]


def mismatch(form: BinaryForm, m: int, K: Fraction, box: int) -> str | None:
    """Why the solver's answer in the box differs from the oracle's, or None when it does not."""
    field = QuadraticField(m)
    result = solve_relative(field, form, K, EPSILON, (2 * field.s - 1) * box)
    found = {q for q in result.quadruples() if max(map(abs, q)) <= box}
    oracle = brute_force(field, form, K, box).quadruples()
    if found != oracle:
        return f"{len(found - oracle)} extra, {len(oracle - found)} missing"
    return None if result.cross_check_ok else "cross_check_ok is False"


def main(argv: list[str]) -> int:
    degrees = [int(arg) for arg in argv] or sorted(BOXES)
    start, cases, mismatches = time.perf_counter(), 0, 0
    for degree in degrees:
        box, table = BOXES[degree], forms(degree)
        began, before = time.perf_counter(), mismatches
        for form, m, K in product(table, SQUAREFREE_M, KS):
            if (why := mismatch(form, m, K, box)) is not None:
                mismatches += 1
                print(f"MISMATCH coeffs={form.coeffs} m={m} K={K} box={box}: {why}", flush=True)
        count = len(table) * len(SQUAREFREE_M) * len(KS)
        cases += count
        print(f"degree {degree}: {len(table)} forms x {len(SQUAREFREE_M)} m x {len(KS)} K = {count} cases "
              f"at box {box}, {mismatches - before} mismatches, in {time.perf_counter() - began:.0f} s", flush=True)
    print(f"{cases} cases: {mismatches} mismatches, in {time.perf_counter() - start:.0f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
