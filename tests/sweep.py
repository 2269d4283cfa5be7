"""A deterministic sweep of small monic forms against the oracle: every case of a fixed table, every run.

    PYTHONPATH=src python tests/sweep.py          # degrees 3 to 7
    PYTHONPATH=src python tests/sweep.py 3        # the cubics alone

The first table holds every admissible monic form of degree 3, 4 or 5 whose other coefficients lie
in [-3, 3] (87 cubics, 114 quartics and 58 quintics), and of degree 6 whose other coefficients lie
in [-4, 4] (103 sextics, none in [-2, 2]; enumerating the 9^6 candidates takes about 20 s), each
with every squarefree m <= 31 (both ring shapes) and every K in {1, 7/2, 10, 1 + 10^-9, 4 - 10^-9,
4 + 10^-9, 10 - 10^-9, 10 + 10^-9}, at epsilon 1/2.  The second holds forms prod(x - r_i) + delta
with the r_i integers at least 3 apart, |prod r_i| near 10^12 and delta in {-7, -1, 1, 7} (16
cubics, 12 quartics, 8 quintics, 8 sextics and 8 septics): no integer root, and each root about
|delta / f'(r_i)| from an integer, the shape where an isolation's nodes end next to a root.  Each
runs with the same m, four squarefree m near 10^9 and 10^10 besides, and the same K.  The third
holds fixed forms with the same m and K: 2T_n(x/2) for n = 6 and 7, x^6 - 6x^4 + 9x^2 - 2 and
x^7 - 7x^5 + 14x^3 - 7x, whose roots 2cos((2k - 1)pi/2n) are irrational except 0 at n = 7, and two
split septics.  Every sextic of the first table has an integer root, so the irrational nodes at degrees
6 and 7 come from the second and third.  The K a billionth off an integer are
where ``Problem``'s integer floors of K^2, (s^n K)^2 and (s^n K)^4 decide: at K = 4 - 10^-9, for
instance, floor(K^2) = 15.  To every degree and K each table adds, for each ring shape, the
squarefree m on both sides of m^n = (s^n K)^2, the largest m whose part bound still admits an
imaginary value F(x2, y2) != 0 and the least that admits none (``part_bound_ms``); for the K here
those m are <= 31, so they are in the tables already.  A case runs ``solve_relative`` at height
H = (2s-1)*box, which reaches every solution with all four coordinates in [-box, box], and compares
its solutions in that box with ``brute_force`` on it; it also requires ``cross_check_ok``, which holds
only when each solution's predicate report agrees with its verified value.  The box is 3 for the
cubics and 2 otherwise.  Each mismatch is printed as it is found, and the last line counts the
cases and the mismatches and gives the wall time; the runner exits 1 when any case mismatches.
A mismatch is a defect of the solver or of the oracle: no case is dropped or re-picked to hide one.
Tier-1 runs a slice of the first two tables at degree 3 (``test_oracle_sweep_of_the_small_monic_cubics``
and ``test_oracle_sweep_of_the_cubics_with_roots_next_to_integers``), one of the K a billionth off
an integer (``test_oracle_sweep_where_the_integer_floors_of_K_decide``) and one of the last two
tables at degrees 6 and 7 (``test_oracle_sweep_of_the_sextics_and_septics``); the whole sweep takes
several minutes.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from itertools import count, product
from math import floor

from relthue import BinaryForm, QuadraticField, brute_force, check_admissible, solve_relative
from util import form_from_roots

COEFFS = {3: range(-3, 4), 4: range(-3, 4), 5: range(-3, 4), 6: range(-4, 5)}  # no septic table: 9^7 candidates
BOXES = {3: 3, 4: 2, 5: 2, 6: 2, 7: 2}
SQUAREFREE_M = [m for m in range(1, 32) if all(m % (d * d) for d in range(2, 6))]
KS = (Fraction(1), Fraction(7, 2), Fraction(10))
FLOOR_KS = tuple(Fraction(k) + Fraction(sign, 10**9) for k, sign in ((1, 1), (4, -1), (4, 1), (10, -1), (10, 1)))
EPSILON = Fraction(1, 2)
# integer roots at least 3 apart with |prod r_i| near 10^12: balanced, one root far out, or two far apart
NEAR_INTEGER_ROOTS = {
    3: ((-10007, 9973, 10009), (-1000003, -997, 1009), (-5, 7, 28571428571), (1, 4, 250000000000)),
    4: ((-1009, -997, 991, 1013), (-31, 29, 1000, 1111111), (-3, 3, 9, 12345679012)),
    5: ((-257, -101, 97, 251, 1601), (-7, -3, 2, 11, 2164502164)),
    6: ((-307, -293, -11, 13, 283, 311), (-5, -2, 1, 4, 7, 3571428571)),
    7: ((-263, -131, -17, 3, 19, 127, 251), (-7, -4, -1, 2, 5, 8, 446428571)),
}
DELTAS = (-7, -1, 1, 7)
LARGE_M = [999_999_929, 999_999_937, 9_999_999_943, 9_999_999_967]  # two of each ring shape
CHEBYSHEV = {6: (-2, 0, 9, 0, -6, 0, 1), 7: (0, -7, 0, 14, 0, -7, 0, 1)}  # 2T_n(x/2)
SPLIT_ROOTS = {7: ((-3, -2, -1, 0, 1, 2, 3), (-9, -5, -2, 0, 1, 4, 8))}


def forms(degree: int) -> list[BinaryForm]:
    """Every admissible monic form of ``degree`` with its other coefficients in ``COEFFS``; none if it has no range."""
    candidates = (BinaryForm((*coeffs, 1)) for coeffs in product(COEFFS.get(degree, ()), repeat=degree))
    return [form for form in candidates if check_admissible(form).ok]


def near_integer_forms(degree: int) -> list[BinaryForm]:
    """prod(x - r_i) + delta for each root set of ``degree`` and each delta: every one admissible, none split.

    Between neighbouring r_i the product reaches at least 1.5 * 1.5 * 4.5 > 7 in absolute value with
    alternating signs, so adding delta keeps n real roots; f(r_i) = delta, and at any other integer the
    distances to the r_i are at least 1, 2 and 4, so no integer is a root.
    """
    return [
        BinaryForm((form.coeffs[0] + delta, *form.coeffs[1:]))
        for form, delta in product(map(form_from_roots, NEAR_INTEGER_ROOTS[degree]), DELTAS)
    ]


def fixed_forms(degree: int) -> list[BinaryForm]:
    """2T_n(x/2) and the split forms of ``SPLIT_ROOTS``, for the degrees that list them."""
    table = [BinaryForm(CHEBYSHEV[degree])] if degree in CHEBYSHEV else []
    return [*table, *map(form_from_roots, SPLIT_ROOTS.get(degree, ()))]


def part_bound_ms(degree: int, K: Fraction) -> list[int]:
    """For each ring shape s, the largest squarefree m with m^n <= floor((s^n K)^2) and the least above it.

    The part bound admits an imaginary value v != 0 exactly when v^2 * m^n <= floor((s^n K)^2) holds for v = 1.
    s = 2 when m = 3 mod 4, else s = 1.
    """
    ms = []
    for s in (1, 2):
        cap, last = floor((s**degree * K) ** 2), None
        for m in count(3 if s == 2 else 1):
            if (m % 4 == 3) != (s == 2) or any(m % (d * d) == 0 for d in range(2, m)):
                continue
            if m**degree > cap:
                ms += [m] if last is None else [last, m]
                break
            last = m
    return ms


TABLES = {
    "small coefficients": (forms, SQUAREFREE_M),
    "roots next to integers": (near_integer_forms, SQUAREFREE_M + LARGE_M),
    "fixed forms": (fixed_forms, SQUAREFREE_M),
}


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
    for (name, (build, ms)), degree in product(TABLES.items(), degrees):
        box, table = BOXES[degree], build(degree)
        if not table:
            continue
        began, before, cases_before = time.perf_counter(), mismatches, cases
        for K in KS + FLOOR_KS:
            for form, m in product(table, sorted({*ms, *part_bound_ms(degree, K)})):
                cases += 1
                if (why := mismatch(form, m, K, box)) is not None:
                    mismatches += 1
                    print(f"MISMATCH coeffs={form.coeffs} m={m} K={K} box={box}: {why}", flush=True)
        print(f"{name}, degree {degree}: {len(table)} forms, {len(KS + FLOOR_KS)} K = {cases - cases_before} cases "
              f"at box {box}, {mismatches - before} mismatches, in {time.perf_counter() - began:.0f} s", flush=True)
    print(f"{cases} cases: {mismatches} mismatches, in {time.perf_counter() - start:.0f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
