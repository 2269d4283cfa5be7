"""The answer corpus: a hash of ``solve_relative``'s answer on each problem of ``answers.json``.

    PYTHONPATH=src python tests/answers.py          # rewrite the hashes of the listed problems
    PYTHONPATH=src python tests/answers.py --list   # rebuild the list from the benchmark streams, then hash

``test_answers.py`` recomputes every hash in tier-1, so a change that moves any answer fails there.
Rewrite the file only in a change that moves an answer on purpose, and say why in CHANGES.md.  Each
problem is listed explicitly (coefficients, m, K, epsilon and H); only ``--list`` reads the
benchmark's workload streams, and the test never does.

A hash covers every solution that is not a family member, in solver order, with its quadruple,
value pair, norm and report flags; the family roots (members are never expanded); the search
height; and ``cross_check_ok``.  A solution holds only the norm of its value, so the value pair
F(x, y) = v1 + v2*w is taken from ``QuadraticField.evaluate_form``; the hash keeps the pair, so the
hashes in ``answers.json`` stay valid.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

from relthue import BinaryForm, Problem, QuadraticField, solve_relative
from sweep import CHEBYSHEV, SPLIT_ROOTS, near_integer_forms
from util import form_from_roots

PATH = Path(__file__).with_name("answers.json")
X3_4XY2 = (0, -4, 0, 1)
X3_3XY2_Y3 = (-1, -3, 0, 1)


def answer_hash(problem: dict) -> str:
    field, form = QuadraticField(problem["m"]), BinaryForm(tuple(problem["coeffs"]))
    result = solve_relative(field, form, Fraction(problem["K"]), Fraction(problem["epsilon"]), problem["H"])
    answer = (
        tuple(
            (sol.quadruple, field.evaluate_form(form, sol.quadruple), sol.value_norm, tuple(sol.report))
            for sol in result.solutions
        ),
        result.families,
        result.search_height,
        result.cross_check_ok,
    )
    return hashlib.sha256(repr(answer).encode()).hexdigest()[:16]


def problem_digest(problems: list[dict]) -> str:
    """A hash of the fields ``Problem`` derives for each listed problem, besides ``abs_bound``, which K gives.

    It covers the kept isolation (``roots``, whose repr is its form, level and ends), ``gates_stable``, the three
    caps and ``gate_caps``, so a change that moves any of them on any problem of the corpus moves the hash.
    """
    derived = tuple(
        (problem.roots, problem.gates_stable, problem.norm_cap, problem.part_cap, problem.joint_cap, problem.gate_caps)
        for problem in (
            Problem(QuadraticField(p["m"]), BinaryForm(tuple(p["coeffs"])), Fraction(p["K"]), Fraction(p["epsilon"]))
            for p in problems
        )
    )
    return hashlib.sha256(repr(derived).encode()).hexdigest()[:16]


def listed_problems() -> list[dict]:
    """The corpus problems: the fronts of the seed-0 benchmark streams and the fixed examples."""
    sys.path.insert(0, str(PATH.parent.parent / "bench"))
    import workloads

    def entry(coeffs, m, K, H) -> dict:
        return {"coeffs": list(coeffs), "m": m, "K": str(Fraction(K)), "epsilon": "1/2", "H": H}

    problems = [
        entry(p.coeffs, p.m, p.K, p.height)
        for name, count in (("families", 200), ("grid", 200), ("sporadic", 40), ("check", 150))
        for p in islice(workloads.WORKLOADS[name](0), count)  # a check problem's height is (2s-1)*box
    ]
    problems += [
        entry(X3_3XY2_Y3, 7, 1000, 200),  # the large example: 50,245 solutions
        entry(X3_4XY2, 1, 100, 100),
        entry(X3_4XY2, 1, 10, 10**5),
        *(entry(coeffs, m, Fraction(7, 2), 30) for coeffs in (X3_4XY2, X3_3XY2_Y3) for m in (5, 7)),
    ]
    # degrees 6 and 7 at the stream heights 10, 20 and 2000 and the check shape (2s-1)*7, both ring shapes, integer
    # and rational K: the sextic (x^2 - 1)(x^4 - 3x^2 + 1) of the sweep's first table, 2T_6(x/2), 2T_7(x/2), the
    # split septic with the roots -3, ..., 3 and two forms prod(x - r_i) + delta of each degree
    sextic, septic = (-1, 0, 4, 0, -4, 0, 1), form_from_roots(SPLIT_ROOTS[7][0]).coeffs
    near6, near7 = near_integer_forms(6), near_integer_forms(7)  # [1]: balanced roots, delta -1; [6]: one far, delta 1
    problems += [
        entry(sextic, 1, 10, 20),
        entry(sextic, 3, Fraction(7, 2), 21),
        entry(CHEBYSHEV[6], 7, 10, 2000),
        entry(CHEBYSHEV[6], 2, Fraction(29, 4), 2000),
        entry(near6[1].coeffs, 5, Fraction(7, 2), 10),
        entry(near6[6].coeffs, 3, 10, 10),
        entry(CHEBYSHEV[7], 7, 10, 2000),
        entry(CHEBYSHEV[7], 1, Fraction(7, 2), 20),
        entry(septic, 2, 100, 20),
        entry(septic, 7, Fraction(7, 2), 21),
        entry(near7[1].coeffs, 15, Fraction(29, 4), 10),
        entry(near7[6].coeffs, 1, 10, 10),
    ]
    return problems


def main(argv: list[str]) -> int:
    problems = listed_problems() if "--list" in argv else json.loads(PATH.read_text())["problems"]
    for problem in problems:
        problem["hash"] = answer_hash(problem)
    lines = ",\n".join(json.dumps(problem) for problem in problems)  # one problem a line
    PATH.write_text(f'{{"problems": [\n{lines}\n]}}\n')
    print(f"{len(problems)} problems written to {PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
