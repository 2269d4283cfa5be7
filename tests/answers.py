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

from relthue import BinaryForm, QuadraticField, solve_relative

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
