"""Command-line front end: problem files in, canonical (optionally JSON) listings out.

Problem files are UTF-8 ``key = value`` lines; ``#`` starts a comment:

    coeffs = 0 -4 0 1        # ascending: coeffs[k] multiplies x^k y^(n-k)
    m = 3
    K = 1                    # rational, e.g. 3/2
    epsilon = 1/2            # optional, default 1/2
    ymax = 20                # optional enumeration height, default 100
    oracle_height = 4        # optional box half-width, default 4

Exit status: 0 success (all cross-checks pass), 1 usage/validation error,
2 cross-check discrepancy.  Identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from .abssolver import solve_abs
from .forms import BinaryForm
from .oracle import brute_force
from .quadfield import QuadraticField, RingElement
from .reducer import RelativeSolutionSet, solve_relative
from .rootbounds import Problem
from .theorem import full_report


class CliError(Exception):
    """Usage or validation failure; maps to exit status 1."""


@dataclass
class ProblemSpec:
    """A parsed problem file; the field and the form are built, and so validated, once."""

    field: QuadraticField
    form: BinaryForm
    K: Fraction
    epsilon: Fraction = Fraction(1, 2)
    ymax: int = 100
    oracle_height: int = 4


def _parse_rational(text: str, label: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"{label}: not a rational number: {text!r}") from exc


def _parse_int(text: str, label: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise CliError(f"{label}: not an integer: {text!r}") from exc


# Optional field -> (the flag that overrides it, parser, test, the rule the test
# states).  A field and its flag pass the same entry; errors name whichever was given.
OPTIONAL = {
    "epsilon": ("--epsilon", _parse_rational, lambda v: 0 < v < 1, "must lie strictly between 0 and 1"),
    "ymax": ("--ymax", _parse_int, lambda v: v >= 0, "must be nonnegative"),
    "oracle_height": ("--height", _parse_int, lambda v: v >= 0, "must be nonnegative"),
}


def _optional(key: str, text: str, label: str):
    _, parse, holds, rule = OPTIONAL[key]
    value = parse(text, label)
    if not holds(value):
        raise CliError(f"{label}: {rule}")
    return value


def parse_problem_text(text: str) -> ProblemSpec:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise CliError(f"line {lineno}: duplicate field '{key}'")
        values[key] = value.strip()
    known = {"coeffs", "m", "K", "epsilon", "ymax", "oracle_height"}
    for key in values:
        if key not in known:
            raise CliError(f"unknown field '{key}' (known: {', '.join(sorted(known))})")
    for required in ("coeffs", "m", "K"):
        if required not in values:
            raise CliError(f"missing required field '{required}'")
    try:
        coeffs = tuple(int(tok) for tok in values["coeffs"].split())
    except ValueError as exc:
        raise CliError(f"field 'coeffs': expected integers, got {values['coeffs']!r}") from exc
    if len(coeffs) < 2:
        raise CliError("field 'coeffs': need at least two coefficients (ascending order)")
    m = _parse_int(values["m"], "field 'm'")
    K = _parse_rational(values["K"], "field 'K'")
    optional = {key: _optional(key, values[key], f"field '{key}'") for key in OPTIONAL if key in values}
    if m < 1:
        raise CliError("field 'm': must be a positive integer")
    try:
        field = QuadraticField(m)
    except ValueError as exc:
        raise CliError(f"field 'm': {exc}") from exc
    try:
        form = BinaryForm(coeffs)
    except ValueError as exc:
        raise CliError(f"field 'coeffs': {exc}") from exc
    if K < 1:
        raise CliError("field 'K': must be >= 1")
    return ProblemSpec(field, form, K, **optional)


def load_problem(path: str) -> ProblemSpec:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read problem file {path!r}: {exc}") from exc
    return parse_problem_text(text)


def _load(args) -> ProblemSpec:
    """The problem file with each override flag the command was given in place of its field."""
    spec = load_problem(args.problem)
    overrides = {
        key: _optional(key, getattr(args, key), flag)
        for key, (flag, *_) in OPTIONAL.items()
        if getattr(args, key, None) is not None
    }
    return replace(spec, **overrides)


def _frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def decimal_str(x: Fraction, digits: int = 10) -> str:
    """Truncated fixed-point decimal rendering of an exact rational."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    x = abs(x)
    whole, rest = divmod(x.numerator, x.denominator)
    frac = (rest * 10**digits) // x.denominator
    return f"{sign}{whole}.{frac:0{digits}d}"


def _solution_rows(result: RelativeSolutionSet) -> list[dict]:
    """One row per solution within reach, family members (norm 0) included, in the solver sort order."""
    field = result.field
    rows = [(s.report.norm_y, s.quadruple, s.value_norm) for s in result.solutions]
    rows += [(field.norm(RingElement(q[2], q[3])), q, 0) for q in result.family_members()]
    rows.sort(key=lambda row: (row[0], row[1][2], row[1][3], row[1][0], row[1][1]))
    return [{"x1": q[0], "x2": q[1], "y1": q[2], "y2": q[3], "norm": nv} for _, q, nv in rows]


def _family_rows(result: RelativeSolutionSet) -> list[dict]:
    return [
        {"root": f.root, "x_step": [f.root, 0], "y_step": [1, 0]}
        for f in result.families
    ]


def solve_payload(spec: ProblemSpec, result: RelativeSolutionSet) -> dict:
    return {
        "command": "solve",
        "coeffs": list(spec.form.coeffs),
        "m": spec.field.m,
        "s": spec.field.s,
        "K": _frac_str(spec.K),
        "epsilon": _frac_str(spec.epsilon),
        "ymax": result.search_height,
        "solutions": _solution_rows(result),
        "families": _family_rows(result),
        "cross_check_ok": result.cross_check_ok,
    }


def oracle_payload(spec: ProblemSpec, height: int, result) -> dict:
    return {
        "command": "oracle",
        "coeffs": list(spec.form.coeffs),
        "m": spec.field.m,
        "K": _frac_str(spec.K),
        "height": height,
        "solutions": [
            {"x1": q[0], "x2": q[1], "y1": q[2], "y2": q[3], "norm": nv}
            for q, nv in result.solutions
        ],
    }


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _solution_lines(rows: list[dict]) -> list[str]:
    return [f"{r['x1']} {r['x2']} {r['y1']} {r['y2']} {r['norm']}" for r in rows]


def cmd_solve(args) -> int:
    spec = _load(args)
    result = solve_relative(spec.field, spec.form, spec.K, spec.epsilon, spec.ymax)
    payload = solve_payload(spec, result)
    lines = [
        f"form {spec.form}",
        f"m {spec.field.m} (s={spec.field.s})",
        f"K {_frac_str(spec.K)}",
        f"ymax {spec.ymax}",
        f"solutions {len(payload['solutions'])}",
        *_solution_lines(payload["solutions"]),
    ]
    if args.families:
        lines.append(f"families {len(result.families)}")
        for fam in result.families:
            lines.append(f"family root={fam.root} x_step=({fam.root},0) y_step=(1,0)")
    lines.append("cross-check ok" if result.cross_check_ok else "cross-check FAILED")
    _emit(args, payload, lines)
    return 0 if result.cross_check_ok else 2


def cmd_oracle(args) -> int:
    spec = _load(args)
    result = brute_force(spec.field, spec.form, spec.K, spec.oracle_height)
    payload = oracle_payload(spec, spec.oracle_height, result)
    lines = [
        f"form {spec.form}",
        f"m {spec.field.m} (s={spec.field.s})",
        f"K {_frac_str(spec.K)}",
        f"height {spec.oracle_height}",
        f"solutions {len(result.solutions)}",
        *_solution_lines(payload["solutions"]),
    ]
    _emit(args, payload, lines)
    return 0


def cmd_abs(args) -> int:
    try:
        coeffs = tuple(int(tok) for tok in args.coeffs.split())
    except ValueError as exc:
        raise CliError(f"--coeffs: expected integers, got {args.coeffs!r}") from exc
    try:
        form = BinaryForm(coeffs)
    except ValueError as exc:
        raise CliError(f"--coeffs: {exc}") from exc
    bound = _parse_rational(args.kprime, "--kprime")
    if bound < 0:
        raise CliError("--kprime: must be nonnegative")
    if args.ymax < 0:
        raise CliError("--ymax: must be nonnegative")
    result = solve_abs(form, bound, args.ymax)  # an inadmissible form raises InadmissibleFormError
    payload = {
        "command": "abs",
        "coeffs": list(coeffs),
        "bound": _frac_str(result.bound),
        "ymax": result.height,
        "complete_within_height": True,
        "solutions": [[a, b, v] for a, b, v in result.solutions],
    }
    lines = [
        f"form {form}",
        f"bound {_frac_str(result.bound)}",
        f"ymax {result.height}",
        f"solutions {len(result.solutions)}",
        *[f"{a} {b} {v}" for a, b, v in result.solutions],
    ]
    _emit(args, payload, lines)
    return 0


def cmd_constants(args) -> int:
    spec = _load(args)
    problem = Problem(spec.field, spec.form, spec.K, spec.epsilon)
    roots, consts, gates = problem.roots, problem.consts, problem.gates
    disp = gates.display()
    payload = {
        "command": "constants",
        "coeffs": list(spec.form.coeffs),
        "m": spec.field.m,
        "degree": problem.form.degree,
        "K": _frac_str(problem.K),
        "epsilon": _frac_str(problem.epsilon),
        "min_gap": [_frac_str(roots.min_gap_lower), _frac_str(roots.min_gap_upper)],
        "gap_product": [_frac_str(roots.gap_product_lower), _frac_str(roots.gap_product_upper)],
        "approx_coeff": [_frac_str(consts.approx_coeff_lower), _frac_str(consts.approx_coeff_upper)],
        "gate": [_frac_str(consts.gate_lower), _frac_str(consts.gate_upper)],
        "thresholds": {
            "proportionality": _frac_str(disp[0]),
            "real_vanish": _frac_str(disp[1]),
            "imag_vanish": _frac_str(disp[2]),
        },
        "thresholds_sq": {
            "proportionality": _frac_str(gates.proportionality_sq),
            "real_vanish": _frac_str(gates.real_vanish_sq),
            "imag_vanish": _frac_str(gates.imag_vanish_sq),
        },
    }

    def span(lo: Fraction, hi: Fraction) -> str:
        return f"[{_frac_str(lo)}, {_frac_str(hi)}] ~ [{decimal_str(lo)}, {decimal_str(hi)}]"

    lines = [
        f"form {problem.form}",
        f"m {spec.field.m} (s={problem.s})",
        f"K {_frac_str(problem.K)}  epsilon {_frac_str(problem.epsilon)}",
        f"A (min root gap)       in {span(roots.min_gap_lower, roots.min_gap_upper)}",
        f"B (min gap product)    in {span(roots.gap_product_lower, roots.gap_product_upper)}",
        f"C (approx coefficient) in {span(consts.approx_coeff_lower, consts.approx_coeff_upper)}",
        f"G (gate radius)        in {span(consts.gate_lower, consts.gate_upper)}",
        f"threshold proportionality <= {_frac_str(disp[0])} ~ {decimal_str(disp[0])}",
        f"threshold real-vanish     <= {_frac_str(disp[1])} ~ {decimal_str(disp[1])}",
        f"threshold imag-vanish     <= {_frac_str(disp[2])} ~ {decimal_str(disp[2])}",
    ]
    _emit(args, payload, lines)
    return 0


def _parse_candidate(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError(f"candidate {text!r}: expected four comma-separated integers x1,x2,y1,y2")
    try:
        x1, x2, y1, y2 = (int(p) for p in parts)
    except ValueError as exc:
        raise CliError(f"candidate {text!r}: expected integers") from exc
    return x1, x2, y1, y2


def _flag(applicable: bool, holds: bool) -> str:
    if not applicable:
        return "n/a"
    return "holds" if holds else "VIOLATED"


def cmd_verify(args) -> int:
    spec = load_problem(args.problem)
    problem = Problem(spec.field, spec.form, spec.K, spec.epsilon)
    field, form = problem.field, problem.form
    rows = []
    lines = []
    status = 0
    for text in args.candidates:
        x1, x2, y1, y2 = _parse_candidate(text)
        x = RingElement(x1, x2)
        y = RingElement(y1, y2)
        value_norm = field.norm(field.evaluate_form(form, x, y))
        is_solution = value_norm <= problem.K**2
        report = full_report(problem, x, y)
        if is_solution and not report.ok:
            status = 2
        rows.append(
            {
                "x1": x1,
                "x2": x2,
                "y1": y1,
                "y2": y2,
                "norm_value": value_norm,
                "is_solution": is_solution,
                **{f.name: getattr(report, f.name) for f in fields(report) if f.name != "norm_y"},
                "all_ok": report.ok,
            }
        )
        kind = "solution" if is_solution else "non-solution"
        lines.append(
            f"candidate {x1},{x2},{y1},{y2} {kind} norm={value_norm} "
            f"real_bound={'pass' if report.real_bound_ok else 'FAIL'} "
            f"imag_bound={'pass' if report.imag_bound_ok else 'FAIL'} "
            f"joint={'pass' if report.joint_bound_ok else 'FAIL'} "
            f"proportionality={_flag(report.proportional_applicable, report.proportional_holds)} "
            f"real-vanish={_flag(report.real_vanish_applicable, report.real_vanish_holds)} "
            f"imag-vanish={_flag(report.imag_vanish_applicable, report.imag_vanish_holds)}"
        )
    payload = {
        "command": "verify",
        "coeffs": list(spec.form.coeffs),
        "m": spec.field.m,
        "K": _frac_str(spec.K),
        "epsilon": _frac_str(spec.epsilon),
        "candidates": rows,
    }
    _emit(args, payload, lines)
    return status


def cmd_check(args) -> int:
    spec = _load(args)
    epsilon, ymax, height = spec.epsilon, spec.ymax, spec.oracle_height
    least = (2 * spec.field.s - 1) * height
    if ymax < least:
        # a smaller reach leaves solutions in the box that the solver does not look for
        ymax_from = "--ymax" if args.ymax is not None else "the problem file"
        height_from = "--height" if args.oracle_height is not None else "the problem file"
        raise CliError(
            f"ymax {ymax} (from {ymax_from}) is below the minimum {least} = (2s-1)*height "
            f"for s = {spec.field.s} and height {height} (from {height_from})"
        )
    solved = solve_relative(spec.field, spec.form, spec.K, epsilon, ymax)
    oracle = brute_force(spec.field, spec.form, spec.K, height)
    box = {sol.quadruple for sol in solved.solutions if max(map(abs, sol.quadruple)) <= height}
    box.update(solved.family_members(height))
    oracle_set = oracle.quadruples()
    solver_only = sorted(box - oracle_set)
    oracle_only = sorted(oracle_set - box)
    match = not solver_only and not oracle_only and solved.cross_check_ok
    payload = {
        "command": "check",
        "coeffs": list(spec.form.coeffs),
        "m": spec.field.m,
        "K": _frac_str(spec.K),
        "epsilon": _frac_str(epsilon),
        "ymax": ymax,
        "height": height,
        "match": match,
        "common": len(box & oracle_set),
        "solver_only": [list(q) for q in solver_only],
        "oracle_only": [list(q) for q in oracle_only],
        "cross_check_ok": solved.cross_check_ok,
    }
    lines = [
        f"form {spec.form}",
        f"m {spec.field.m} (s={spec.field.s})",
        f"K {_frac_str(spec.K)}",
        f"ymax {ymax} height {height}",
        f"common {len(box & oracle_set)}",
    ]
    for quad in solver_only:
        lines.append(f"solver-only {quad[0]} {quad[1]} {quad[2]} {quad[3]}")
    for quad in oracle_only:
        lines.append(f"oracle-only {quad[0]} {quad[1]} {quad[2]} {quad[3]}")
    lines.append("MATCH" if match else "MISMATCH")
    _emit(args, payload, lines)
    return 0 if match else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage failures at exit status 1
        raise CliError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="relthue", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="structured output with the same fields")

    p = sub.add_parser("solve", help="solve the relative inequality within the height bound")
    p.add_argument("problem")
    p.add_argument("--epsilon", help="override epsilon from the problem file")
    p.add_argument("--ymax", help="override the enumeration height")
    p.add_argument("--families", action="store_true", help="also print parametric zero families")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("abs", help="enumerate an absolute inequality |F(a,b)| <= K'")
    p.add_argument("--coeffs", required=True, help="ascending coefficients, space separated")
    p.add_argument("--kprime", required=True, help="rational bound K'")
    p.add_argument("--ymax", type=int, required=True, help="height bound on |b|")
    common(p)
    p.set_defaults(func=cmd_abs)

    p = sub.add_parser("constants", help="print certified constant enclosures and thresholds")
    p.add_argument("problem")
    p.add_argument("--epsilon", help="override epsilon from the problem file")
    common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("verify", help="run the structure predicates on candidate quadruples")
    p.add_argument("problem")
    p.add_argument("candidates", nargs="+", help="candidates as x1,x2,y1,y2")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force all solutions in a coordinate box")
    p.add_argument("problem")
    p.add_argument("--height", dest="oracle_height", help="box half-width (default from problem file)")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check", help="solve, brute-force, and diff the two solution sets")
    p.add_argument("problem")
    p.add_argument("--epsilon", help="override epsilon")
    p.add_argument("--ymax", help="override the enumeration height")
    p.add_argument("--height", dest="oracle_height", help="override the oracle box half-width")
    common(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError) as exc:  # InadmissibleFormError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
