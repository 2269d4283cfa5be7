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
import re
import sys
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .abssolver import solve_abs
from .forms import BinaryForm
from .oracle import brute_force
from .quadfield import QuadraticField
from .reducer import solve_relative
from .rootbounds import Problem, enclosures
from .theorem import full_report


class CliError(Exception):
    """Usage or validation failure; maps to exit status 1."""


class ProblemSpec(NamedTuple):
    """A parsed problem file; the field and the form are built, and so validated, once."""

    field: QuadraticField
    form: BinaryForm
    K: Fraction
    epsilon: Fraction = Fraction(1, 2)
    ymax: int = 100
    oracle_height: int = 4


_MAX_DIGITS = 4300  # CPython's default cap on the digits of an int read from or printed to a string
_TOO_LONG = 10**_MAX_DIGITS


def _too_long(value) -> bool:
    """Whether the numerator or denominator of an integer or rational has more digits than Python will print."""
    return max(abs(value.numerator), value.denominator) >= _TOO_LONG


def _parse_rational(text: str, label: str) -> Fraction:
    # Fraction builds 10**|exponent| before it reduces.  With at most _MAX_DIGITS digits on each side
    # of the point, no nonzero value fits once |exponent| > 2 * _MAX_DIGITS, so such a literal is read
    # with exponent 0 instead: that still tells junk, and 0, from a value too long to print.
    exponent = re.search(r"(?<=[eE])[-+]?[\d_]+", text)
    try:
        huge = exponent is not None and abs(int(exponent[0])) > 2 * _MAX_DIGITS
        value = Fraction(text[: exponent.start()] + "0" + text[exponent.end() :] if huge else text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"{label}: not a rational number: {text!r}") from exc
    if (huge and value) or _too_long(value):
        raise CliError(f"{label}: numerator or denominator longer than {_MAX_DIGITS} digits: {text!r}")
    return value


def _parse_int(text: str, label: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        # int() refuses a well-formed literal only when it has more than _MAX_DIGITS digits
        if re.fullmatch(r"\s*[-+]?\d+(_\d+)*\s*", text):
            raise CliError(f"{label}: integer longer than {_MAX_DIGITS} digits: {text!r}") from exc
        raise CliError(f"{label}: not an integer: {text!r}") from exc


def _parse_form(text: str, label: str) -> BinaryForm:
    """The binary form of a line of ascending integer coefficients."""
    coeffs = tuple(_parse_int(tok, label) for tok in text.split())
    try:
        return BinaryForm(coeffs)
    except ValueError as exc:
        raise CliError(f"{label}: {exc}") from exc


# Optional field -> (the flag that overrides it, the flag's help, parser, test, the rule the test
# states).  A field and its flag pass the same entry; errors name whichever was given.
OPTIONAL = {
    "epsilon": ("--epsilon", "epsilon (overrides the file's epsilon)", _parse_rational, lambda v: 0 < v < 1,
                "must lie strictly between 0 and 1"),
    "ymax": ("--ymax", "enumeration height bound (overrides the file's ymax)", _parse_int, lambda v: v >= 0,
             "must be nonnegative"),
    "oracle_height": ("--height", "oracle box half-width (overrides the file's oracle_height)", _parse_int,
                      lambda v: v >= 0, "must be nonnegative"),
}


def _optional(key: str, text: str, label: str):
    _, _, parse, holds, rule = OPTIONAL[key]
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
    known = {"coeffs", "m", "K", *OPTIONAL}
    for key in values:
        if key not in known:
            raise CliError(f"unknown field '{key}' (known: {', '.join(sorted(known))})")
    for required in ("coeffs", "m", "K"):
        if required not in values:
            raise CliError(f"missing required field '{required}'")
    form = _parse_form(values["coeffs"], "field 'coeffs'")
    m = _parse_int(values["m"], "field 'm'")
    K = _parse_rational(values["K"], "field 'K'")
    optional = {key: _optional(key, values[key], f"field '{key}'") for key in OPTIONAL if key in values}
    try:
        field = QuadraticField(m)
    except ValueError as exc:
        raise CliError(f"field 'm': {exc}") from exc
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
    return spec._replace(**overrides)


def decimal_str(x: Fraction) -> str:
    """Fixed-point decimal rendering of an exact rational, truncated to 10 places."""
    sign = "-" if x < 0 else ""
    whole, rest = divmod(abs(x.numerator), x.denominator)
    frac = (rest * 10**10) // x.denominator
    return f"{sign}{whole}.{frac:010d}"


def _json_head(command: str, spec: ProblemSpec) -> dict:
    """The JSON keys every problem-file command reports."""
    return {"command": command, "coeffs": list(spec.form.coeffs), "m": spec.field.m, "K": str(spec.K)}


def _text_head(spec: ProblemSpec) -> list[str]:
    """The text lines that open the output of solve, oracle, check and constants."""
    return [f"form {spec.form}", f"m {spec.field.m} (s={spec.field.s})", f"K {spec.K}"]


def _long_norm(quad) -> CliError:
    return CliError(f"quadruple {','.join(map(str, quad))}: norm of F has more than {_MAX_DIGITS} digits to print")


def _row(quad, **values) -> dict:
    """The JSON row of a quadruple: its coordinates x1, x2, y1, y2, then the values given, none too long to print."""
    if any(type(value) is int and _too_long(value) for value in values.values()):
        raise _long_norm(quad)
    return dict(zip(("x1", "x2", "y1", "y2"), quad), **values)


def _listing(args, solutions) -> list:
    """The JSON rows with --json, else the text lines, of (quadruple, norm of F) pairs in the given order."""
    if args.json:
        return [_row(quad, norm=norm) for quad, norm in solutions]
    for quad, norm in solutions:
        if norm >= _TOO_LONG:
            raise _long_norm(quad)
    return [f"{x1} {x2} {y1} {y2} {norm}" for (x1, x2, y1, y2), norm in solutions]


def _emit(args, payload: dict, lines: list[str]) -> None:
    print(json.dumps(payload, sort_keys=True) if args.json else "\n".join(lines))


def cmd_solve(args) -> int:
    spec = _load(args)
    result = solve_relative(spec.field, spec.form, spec.K, spec.epsilon, spec.ymax)
    rows = _listing(args, result.listing())
    payload = {
        **_json_head("solve", spec),
        "s": spec.field.s,
        "epsilon": str(spec.epsilon),
        "ymax": result.search_height,
        "solutions": rows,
        "families": [{"root": r, "x_step": [r, 0], "y_step": [1, 0]} for r in result.families],
        "cross_check_ok": result.cross_check_ok,
    }
    lines = [*_text_head(spec), f"ymax {spec.ymax}", f"solutions {len(rows)}", *rows]
    if args.families:
        lines.append(f"families {len(result.families)}")
        lines += [f"family root={r} x_step=({r},0) y_step=(1,0)" for r in result.families]
    lines.append("cross-check ok" if result.cross_check_ok else "cross-check FAILED")
    _emit(args, payload, lines)
    return 0 if result.cross_check_ok else 2


def cmd_oracle(args) -> int:
    spec = _load(args)
    result = brute_force(spec.field, spec.form, spec.K, spec.oracle_height)
    rows = _listing(args, result.solutions)
    payload = {**_json_head("oracle", spec), "height": spec.oracle_height, "solutions": rows}
    lines = [*_text_head(spec), f"height {spec.oracle_height}", f"solutions {len(rows)}", *rows]
    _emit(args, payload, lines)
    return 0


def cmd_abs(args) -> int:
    form = _parse_form(args.coeffs, "--coeffs")
    bound = _parse_rational(args.kprime, "--kprime")
    if bound < 0:
        raise CliError("--kprime: must be nonnegative")
    height = _optional("ymax", args.ymax, "--ymax")
    result = solve_abs(form, bound, height)  # an inadmissible form raises InadmissibleFormError
    rows = result.solutions  # the negated rows and the span expanded once
    payload = {
        "command": "abs",
        "coeffs": list(form.coeffs),
        "bound": str(bound),
        "ymax": result.height,
        "complete_within_height": True,
        "solutions": [[a, b, v] for a, b, v in rows],
    }
    lines = [
        f"form {form}",
        f"bound {bound}",
        f"ymax {result.height}",
        f"solutions {len(rows)}",
        *[f"{a} {b} {v}" for a, b, v in rows],
    ]
    _emit(args, payload, lines)
    return 0


def cmd_constants(args) -> int:
    spec = _load(args)
    bounds = enclosures(Problem(spec.field, spec.form, spec.K, spec.epsilon))
    # JSON key -> text label of each certified enclosure
    labels = {
        "min_gap": "A (min root gap)",
        "gap_product": "B (min gap product)",
        "approx_coeff": "C (approx coefficient)",
        "gate": "G (gate radius)",
    }
    enclosed = dict(zip(labels, bounds))  # JSON key -> (lower end, upper end)
    # JSON key -> (upper bound of the threshold, of its square)
    thresholds = dict(zip(("proportionality", "real_vanish", "imag_vanish"), bounds[4:]))
    if any(_too_long(value) for pair in bounds for value in pair):
        raise CliError(f"field 'K': a constant or threshold has more than {_MAX_DIGITS} digits to print")
    payload = {
        **_json_head("constants", spec),
        "degree": spec.form.degree,
        "epsilon": str(spec.epsilon),
        **{key: [str(lo), str(hi)] for key, (lo, hi) in enclosed.items()},
        "thresholds": {key: str(bound) for key, (bound, _) in thresholds.items()},
        "thresholds_sq": {key: str(bound_sq) for key, (_, bound_sq) in thresholds.items()},
    }
    lines = _text_head(spec)
    lines[-1] += f"  epsilon {spec.epsilon}"
    for key, (lo, hi) in enclosed.items():
        lines.append(f"{labels[key]:<22} in [{lo}, {hi}] ~ [{decimal_str(lo)}, {decimal_str(hi)}]")
    for key, (bound, _) in thresholds.items():
        lines.append(f"threshold {key.replace('_', '-'):<15} <= {bound} ~ {decimal_str(bound)}")
    _emit(args, payload, lines)
    return 0


def _parse_candidate(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError(f"candidate {text!r}: expected four comma-separated integers x1,x2,y1,y2")
    return tuple(_parse_int(p, f"candidate {text!r}") for p in parts)


def _flag(applicable: bool, holds: bool) -> str:
    if not applicable:
        return "n/a"
    return "holds" if holds else "VIOLATED"


def cmd_verify(args) -> int:
    spec = _load(args)
    quads = [_parse_candidate(text) for text in args.candidates]
    problem = Problem(spec.field, spec.form, spec.K, spec.epsilon)
    rows = []
    lines = []
    status = 0
    for quad in quads:
        value_norm = spec.field.norm(*spec.field.evaluate_form(spec.form, quad))
        is_solution = value_norm <= problem.norm_cap
        report = full_report(problem, quad)
        if is_solution and not report.ok:
            status = 2
        checks = {name: value for name, value in report._asdict().items() if name != "norm_y"}
        rows.append(_row(quad, norm_value=value_norm, is_solution=is_solution, **checks, all_ok=report.ok))
        kind = "solution" if is_solution else "non-solution"
        lines.append(
            f"candidate {','.join(map(str, quad))} {kind} norm={value_norm} "
            f"real_bound={'pass' if report.real_bound_ok else 'FAIL'} "
            f"imag_bound={'pass' if report.imag_bound_ok else 'FAIL'} "
            f"joint={'pass' if report.joint_bound_ok else 'FAIL'} "
            f"proportionality={_flag(report.proportional_applicable, report.proportional_holds)} "
            f"real-vanish={_flag(report.real_vanish_applicable, report.real_vanish_holds)} "
            f"imag-vanish={_flag(report.imag_vanish_applicable, report.imag_vanish_holds)}"
        )
    payload = {**_json_head("verify", spec), "epsilon": str(spec.epsilon), "candidates": rows}
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
    box = {sol.quadruple for sol in solved.solutions if max(map(abs, sol.quadruple)) <= height}
    box.update(solved.family_members(height))
    oracle_set = brute_force(spec.field, spec.form, spec.K, height).quadruples()
    solver_only = sorted(box - oracle_set)
    oracle_only = sorted(oracle_set - box)
    match = not solver_only and not oracle_only and solved.cross_check_ok
    payload = {
        **_json_head("check", spec),
        "epsilon": str(epsilon),
        "ymax": ymax,
        "height": height,
        "match": match,
        "common": len(box & oracle_set),
        "solver_only": [list(q) for q in solver_only],
        "oracle_only": [list(q) for q in oracle_only],
        "cross_check_ok": solved.cross_check_ok,
    }
    lines = [
        *_text_head(spec),
        f"ymax {ymax} height {height}",
        f"common {len(box & oracle_set)}",
        *[f"solver-only {' '.join(map(str, quad))}" for quad in solver_only],
        *[f"oracle-only {' '.join(map(str, quad))}" for quad in oracle_only],
        "MATCH" if match else "MISMATCH",
    ]
    _emit(args, payload, lines)
    return 0 if match else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage failures at exit status 1
        raise CliError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="relthue", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, *overrides, **options):
        """Add the OPTIONAL flags of the fields named, then --json; func runs the command."""
        for key in overrides:
            flag, help_text, *_ = OPTIONAL[key]
            p.add_argument(flag, dest=key, help=help_text, **options)
        p.add_argument("--json", action="store_true", help="structured output with the same fields")
        p.set_defaults(func=func)

    p = sub.add_parser("solve", help="solve the relative inequality within the height bound")
    p.add_argument("problem")
    common(p, cmd_solve, "epsilon", "ymax")
    p.add_argument("--families", action="store_true", help="also print parametric zero families")

    p = sub.add_parser("abs", help="enumerate an absolute inequality |F(a,b)| <= K'")
    p.add_argument("--coeffs", required=True, help="ascending coefficients, space separated")
    p.add_argument("--kprime", required=True, help="rational bound K'")
    common(p, cmd_abs, "ymax", required=True)

    p = sub.add_parser("constants", help="print certified constant enclosures and thresholds")
    p.add_argument("problem")
    common(p, cmd_constants, "epsilon")

    p = sub.add_parser("verify", help="run the structure predicates on candidate quadruples")
    p.add_argument("problem")
    p.add_argument("candidates", nargs="+", help="candidates as x1,x2,y1,y2")
    common(p, cmd_verify)

    p = sub.add_parser("oracle", help="brute-force all solutions in a coordinate box")
    p.add_argument("problem")
    common(p, cmd_oracle, "oracle_height")

    p = sub.add_parser("check", help="solve, brute-force, and diff the two solution sets")
    p.add_argument("problem")
    common(p, cmd_check, "epsilon", "ymax", "oracle_height")

    return parser


@cache
def _parser() -> _Parser:
    """The parser, built on the first call and reused: it holds no problem data, and import stays cheap."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (CliError, ValueError) as exc:  # InadmissibleFormError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
