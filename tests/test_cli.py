import contextlib
import io
import json
import os
import string
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relthue import brute_force, cli, full_report, solve_relative
from relthue.cli import CliError, ProblemSpec, decimal_str, main, parse_problem_text
from relthue.reducer import RelativeSolutionSet
from util import form_from_roots, profiled_calls

PROBLEM = """\
# sample problem
coeffs = 0 -4 0 1
m = 3
K = 1
ymax = 10
oracle_height = 3
"""


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "prob.txt"
    path.write_text(PROBLEM, encoding="utf-8")
    return str(path)


GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_parse_problem_text_defaults():
    spec = parse_problem_text("coeffs = 0 -4 0 1\nm = 7\nK = 3/2\n")
    assert spec.form.coeffs == (0, -4, 0, 1)
    assert spec.field.m == 7
    assert spec.K == Fraction(3, 2)
    assert spec.epsilon == Fraction(1, 2)
    assert spec.ymax == 100
    assert spec.oracle_height == 4


def test_parse_problem_validation_messages():
    from relthue.cli import CliError

    with pytest.raises(CliError, match="missing required field 'm'"):
        parse_problem_text("coeffs = 0 -4 0 1\nK = 1\n")
    with pytest.raises(CliError, match="'K': must be >= 1"):
        parse_problem_text("coeffs = 0 -4 0 1\nm = 3\nK = 1/2\n")
    with pytest.raises(CliError, match="square-free"):
        parse_problem_text("coeffs = 0 -4 0 1\nm = 12\nK = 1\n")
    with pytest.raises(CliError, match="epsilon"):
        parse_problem_text("coeffs = 0 -4 0 1\nm = 3\nK = 1\nepsilon = 2\n")
    with pytest.raises(CliError, match="unknown field"):
        parse_problem_text("coeffs = 0 -4 0 1\nm = 3\nK = 1\nbogus = 2\n")


def test_solve_command(capsys, problem_file):
    status, out, _ = run(capsys, "solve", problem_file)
    assert status == 0
    lines = out.splitlines()
    assert any(line.startswith("solutions ") for line in lines)
    assert "cross-check ok" in lines[-1]
    assert "0 1 0 0 1" in lines  # x = w, y = 0


def test_solve_families_flag(capsys, problem_file):
    status, out, _ = run(capsys, "solve", problem_file, "--families")
    assert status == 0
    assert "family root=2" in out
    assert "family root=-2" in out


def test_solve_json_round_trip(capsys, problem_file):
    status, out, _ = run(capsys, "solve", problem_file, "--json")
    assert status == 0
    parsed = json.loads(out)
    spec = parse_problem_text(PROBLEM)
    fresh = solve_relative(spec.field, spec.form, spec.K, spec.epsilon, spec.ymax)
    listed = {(r["x1"], r["x2"], r["y1"], r["y2"]): r["norm"] for r in parsed.pop("solutions")}
    assert len(listed) == len(fresh.solutions) + len(list(fresh.family_members()))
    assert listed == {s.quadruple: s.value_norm for s in fresh.solutions} | dict.fromkeys(fresh.family_members(), 0)
    families = [{"root": r, "x_step": [r, 0], "y_step": [1, 0]} for r in fresh.families]
    assert parsed == {
        "command": "solve",
        "coeffs": [0, -4, 0, 1],
        "m": 3,
        "s": 2,
        "K": "1",
        "epsilon": "1/2",
        "ymax": fresh.search_height,
        "families": families,
        "cross_check_ok": fresh.cross_check_ok,
    }


def test_oracle_command_and_round_trip(capsys, problem_file):
    status, out, _ = run(capsys, "oracle", problem_file, "--height", "2", "--json")
    assert status == 0
    parsed = json.loads(out)
    spec = parse_problem_text(PROBLEM)
    fresh = brute_force(spec.field, spec.form, spec.K, 2)
    listed = [((r["x1"], r["x2"], r["y1"], r["y2"]), r["norm"]) for r in parsed.pop("solutions")]
    assert listed == list(fresh.solutions)
    assert parsed == {"command": "oracle", "coeffs": [0, -4, 0, 1], "m": 3, "K": "1", "height": 2}


def test_check_command_match(capsys, problem_file):
    status, out, _ = run(capsys, "check", problem_file)
    assert status == 0
    assert out.splitlines()[-1] == "MATCH"


def test_constants_command(capsys, problem_file):
    status, out, _ = run(capsys, "constants", problem_file)
    assert status == 0
    assert "A (min root gap)       in [2, 2]" in out
    assert "B (min gap product)    in [4, 4]" in out
    assert "C (approx coefficient) in [1, 1]" in out
    assert "G (gate radius)        in [1, 1]" in out
    assert "threshold proportionality" in out


def test_constants_json_fields(capsys, problem_file):
    status, out, _ = run(capsys, "constants", problem_file, "--json")
    assert status == 0
    parsed = json.loads(out)
    assert parsed["min_gap"] == ["2", "2"]
    assert parsed["gap_product"] == ["4", "4"]
    assert parsed["thresholds_sq"]["proportionality"] == "4/3"
    assert parsed["thresholds_sq"]["real_vanish"] == "2"


def test_abs_command(capsys):
    status, out, _ = run(capsys, "abs", "--coeffs", "0 -4 0 1", "--kprime", "1", "--ymax", "2")
    assert status == 0
    lines = out.splitlines()
    assert "solutions 15" in lines
    assert "2 1 0" in lines
    assert "-1 0 -1" in lines


def test_abs_rejects_inadmissible(capsys):
    status, _, err = run(capsys, "abs", "--coeffs", "0 1 0 1", "--kprime", "1", "--ymax", "2")
    assert status == 1
    assert "inadmissible" in err


def test_verify_command(capsys, problem_file):
    status, out, _ = run(capsys, "verify", problem_file, "0,1,0,0", "4,0,2,0", "3,0,0,0")
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("candidate 0,1,0,0 solution")
    assert "imag-vanish=holds" in lines[1]
    assert lines[2].startswith("candidate 3,0,0,0 non-solution")


def test_verify_bad_candidate(capsys, problem_file):
    status, _, err = run(capsys, "verify", problem_file, "1,2,3")
    assert status == 1
    assert "four comma-separated integers" in err


def test_verify_exits_2_when_a_solution_fails_an_applicable_predicate(capsys, problem_file, monkeypatch):
    def failing(problem, quad):
        return full_report(problem, quad)._replace(joint_bound_ok=False)

    monkeypatch.setattr(cli, "full_report", failing)
    status, out, err = run(capsys, "verify", problem_file, "0,1,0,0")
    assert (status, err) == (2, "")
    assert out.startswith("candidate 0,1,0,0 solution") and "joint=FAIL" in out


def test_a_duplicate_field_is_status_1(capsys, tmp_path):
    path = tmp_path / "twice.txt"
    path.write_text("coeffs = 0 -4 0 1\nm = 3\nm = 7\nK = 1\n", encoding="utf-8")
    assert run(capsys, "solve", str(path)) == (1, "", "error: line 3: duplicate field 'm'\n")


def test_abs_rejects_a_negative_kprime(capsys):
    argv = ("abs", "--coeffs", "0 -4 0 1", "--kprime", "-1", "--ymax", "2")
    assert run(capsys, *argv) == (1, "", "error: --kprime: must be nonnegative\n")


def test_missing_field_is_status_1(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("coeffs = 0 -4 0 1\nK = 1\n", encoding="utf-8")
    status, _, err = run(capsys, "solve", str(path))
    assert status == 1
    assert "missing required field 'm'" in err


def test_unreadable_problem_file_is_status_1(capsys, tmp_path):
    path = tmp_path / "absent.txt"
    status, out, err = run(capsys, "solve", str(path))
    assert status == 1 and out == ""
    assert err.startswith(f"error: cannot read problem file {str(path)!r}")


def test_the_parser_is_built_once_and_reused_across_commands(capsys, problem_file):
    argvs = (["constants", problem_file, "--json"], ["solve", problem_file, "--families"])
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in argvs] == fresh
    assert cli._parser.cache_info().misses == 1


def test_usage_error_is_status_1(capsys):
    status, _, err = run(capsys, "frobnicate")
    assert status == 1
    assert "error:" in err


def test_deterministic_output(capsys, problem_file):
    _, first, _ = run(capsys, "solve", problem_file, "--families")
    _, second, _ = run(capsys, "solve", problem_file, "--families")
    assert first == second
    _, c1, _ = run(capsys, "constants", problem_file, "--json")
    _, c2, _ = run(capsys, "constants", problem_file, "--json")
    assert c1 == c2


def test_decimal_str():
    assert decimal_str(Fraction(1, 2)) == "0.5000000000"
    assert decimal_str(Fraction(-7, 3)) == "-2.3333333333"
    assert decimal_str(Fraction(2)) == "2.0000000000"


@pytest.mark.parametrize(
    "name,argv",
    [
        ("solve", ["solve", "{problem}"]),
        ("solve_families", ["solve", "{problem}", "--families"]),
        ("solve_json", ["solve", "{problem}", "--json"]),
        ("abs_json", ["abs", "--coeffs", "0 -4 0 1", "--kprime", "1", "--ymax", "2", "--json"]),
        ("constants", ["constants", "{problem}"]),
        ("constants_json", ["constants", "{problem}", "--json"]),
        ("verify", ["verify", "{problem}", "0,1,0,0", "4,0,2,0", "3,0,0,0"]),
        ("oracle_json", ["oracle", "{problem}", "--json"]),
        ("check_json", ["check", "{problem}", "--json"]),
        ("abs_cubic", ["abs", "--coeffs", "-1 -3 0 1", "--kprime", "80", "--ymax", "2000"]),
        ("abs_cubic_json", ["abs", "--coeffs", "-1 -3 0 1", "--kprime", "80", "--ymax", "2000", "--json"]),
        # every flag in every state: pass/FAIL, holds/VIOLATED/n/a
        ("verify_states", ["verify", "{problem}", "1,0,-1,2", "0,0,-1,2", "0,1,2,0", "5,5,0,1", "4,0,2,0"]),
        ("verify_states_json", ["verify", "{problem}", "1,0,-1,2", "0,0,-1,2", "0,1,2,0", "5,5,0,1", "4,0,2,0", "--json"]),
        ("oracle", ["oracle", "{problem}"]),
        ("check", ["check", "{problem}"]),
    ],
)
def test_output_matches_golden(capsys, problem_file, name, argv):
    # tests/golden/<name>.out holds the stdout of the same command, recorded once
    status, out, _ = run(capsys, *(arg.format(problem=problem_file) for arg in argv))
    assert status == 0
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("name,extra", [("constants_irrational", []), ("constants_irrational_json", ["--json"])])
def test_irrational_constants_match_golden(capsys, tmp_path, name, extra):
    # x^3 - 3xy^2 - y^3 has three irrational roots, so these files pin exact interval endpoints
    path = tmp_path / "irrational.txt"
    path.write_text("coeffs = -1 -3 0 1\nm = 7\nK = 10\n", encoding="utf-8")
    status, out, _ = run(capsys, "constants", str(path), *extra)
    assert status == 0
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def test_check_of_a_sextic_matches_golden(capsys, tmp_path):
    # x^6 - 6x^4y^2 + 9x^2y^4 - 2y^6 = 2T_6(x/2) at y = 1, whose six roots 2cos((2k - 1)pi/12) are irrational
    path = tmp_path / "sextic.txt"
    path.write_text("coeffs = -2 0 9 0 -6 0 1\nm = 7\nK = 10\nymax = 9\noracle_height = 3\n", encoding="utf-8")
    status, out, _ = run(capsys, "check", str(path))
    assert status == 0
    assert out == (GOLDEN / "check_sextic.out").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{problem}"],
        ["check", "{problem}"],
        ["oracle", "{problem}"],
        ["constants", "{problem}"],
        ["verify", "{problem}", "0,1,0,0"],
    ],
)
def test_each_command_builds_its_field_once(capsys, problem_file, argv):
    status, calls = profiled_calls(main, [arg.format(problem=problem_file) for arg in argv])
    capsys.readouterr()
    assert status == 0
    assert calls["quadfield", "__post_init__"] == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (["check", "{problem}", "--height", "-1"], "--height: must be nonnegative"),
        (["oracle", "{problem}", "--height", "-1"], "--height: must be nonnegative"),
        (["solve", "{problem}", "--ymax", "-3"], "--ymax: must be nonnegative"),
        (["check", "{problem}", "--ymax", "ten"], "--ymax: not an integer: 'ten'"),
        (["solve", "{problem}", "--epsilon", "2"], "--epsilon: must lie strictly between 0 and 1"),
        (["constants", "{problem}", "--epsilon", "1/0"], "--epsilon: not a rational number: '1/0'"),
    ],
)
def test_override_flags_are_checked_like_their_fields_before_any_solving(capsys, problem_file, argv, message):
    status, calls = profiled_calls(main, [arg.format(problem=problem_file) for arg in argv])
    err = capsys.readouterr().err
    assert status == 1
    assert err == f"error: {message}\n"
    assert calls["rootbounds", "__new__"] == 0  # no Problem built, nor any RootData
    assert calls["reducer", "solve_relative"] == calls["oracle", "brute_force"] == 0


@pytest.mark.parametrize(
    "argv,label,literal",
    [
        (["solve", "{problem}", "--epsilon", "{literal}"], "--epsilon", "1e-5000"),
        (["constants", "{problem}", "--epsilon", "{literal}"], "--epsilon", "1e-100000000"),
        (["check", "{huge}"], "field 'epsilon'", "1e-100000000"),
        (["abs", "--coeffs", "0 -4 0 1", "--kprime", "{literal}", "--ymax", "2"], "--kprime", "1e-5000"),
        (["abs", "--coeffs", "0 -4 0 1", "--kprime", "{literal}", "--ymax", "2"], "--kprime", "0.5e4301"),
    ],
)
def test_rationals_too_long_to_print_are_rejected_unbuilt(capsys, problem_file, tmp_path, argv, label, literal):
    huge = tmp_path / "huge.txt"
    huge.write_text(f"{PROBLEM}epsilon = {literal}\n", encoding="utf-8")
    start = time.perf_counter()
    status, calls = profiled_calls(main, [arg.format(problem=problem_file, huge=huge, literal=literal) for arg in argv])
    assert time.perf_counter() - start < 1
    message = f"error: {label}: numerator or denominator longer than 4300 digits: {literal!r}\n"
    assert (status, capsys.readouterr().err) == (1, message)
    assert calls["rootbounds", "__new__"] == 0  # no Problem built, nor any RootData
    assert calls["reducer", "solve_relative"] == calls["abssolver", "solve_abs"] == 0


LONG = "1" * 4400  # more digits than int() reads from a string


@pytest.mark.parametrize(
    "argv,label,literal",
    [
        (["solve", "{huge}"], "field 'm'", LONG),
        (["solve", "{huge}"], "field 'ymax'", LONG),
        (["check", "{huge}"], "field 'oracle_height'", LONG),
        (["solve", "{huge}"], "field 'coeffs'", "-" + LONG),
        (["solve", "{problem}", "--ymax", LONG], "--ymax", LONG),
        (["abs", "--coeffs", "0 -4 0 1", "--kprime", "1", "--ymax", LONG], "--ymax", LONG),
        (["abs", "--coeffs", f"0 {LONG} 0 1", "--kprime", "1", "--ymax", "2"], "--coeffs", LONG),
        (["check", "{problem}", "--height", LONG], "--height", LONG),
        (["verify", "{problem}", "1,0,0,0", f"0,{LONG},0,0"], f"candidate {f'0,{LONG},0,0'!r}", LONG),
    ],
    ids=["m", "ymax", "oracle_height", "coeffs", "solve --ymax", "abs --ymax", "abs --coeffs", "check --height",
         "verify candidate"],
)
def test_integers_too_long_to_read_are_rejected_unbuilt(capsys, problem_file, tmp_path, argv, label, literal):
    huge = tmp_path / "huge.txt"
    field = label.removeprefix("field '").removesuffix("'")
    fields = {"coeffs": "0 -4 0 1", "m": "3", "K": "1"}
    if field in ("m", "ymax", "oracle_height"):
        fields[field] = literal
    elif field == "coeffs":
        fields[field] = f"0 {literal} 0 1"
    huge.write_text("".join(f"{key} = {value}\n" for key, value in fields.items()), encoding="utf-8")
    start = time.perf_counter()
    status, calls = profiled_calls(main, [arg.format(problem=problem_file, huge=huge) for arg in argv])
    assert time.perf_counter() - start < 1
    message = f"error: {label}: integer longer than 4300 digits: {literal!r}\n"
    assert (status, capsys.readouterr().err) == (1, message)
    assert calls["rootbounds", "__new__"] == 0  # no Problem built, nor any RootData
    assert calls["reducer", "solve_relative"] == calls["abssolver", "solve_abs"] == 0


def test_integer_literals_are_read_up_to_the_digit_limit():
    base = "coeffs = 0 -4 0 1\nm = 3\nK = 1\n"
    assert parse_problem_text(f"{base}ymax = {'9' * 4300}\n").ymax == 10**4300 - 1
    assert parse_problem_text(f"{base}ymax = {'1_' * 4299}1\n").ymax == int("1" * 4300)
    for text, message in [
        (f"ymax = 0{'0' * 4300}", "'ymax': integer longer than 4300 digits"),
        (f"ymax = {'1_' * 4300}1", "'ymax': integer longer than 4300 digits"),
        ("ymax = 1_", "'ymax': not an integer"),
        ("ymax = 1 2", "'ymax': not an integer"),
    ]:
        with pytest.raises(CliError, match=message):
            parse_problem_text(f"{base}{text}\n")


def test_the_digit_limit_is_exact_and_reads_exponents_of_zero_and_of_junk():
    base = "coeffs = 0 -4 0 1\nm = 3\n"
    assert parse_problem_text(f"{base}K = 1e4299\n").K == 10**4299
    assert parse_problem_text(f"{base}K = 1\nepsilon = 1e-4299\n").epsilon == Fraction(1, 10**4299)
    for text, message in [
        ("K = 1e4300", "'K': numerator or denominator longer than 4300 digits"),
        ("K = 1\nepsilon = 1e-4300", "'epsilon': numerator or denominator longer than 4300 digits"),
        ("K = 1\nepsilon = 0e-99999999", "'epsilon': must lie strictly between 0 and 1"),
        ("K = x1e99999999", "'K': not a rational number"),
    ]:
        with pytest.raises(CliError, match=message):
            parse_problem_text(f"{base}{text}\n")


def test_values_too_long_to_print_name_their_input(capsys, problem_file, tmp_path):
    huge = tmp_path / "huge.txt"
    huge.write_text(PROBLEM.replace("K = 1", "K = 1e3000"), encoding="utf-8")
    status, _, err = run(capsys, "constants", str(huge))
    assert (status, err) == (1, "error: field 'K': a constant or threshold has more than 4300 digits to print\n")
    candidate = f"{10**1000},0,1,0"
    status, _, err = run(capsys, "verify", problem_file, "1,0,0,0", candidate, "--json")
    assert (status, err) == (1, f"error: quadruple {candidate}: norm of F has more than 4300 digits to print\n")
    huge.write_text(f"coeffs = 0 -{10**3000} 0 1\nm = 1\nK = 1e4000\n", encoding="utf-8")
    for json_flag in ((), ("--json",)):
        status, _, err = run(capsys, "oracle", str(huge), "--height", "1", *json_flag)
        assert (status, err) == (1, f"error: quadruple -1,-1,-1,0: norm of F has more than 4300 digits to print\n")
    status, out, _ = run(capsys, "verify", problem_file, f"{10**700},0,1,0")
    norm = (10**2100 - 4 * 10**700) ** 2  # F = x^3 - 4x at x = 10^700, y = 1
    assert status == 0 and out.startswith(f"candidate {10**700},0,1,0 non-solution norm={norm} ")


def test_m_is_checked_by_the_field(capsys, tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text(PROBLEM.replace("m = 3", "m = 0"), encoding="utf-8")
    status, _, err = run(capsys, "solve", str(path))
    assert (status, err) == (1, "error: field 'm': m must be a positive integer\n")


def test_check_reports_each_quadruple_only_one_side_found(capsys, problem_file, monkeypatch):
    # an oracle that misses (0, 1, 0, 0), a solution, and lists (3, 3, 3, 3), which is none
    def skewed(*args):
        found = brute_force(*args)
        kept = tuple(row for row in found.solutions if row[0] != (0, 1, 0, 0))
        return found._replace(solutions=(*kept, ((3, 3, 3, 3), 0)))

    monkeypatch.setattr("relthue.cli.brute_force", skewed)
    status, out, _ = run(capsys, "check", problem_file)
    assert status == 2
    assert out.splitlines()[-4:] == ["common 70", "solver-only 0 1 0 0", "oracle-only 3 3 3 3", "MISMATCH"]
    status, out, _ = run(capsys, "check", problem_file, "--json")
    parsed = json.loads(out)
    assert status == 2
    assert (parsed["match"], parsed["common"], parsed["cross_check_ok"]) == (False, 70, True)
    assert (parsed["solver_only"], parsed["oracle_only"]) == ([[0, 1, 0, 0]], [[3, 3, 3, 3]])


def test_check_rejects_a_reach_short_of_the_box(capsys, tmp_path):
    # s = 1 here, so the oracle box of half-width 4 needs ymax >= 4
    path = tmp_path / "short.txt"
    path.write_text("coeffs = 0 -12 7 11 -7 1\nm = 57\nK = 1\nymax = 3\n", encoding="utf-8")
    status, out, err = run(capsys, "check", str(path))
    assert (status, out) == (1, "")
    assert "ymax 3 (from the problem file)" in err and "minimum 4" in err and "height 4 (from the problem file)" in err
    status, _, err = run(capsys, "check", str(path), "--ymax", "5", "--height", "6")
    assert status == 1
    assert "ymax 5 (from --ymax)" in err and "minimum 6" in err and "height 6 (from --height)" in err
    status, out, _ = run(capsys, "check", str(path), "--ymax", "4")
    assert status == 0 and out.splitlines()[-1] == "MATCH"


@pytest.mark.parametrize("k", [6, 24])
@pytest.mark.parametrize("m,ymax", [(2, 4), (3, 12)])
def test_check_matches_on_near_double_root_cubics(capsys, tmp_path, k, m, ymax):
    # x^3 - 2(10^k x - 1)^2: two roots about 10^(-3k/2) apart
    path = tmp_path / "near_double.txt"
    coeffs = f"-2 {4 * 10**k} {-2 * 10 ** (2 * k)} 1"
    path.write_text(f"coeffs = {coeffs}\nm = {m}\nK = 2\nymax = {ymax}\n", encoding="utf-8")
    status, out, _ = run(capsys, "check", str(path), "--height", "4")
    assert status == 0 and out.splitlines()[-1] == "MATCH"


def test_check_expands_only_the_family_members_in_the_box(capsys, tmp_path, monkeypatch):
    generated = []
    expand = RelativeSolutionSet.family_members

    def counted(self, *args):
        for quad in expand(self, *args):
            generated.append(quad)
            yield quad

    monkeypatch.setattr(RelativeSolutionSet, "family_members", counted)
    path = tmp_path / "wide.txt"
    path.write_text("coeffs = 0 -4 0 1\nm = 3\nK = 1\nymax = 2000\noracle_height = 2\n", encoding="utf-8")
    status, out, _ = run(capsys, "check", str(path))
    assert status == 0 and out.splitlines()[-1] == "MATCH"
    # three families, each with at most (2*box + 1)^2 members in the box; all of them at ymax would be ~24 M
    assert 0 < len(generated) <= 3 * 5**2
    spec = parse_problem_text(PROBLEM)
    solved = solve_relative(spec.field, spec.form, spec.K, spec.epsilon, 12)
    for box in range(5):
        inside = [q for q in expand(solved) if max(map(abs, q)) <= box]
        assert list(expand(solved, box)) == inside


def test_m_above_the_limit_is_rejected(capsys, tmp_path):
    path = tmp_path / "huge_m.txt"
    path.write_text(f"coeffs = 0 -4 0 1\nm = {10**30}\nK = 1\n", encoding="utf-8")
    status, _, err = run(capsys, "solve", str(path))
    assert status == 1
    assert "field 'm'" in err and "2^63" in err


# Fuzz: mostly well-formed input with junk mixed in, so that a good share of the runs
# get past validation.  Small values keep every accepted problem cheap to solve:
# heights at most 4, oracle box at most 2.
def _junk(max_size):
    return st.text(alphabet=string.ascii_letters + string.digits + " ,/.#=-", max_size=max_size)


def _spaced(values):
    return " ".join(map(str, values))


@st.composite
def _mostly(draw, valid, invalid):
    """A draw from ``valid`` five times in six; the simplest choice (0) is valid."""
    return draw(invalid if draw(st.integers(0, 5)) == 5 else valid)


split = st.lists(st.integers(-4, 4), min_size=3, max_size=5, unique=True).map(lambda r: form_from_roots(r).coeffs)
monic = st.lists(st.integers(-6, 6), min_size=3, max_size=5).map(lambda c: (*c, 1))
SQUAREFREE = [m for m in range(1, 61) if all(m % (d * d) for d in range(2, 8))]
FIELD_VALUES = {
    "coeffs": _mostly(
        split.map(_spaced), monic.map(_spaced) | st.lists(st.integers(-6, 6), max_size=6).map(_spaced) | _junk(6)
    ),
    "m": _mostly(
        st.sampled_from(SQUAREFREE).map(str), st.integers(-3, 60).map(str) | st.just(str(2**63 + 1)) | _junk(3)
    ),
    "K": _mostly(
        st.fractions(1, 30, max_denominator=4).map(str), st.fractions(-2, 1, max_denominator=4).map(str) | _junk(3)
    ),
    "epsilon": _mostly(st.fractions(0, 1, max_denominator=5).filter(lambda e: 0 < e < 1).map(str), _junk(3)),
    "ymax": _mostly(st.integers(0, 4).map(str), st.integers(-3, -1).map(str) | _junk(2)),
    "oracle_height": _mostly(st.integers(0, 2).map(str), st.integers(-3, -1).map(str) | _junk(2)),
    "bogus": _junk(3),
}
problem_lines = st.sampled_from(sorted(FIELD_VALUES)).flatmap(
    lambda key: FIELD_VALUES[key].map(lambda value: f"{key} = {value}")
)


@st.composite
def problem_texts(draw):
    """The three required fields, some optional ones, in any order, and at times a junk line."""
    keys = ["coeffs", "m", "K"] + [key for key in ("epsilon", "ymax", "oracle_height") if draw(st.booleans())]
    lines = [f"{key} = {draw(FIELD_VALUES[key])}" for key in draw(st.permutations(keys))]
    if draw(st.integers(0, 3)) == 3:
        lines.insert(draw(st.integers(0, len(lines))), draw(problem_lines | _junk(10)))
    return "\n".join(lines)


OPTIONS = {
    "--epsilon": FIELD_VALUES["epsilon"],
    "--ymax": FIELD_VALUES["ymax"],
    "--height": FIELD_VALUES["oracle_height"],
    "--coeffs": FIELD_VALUES["coeffs"],
    "--kprime": _mostly(st.fractions(0, 30, max_denominator=4).map(str), st.just("-1") | _junk(3)),
    "--json": st.just(None),
    "--families": st.just(None),
}
COMMAND_OPTIONS = {
    "solve": ["--epsilon", "--ymax", "--families", "--json"],
    "abs": ["--json"],
    "constants": ["--epsilon", "--json"],
    "verify": ["--json"],
    "oracle": ["--height", "--json"],
    "check": ["--epsilon", "--ymax", "--height", "--json"],
    "bogus": ["--json"],
}
candidates = st.lists(st.integers(-4, 4), min_size=3, max_size=5).map(lambda c: ",".join(map(str, c)))


def _option(name):
    return OPTIONS[name].map(lambda value: [name] if value is None else [name, value])


@st.composite
def argvs(draw, path):
    """A command, its positionals, some of its own options and at times a foreign option or junk token."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    argv = [command]
    if command == "abs":
        for name in ("--coeffs", "--kprime", "--ymax"):
            argv += [name, draw(OPTIONS[name])]
    else:
        argv.append(path)
    if command == "verify":
        argv += draw(st.lists(candidates, min_size=1, max_size=3))
    for name in draw(st.lists(st.sampled_from(COMMAND_OPTIONS[command]), max_size=3, unique=True)):
        argv += draw(_option(name))
    if draw(st.integers(0, 3)) == 3:
        # a bare token never starts with "-", which could spell an abbreviation of --help
        stray = st.text(alphabet=string.ascii_letters + string.digits + ",/.", max_size=4)
        argv += draw(st.sampled_from(sorted(OPTIONS)).flatmap(_option) | stray.map(lambda token: [token]))
    return argv


@settings(deadline=None)
@given(problem_texts() | st.text())
def test_fuzzed_problem_text_parses_or_raises_cli_error(text):
    try:
        assert isinstance(parse_problem_text(text), ProblemSpec)
    except CliError:
        pass


@settings(max_examples=60, deadline=None)
@given(problem_texts(), st.data())
def test_fuzzed_cli_runs_end_in_an_exit_status(text, data):
    # --help is left out: argparse prints the help and raises SystemExit(0), as intended
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.txt"
        path.write_text(text, encoding="utf-8")
        argv = data.draw(argvs(str(path)))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = main(argv)
    assert status in (0, 1, 2)


def test_importing_the_package_and_its_cli_loads_no_dataclasses_logging_or_inspect():
    # every relthue process pays for what this import loads; -S keeps site hooks from loading anything first
    src = Path(__file__).parent.parent / "src"
    code = "import sys; import relthue, relthue.cli; print(sorted({'dataclasses', 'logging', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
