import json
from fractions import Fraction
from pathlib import Path

import pytest

from relthue import brute_force, solve_relative
from relthue.cli import (
    decimal_str,
    main,
    oracle_payload,
    parse_problem_text,
    solve_payload,
)

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
    assert spec.coeffs == (0, -4, 0, 1)
    assert spec.m == 7
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
    fresh = solve_relative(spec.field(), spec.form(), spec.K, spec.epsilon, spec.ymax)
    assert parsed == solve_payload(spec, fresh)


def test_oracle_command_and_round_trip(capsys, problem_file):
    status, out, _ = run(capsys, "oracle", problem_file, "--height", "2", "--json")
    assert status == 0
    parsed = json.loads(out)
    spec = parse_problem_text(PROBLEM)
    fresh = brute_force(spec.field(), spec.form(), spec.K, 2)
    assert parsed == oracle_payload(spec, 2, fresh)


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


def test_missing_field_is_status_1(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("coeffs = 0 -4 0 1\nK = 1\n", encoding="utf-8")
    status, _, err = run(capsys, "solve", str(path))
    assert status == 1
    assert "missing required field 'm'" in err


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
    assert decimal_str(Fraction(1, 2), 4) == "0.5000"
    assert decimal_str(Fraction(-7, 3), 6) == "-2.333333"
    assert decimal_str(Fraction(2), 3) == "2.000"


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
    ],
)
def test_output_matches_golden(capsys, problem_file, name, argv):
    # tests/golden/<name>.out holds the stdout of the same command, recorded once
    status, out, _ = run(capsys, *(arg.format(problem=problem_file) for arg in argv))
    assert status == 0
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
