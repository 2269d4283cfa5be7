import relthue
from relthue.abssolver import AbsSolutionSet
from relthue.oracle import OracleResult
from relthue.reducer import RelativeSolution, RelativeSolutionSet
from relthue.theorem import TheoremReport

# The documented entry points, as the README lists them; building blocks are imported from their modules.
ENTRY_POINTS = [
    "BinaryForm",
    "InadmissibleFormError",
    "Problem",
    "QuadraticField",
    "brute_force",
    "check_admissible",
    "full_report",
    "integer_roots",
    "solve_abs",
    "solve_relative",
]


def test_the_package_exports_the_ten_documented_entry_points():
    assert relthue.__all__ == ENTRY_POINTS
    namespace = {}
    exec("from relthue import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ENTRY_POINTS
    assert all(callable(value) for value in namespace.values())


def test_the_result_records_hold_these_fields():
    # the records of the library contract, as the README lists them: a field added or removed changes the contract
    assert RelativeSolution._fields == ("quadruple", "value_norm", "report")
    assert RelativeSolutionSet._fields == ("solutions", "search_height", "families", "cross_check_ok", "field")
    assert AbsSolutionSet._fields == ("height", "degree", "rows", "span_roots", "span_start")
    assert OracleResult._fields == ("solutions",)
    assert TheoremReport._fields == (
        "norm_y",
        "real_bound_ok",
        "imag_bound_ok",
        "joint_bound_ok",
        "proportional_applicable",
        "proportional_holds",
        "real_vanish_applicable",
        "real_vanish_holds",
        "imag_vanish_applicable",
        "imag_vanish_holds",
    )
