import relthue

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
