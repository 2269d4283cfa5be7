"""No floating point in the package: every accept/reject decision is exact integer or rational arithmetic.

The source of ``src/relthue`` is read as syntax trees, and each float literal, true division (``/`` or
``/=``) and call of ``float``, ``round``, ``math.sqrt``, ``math.exp`` or a ``math.log*`` function is
reported with its place.  ``ALLOWED`` lists the places that may keep one, as "file:line"; it is empty.
"""

import ast
from pathlib import Path

import pytest

import relthue

SRC = Path(relthue.__file__).parent
ALLOWED: set[str] = set()
BUILTINS = {"float", "round"}
MATH = {"sqrt", "exp"}


def _math_names(tree: ast.Module) -> set[str]:
    """The names ``from math import ...`` binds to a forbidden function, under their local names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            names |= {alias.asname or alias.name for alias in node.names if _forbidden_math(alias.name)}
    return names


def _forbidden_math(name: str) -> bool:
    return name in MATH or name.startswith("log")


def float_uses(source: str) -> list[tuple[int, str]]:
    """(line, what) of every float literal, true division and forbidden call in ``source``."""
    tree = ast.parse(source)
    imported = _math_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and (func.id in BUILTINS or func.id in imported):
                found.append((node.lineno, f"call of {func.id}"))
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "math"
                and _forbidden_math(func.attr)
            ):
                found.append((node.lineno, f"call of math.{func.attr}"))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_the_package_uses_no_floating_point(path):
    uses = [
        f"{path.name}:{line} {what}"
        for line, what in float_uses(path.read_text(encoding="utf-8"))
        if f"{path.name}:{line}" not in ALLOWED
    ]
    assert not uses


def test_the_scan_finds_each_kind_of_float_use():
    source = (
        "import math\nfrom math import log2 as lg, isqrt\n"
        "a = 0.5\nb = x / y\nc = float(x)\nd = round(x)\ne = math.sqrt(x)\nf = math.log10(x)\n"
        "g = math.exp(x)\nh = lg(x)\nz /= 2\ni = isqrt(x) // 2\nj = 1j\n"
    )
    assert sorted(line for line, _ in float_uses(source)) == [3, 4, 5, 6, 7, 8, 9, 10, 11, 13]
