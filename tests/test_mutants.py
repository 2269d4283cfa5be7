from pathlib import Path

import pytest

import relthue
from mutants import MUTANTS

SRC = Path(relthue.__file__).parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: f"{mutant.file}:{mutant.replacement.strip()[:40]}")
def test_every_snippet_of_the_mutation_table_occurs_once(mutant):
    assert (SRC / mutant.file).read_text(encoding="utf-8").count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert all(Path(__file__).parent.parent.joinpath(test.split("::")[0]).is_file() for test in mutant.tests)
