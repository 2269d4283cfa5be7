from pathlib import Path

import pytest

import relthue
from mutants import MUTANTS

SRC = Path(relthue.__file__).parent
ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: f"{mutant.file}:{mutant.replacement.strip()[:40]}")
def test_every_snippet_of_the_mutation_table_occurs_once(mutant):
    assert (SRC / mutant.file).read_text(encoding="utf-8").count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert ROOT.joinpath(path).is_file(), test
        # a node id that names no test would make pytest exit 4, which the runner refuses to read as a kill
        assert not name or f"def {name.split('[')[0]}(" in ROOT.joinpath(path).read_text(encoding="utf-8"), test
