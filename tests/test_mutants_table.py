"""bench/mutants.py's table still fits the code it mutates.

Every row's snippet must occur exactly once in its source file, so that
the mutant edits one place, and every test file a row names must exist.
No mutant runs here: bench/mutants.py runs them, outside Tier-1.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_mutants", ROOT / "bench" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

ROWS = {row[0]: row for row in mutants.MUTANTS}


def test_row_names_are_distinct():
    assert len(ROWS) == len(mutants.MUTANTS)


@pytest.mark.parametrize("name", ROWS)
def test_snippet_occurs_once_and_the_tests_exist(name):
    _, path, old, new, tests = ROWS[name]
    assert (ROOT / path).read_text().count(old) == 1
    assert old != new and tests
    for test in tests:
        assert (ROOT / test).is_file(), test
