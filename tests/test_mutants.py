"""The mutant list stays in step with the source: every mutant's text is
found exactly once in its file, so `python tests/mutants.py` edits what
it means to."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_text_occurs_once(mutant):
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.old != mutant.new and mutant.tests
