"""The mutant list stays in step with the source and the suite: every
mutant's text is found exactly once in its file, so `python
tests/mutants.py` edits what it means to, the edited file still parses,
so its tests fail on its edit rather than on a broken import, and every
test a mutant names still exists, so a renamed test fails here rather
than in a mutant run."""

import ast
import functools

import pytest

from mutants import MUTANTS, ROOT


@functools.cache
def _test_functions(path: str) -> frozenset[str]:
    """The names of the module-level test functions of a test file."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return frozenset(node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("test"))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_text_occurs_once(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.old != mutant.new and mutant.tests
    ast.parse(text.replace(mutant.old, mutant.new))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_tests_exist(mutant):
    for test_id in mutant.tests:
        path, name = test_id.split("::")
        assert name.split("[")[0] in _test_functions(path), test_id
