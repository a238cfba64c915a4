"""The mutant list stays in step with the source and the suite: every
mutant's text is found exactly once in its file, so `python
tests/mutants.py` edits what it means to, the edited file still parses,
so its tests fail on its edit rather than on a broken import, and every
test a mutant names still exists, so a renamed test fails here rather
than in a mutant run.  The runner's verdict is checked on junit reports
written here, so no test starts a subprocess."""

import ast
import functools

import pytest

from mutants import MUTANTS, ROOT, verdict


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


TESTS = ("tests/test_a.py::test_one", "tests/test_b.py::test_two[3]")

PASSED = '<testcase classname="tests.test_a" name="test_one" />'
FAILED = '<testcase classname="tests.test_a" name="test_one"><failure message="assert" /></testcase>'
ERRORED = '<testcase classname="tests.test_b" name="test_two[3]"><error message="fixture" /></testcase>'
UNCOLLECTED = '<testcase classname="" name="tests.test_b"><error message="collection failure">ImportError</error></testcase>'


@pytest.mark.parametrize(
    "cases, outcome",
    [
        ([FAILED, ERRORED], "killed"),
        ([PASSED, ERRORED], "survived, not failed: tests/test_a.py::test_one"),
        ([FAILED, UNCOLLECTED], "did not run: collection error in tests/test_b.py"),
    ],
    ids=["killed", "survived", "collection-error"],
)
def test_verdict_reads_the_junit_report(tmp_path, cases, outcome):
    report = tmp_path / "report.xml"
    report.write_text(f'<testsuites><testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>')
    assert verdict(TESTS, report) == outcome
