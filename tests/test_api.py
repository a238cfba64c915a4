"""The public surface: `rrseq.__all__`, and every name the benchmark in
perfbench/ takes from rrseq, so a later cut cannot silently break it."""

import ast
import importlib
from pathlib import Path

import pytest

import rrseq
from rrseq import FactorBudget

PERFBENCH = Path(__file__).parent.parent / "perfbench"
PERFBENCH_FILES = ("workloads.py", "checks.py")

PUBLIC = {
    "BinaryWitness",
    "CorrProfile",
    "DEFAULT_BUDGET",
    "FactorBudget",
    "Factorization",
    "ModulusSearchOutcome",
    "RRCertificate",
    "ROW_DOUBLING",
    "ROW_KINDS",
    "ROW_POWERS",
    "SearchStatus",
    "SelectionPolicy",
    "SweepRow",
    "autocorr_mod",
    "build_seed",
    "check_rr",
    "enumerate_binary_ideal",
    "factorize",
    "find_modulus",
    "gcd_many",
    "gram_check",
    "is_prime",
    "periodic_autocorr",
    "primes_up_to",
    "scan_masks",
    "sweep",
}


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _rrseq_imports():
    for name in PERFBENCH_FILES:
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.ImportFrom) and node.module in ("rrseq", "rrseq.numtheory"):
                for alias in node.names:
                    yield node.module, alias.name


def test_all_is_exactly_the_public_names():
    assert len(rrseq.__all__) == len(set(rrseq.__all__)) == len(PUBLIC)
    assert set(rrseq.__all__) == PUBLIC
    for name in rrseq.__all__:
        assert hasattr(rrseq, name), name
    # build_seed is the one seed constructor
    for name in ("doubling_seed", "power_seed"):
        assert not hasattr(rrseq, name) and not hasattr(rrseq.sequence, name), name


def test_perfbench_imports_resolve():
    imports = list(_rrseq_imports())
    assert ("rrseq", "build_seed") in imports and ("rrseq.numtheory", "Factorization") in imports
    for module, name in imports:
        mod = importlib.import_module(module)
        if not hasattr(mod, name):  # a submodule, such as rrseq.cli
            importlib.import_module(f"{module}.{name}")


def _budget_calls():
    for name in PERFBENCH_FILES:
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "FactorBudget":
                yield node


def test_perfbench_budgets_construct():
    calls = list(_budget_calls())
    assert len(calls) == 2
    for call in calls:
        args = [ast.literal_eval(a) for a in call.args]
        kwargs = {k.arg: ast.literal_eval(k.value) for k in call.keywords}
        assert isinstance(FactorBudget(*args, **kwargs), FactorBudget)


def test_factor_budget_fields():
    assert set(FactorBudget.__dataclass_fields__) == {"trial_bound", "rho_rounds", "ecm_curves"}
    with pytest.raises(TypeError):
        FactorBudget(rho_iters=1)


def test_sweep_row_is_a_pair():
    # the row number and the length are columns of the CLI, not of a row
    assert rrseq.SweepRow._fields == ("start_prime", "outcome")


# In a fresh interpreter: the search path never loads numpy, and the Gram
# check and the witness scan load it at first use.
SEARCH_PATH = """
import sys
import rrseq
rrseq.sweep(16, 100)
rrseq.find_modulus(rrseq.build_seed(3, 16))
assert rrseq.check_rr(rrseq.build_seed(3, 16), 3121).verified
print("numpy" in sys.modules)
assert rrseq.gram_check(rrseq.build_seed(3, 16), 3121)
print("numpy" in sys.modules)
"""

WITNESS_SCAN = """
import sys
import rrseq
print("numpy" in sys.modules)
rrseq.enumerate_binary_ideal(4)
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize("code", [SEARCH_PATH, WITNESS_SCAN], ids=["search-path", "witness-scan"])
def test_numpy_loads_only_for_the_gram_check_and_witness_scan(fresh_python, code):
    proc = fresh_python("-c", code)
    assert (proc.returncode, proc.stdout) == (0, "False\nTrue\n"), proc.stderr
