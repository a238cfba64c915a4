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
    "CandidateModulus",
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
    "doubling_seed",
    "enumerate_binary_ideal",
    "factorize",
    "find_modulus",
    "gcd_many",
    "gram_check",
    "is_prime",
    "periodic_autocorr",
    "power_seed",
    "primes_up_to",
    "scan_masks",
    "search_prime",
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
    assert len(rrseq.__all__) == len(set(rrseq.__all__)) == 30
    assert set(rrseq.__all__) == PUBLIC
    for name in rrseq.__all__:
        assert hasattr(rrseq, name), name


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
