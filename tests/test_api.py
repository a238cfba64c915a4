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

# Each public name and the submodule that defines it.
PUBLIC = {
    "BinaryWitness": "verify",
    "CorrProfile": "correlation",
    "DEFAULT_BUDGET": "numtheory",
    "FactorBudget": "numtheory",
    "Factorization": "numtheory",
    "ModulusSearchOutcome": "modsearch",
    "RRCertificate": "verify",
    "ROW_DOUBLING": "sequence",
    "ROW_KINDS": "sequence",
    "ROW_POWERS": "sequence",
    "SearchStatus": "modsearch",
    "SelectionPolicy": "modsearch",
    "SweepRow": "modsearch",
    "autocorr_mod": "correlation",
    "build_seed": "sequence",
    "check_rr": "verify",
    "enumerate_binary_ideal": "verify",
    "factorize": "numtheory",
    "find_modulus": "modsearch",
    "gcd_many": "numtheory",
    "gram_check": "verify",
    "is_prime": "numtheory",
    "periodic_autocorr": "correlation",
    "primes_up_to": "numtheory",
    "scan_masks": "verify",
    "sweep": "modsearch",
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
    assert len(rrseq.__all__) == len(set(rrseq.__all__)) == len(PUBLIC) == 26
    assert set(rrseq.__all__) == set(PUBLIC)
    for name in rrseq.__all__:
        assert hasattr(rrseq, name), name
    assert set(PUBLIC) <= set(dir(rrseq))
    # build_seed is the one seed constructor
    for name in ("doubling_seed", "power_seed"):
        assert not hasattr(rrseq, name) and not hasattr(rrseq.sequence, name), name


def test_each_public_name_is_the_object_its_module_defines():
    # the names of rrseq.verify and rrseq.correlation resolve at first use
    for name, module in PUBLIC.items():
        assert getattr(rrseq, name) is getattr(importlib.import_module(f"rrseq.{module}"), name), name
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        rrseq.nonsense


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


# In a fresh interpreter: the search path loads none of the modules
# below, a row that is not doubling loads the profiles, and the
# certificates and the witness scan load rrseq.verify, and numpy at the
# Gram check or the scan.  `loaded` prints the ones in sys.modules.
LOADED = """
import sys
def loaded():
    print(*[m for m in ("rrseq.verify", "rrseq.correlation", "numpy", "json") if m in sys.modules])
import rrseq
"""

SEARCH_PATH = LOADED + """
loaded()
rrseq.sweep(16, 100)
rrseq.find_modulus(rrseq.build_seed(3, 16))
loaded()
rrseq.find_modulus(rrseq.build_seed(3, 16, "powers"))
loaded()
assert rrseq.check_rr(rrseq.build_seed(3, 16), 3121).verified
loaded()
assert rrseq.gram_check(rrseq.build_seed(3, 16), 3121)
loaded()
"""

WITNESS_SCAN = LOADED + """
loaded()
rrseq.enumerate_binary_ideal(4)
loaded()
"""


@pytest.mark.parametrize(
    "code, lines",
    [
        (
            SEARCH_PATH,
            ["", "", "rrseq.correlation", "rrseq.verify rrseq.correlation", "rrseq.verify rrseq.correlation numpy"],
        ),
        (WITNESS_SCAN, ["", "rrseq.verify rrseq.correlation numpy"]),
    ],
    ids=["search-path", "witness-scan"],
)
def test_numpy_loads_only_for_the_gram_check_and_witness_scan(fresh_python, code, lines):
    proc = fresh_python("-c", code)
    assert (proc.returncode, proc.stdout) == (0, "".join(line + "\n" for line in lines)), proc.stderr


STAR_IMPORT = """
import rrseq
from rrseq import *
print(len([name for name in rrseq.__all__ if globals()[name] is getattr(rrseq, name)]))
"""


def test_star_import_binds_every_public_name(fresh_python):
    proc = fresh_python("-c", STAR_IMPORT)
    assert (proc.returncode, proc.stdout) == (0, "26\n"), proc.stderr
