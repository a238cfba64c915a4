"""The public surface: `rrseq.__all__`, each of its names described in
README.md, every name the benchmark in perfbench/ takes from rrseq, so a
later cut cannot silently break it, and the package's own imports, which
the standard library alone serves."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import rrseq
from rrseq import FactorBudget

ROOT = Path(__file__).parent.parent
PERFBENCH = ROOT / "perfbench"
PERFBENCH_FILES = ("workloads.py", "checks.py")

# Each public name and the submodule that defines it.
PUBLIC = {
    "BinaryWitness": "witness",
    "CorrProfile": "correlation",
    "FactorBudget": "numtheory",
    "Factorization": "numtheory",
    "ModulusSearchOutcome": "modsearch",
    "RRCertificate": "verify",
    "SearchStatus": "modsearch",
    "SelectionPolicy": "modsearch",
    "SweepRow": "modsearch",
    "autocorr_mod": "correlation",
    "build_seed": "sequence",
    "check_rr": "verify",
    "enumerate_binary_ideal": "witness",
    "factorize": "numtheory",
    "find_modulus": "modsearch",
    "gcd_many": "numtheory",
    "gram_check": "verify",
    "is_prime": "numtheory",
    "periodic_autocorr": "correlation",
    "primes_up_to": "numtheory",
    "scan_masks": "witness",
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
    assert len(rrseq.__all__) == len(set(rrseq.__all__)) == len(PUBLIC) == 22
    assert set(rrseq.__all__) == set(PUBLIC)
    for name in rrseq.__all__:
        assert hasattr(rrseq, name), name
    assert set(PUBLIC) <= set(dir(rrseq))
    # build_seed is the one seed constructor
    for name in ("doubling_seed", "power_seed"):
        assert not hasattr(rrseq, name) and not hasattr(rrseq.sequence, name), name


# Constants the package does not export: callers take them from their module.
MODULE_ONLY = {
    "DEFAULT_BUDGET": "numtheory",
    "ROW_DOUBLING": "sequence",
    "ROW_KINDS": "sequence",
    "ROW_POWERS": "sequence",
}


@pytest.mark.parametrize("name, module", MODULE_ONLY.items())
def test_module_constants_are_not_exported(name, module):
    with pytest.raises(ImportError):
        exec(f"from rrseq import {name}", {})
    assert hasattr(importlib.import_module(f"rrseq.{module}"), name)


def test_corr_profile_is_its_values():
    # C(0) is values[0]; the profile has no other name for it
    assert list(rrseq.CorrProfile.__dataclass_fields__) == ["values"]
    assert not hasattr(rrseq.CorrProfile, "peak")


def _readme_code(*headings: str) -> str:
    """The code blocks and code spans of these `##` sections of README.md."""
    sections = re.split(r"^## ", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.M)
    text = "\n".join(s for s in sections if s.split("\n", 1)[0] in headings)
    return "\n".join(re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S))


def test_every_public_name_is_described_in_the_readme():
    code = _readme_code("Library", "Binary witness scan")
    assert [name for name in rrseq.__all__ if not re.search(rf"\b{name}\b", code)] == []


def test_each_public_name_is_the_object_its_module_defines():
    # every public name resolves at first use
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
# below, a row that is not doubling loads the profiles, the certificates
# load rrseq.verify, the witness scan loads rrseq.witness, and none loads
# numpy.  `loaded` prints the ones in sys.modules.
LOADED = """
import sys
def loaded():
    print(*[m for m in ("rrseq.verify", "rrseq.correlation", "rrseq.witness", "numpy", "json") if m in sys.modules])
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
            ["", "", "rrseq.correlation", "rrseq.verify rrseq.correlation", "rrseq.verify rrseq.correlation"],
        ),
        (WITNESS_SCAN, ["", "rrseq.witness"]),
    ],
    ids=["search-path", "witness-scan"],
)
def test_no_entry_point_loads_numpy(fresh_python, code, lines):
    proc = fresh_python("-c", code)
    assert (proc.returncode, proc.stdout) == (0, "".join(line + "\n" for line in lines)), proc.stderr


FIRST_USE = """
import sys
def loaded():
    print(*sorted(m for m in sys.modules if m.startswith("rrseq.")))
import rrseq
loaded()
rrseq.find_modulus
loaded()
print("find_modulus" in vars(rrseq))
"""


def test_import_loads_no_submodule(fresh_python):
    # the first find_modulus loads its module, and binds the name in the package
    proc = fresh_python("-c", FIRST_USE)
    lines = ["", "rrseq.modsearch rrseq.numtheory rrseq.sequence", "True"]
    assert (proc.returncode, proc.stdout) == (0, "".join(line + "\n" for line in lines)), proc.stderr


def test_the_package_needs_only_the_standard_library():
    # ast.walk reaches the imports inside functions and `if TYPE_CHECKING:`
    tomllib = pytest.importorskip("tomllib")
    for path in sorted((ROOT / "src" / "rrseq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, node.lineno, name)
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


STAR_IMPORT = """
import rrseq
from rrseq import *
print(len([name for name in rrseq.__all__ if globals()[name] is getattr(rrseq, name)]))
"""


def test_star_import_binds_every_public_name(fresh_python):
    proc = fresh_python("-c", STAR_IMPORT)
    assert (proc.returncode, proc.stdout) == (0, "22\n"), proc.stderr
