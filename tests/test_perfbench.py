"""perfbench's own code run against the library.

test_api.py checks that every name perfbench imports from rrseq exists;
this runs the code that reads them.  The warm-up and the checkers'
self-check pass, and for each workload one unit, run and then traced,
passes its checks, the same checks behind the benchmark's `correct`
and certified_frac.  perfbench reads members that no import names, such
as `SweepRow.outcome` and `ModulusSearchOutcome.valid_moduli()`; a
library change that drops one fails here, not first in a benchmark run.
"""

from pathlib import Path

import pytest

from conftest import SRC

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DATA = Path(__file__).parent / "data"

sympy = pytest.importorskip("sympy")


@pytest.fixture
def bench(monkeypatch):
    """perfbench's modules, imported the way perfbench/run.py imports them;
    its cli-sweep children import rrseq from this checkout."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setenv("PYTHONPATH", str(SRC))
    import checks
    import workloads
    from tracing import Tracer

    return checks, workloads, Tracer


def test_warm_up_and_self_check(bench, tmp_path):
    checks, workloads, Tracer = bench
    workloads.warm_up(Tracer(), workloads.LayerCounts(), tmp_path)
    pairs = checks.read_pairs(DATA / "reference_pairs_len16.csv")
    counts = checks.read_counts(DATA / "binary_witness_counts.csv")
    assert checks.self_check(sympy.isprime, pairs, counts) == []


def _workload(name, checks, workloads, tr, tmp):
    """The workload perfbench/run.py builds for `--workload name --seed 0`."""
    if name == "table-n16":
        return workloads.table_n16(0, tr, checks.read_pairs(DATA / "reference_pairs_len16.csv"))
    if name == "certify-n128":
        return workloads.certify_n128(0, tr, sympy.isprime)
    if name == "witness-scan":
        return workloads.WitnessScan(0, checks.read_counts(DATA / "binary_witness_counts.csv"))
    return workloads.CliSweep(0, tr, tmp)


@pytest.mark.parametrize("name", ["table-n16", "certify-n128", "witness-scan", "cli-sweep"])
def test_first_unit_of_each_workload_passes_its_checks(name, bench, tmp_path):
    checks, workloads, Tracer = bench
    tr, lc = Tracer(), workloads.LayerCounts()
    wl = _workload(name, checks, workloads, tr, tmp_path)
    if hasattr(wl, "prepare"):
        wl.prepare()
    unit = wl.units()[0]
    wl.check(unit, wl.run(unit))
    wl.check(unit, wl.trace(unit, tr, lc))
    assert wl.attempted > 0 and wl.failed == 0
    assert wl.problems() == []
