"""Command-line surface: arguments, exit codes, output formats."""

import argparse
import collections
import contextlib
import csv
import errno
import functools
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest
from conftest import SRC
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rrseq.cli import (
    _FIELD_KINDS, _PLOT_FIELDS, _STATUS_EXIT, _SWEEP_FIELDS, _build_parser, _cell, _parse_seq, main,
)
from rrseq.modsearch import ModulusSearchOutcome, SearchStatus, SweepRow, find_modulus, sweep
from rrseq.numtheory import DEFAULT_BUDGET, Factorization, FactorBudget, primes_up_to
from rrseq.sequence import build_seed


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seed_powers_row(capsys):
    code, out, _ = run(["seed", "-p", "2", "-n", "4", "--row", "powers"], capsys)
    assert code == 0
    assert out == "2,4,8,16\n"


def test_seed_default_is_doubling(capsys):
    code, out, _ = run(["seed", "-p", "2", "-n", "4"], capsys)
    assert code == 0
    assert out == "2,2,4,8\n"


def test_seed_json(capsys):
    code, out, _ = run(["seed", "-p", "3", "-n", "3", "--row", "powers", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == ["3", "9", "27"]


def test_seed_rejects_composite(capsys):
    code, _, err = run(["seed", "-p", "4", "-n", "3"], capsys)
    assert code == 2
    assert "not prime" in err


def test_autocorr_built_row(capsys):
    code, out, _ = run(["autocorr", "-p", "2", "-n", "4", "--row", "powers"], capsys)
    assert code == 0
    assert out == "340,200,160,200\n"


def test_autocorr_explicit_row(capsys):
    code, out, _ = run(["autocorr", "--seq", "2,4,8,16"], capsys)
    assert code == 0
    assert out == "340,200,160,200\n"


def test_autocorr_needs_exactly_one_source(capsys):
    code, _, err = run(["autocorr"], capsys)
    assert code == 2
    code, _, err = run(["autocorr", "--seq", "1,2", "-p", "2", "-n", "4"], capsys)
    assert code == 2


def test_autocorr_bad_seq(capsys):
    for seq in ("1,x,3", "abc", "1,,2", "1,2,", ",1,2", ",", ""):
        code, out, err = run(["autocorr", "--seq", seq], capsys)
        assert code == 2
        assert out == ""
        assert "cannot parse" in err
    assert run(["autocorr", "--seq", " 2 , 4,8 ,16"], capsys)[:2] == (0, "340,200,160,200\n")
    code, _, err = run(["autocorr", "--seq", "5"], capsys)
    assert code == 2
    assert "at least 2" in err


def test_autocorr_seq_refuses_non_decimal_spellings(capsys):
    # int() reads "\uff11" as 1 and "1_0" as 10; --seq takes ASCII decimals only
    for seq in ("\uff11,\uff12", "1_0,2"):
        code, out, err = run(["autocorr", "--seq", seq], capsys)
        assert (code, out) == (2, "")
        assert "cannot parse sequence" in err


_ORACLE_ENTRY = r"\s*[+-]?\d+\s*"  # with re.ASCII: \s is [ \t\n\r\f\v], \d is [0-9]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.text(alphabet=" \t\n,+-_0123456789x\uff11\u0661\u00a0\u3000", max_size=12)
    | st.from_regex(r"[ \t]*[+-]?[0-9]{1,4}[ \n]*(,[ \t]*[+-]?[0-9]{1,4}[ \n]*){0,5}", fullmatch=True)
)
def test_parse_seq_accepts_exactly_signed_ascii_decimals(text):
    tokens = text.split(",")
    if all(re.fullmatch(_ORACLE_ENTRY, t, re.ASCII) for t in tokens):
        assert _parse_seq(text) == tuple(int(t) for t in tokens)
    else:
        with pytest.raises(ValueError, match="cannot parse sequence"):
            _parse_seq(text)


def test_autocorr_seq_past_limit_exit_2(monkeypatch, capsys):
    # refused before any profile is computed
    def no_profile(seq):
        raise AssertionError("profile computed for an over-long --seq row")

    monkeypatch.setattr("rrseq.correlation.periodic_autocorr", no_profile)
    code, out, err = run(["autocorr", "--seq", ",".join(["1"] * 2049)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "at most 2048" in err


def test_search_found(capsys):
    code, out, _ = run(["search", "-p", "2", "-n", "16"], capsys)
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["status"] == "Found"
    assert row["canonical_modulus"] == "331"
    assert row["valid_candidates"] == "3;11;331"
    assert row["gcd"] == "43692"


def test_search_negative_exit(capsys):
    code, out, _ = run(["search", "-p", "2", "-n", "4", "--row", "powers"], capsys)
    assert code == 1
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["status"] == "NoValidModulus"
    assert row["canonical_modulus"] == ""
    assert row["all_candidates"] == "2;5"


def test_search_json_fields(capsys):
    code, out, _ = run(
        ["search", "-p", "2", "-n", "4", "--row", "powers", "--format", "json"], capsys
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["gcd"] == "40"
    assert obj["factors"] == [{"prime": "2", "exp": 3}, {"prime": "5", "exp": 1}]
    assert obj["canonical_modulus"] is None
    assert [c["valid"] for c in obj["candidates"]] == [False, False]


def test_search_policy_flag(capsys):
    code, out, _ = run(["search", "-p", "2", "-n", "16", "--policy", "smallest"], capsys)
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["canonical_modulus"] == "3"


def test_exit_code_mapping_is_total():
    assert _STATUS_EXIT[SearchStatus.FOUND] == 0
    assert _STATUS_EXIT[SearchStatus.NO_SEQUENCE] == 1
    assert _STATUS_EXIT[SearchStatus.NO_VALID_MODULUS] == 1
    assert _STATUS_EXIT[SearchStatus.INCOMPLETE_FACTORIZATION] == 3
    assert set(_STATUS_EXIT) == set(SearchStatus)


def test_verify_ok(capsys):
    code, out, _ = run(["verify", "-p", "2", "-n", "16", "-m", "331"], capsys)
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["verified"] == "true"
    assert row["gram_ok"] == "true"


def test_verify_failure(capsys):
    code, out, _ = run(["verify", "-p", "2", "-n", "4", "-m", "5", "--row", "powers"], capsys)
    assert code == 1
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["verified"] == "false"


def test_verify_wide_modulus(capsys):
    # the canonical modulus of the N = 128 row for p = 3 has 125 bits, so
    # the Gram check rebuilds its entries from several primes
    m = "37809151880104273718152734159085356829"
    code, out, _ = run(["verify", "-p", "3", "-n", "128", "-m", m], capsys)
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["verified"] == "true"
    assert row["gram_ok"] == "true"
    # 2**61 - 1 does not divide that row's off-peak gcd
    code, out, _ = run(["verify", "-p", "3", "-n", "128", "-m", str(2**61 - 1)], capsys)
    assert code == 1
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["verified"] == "false"
    assert row["gram_ok"] == "false"


def test_verify_nonprime_modulus(capsys):
    code, _, err = run(["verify", "-p", "2", "-n", "16", "-m", "332"], capsys)
    assert code == 2
    assert "not prime" in err


def test_sweep_row_count_and_membership(capsys):
    code, out, _ = run(["sweep", "-n", "16", "--primes-up-to", "100"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 26  # header + 25 primes below 100
    rows = list(csv.DictReader(io.StringIO(out)))
    by_prime = {r["start_prime"]: r for r in rows}
    assert by_prime["2"]["canonical_modulus"] == "331"
    # primes the reference data skips still get an explicit row
    assert by_prime["79"]["status"] in {s.value for s in SearchStatus}
    assert by_prime["97"]["status"] in {s.value for s in SearchStatus}


def test_sweep_deterministic(capsys):
    code1, out1, _ = run(["sweep", "-n", "8", "--primes-up-to", "50"], capsys)
    code2, out2, _ = run(["sweep", "-n", "8", "--primes-up-to", "50"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_csv_round_trip(capsys):
    _, out, _ = run(["sweep", "-n", "16", "--primes-up-to", "60"], capsys)
    parsed = list(csv.DictReader(io.StringIO(out)))
    reference = sweep(16, prime_bound=60)
    assert len(parsed) == len(reference)
    for i, (text_row, (p, o)) in enumerate(zip(parsed, reference), 1):
        assert int(text_row["index"]) == i
        assert int(text_row["start_prime"]) == p
        assert int(text_row["length"]) == 16
        assert int(text_row["gcd"]) == o.gcd_value
        assert text_row["status"] == o.status.value
        canonical = int(text_row["canonical_modulus"]) if text_row["canonical_modulus"] else None
        assert canonical == o.canonical
        valid = tuple(int(t) for t in text_row["valid_candidates"].split(";") if t)
        assert valid == o.valid_moduli()
        everything = tuple(int(t) for t in text_row["all_candidates"].split(";") if t)
        assert everything == tuple(q for q, _ in o.candidates)
        assert (text_row["efficient"] == "true") == (canonical is not None and canonical <= 16)


def test_sweep_json_round_trip(capsys):
    _, out, _ = run(["sweep", "-n", "16", "--primes-up-to", "30", "--format", "json"], capsys)
    objs = json.loads(out)
    reference = sweep(16, prime_bound=30)
    assert len(objs) == len(reference)
    for i, (obj, (p, o)) in enumerate(zip(objs, reference), 1):
        assert obj["index"] == i
        assert int(obj["start_prime"]) == p
        assert obj["length"] == 16
        assert int(obj["gcd"]) == o.gcd_value
        assert [int(q) for q in obj["valid_candidates"]] == list(o.valid_moduli())
        assert obj["efficient"] == (o.canonical is not None and o.canonical <= 16)


def test_efficient_flag(capsys):
    # efficient: the canonical modulus is at most the row length N
    _, out, _ = run(["sweep", "-n", "16", "--primes-up-to", "40"], capsys)
    rows = {r["start_prime"]: r for r in csv.DictReader(io.StringIO(out))}
    assert (rows["31"]["canonical_modulus"], rows["31"]["efficient"]) == ("7", "true")
    assert (rows["2"]["canonical_modulus"], rows["2"]["efficient"]) == ("331", "false")
    # the boundary, canonical modulus == N
    _, out, _ = run(["search", "-p", "3", "-n", "2", "--policy", "smallest", "--format", "json"], capsys)
    record = json.loads(out)
    assert (record["canonical_modulus"], record["efficient"]) == ("2", True)


def test_plotdata_pairs(capsys):
    code, out, _ = run(["plotdata", "-n", "16"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "start_prime,canonical_modulus"
    assert "2,331" in lines
    assert "31,7" in lines


def test_plotdata_length_15(capsys):
    _, out, _ = run(["plotdata", "-n", "15"], capsys)
    assert "53,73" in out.splitlines()


def test_plotdata_rejects_all_policy(capsys):
    code, _, err = run(["plotdata", "-n", "16", "--policy", "all"], capsys)
    assert code == 2
    assert "policy" in err


def _count_search_records(monkeypatch) -> collections.Counter:
    """Count, by class name, every Factorization, ModulusSearchOutcome and
    SweepRow constructed from now on, with spies on their constructors."""
    built = collections.Counter()
    for cls in (Factorization, ModulusSearchOutcome):

        def init(self, *args, _cls=cls, _real=cls.__init__, **kwargs):
            built[_cls.__name__] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    real_new = SweepRow.__new__

    def new(cls, *args, **kwargs):
        built["SweepRow"] += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(SweepRow, "__new__", new)
    return built


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "-n", "16", "--primes-up-to", "2000", "--format", "json"],
        ["sweep", "-n", "16", "--primes-up-to", "60", "--row", "powers", "--format", "json"],
        ["plotdata", "-n", "16", "--primes-up-to", "2000"],
    ],
)
def test_sweep_and_plotdata_build_no_search_records(argv, tmp_path, monkeypatch):
    # sweep and plotdata write each row from the plain values of the search
    # core; the library's records are for library callers.
    built = _count_search_records(monkeypatch)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.stat().st_size > 100
    assert built == {}
    # the spies do see the records the library builds
    sweep(16, 10)
    assert built == {"Factorization": 4, "ModulusSearchOutcome": 4, "SweepRow": 4}


def _sweep_record(i: int, n: int, p: int, o: ModulusSearchOutcome) -> dict:
    """Row i of `rrseq sweep -n n --format json`, rebuilt from the search
    outcome of its starting prime p, keys in the written order."""
    c = o.canonical
    return {
        "index": i,
        "start_prime": str(p),
        "length": n,
        "gcd": str(o.gcd_value),
        "status": o.status.value,
        "canonical_modulus": None if c is None else str(c),
        "valid_candidates": [str(q) for q in o.valid_moduli()],
        "all_candidates": [str(q) for q, _ in o.candidates],
        "efficient": c is not None and c <= n,
    }


# With rho and ECM off, --trial-bound 5 leaves an unfactored cofactor in
# most N = 64 rows, and some end IncompleteFactorization; with them on, no
# row the CLI can sweep in a test's time does.
_BARE_TRIAL = functools.partial(FactorBudget, rho_rounds=0, ecm_curves=0)


def _bound(n: int, kind: str) -> int:
    """The prime bound of the row-stream oracle: a powers row at N = 64
    with p = 19 takes seconds to factor."""
    return 300 if kind == "doubling" else 17 if n == 64 else 30


@functools.cache
def _rebuilt_records(command: str, n: int, kind: str, policy: str, trial_bound: int | None, bound: int) -> tuple:
    """The records of `rrseq <command>` rebuilt from find_modulus, one per
    starting prime p <= bound (sweep) or per Found one (plotdata)."""
    budget = DEFAULT_BUDGET if trial_bound is None else _BARE_TRIAL(trial_bound=trial_bound)
    outcomes = [(p, find_modulus(build_seed(p, n, kind), policy, budget)) for p in primes_up_to(bound)]
    if command == "sweep":
        return tuple(_sweep_record(i, n, p, o) for i, (p, o) in enumerate(outcomes, 1))
    return tuple(
        {"start_prime": str(p), "canonical_modulus": str(o.canonical)} for p, o in outcomes if o.canonical is not None
    )


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("trial_bound", [None, 5])
@pytest.mark.parametrize(
    # plotdata refuses --policy all (test_plotdata_rejects_all_policy)
    "command, policy",
    [("sweep", "smallest"), ("sweep", "largest"), ("sweep", "all"), ("plotdata", "smallest"), ("plotdata", "largest")],
)
@pytest.mark.parametrize("kind", ["doubling", "powers"])
@pytest.mark.parametrize("n", [2, 3, 15, 16, 24, 64])
def test_row_streams_equal_text_rebuilt_from_find_modulus(n, kind, command, policy, trial_bound, fmt, monkeypatch, capsys):
    # the rows of sweep and plotdata, byte for byte: JSON as json.dumps of
    # the records, CSV as their header and lines by the single-record cell
    # rules.
    bound = _bound(n, kind)
    argv = [command, "-n", str(n), "--primes-up-to", str(bound), "--policy", policy, "--row", kind, "--format", fmt]
    if trial_bound is not None:
        monkeypatch.setattr("rrseq.cli.FactorBudget", _BARE_TRIAL)
        argv += ["--trial-bound", str(trial_bound)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    records = _rebuilt_records(command, n, kind, policy, trial_bound, bound)
    fields = _SWEEP_FIELDS if command == "sweep" else _PLOT_FIELDS
    assert all(tuple(rec) == fields for rec in records)
    if fmt == "json":
        assert out == json.dumps(list(records), indent=2) + "\n"
    else:
        assert out == "".join([",".join(fields) + "\n"] + [",".join([_cell(rec[f]) for f in fields]) + "\n" for rec in records])


def test_row_stream_oracle_covers_every_kind_of_row():
    # the cases above write rows of each status a built row reaches (no
    # built row has an off-peak gcd of 1), null moduli, empty and full
    # candidate lists, and a plotdata run with no Found row
    rows = [
        rec
        for n, kind, trial_bound in ((2, "powers", None), (16, "powers", 5), (64, "doubling", 5))
        for rec in _rebuilt_records("sweep", n, kind, "largest", trial_bound, _bound(n, kind))
    ]
    assert {rec["status"] for rec in rows} == {"Found", "NoValidModulus", "IncompleteFactorization"}
    assert {rec["canonical_modulus"] is None for rec in rows} == {True, False}
    assert {len(rec["valid_candidates"]) > 0 for rec in rows} == {True, False}
    assert _rebuilt_records("plotdata", 16, "powers", "largest", None, _bound(16, "powers")) == ()


def test_row_stream_values_need_no_json_escaping():
    # the row writers put quotes around each field name and text value and
    # escape nothing: every value is a decimal or a status name, and every
    # field has a kind
    fields = set(_SWEEP_FIELDS) | set(_PLOT_FIELDS)
    assert set(_FIELD_KINDS) == fields
    for text in fields | {s.value for s in SearchStatus} | {"true", "false"}:
        assert json.dumps(text) == f'"{text}"' and re.fullmatch(r"\w+", text, re.ASCII)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "-n", "8", "--primes-up-to", "20"],
        ["plotdata", "-n", "16", "--primes-up-to", "40"],
        ["plotdata", "-n", "16", "--primes-up-to", "20", "--row", "powers"],  # no row is Found
    ],
)
def test_out_file_matches_stdout(argv, fmt, tmp_path, capsys):
    argv = argv + ["--format", fmt]
    _, stdout_text, _ = run(argv, capsys)
    target = tmp_path / "rows.out"
    code, out, _ = run(argv + ["--out", str(target)], capsys)
    assert code == 0
    assert out == ""  # nothing on stdout when writing a file
    assert target.read_text(encoding="utf-8") == stdout_text
    if "powers" in argv:
        assert stdout_text == ("[]\n" if fmt == "json" else "start_prime,canonical_modulus\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["plotdata", "-n", "16", "--policy", "all"],
        ["sweep", "-n", "1"],
        ["sweep", "-n", "16", "--primes-up-to", str(10**7 + 1)],
        ["sweep", "-n", "16", "--primes-up-to", "1"],
        ["plotdata", "-n", "1"],
    ],
)
def test_refused_run_creates_no_out_file(argv, tmp_path, capsys):
    # every check that exits 2 runs before --out is opened
    target = tmp_path / "x.out"
    code, out, err = run(argv + ["--out", str(target)], capsys)
    assert code == 2
    assert out == "" and err.startswith("error:")
    assert not target.exists()


def test_unwritable_out_path(tmp_path, capsys):
    target = tmp_path / "missing" / "rows.csv"
    code, _, err = run(["sweep", "-n", "8", "--primes-up-to", "20", "--out", str(target)], capsys)
    assert code == 4
    assert "cannot write" in err


@pytest.mark.slow
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["sweep", "plotdata"])
def test_sweep_output_in_bounded_memory(command, fmt, tmp_path):
    # rows are written as they are made: a 5x longer sweep barely moves the
    # traced peak, which holding every row and record put at ~30 MB
    target = tmp_path / "rows.out"
    argv = [command, "-n", "16", "--format", fmt, "--out", str(target), "--primes-up-to"]
    main(argv + ["100000"])  # fills the lazy chunk tables and the tail cache
    peaks = {}
    for bound in (20000, 100000):
        tracemalloc.start()
        try:
            assert main(argv + [str(bound)]) == 0
            peaks[bound] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[100000] < 2_000_000
    assert peaks[100000] - peaks[20000] < 500_000


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("command", ["sweep", "plotdata"])
def test_stdout_write_error_exit_4(command, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code = main([command, "-n", "16", "--primes-up-to", "30"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write stdout:") and "No space left" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("bound", ["30", "20000"])
def test_stdout_on_full_device_exit_4(bound):
    # stdout block-buffered, as by default: the short output fails only at
    # the last flush and stays in the buffer, which the flush at exit must
    # not report again; the long one fails while rows are written
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "rrseq.cli", "sweep", "-n", "16", "--primes-up-to", bound, "--format", "json"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: cannot write stdout:")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_module_runs_as_a_program(fresh_python):
    # `python -m rrseq.cli` is how the benchmark's cli-sweep starts it
    proc = fresh_python("-m", "rrseq.cli", "seed", "-p", "2", "-n", "4")
    assert (proc.returncode, proc.stdout) == (0, "2,2,4,8\n")


# The modules that only some subcommands load, at first use.
_LAZY = ("rrseq.verify", "rrseq.correlation", "numpy", "json")
_CERTIFICATE = {"rrseq.verify", "rrseq.correlation", "numpy"}


_LOADS = [
    (["seed", "-p", "3", "-n", "16"], 0, set()),
    (["autocorr", "-p", "3", "-n", "16"], 0, {"rrseq.correlation"}),
    (["search", "-p", "3", "-n", "16"], 0, set()),
    (["sweep", "-n", "16", "--primes-up-to", "100"], 0, set()),
    (["plotdata", "-n", "16", "--primes-up-to", "100"], 0, set()),
    (["verify", "-p", "3", "-n", "16", "-m", "3121"], 0, _CERTIFICATE),
    (["seed", "-p", "3", "-n", "16", "--format", "json"], 0, {"json"}),
    (["autocorr", "--seq", "1,2,3", "--format", "json"], 0, {"rrseq.correlation", "json"}),
    (["search", "-p", "3", "-n", "16", "--format", "json"], 0, {"json"}),
    (["search", "-p", "3", "-n", "16", "--row", "powers"], 1, {"rrseq.correlation"}),
    (["sweep", "-n", "16", "--primes-up-to", "100", "--format", "json"], 0, set()),
    (["sweep", "-n", "16", "--primes-up-to", "100", "--row", "powers"], 0, {"rrseq.correlation"}),
    (["plotdata", "-n", "16", "--primes-up-to", "100", "--format", "json"], 0, set()),
    (["verify", "-p", "3", "-n", "16", "-m", "3121", "--format", "json"], 0, _CERTIFICATE | {"json"}),
]


@pytest.mark.parametrize("argv, code, loads", _LOADS, ids=[" ".join(argv) for argv, _, _ in _LOADS])
def test_only_verify_loads_numpy(fresh_python, argv, code, loads):
    # -X importtime reports every module the process imports, on stderr
    proc = fresh_python("-X", "importtime", "-m", "rrseq.cli", *argv)
    assert proc.returncode == code, proc.stderr
    imported = {
        line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")
    }
    assert "rrseq.modsearch" in imported  # the package itself was loaded
    assert {name for name in _LAZY if name in imported} == loads


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["search", "-p", "2"])  # missing -n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "-n", "16", "--format", "yaml"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "-p", "3", "-n", "16", "--trial-bound", str(10**10)],
        ["sweep", "-n", "16", "--primes-up-to", str(10**10)],
        ["plotdata", "-n", "16", "--primes-up-to", str(10**7 + 1)],
    ],
)
def test_sieve_bounds_past_limit_exit_2(argv, capsys):
    # refused before any sieve is allocated
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "at most 10000000" in err


@pytest.mark.parametrize("length", [2049, 10**9])
@pytest.mark.parametrize(
    "argv",
    [
        ["seed", "-p", "3"],
        ["autocorr", "-p", "3"],
        ["search", "-p", "3"],
        ["sweep", "--primes-up-to", "100"],
        ["verify", "-p", "3", "-m", "7"],
        ["plotdata", "--primes-up-to", "100"],
    ],
)
def test_length_past_limit_exit_2(argv, length, capsys):
    # refused before any row is built
    code, out, err = run(argv + ["-n", str(length)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "at most 2048" in err


_OUTPUT = ["-h", "--help", "--format", "--out"]
_FACTORING = ["--policy", "--trial-bound"]
_ROW = ["--row"]
_ONE_ROW = ["-p", "--prime", "-n", "--length"]
_TABLE = ["-n", "--length", "--primes-up-to"]


def test_each_subcommand_takes_only_the_options_it_uses():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [opt for action in p._actions for opt in action.option_strings]
        for name, p in sub.choices.items()
    }
    assert options == {
        "seed": _OUTPUT + _ROW + _ONE_ROW,
        "autocorr": _OUTPUT + _ROW + _ONE_ROW + ["--seq"],
        "search": _OUTPUT + _FACTORING + _ROW + _ONE_ROW,
        "sweep": _OUTPUT + _FACTORING + _ROW + _TABLE,
        "verify": _OUTPUT + _ROW + _ONE_ROW + ["-m", "--modulus"],
        "plotdata": _OUTPUT + _FACTORING + _ROW + _TABLE,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["seed", "-p", "3", "-n", "4", "--policy", "all"],
        ["autocorr", "-p", "3", "-n", "4", "--trial-bound", "5"],
        ["verify", "-p", "2", "-n", "16", "-m", "331", "--policy", "smallest"],
        ["autocorr", "--seq", "2,4,8,16", "--row", "powers"],
        ["autocorr", "--seq", "1,2,3", "-p", "3"],
        ["autocorr", "--seq", "1,2,3", "-n", "5"],
    ],
)
def test_options_a_subcommand_does_not_use_exit_2(argv, capsys):
    try:
        code = main(argv)  # --row, -p or -n beside --seq is refused after parsing
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


# The options each subcommand takes (autocorr takes its row from -p and -n
# or from --seq), and small values for each: mostly in range, sometimes
# out of it or not an integer at all.
_CLI_TAKES = {
    "seed": ("-p", "-n", "--format", "--row"),
    "autocorr": ("-p", "-n", "--format", "--row"),
    "autocorr --seq": ("--seq", "--format"),
    "search": ("-p", "-n", "--format", "--row", "--policy", "--trial-bound"),
    "sweep": ("-n", "--primes-up-to", "--format", "--row", "--policy", "--trial-bound"),
    "verify": ("-p", "-n", "-m", "--format", "--row"),
    "plotdata": ("-n", "--primes-up-to", "--format", "--row", "--policy", "--trial-bound"),
}
_PRIMES = [str(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)]


def _in_or_out(good, *bad):
    """Mostly a value in range, sometimes one the CLI must refuse."""
    return st.sampled_from(list(good) + list(bad))


_CLI_VALUES = {
    "-p": _in_or_out(_PRIMES[:15], "1", "4", "-3", "x"),
    "-n": _in_or_out(map(str, range(2, 25)), "1", "0", "2049", "1.5"),
    "-m": _in_or_out(_PRIMES, "1", "4", "x"),
    "--primes-up-to": _in_or_out(map(str, range(2, 41)), "1", "-1", "10000001", ""),
    "--trial-bound": _in_or_out(("2", "5", "1000") * 4, "1", "0x10", "10000001"),
    "--format": _in_or_out(("csv", "json") * 4, "xml"),
    "--row": _in_or_out(("doubling", "powers") * 4, "bogus"),
    "--policy": _in_or_out(("smallest", "largest", "all") * 4, "median"),
    "--seq": st.lists(st.integers(-9, 9), max_size=6).map(lambda row: ",".join(map(str, row)))
    | st.sampled_from(("1,,2", "a,b", " 2 , 4")),
}


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(_CLI_TAKES)))
    argv = command.split()[:1]
    for flag, values in _CLI_VALUES.items():
        # a flag the subcommand takes is usually given, any other rarely
        odds = (True,) * 7 + (False,) if flag in _CLI_TAKES[command] else (True,) + (False,) * 31
        if draw(st.sampled_from(odds)):
            argv += [flag, draw(values)]
    return argv


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_cli_argv())
def test_cli_flag_combinations_exit_cleanly(argv):
    # Every combination exits with a documented code and no traceback, and
    # a usage or domain error (exit 2) comes before any output.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            code = exc.code
    event(f"{argv[0]} exit {code}")
    assert code in {0, 1, 2, 3, 4}, argv
    assert "Traceback" not in err.getvalue(), argv
    assert (code == 2) == (out.getvalue() == ""), (argv, code)
