"""Command-line surface: arguments, exit codes, output formats."""

import csv
import io
import json

import pytest

from rrseq.cli import _STATUS_EXIT, main
from rrseq.modsearch import SearchStatus, sweep


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
    for seq in ("1,x,3", "abc"):
        code, _, err = run(["autocorr", "--seq", seq], capsys)
        assert code == 2
        assert "cannot parse" in err
    for seq in ("5", ","):
        code, _, err = run(["autocorr", "--seq", seq], capsys)
        assert code == 2
        assert "at least 2" in err


def test_autocorr_seq_past_limit_exit_2(monkeypatch, capsys):
    # refused before any profile is computed
    def no_profile(seq):
        raise AssertionError("profile computed for an over-long --seq row")

    monkeypatch.setattr("rrseq.cli.periodic_autocorr", no_profile)
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


def test_verify_multi_limb_modulus(capsys):
    # the canonical modulus of the N = 128 row for p = 3 has 125 bits
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
    for text_row, ref in zip(parsed, reference):
        o = ref.outcome
        assert int(text_row["index"]) == ref.index
        assert int(text_row["start_prime"]) == ref.start_prime
        assert int(text_row["length"]) == ref.length
        assert int(text_row["gcd"]) == o.gcd_value
        assert text_row["status"] == o.status.value
        canonical = int(text_row["canonical_modulus"]) if text_row["canonical_modulus"] else None
        assert canonical == o.canonical
        valid = tuple(int(t) for t in text_row["valid_candidates"].split(";") if t)
        assert valid == o.valid_moduli()
        everything = tuple(int(t) for t in text_row["all_candidates"].split(";") if t)
        assert everything == o.all_moduli()
        assert (text_row["efficient"] == "true") == ref.efficient


def test_sweep_json_round_trip(capsys):
    _, out, _ = run(["sweep", "-n", "16", "--primes-up-to", "30", "--format", "json"], capsys)
    objs = json.loads(out)
    reference = sweep(16, prime_bound=30)
    assert len(objs) == len(reference)
    for obj, ref in zip(objs, reference):
        assert obj["index"] == ref.index
        assert int(obj["start_prime"]) == ref.start_prime
        assert int(obj["gcd"]) == ref.outcome.gcd_value
        assert [int(q) for q in obj["valid_candidates"]] == list(ref.outcome.valid_moduli())
        assert obj["efficient"] == ref.efficient


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


def test_out_file_matches_stdout(tmp_path, capsys):
    _, stdout_text, _ = run(["sweep", "-n", "8", "--primes-up-to", "20"], capsys)
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        ["sweep", "-n", "8", "--primes-up-to", "20", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""  # nothing on stdout when writing a file
    assert target.read_text(encoding="utf-8") == stdout_text


def test_unwritable_out_path(tmp_path, capsys):
    target = tmp_path / "missing" / "rows.csv"
    code, _, err = run(["sweep", "-n", "8", "--primes-up-to", "20", "--out", str(target)], capsys)
    assert code == 4
    assert "cannot write" in err


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
