"""Certification: modular profile check, Gram cross-check, binary witnesses."""

import csv
import random
from pathlib import Path

import pytest

from rrseq.modsearch import find_modulus
from rrseq.sequence import build_seed, doubling_seed, power_seed
from rrseq.verify import (
    _gram_ok_exact,
    _gram_ok_numpy,
    check_gram_equiv,
    check_rr,
    enumerate_binary_ideal,
    gram_check,
)

DATA = Path(__file__).parent / "data"


def test_certificate_for_reference_row():
    cert = check_rr(doubling_seed(2, 16), 331)
    assert cert.verified
    assert cert.offpeak_ok
    assert cert.peak != 0
    assert cert.modulus == 331
    assert len(cert.residues) == 16
    assert gram_check(doubling_seed(2, 16), 331)


def test_wrong_modulus_fails():
    cert = check_rr(doubling_seed(2, 16), 7)  # 7 is not a candidate here
    assert not cert.offpeak_ok
    assert not cert.verified
    assert not gram_check(doubling_seed(2, 16), 7)


def test_peak_killed_by_modulus():
    # [2,4,8,16] mod 5: off-peak all vanish but so does the peak
    cert = check_rr(power_seed(2, 4), 5)
    assert cert.offpeak_ok
    assert cert.peak == 0
    assert not cert.verified
    assert not gram_check(power_seed(2, 4), 5)


def test_degenerate_row_not_verified():
    cert = check_rr([5, 25, 125], 5)
    assert cert.residues == (0, 0, 0)
    assert not cert.verified


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError, match="not prime"):
        check_rr(doubling_seed(2, 16), 332)
    with pytest.raises(ValueError, match="not prime"):
        gram_check(doubling_seed(2, 16), 332)


def test_gram_exact_path_large_modulus():
    # modulus big enough that the int64 fast path would overflow,
    # forcing the arbitrary-precision branch
    n = 2**61 - 1
    assert gram_check([1, n], n)
    assert check_rr([1, n], n).verified
    assert not gram_check([1, 2, n], n)
    assert check_gram_equiv([1, 2, n], n)


def test_gram_agrees_with_profile_check():
    rng = random.Random(2024)
    moduli = [2, 3, 5, 7, 11, 13, 331]
    for _ in range(400):
        size = rng.randrange(2, 8)
        row = [rng.randrange(0, 60) for _ in range(size)]
        n = moduli[rng.randrange(len(moduli))]
        assert check_gram_equiv(row, n), (row, n)


def test_verified_rows_pass_gram():
    for p, n, m in ((2, 16, 331), (11, 16, 47), (29, 15, 19), (31, 16, 7)):
        row = build_seed(p, n)
        assert check_rr(row, m).verified
        assert gram_check(row, m)


def test_exact_gram_matches_numpy_gram():
    rng = random.Random(7)
    for p, n, m in ((2, 16, 331), (11, 16, 47), (29, 15, 19), (31, 16, 7)):
        residues = tuple(e % m for e in build_seed(p, n))
        peak = sum(r * r for r in residues) % m
        assert _gram_ok_exact(residues, m, peak) and _gram_ok_numpy(residues, m, peak)
        for _ in range(20):
            bumped = list(residues)
            i = rng.randrange(n)
            bumped[i] = (bumped[i] + rng.randrange(1, m)) % m
            bumped = tuple(bumped)
            bpeak = sum(r * r for r in bumped) % m
            assert _gram_ok_exact(bumped, m, bpeak) == _gram_ok_numpy(bumped, m, bpeak)


def test_exact_gram_path_on_n128_row():
    row = build_seed(2, 128)
    m = find_modulus(row).canonical
    assert len(row) * (m - 1) ** 2 >= 2**63  # too big for the int64 path
    assert gram_check(row, m)
    bumped = (row[0] + 1,) + row[1:]
    assert not gram_check(bumped, m)


# --- binary witness enumeration -------------------------------------------


def load_witness_counts():
    with open(DATA / "binary_witness_counts.csv", newline="") as fh:
        return {int(r["length"]): int(r["count"]) for r in csv.DictReader(fh)}


def test_witness_counts_match_golden():
    golden = load_witness_counts()
    for n, count in golden.items():
        assert len(enumerate_binary_ideal(n)) == count, n


def test_witness_profiles_are_two_valued():
    for n in (1, 4, 6, 8):
        for w in enumerate_binary_ideal(n):
            assert w.profile_mod2[0] == 1
            assert all(v == 0 for v in w.profile_mod2[1:])
            assert w.weight % 2 == 1  # peak = weight mod 2 must be 1


def test_delta_rows_always_witness():
    for n in range(1, 11):
        found = {w.bits for w in enumerate_binary_ideal(n)}
        for j in range(n):
            delta = tuple(1 if i == j else 0 for i in range(n))
            assert delta in found


def test_witnesses_in_lexicographic_order():
    ws = enumerate_binary_ideal(6)
    assert [w.bits for w in ws] == sorted(w.bits for w in ws)


def test_enumeration_rejects_bad_lengths():
    for n in (0, -2, 25):
        with pytest.raises(ValueError):
            enumerate_binary_ideal(n)
