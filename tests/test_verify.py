"""Certification: modular profile check, Gram cross-check, binary witnesses."""

import csv
import operator
import random
from pathlib import Path

import pytest

from rrseq.modsearch import find_modulus
from rrseq.sequence import build_seed, doubling_seed, power_seed
from rrseq.verify import (
    _gram_ok,
    _limb_count,
    check_rr,
    enumerate_binary_ideal,
    gram_check,
)

DATA = Path(__file__).parent / "data"


def _gram_ok_exact(residues: tuple[int, ...], n: int, peak: int) -> bool:
    """Oracle for `_gram_ok`: every entry of the upper triangle of the
    circulant Gram product as a plain Python sum, one reduction each."""
    size = len(residues)
    rows = [residues[i:] + residues[:i] for i in range(size)]
    for i in range(size):
        ri = rows[i]
        for j in range(i, size):
            if sum(map(operator.mul, ri, rows[j])) % n != (peak if i == j else 0):
                return False
    return True


def _agree_with_oracle(residues, n, rng):
    """_gram_ok and the oracle agree on residues, on one bumped copy and
    against a wrong peak; returns the verdict on the unbumped residues."""
    residues = tuple(residues)
    peak = sum(r * r for r in residues) % n
    verdict = _gram_ok_exact(residues, n, peak)
    assert _gram_ok(residues, n, peak) == verdict, (n, residues)
    assert not _gram_ok(residues, n, (peak + 1) % n)
    bumped = list(residues)
    i = rng.randrange(len(bumped))
    bumped[i] = (bumped[i] + rng.randrange(1, n)) % n
    bumped = tuple(bumped)
    bpeak = sum(r * r for r in bumped) % n
    assert _gram_ok(bumped, n, bpeak) == _gram_ok_exact(bumped, n, bpeak), (n, bumped)
    return verdict


def _max_residue_row(size, n):
    """All residues n - 1 but the first, (size / 2 - 1) mod n.  Off-peak it
    correlates to size - 2 * (size / 2) = 0 mod n, and its peak is
    size**2 / 4 mod n, so it passes whenever n > size; its entries, nearly
    size * (n - 1)**2, are the largest a row mod n can give."""
    return [(size * (n + 1) // 2 - 1) % n] + [n - 1] * (size - 1)


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
    # 2 * (n - 1)**2 >= 2**53, so the product runs on four 16-bit limbs
    n = 2**61 - 1
    assert _limb_count(2, n) == 4
    assert _limb_count(3, n) == 4
    assert gram_check([1, n], n)
    assert check_rr([1, n], n).verified
    assert not gram_check([1, 2, n], n)
    assert gram_check([1, 2, n], n) == check_rr([1, 2, n], n).verified


def test_gram_agrees_with_profile_check():
    rng = random.Random(2024)
    moduli = [2, 3, 5, 7, 11, 13, 331]
    for _ in range(400):
        size = rng.randrange(2, 8)
        row = [rng.randrange(0, 60) for _ in range(size)]
        n = moduli[rng.randrange(len(moduli))]
        assert gram_check(row, n) == check_rr(row, n).verified, (row, n)


def test_verified_rows_pass_gram():
    for p, n, m in ((2, 16, 331), (11, 16, 47), (29, 15, 19), (31, 16, 7)):
        row = build_seed(p, n)
        assert check_rr(row, m).verified
        assert gram_check(row, m)


def test_exact_gram_matches_numpy_gram():
    # The one-limb/multi-limb boundary for N = 16 sits at 16 * (n - 1)**2 = 2**53:
    # 23726561 is the largest prime below it and 23726569 the smallest above.
    below, above = 23726561, 23726569
    assert 16 * (below - 1) ** 2 < 2**53 <= 16 * (above - 1) ** 2
    assert _limb_count(16, below) == 1
    assert _limb_count(16, above) == 2
    rng = random.Random(7)
    for n in (below, above):
        assert _agree_with_oracle(_max_residue_row(16, n), n, rng)
        assert gram_check(_max_residue_row(16, n), n)
    for p, size, m in ((2, 16, 331), (11, 16, 47), (29, 15, 19), (31, 16, 7)):
        assert _limb_count(size, m) == 1
        for _ in range(20):
            assert _agree_with_oracle([e % m for e in build_seed(p, size)], m, rng)


def test_exact_gram_path_on_n128_row():
    row = build_seed(2, 128)
    m = find_modulus(row).canonical
    assert 128 * (m - 1) ** 2 >= 2**53  # past the one-limb bound
    assert _limb_count(128, m) == 8  # a 126-bit modulus
    assert gram_check(row, m)
    bumped = (row[0] + 1,) + row[1:]
    assert not gram_check(bumped, m)


# Fixed primes for 1, 2, 4, 6, 7 and 8 limbs, and the canonical moduli of
# N = 128 doubling rows for 3 (p = 5), 5 (p = 37) and 8 (p = 2) limbs.
GRAM_MODULI = (331, 2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)
N128_ROWS = (5, 37, 2)


def test_gram_matches_exact_oracle():
    rng = random.Random(5)
    canonical = {p: find_modulus(build_seed(p, 128)).canonical for p in N128_ROWS}
    limbs_seen = set()
    for k, n in enumerate(GRAM_MODULI + tuple(canonical.values())):
        # the oracle takes ~0.2 s per passing row of 128 elements, so each
        # modulus gets one of the three large sizes
        for size in (2, 3, 16, (127, 128, 130)[k % 3]):
            limbs_seen.add(_limb_count(size, n))
            c = rng.randrange(1, n)
            assert _agree_with_oracle([c] + [0] * (size - 1), n, rng)
            assert _agree_with_oracle(_max_residue_row(size, n), n, rng)
            # every entry is size * (n - 1)**2 = size mod n, so only n | size passes
            assert not _agree_with_oracle([n - 1] * size, n, rng)
            _agree_with_oracle([rng.randrange(n) for _ in range(size)], n, rng)
    for p, n in canonical.items():
        c = rng.randrange(1, n)
        assert _agree_with_oracle([c * e % n for e in build_seed(p, 128)], n, rng)
    assert limbs_seen == set(range(1, 9))


def test_gram_check_returns_python_bool():
    # callers may test `gram_check(...) is True`, so never a numpy bool
    row = build_seed(2, 16)
    multi = build_seed(2, 128)
    m = find_modulus(multi).canonical
    assert _limb_count(16, 331) == 1 and _limb_count(128, m) > 1
    for seq, n, expected in ((row, 331, True), (row, 7, False), (multi, m, True), (multi, 2**61 - 1, False)):
        verdict = gram_check(seq, n)
        assert type(verdict) is bool and verdict is expected
    assert type(gram_check([7, 7], 7)) is bool  # zero peak


def test_gram_matches_exact_oracle_at_odd_sizes():
    rng = random.Random(11)
    for size in (3, 5, 7, 15, 17, 31):
        for n in (3, 19, 331, 2**31 - 1, 2**61 - 1):
            c = rng.randrange(1, n)
            assert _agree_with_oracle([c] + [0] * (size - 1), n, rng)
            for _ in range(5):
                _agree_with_oracle([rng.randrange(n) for _ in range(size)], n, rng)
    # doubling rows of length 15 that pass, from the reference table
    for p, m in ((29, 19), (2, 113), (7, 83)):
        assert _agree_with_oracle([e % m for e in build_seed(p, 15)], m, rng)


def test_gram_check_refuses_rows_past_exactness_bound():
    with pytest.raises(ValueError, match="fewer than"):
        gram_check([1] + [0] * (2**21 - 1), 331)


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
