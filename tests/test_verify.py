"""Certification: modular profile check, Gram cross-check, binary witnesses."""

import copy
import csv
import dataclasses
import gc
import math
import pickle
import random
from pathlib import Path

import numpy as np
import pytest
from oracles import _gram_ok_exact, oracle_autocorr

from rrseq import witness
from rrseq.correlation import periodic_autocorr
from rrseq.modsearch import find_modulus
from rrseq.numtheory import FactorBudget, factorize
from rrseq.sequence import ROW_POWERS, build_seed
from rrseq.verify import RRCertificate, check_rr, gram_check
from rrseq.witness import BinaryWitness, _odd_units, _rot, enumerate_binary_ideal, scan_masks

DATA = Path(__file__).parent / "data"


def _check_rr_exact(row, n: int) -> RRCertificate:
    """Oracle for `check_rr`: the brute-force profile of the row itself,
    then reduced mod n."""
    peak, *offpeak = (v % n for v in oracle_autocorr(row))
    residues = tuple(e % n for e in row)
    offpeak_ok = all(v == 0 for v in offpeak)
    verified = offpeak_ok and peak != 0 and any(residues)
    return RRCertificate(n, residues, peak, offpeak_ok, verified)


def _agree_with_oracle(residues, n, rng):
    """gram_check and the oracle agree on residues and on one bumped copy;
    returns the verdict on the unbumped residues."""
    residues = tuple(residues)
    verdict = _gram_ok_exact(residues, n)
    assert gram_check(residues, n) == verdict, (n, residues)
    bumped = list(residues)
    i = rng.randrange(len(bumped))
    bumped[i] = (bumped[i] + rng.randrange(1, n)) % n
    bumped = tuple(bumped)
    assert gram_check(bumped, n) == _gram_ok_exact(bumped, n), (n, bumped)
    return verdict


def _max_residue_row(size, n):
    """All residues n - 1 but the first, (size / 2 - 1) mod n (size / 2 is
    size times the inverse of 2 mod n for odd n).  Off-peak it correlates
    to size - 2 * (size / 2) = 0 mod n, and its peak is size**2 / 4 mod n,
    so it passes iff n does not divide size; its entries, nearly
    size * (n - 1)**2, are the largest a row mod n can give."""
    return [(size * (n + 1) // 2 - 1) % n] + [n - 1] * (size - 1)


def test_certificate_for_reference_row():
    cert = check_rr(build_seed(2, 16), 331)
    assert cert.verified
    assert cert.offpeak_ok
    assert cert.peak != 0
    assert cert.modulus == 331
    assert len(cert.residues) == 16
    assert gram_check(build_seed(2, 16), 331)


def test_wrong_modulus_fails():
    cert = check_rr(build_seed(2, 16), 7)  # 7 is not a candidate here
    assert not cert.offpeak_ok
    assert not cert.verified
    assert not gram_check(build_seed(2, 16), 7)


def test_peak_killed_by_modulus():
    # [2,4,8,16] mod 5: off-peak all vanish but so does the peak
    cert = check_rr(build_seed(2, 4, ROW_POWERS), 5)
    assert cert.offpeak_ok
    assert cert.peak == 0
    assert not cert.verified
    assert not gram_check(build_seed(2, 4, ROW_POWERS), 5)


def test_lag_half_the_length_is_checked():
    # x^0 + x^(N/2): C(N/2) = 2 is the only off-peak lag that is nonzero
    # mod 3, so a check that stopped short of lag N/2 would pass the row
    for size in (2, 4, 16):
        row = [1] + [0] * (size // 2 - 1) + [1] + [0] * (size // 2 - 1)
        offpeak = [c % 3 for c in periodic_autocorr(row).offpeak()]
        assert offpeak == [0] * (size // 2 - 1) + [2] + [0] * (size // 2 - 1)
        cert = check_rr(row, 3)
        assert cert.peak == 2
        assert not cert.offpeak_ok
        assert not cert.verified
        assert not gram_check(row, 3)


@pytest.mark.parametrize("size, k", [(size, k) for size in (15, 16) for k in range(1, size)])
def test_each_lag_is_checked(size, k):
    # x^0 + x^k: C(0) = 2 and only lags k and N - k are nonzero (2 at
    # k = N/2, else 1), so either certificate passes the row iff it skips
    # lag min(k, N - k); gram_check sums that lag with its wraparound,
    # which for k > N/2 is the only term that sees x^k
    row = [0] * size
    row[0] = row[k] = 1
    assert [i for i, c in enumerate(oracle_autocorr(row)) if c] == sorted({0, k, size - k})
    assert gram_check([1] + [0] * (size - 1), 3)
    for n in (3, 331, 2**61 - 1):
        assert not _gram_ok_exact(tuple(row), n)
        assert gram_check(row, n) is False, n
        cert = check_rr(row, n)
        assert cert.peak == 2 and not cert.offpeak_ok and not cert.verified, n


def test_degenerate_row_not_verified():
    cert = check_rr([5, 25, 125], 5)
    assert cert.residues == (0, 0, 0)
    assert not cert.verified


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError, match="not prime"):
        check_rr(build_seed(2, 16), 332)
    with pytest.raises(ValueError, match="not prime"):
        gram_check(build_seed(2, 16), 332)


def test_gram_exact_path_large_modulus():
    # N * (n - 1)**2 has 123 bits at N = 2 and 124 at N = 3: the lag sums
    # are exact ints far past any machine word
    n = 2**61 - 1
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


def test_exact_gram_path_on_n128_row():
    row = build_seed(2, 128)
    m = find_modulus(row).canonical
    assert 128 * (m - 1) ** 2 >= 2**53  # a 126-bit modulus: lag sums past float64 exactness
    assert gram_check(row, m)
    bumped = (row[0] + 1,) + row[1:]
    assert not gram_check(bumped, m)


# Fixed primes from 9 bits (331) to 192 bits (the P-192 prime);
# 2**160 - 2**31 - 1 is the secp160r1 prime.  The canonical moduli of
# N = 128 doubling rows have 36 (p = 5), 72 (p = 37) and 126 (p = 2) bits.
GRAM_MODULI = (
    331,
    2**31 - 1,
    2**61 - 1,
    2**89 - 1,
    2**107 - 1,
    2**127 - 1,
    2**160 - 2**31 - 1,
    2**192 - 2**64 - 1,
)
N128_ROWS = (5, 37, 2)


def test_gram_matches_exact_oracle():
    rng = random.Random(5)
    canonical = {p: find_modulus(build_seed(p, 128)).canonical for p in N128_ROWS}
    for k, n in enumerate(GRAM_MODULI + tuple(canonical.values())):
        # the oracle takes ~0.2 s per passing row of 128 elements, so each
        # modulus gets one of the three large sizes
        for size in (2, 3, 16, (127, 128, 130)[k % 3]):
            c = rng.randrange(1, n)
            assert _agree_with_oracle([c] + [0] * (size - 1), n, rng)
            assert _agree_with_oracle(_max_residue_row(size, n), n, rng)
            # every entry is size * (n - 1)**2 = size mod n, so only n | size passes
            assert not _agree_with_oracle([n - 1] * size, n, rng)
            _agree_with_oracle([rng.randrange(n) for _ in range(size)], n, rng)
    for p, n in canonical.items():
        c = rng.randrange(1, n)
        assert _agree_with_oracle([c * e % n for e in build_seed(p, 128)], n, rng)
    # the all-zero row is 0 times I, mod a small and a wide modulus: its
    # scalar is 0 mod n, so it fails
    for n in (331, 2**61 - 1):
        assert not _agree_with_oracle((0,) * 16, n, rng)


def test_check_rr_matches_exact_profile_oracle():
    # the rows of test_gram_matches_exact_oracle, moduli of 9 to 192 bits,
    # each entry moved by a multiple of n so the row has negative entries
    # and entries above n while its residues stay the same
    rng = random.Random(16)
    canonical = {p: find_modulus(build_seed(p, 128)).canonical for p in N128_ROWS}
    verified = 0
    for k, n in enumerate(GRAM_MODULI + tuple(canonical.values())):
        for size in (2, 3, 16, (127, 128, 130)[k % 3]):
            rows = (
                [rng.randrange(1, n)] + [0] * (size - 1),
                _max_residue_row(size, n),
                [n - 1] * size,
                [0] * size,
                [rng.randrange(n) for _ in range(size)],
            )
            for row in rows:
                row = [e + rng.randrange(-3, 4) * n for e in row]
                cert = check_rr(row, n)
                assert cert == _check_rr_exact(row, n), (n, row)
                verified += cert.verified
    for p, n in canonical.items():
        row = build_seed(p, 128)
        assert check_rr(row, n) == _check_rr_exact(row, n)
        assert check_rr(row, n).verified
        row = [-e for e in row]
        assert check_rr(row, n) == _check_rr_exact(row, n)
    assert verified >= 2 * len(GRAM_MODULI + N128_ROWS)


def test_gram_agrees_with_profile_check_on_wide_moduli():
    # test_gram_agrees_with_profile_check on wide moduli: every candidate of the N = 128 doubling rows, then a passing and a
    # random row mod each fixed prime of GRAM_MODULI above 331
    rng = random.Random(128)
    for p in N128_ROWS:
        row = build_seed(p, 128)
        for q, _ in find_modulus(row).candidates:
            assert gram_check(row, q) == check_rr(row, q).verified, (p, q)
    for n in GRAM_MODULI[1:]:
        for size in (2, 5, 16):
            rows = (_max_residue_row(size, n), [rng.randrange(-n, 2 * n) for _ in range(size)])
            for row in rows:
                assert gram_check(row, n) == check_rr(row, n).verified, (n, row)


def test_zero_scalar_rows_fail_on_both_branches():
    # (1, g, g**2, g**3) with g**2 = -1 mod n, for a prime n = 1 mod 4:
    # every correlation, the peak among them, is a multiple of 1 + g**2 = 0
    # mod n, so its Gram matrix is 0 * I and both certificates refuse it,
    # mod a small (n = 5) and a 33-bit (n = 8515195201) prime; so does the
    # all-zero row
    for n in (5, 8515195201):
        g = next(g for g in (pow(h, (n - 1) // 4, n) for h in range(2, n)) if g * g % n == n - 1)
        row = [1, g, g * g % n, pow(g, 3, n)]
        cert = check_rr(row, n)
        assert cert.offpeak_ok and cert.peak == 0 and not cert.verified
        assert not _gram_ok_exact(tuple(row), n)
        assert gram_check(row, n) is False
        zero = [0, n, -n, 2 * n]
        assert gram_check(zero, n) is False and not check_rr(zero, n).verified


def test_gram_check_returns_python_bool():
    # callers may test `gram_check(...) is True`, so never a numpy bool
    row = build_seed(2, 16)
    multi = build_seed(2, 128)
    m = find_modulus(multi).canonical
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
            # its off-peak entries are nonzero multiples of n, as large as
            # a row mod n gives, so the primes must cover them
            assert _agree_with_oracle(_max_residue_row(size, n), n, rng) == (size % n != 0)
            for _ in range(5):
                _agree_with_oracle([rng.randrange(n) for _ in range(size)], n, rng)
    # doubling rows of length 15 that pass, from the reference table
    for p, m in ((29, 19), (2, 113), (7, 83)):
        assert _agree_with_oracle([e % m for e in build_seed(p, 15)], m, rng)


def test_gram_check_refuses_rows_past_exactness_bound():
    with pytest.raises(ValueError, match="at most 2048"):
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
            assert sum(w.bits) % 2 == 1  # peak = weight mod 2 must be 1


def test_length_1_is_a_witness_but_not_a_row():
    # The scan lists length 1; the row functions take 2..MAX_LENGTH
    # elements, as a length-1 row has no off-peak lag.
    assert [w.bits for w in enumerate_binary_ideal(1)] == [(1,)]
    with pytest.raises(ValueError, match="row length must be at least 2, got 1"):
        periodic_autocorr((1,))


def test_delta_rows_always_witness():
    for n in range(1, 11):
        found = {w.bits for w in enumerate_binary_ideal(n)}
        for j in range(n):
            delta = tuple(1 if i == j else 0 for i in range(n))
            assert delta in found


def test_witnesses_in_lexicographic_order():
    ws = enumerate_binary_ideal(6)
    assert [w.bits for w in ws] == sorted(w.bits for w in ws)


def _enumerate_per_row(n):
    """Oracle for `enumerate_binary_ideal`: each witness gets its own
    profile tuple, read from the numpy mod-2 profiles of its mask."""
    masks = scan_masks(n)
    lags = [np.bitwise_count(masks & _rot(masks, k, n)) & 1 for k in range(n)]
    bits = (masks[:, None] >> np.arange(n - 1, -1, -1, dtype=np.uint32)) & 1
    return [
        BinaryWitness(bits=tuple(b), profile_mod2=tuple(p))
        for b, p in zip(bits.tolist(), np.stack(lags, axis=1).tolist())
    ]


def test_length_one_has_the_single_row():
    # periodic_autocorr takes rows of length >= 2; C(0) of (1,) is 1
    assert enumerate_binary_ideal(1) == [BinaryWitness(bits=(1,), profile_mod2=(1,))]


@pytest.mark.parametrize("n", range(2, 13))
def test_witness_bits_and_profile_from_the_mask(n):
    # bit n-1-i of the mask holds element i; the profile is recomputed
    # from the bits by the exact autocorrelation, not read from the masks
    masks = scan_masks(n).tolist()
    witnesses = enumerate_binary_ideal(n)
    assert len(witnesses) == len(masks)
    for w, mask in zip(witnesses, masks):
        assert w.bits == tuple((mask >> (n - 1 - i)) & 1 for i in range(n))
        assert w.profile_mod2 == tuple(v % 2 for v in periodic_autocorr(w.bits).values)


def test_enumeration_matches_the_per_row_construction():
    for n in range(1, 25):
        assert enumerate_binary_ideal(n) == _enumerate_per_row(n), n


# Each bad mask fails one of the checked lags 0..n // 2 only: 0011 lag 1
# (C(1) = 1), 1111 lag 0 (C(0) = 4) and 00111 lag 2 = n // 2 (C(2) = 1).
# No even n has a mask that fails at lag n / 2 alone: C(n/2) counts each
# pair twice, so it is always even.
@pytest.mark.parametrize("bad", ["0011", "1111", "00111"])
def test_enumeration_refuses_a_mask_that_fails_the_profile_check(monkeypatch, bad):
    n = len(bad)
    true_masks = scan_masks(n)

    def with_a_non_witness(n):
        return np.array(sorted([*true_masks.tolist(), int(bad, 2)]), dtype=np.uint32)

    monkeypatch.setattr(witness, "scan_masks", with_a_non_witness)
    with pytest.raises(RuntimeError, match=f"length {n}: mask {bad} "):
        enumerate_binary_ideal(n)


def test_binary_witness_is_a_frozen_slotted_record():
    w = enumerate_binary_ideal(3)[0]
    assert dataclasses.is_dataclass(w) and w.__slots__ == ("bits", "profile_mod2")
    assert not hasattr(w, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.bits = (1, 1, 1)
    other = dataclasses.replace(w, bits=(1, 1, 1))
    assert other.bits == (1, 1, 1) and other.profile_mod2 == w.profile_mod2
    assert dataclasses.replace(other, bits=w.bits) == w
    assert hash(dataclasses.replace(w)) == hash(w) and len({w, dataclasses.replace(w)}) == 1
    assert copy.deepcopy(w) == w and pickle.loads(pickle.dumps(w)) == w


# Counted work: the records and bit tuples form no cycle, so the build runs
# with the cyclic collector paused.  Before the pause, one call at n = 20..23
# right after a full collection set off 7, 3, 6 and 5 generation-0 passes.
@pytest.mark.parametrize("n", range(20, 24))
def test_witness_build_sets_off_one_young_collection(n):
    assert gc.isenabled()
    generations = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        witnesses = enumerate_binary_ideal(n)
    finally:
        gc.callbacks.remove(record)
    # Only the one generation-0 pass over the kept list, as the collector
    # comes back on: it runs inside the call, which so pays for it.
    assert generations == [0]
    assert len(witnesses) == len(scan_masks(n))


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_witness_build_restores_the_collector(monkeypatch, enabled, raises):
    def refuse(*args):
        raise RuntimeError("no witness")

    if raises:
        monkeypatch.setattr(witness, "BinaryWitness", refuse)
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(RuntimeError, match="no witness"):
                enumerate_binary_ideal(6)
        else:
            assert len(enumerate_binary_ideal(6)) == 12
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def _multiplicative_order_of_2(r):
    d, y = 1, 2 % r
    while y != 1:
        d, y = d + 1, y * 2 % r
    return d


@pytest.mark.parametrize("m", range(1, 24, 2))
def test_primitive_orders_factor_by_trial_division(monkeypatch, m):
    # `_primitive` factors 2**d - 1 for each field degree d of F2[C_m];
    # its comment says 2**d - 1 < 2**22 for m <= 23, so trial division
    # alone (no rho, no ECM) factors it completely.
    degrees = set()
    primitive = witness._primitive

    def recording(e, d, m):
        degrees.add(d)
        return primitive(e, d, m)

    monkeypatch.setattr(witness, "_primitive", recording)
    _odd_units(m)
    # d is the size of a cyclotomic coset r 2**i mod m, r != 0: the order
    # of 2 mod m / gcd(r, m)
    assert degrees == {_multiplicative_order_of_2(m // math.gcd(r, m)) for r in range(1, m)}
    trial_only = FactorBudget(rho_rounds=0, ecm_curves=0)
    for d in degrees:
        order = (1 << d) - 1
        assert order < 2**22, (m, d)
        fact = factorize(order, trial_only)
        assert fact.complete and fact.reassemble() == order, (m, d)


def test_enumeration_rejects_bad_lengths():
    for n in (0, -2, 25):
        with pytest.raises(ValueError):
            enumerate_binary_ideal(n)
