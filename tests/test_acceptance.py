"""Acceptance gate: the shipped guarantees, one test and one report line each.

Criteria, in order:
  1. first reference table (row length 16): membership of all 23 moduli
  2. second reference table (row length 15): membership of all 23 moduli
  3. policy discovery: some selection policy matches >= 20/23 canonical picks
  4. every Found sweep row certifies (profile check and Gram check)
  5. hand-computed failure case p=2, N=4 on the power row
  6. property suite, >= 1000 randomized cases per property
  7. autocorrelation vs independent brute-force oracle, >= 10000 cases
  8. sweep completeness and byte-identical determinism
  9. binary witness enumeration: speed, delta membership, golden counts
"""

import csv
import io
import json
import random
import time
from pathlib import Path

from rrseq.cli import main
from rrseq.correlation import periodic_autocorr
from rrseq.modsearch import (
    SearchStatus,
    SelectionPolicy,
    find_modulus,
    sweep,
)
from rrseq.numtheory import factorize, gcd_many, is_prime
from rrseq.sequence import ROW_POWERS, build_seed
from rrseq.verify import check_rr, gram_check
from rrseq.witness import enumerate_binary_ideal

DATA = Path(__file__).parent / "data"


def load_pairs(name):
    with open(DATA / name, newline="") as fh:
        return [(int(r["start_prime"]), int(r["modulus"])) for r in csv.DictReader(fh)]


def report(num, label, ok, detail=""):
    line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def membership_check(pairs, length):
    misses = []
    for p, m in pairs:
        outcome = find_modulus(build_seed(p, length))
        if outcome.status is not SearchStatus.FOUND or m not in outcome.valid_moduli():
            misses.append((p, m))
    return misses


def test_criterion_1_reference_table_len16_membership():
    t0 = time.monotonic()
    pairs = load_pairs("reference_pairs_len16.csv")
    assert len(pairs) == 23
    misses = membership_check(pairs, 16)
    elapsed = time.monotonic() - t0
    report(
        1,
        "length-16 table membership",
        not misses and elapsed < 10.0,
        f"{23 - len(misses)}/23 in {elapsed:.2f}s, misses={misses}",
    )


def test_criterion_2_reference_table_len15_membership():
    t0 = time.monotonic()
    pairs = load_pairs("reference_pairs_len15.csv")
    assert len(pairs) == 23
    misses = membership_check(pairs, 15)
    elapsed = time.monotonic() - t0
    report(
        2,
        "length-15 table membership",
        not misses and elapsed < 30.0,
        f"{23 - len(misses)}/23 in {elapsed:.2f}s, misses={misses}",
    )


def test_criterion_3_policy_discovery():
    pairs = load_pairs("reference_pairs_len16.csv")
    agreement = {}
    rows = {}
    for policy in (SelectionPolicy.LARGEST, SelectionPolicy.SMALLEST):
        hits = []
        for p, m in pairs:
            got = find_modulus(build_seed(p, 16), policy).canonical
            hits.append((p, m, got, got == m))
        rows[policy.value] = hits
        agreement[policy.value] = sum(1 for *_, match in hits if match)
    best = max(agreement, key=agreement.get)
    print(f"[criterion 3] policy agreement on length-16 canonical moduli: {agreement}")
    print(f"[criterion 3] chosen policy: {best}")
    for p, expected, got, match in rows[best]:
        print(f"[criterion 3]   p={p:>2}  expected={expected:>6}  {best}={got:>6}  {'ok' if match else 'MISMATCH'}")
    report(3, "some policy matches >= 20/23", agreement[best] >= 20, f"{best}={agreement[best]}/23")


def test_largest_policy_matches_both_reference_tables():
    # beside criterion 3, which asks >= 20/23 of some policy on one table
    for name, length in (("reference_pairs_len16.csv", 16), ("reference_pairs_len15.csv", 15)):
        pairs = load_pairs(name)
        got = [(p, find_modulus(build_seed(p, length), SelectionPolicy.LARGEST).canonical) for p, _ in pairs]
        assert got == pairs, name


def test_criterion_4_found_rows_certify():
    t0 = time.monotonic()
    checked = 0
    for length in (16, 15):
        for row in sweep(length, prime_bound=100):
            if row.outcome.status is not SearchStatus.FOUND:
                continue
            seq = build_seed(row.start_prime, length)
            modulus = row.outcome.canonical
            assert check_rr(seq, modulus).verified, (row.start_prime, length, modulus)
            assert gram_check(seq, modulus), (row.start_prime, length, modulus)
            checked += 1
    elapsed = time.monotonic() - t0
    report(4, "all Found rows certify", checked > 0 and elapsed < 5.0, f"{checked} rows in {elapsed:.2f}s")


def test_criterion_5_hand_oracle_failure_case():
    profile = periodic_autocorr(build_seed(2, 4, ROW_POWERS))
    outcome = find_modulus(build_seed(2, 4, ROW_POWERS))
    ok = (
        profile.values == (340, 200, 160, 200)
        and outcome.gcd_value == 40
        and outcome.candidates == ((2, 0), (5, 0))
        and outcome.valid_moduli() == ()
        and outcome.status is SearchStatus.NO_VALID_MODULUS
    )
    report(5, "p=2 N=4 power row fails exactly as derived", ok, f"profile={profile.values}, gcd={outcome.gcd_value}, status={outcome.status.value}")


def test_criterion_6_property_suite():
    rng = random.Random(20260815)
    cases = 1000

    for _ in range(cases):  # symmetry C(k) = C(N-k)
        size = rng.randrange(2, 9)
        row = [rng.randrange(-30, 31) for _ in range(size)]
        vals = periodic_autocorr(row).values
        assert all(vals[k] == vals[size - k] for k in range(1, size))

    for _ in range(cases):  # profile is shift-invariant
        size = rng.randrange(2, 9)
        row = [rng.randrange(-15, 16) for _ in range(size)]
        k = rng.randrange(size)
        assert periodic_autocorr(row[k:] + row[:k]).values == periodic_autocorr(row).values

    for _ in range(cases):  # scale law C'(k) = c^2 C(k)
        size = rng.randrange(2, 8)
        row = [rng.randrange(-12, 13) for _ in range(size)]
        c = rng.choice([-7, -3, -2, 2, 3, 5, 11])
        scaled = [c * x for x in row]
        base = periodic_autocorr(row).values
        assert periodic_autocorr(scaled).values == tuple(c * c * v for v in base)

    primes = [2, 3, 5, 7, 11, 13, 17, 331]
    for _ in range(cases):  # Gram certification == profile certification
        size = rng.randrange(2, 7)
        row = [rng.randrange(0, 60) for _ in range(size)]
        n = rng.choice(primes)
        assert gram_check(row, n) == check_rr(row, n).verified, (row, n)

    for _ in range(cases):  # factorize and is_prime agree and reassemble
        n = rng.randrange(2, 10**6)
        f = factorize(n)
        assert f.complete and f.reassemble() == n
        assert all(is_prime(p) for p, _ in f.factors)
        assert is_prime(n) == (f.factors == ((n, 1),))

    for _ in range(cases):  # gcd divides every input, any common divisor divides it
        d = rng.randrange(1, 50)
        vals = [d * rng.randrange(1, 10**6) for _ in range(rng.randrange(1, 7))]
        g = gcd_many(vals)
        assert all(v % g == 0 for v in vals)
        assert g % d == 0

    report(6, "six properties x >= 1000 cases", True, f"{cases} cases each")


def test_criterion_7_oracle_equivalence():
    rng = random.Random(97)
    cases = 10000
    for _ in range(cases):
        size = rng.randrange(2, 7)
        row = [rng.randrange(-20, 21) for _ in range(size)]
        # independent oracle: definition transcribed directly
        expected = []
        for k in range(size):
            total = 0
            for j in range(size):
                total += row[j] * row[(j + k) % size]
            expected.append(total)
        assert list(periodic_autocorr(row).values) == expected, row
    report(7, "matches brute-force oracle", True, f"{cases} cases, N<=6, |elements|<=20")


def test_criterion_8_sweep_completeness_and_determinism(capsys):
    assert main(["sweep", "-n", "16", "--primes-up-to", "100"]) == 0
    first = capsys.readouterr().out
    assert main(["sweep", "-n", "16", "--primes-up-to", "100"]) == 0
    second = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(first)))
    by_prime = {int(r["start_prime"]): r for r in rows}
    statuses = {s.value for s in SearchStatus}
    ok = (
        len(rows) == 25
        and 79 in by_prime
        and 97 in by_prime
        and by_prime[79]["status"] in statuses
        and by_prime[97]["status"] in statuses
        and first == second
    )
    report(
        8,
        "25 rows, explicit 79/97, byte-identical reruns",
        ok,
        f"rows={len(rows)}, p79={by_prime[79]['status']}, p97={by_prime[97]['status']}",
    )


def test_criterion_9_binary_witness_enumeration():
    with open(DATA / "binary_witness_counts.csv", newline="") as fh:
        golden = {int(r["length"]): int(r["count"]) for r in csv.DictReader(fh)}
    worst = 0.0
    counts = {}
    for n in range(1, 25):
        t0 = time.monotonic()
        witnesses = enumerate_binary_ideal(n)
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        assert elapsed < 10.0, (n, elapsed)
        counts[n] = len(witnesses)
        bits_seen = {w.bits for w in witnesses}
        for j in range(n):
            assert tuple(1 if i == j else 0 for i in range(n)) in bits_seen, (n, j)
    golden_ok = all(counts[n] == c for n, c in golden.items())
    report(
        9,
        "enumeration fast, deltas present, counts match golden",
        golden_ok,
        f"worst per-N time {worst:.2f}s, counts 1..8 = {[counts[n] for n in range(1, 9)]}",
    )
