"""Correctness checks behind certified_frac, and a self-check that feeds
each checker one corrupted result and expects it to be rejected.

Every checker is a pure function of results already computed, so the
checks run outside the timed regions.
"""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path

from rrseq import SearchStatus, build_seed, check_rr, enumerate_binary_ideal, find_modulus, gram_check
from rrseq.numtheory import Factorization


def search_row_ok(outcome, certs) -> bool:
    """A Found row must be certified by check_rr and by gram_check, and the
    two must agree; a row without a canonical modulus carries no certificate."""
    if outcome.status is not SearchStatus.FOUND or outcome.canonical is None:
        return certs is None
    cert, gram_ok = certs
    return cert.verified and gram_ok is True


def factorization_ok(outcome, isprime) -> bool:
    """The factorisation reassembles to the gcd and every listed factor is prime."""
    fact = outcome.factorization
    return fact.reassemble() == outcome.gcd_value and all(isprime(q) for q, _ in fact.factors)


def golden_ok(valid_by_prime: dict[int, tuple[int, ...]], pairs: list[tuple[int, int]]) -> bool:
    """Every golden (start prime, modulus) pair is among that row's valid candidates."""
    return all(m in valid_by_prime[p] for p, m in pairs)


def witnesses_ok(n: int, witnesses) -> bool:
    """Every witness has length n and the delta profile mod 2."""
    delta = (1,) + (0,) * (n - 1)
    return all(len(w.bits) == n and w.profile_mod2 == delta for w in witnesses)


def counts_ok(counts: dict[int, int], table: dict[int, int]) -> bool:
    return all(counts.get(n) == c for n, c in table.items())


def same_bytes(got: bytes, want: bytes) -> bool:
    return got == want


def read_pairs(path: Path) -> list[tuple[int, int]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [(int(r["start_prime"]), int(r["modulus"])) for r in csv.DictReader(fh)]


def read_counts(path: Path) -> dict[int, int]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {int(r["length"]): int(r["count"]) for r in csv.DictReader(fh)}


def self_check(isprime, golden_pairs: list[tuple[int, int]], witness_counts: dict[int, int]) -> list[str]:
    """Checkers that reject a genuine result or accept a corrupted one.

    Empty when every checker accepts its genuine input and rejects the
    same input with one value corrupted.
    """
    row = build_seed(3, 16)
    outcome = find_modulus(row)
    q = outcome.canonical
    certs = (check_rr(row, q), gram_check(row, q))
    g = outcome.gcd_value
    p0, m0 = golden_pairs[0]
    valid0 = find_modulus(build_seed(p0, 16)).valid_moduli()
    witnesses = enumerate_binary_ideal(4)
    flipped = dataclasses.replace(witnesses[0], profile_mod2=(1,) * 4)
    n0 = min(witness_counts)
    text = b"[]\n"
    cases = {  # checker: (verdict on the genuine result, verdict on the corrupted one)
        "search_row_ok": (
            search_row_ok(outcome, certs),
            search_row_ok(outcome, (dataclasses.replace(certs[0], verified=False), certs[1])),
        ),
        "factorization_ok": (
            factorization_ok(outcome, isprime),
            factorization_ok(
                dataclasses.replace(outcome, factorization=Factorization(input=g, factors=((g, 1),))), isprime
            ),
        ),
        "golden_ok": (golden_ok({p0: valid0}, [(p0, m0)]), golden_ok({p0: (m0 + 2,)}, [(p0, m0)])),
        "witnesses_ok": (witnesses_ok(4, witnesses), witnesses_ok(4, [flipped] + witnesses[1:])),
        "counts_ok": (
            counts_ok(dict(witness_counts), witness_counts),
            counts_ok({**witness_counts, n0: witness_counts[n0] + 1}, witness_counts),
        ),
        "same_bytes": (same_bytes(text, text), same_bytes(text, b"[ ]\n")),
    }
    return [name for name, (genuine, corrupted) in cases.items() if not genuine or corrupted]
