"""Brute-force oracles that several test modules share.

Each one transcribes a definition directly and imports nothing from
rrseq (test_correlation.py checks that), so no code under test can leak
into what checks it.
"""

import math
import operator


def oracle_autocorr(a):
    # Independent reference: direct double loop over the definition,
    # with explicit cyclic index wrap-around.
    size = len(a)
    out = []
    for k in range(size):
        acc = 0
        for j in range(size):
            acc += a[j] * a[(j + k) % size]
        out.append(acc)
    return out


def _gram_ok_exact(residues: tuple[int, ...], n: int) -> bool:
    """Oracle for `gram_check`: every entry of the upper triangle of the
    circulant Gram product as a plain Python sum, one reduction each.  It
    passes iff every diagonal entry is the same scalar, that scalar is
    nonzero mod n, and every other entry is 0 mod n."""
    size = len(residues)
    rows = [residues[i:] + residues[:i] for i in range(size)]
    scalar = sum(map(operator.mul, rows[0], rows[0])) % n
    if scalar == 0:
        return False
    for i in range(size):
        ri = rows[i]
        for j in range(i, size):
            if sum(map(operator.mul, ri, rows[j])) % n != (scalar if i == j else 0):
                return False
    return True


def popcount(x):
    return bin(x).count("1")


def passes(mask, n):
    # straight off the definition: C(0) odd, every other C(k) even
    if popcount(mask) % 2 == 0:
        return False
    full = (1 << n) - 1
    for k in range(1, n):
        rot = ((mask >> k) | (mask << (n - k))) & full
        if popcount(mask & rot) % 2 == 1:
            return False
    return True


def oracle_masks(n):
    # brute force, independent of the scan
    return [mask for mask in range(1 << n) if passes(mask, n)]


def _naive_primes(bound: int) -> list[int]:
    """Primes <= bound from a sieve that strikes each multiple one at a time."""
    flags = [False, False] + [True] * (bound - 1)
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            for m in range(p * p, bound + 1, p):
                flags[m] = False
    return [i for i, f in enumerate(flags) if f]
