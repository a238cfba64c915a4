"""Independent certification of the two-valued correlation property.

`check_rr` certifies through the modular autocorrelation profile;
`gram_check` certifies through the circulant Gram product; the two are
mathematically equivalent and `check_gram_equiv` asserts exactly that,
which makes the pair a standing cross-check on both implementations.

`enumerate_binary_ideal` exhaustively lists every binary row of a given
length whose mod-2 correlation is two-valued (peak 1, off-peak 0); the
search itself is `scan_masks`, a popcount filter over all 2**n masks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .correlation import autocorr_mod
from .numtheory import is_prime
from .sequence import SequenceLike, as_elements


@dataclass(frozen=True)
class RRCertificate:
    """Machine-checked evidence that a row is two-valued modulo n."""

    modulus: int
    residues: tuple[int, ...]
    peak: int
    offpeak_ok: bool
    verified: bool


@dataclass(frozen=True)
class BinaryWitness:
    """A binary row passing the mod-2 two-valued test."""

    bits: tuple[int, ...]
    profile_mod2: tuple[int, ...]

    @property
    def weight(self) -> int:
        return sum(self.bits)


def check_rr(seq: SequenceLike, n: int) -> RRCertificate:
    """Certify the two-valued property of seq modulo the prime n.

    verified is True iff every off-peak correlation is 0 mod n, the peak
    is nonzero mod n, and the reduced row is not identically zero.
    """
    if not is_prime(n):
        raise ValueError(f"modulus {n} is not prime")
    elems = as_elements(seq)
    profile = autocorr_mod(elems, n)
    peak = profile.peak
    offpeak_ok = all(v == 0 for v in profile.offpeak())
    residues = tuple(e % n for e in elems)
    nonzero = any(r != 0 for r in residues)
    return RRCertificate(
        modulus=n,
        residues=residues,
        peak=peak,
        offpeak_ok=offpeak_ok,
        verified=offpeak_ok and peak != 0 and nonzero,
    )


def _gram_ok_numpy(residues: tuple[int, ...], n: int, peak: int) -> bool:
    size = len(residues)
    r = np.array(residues, dtype=np.int64)
    idx = (np.arange(size)[:, None] + np.arange(size)[None, :]) % size
    circ = r[idx]
    gram = (circ @ circ.T) % n
    expect = np.where(np.eye(size, dtype=bool), peak, 0)
    return bool((gram == expect).all())


def _gram_ok_exact(residues: tuple[int, ...], n: int, peak: int) -> bool:
    size = len(residues)
    rows = [residues[i:] + residues[:i] for i in range(size)]
    for i in range(size):
        ri = rows[i]
        for j in range(i, size):
            if sum(map(operator.mul, ri, rows[j])) % n != (peak if i == j else 0):
                return False
    return True


def gram_check(seq: SequenceLike, n: int) -> bool:
    """True iff the circulant of seq times its transpose, mod n, equals
    a nonzero scalar (the peak correlation mod n) times the identity.

    Exact modular arithmetic throughout; a vectorized int64 path is used
    whenever the accumulated products cannot overflow, with an
    arbitrary-precision fallback for large moduli.
    """
    if not is_prime(n):
        raise ValueError(f"modulus {n} is not prime")
    elems = as_elements(seq)
    size = len(elems)
    residues = tuple(e % n for e in elems)
    peak = sum(e * e for e in elems) % n  # C(0)
    if peak == 0:
        return False
    if size * (n - 1) ** 2 < 2**63:
        return _gram_ok_numpy(residues, n, peak)
    return _gram_ok_exact(residues, n, peak)


def check_gram_equiv(seq: SequenceLike, n: int) -> bool:
    """Metamorphic cross-check: both certification routes must agree."""
    return gram_check(seq, n) == check_rr(seq, n).verified


# Masks filtered per pass of scan_masks; bounds its temporary arrays.
_SCAN_CHUNK = 1 << 20


def _rot(m: np.ndarray, k: int, n: int) -> np.ndarray:
    """Rotate n-bit masks by k places."""
    return ((m >> k) | (m << (n - k))) & ((1 << n) - 1)


def scan_masks(n: int) -> np.ndarray:
    """All masks of length n (1 <= n <= 24) passing the mod-2 two-valued
    test, as an ascending uint32 array.

    Bit n-1-i of a mask holds element i of the row, so ascending masks
    are rows in lexicographic order.  The test reduces to popcount parity:

        C(0) mod 2 == 1   <=>  popcount(mask) is odd
        C(k) mod 2 == 0   <=>  popcount(mask & rot_k(mask)) is even
    """
    if not 1 <= n <= 24:
        raise ValueError("mask scan supports lengths 1..24")
    total = 1 << n
    hits = []
    for start in range(0, total, _SCAN_CHUNK):
        m = np.arange(start, min(start + _SCAN_CHUNK, total), dtype=np.uint32)
        m = m[(np.bitwise_count(m) & 1) == 1]
        # lag n-k gives the same popcount as lag k, so lags above n/2 add nothing
        for k in range(1, n // 2 + 1):
            m = m[(np.bitwise_count(m & _rot(m, k, n)) & 1) == 0]
        hits.append(m)
    return np.concatenate(hits)


def enumerate_binary_ideal(n: int) -> list[BinaryWitness]:
    """All binary rows of length n (1 <= n <= 24) whose periodic
    autocorrelation mod 2 is two-valued, in lexicographic order.

    The n delta rows (a single 1) always qualify: their correlation is
    exactly the delta profile.  Each witness carries its mod-2 profile
    over all n lags, computed from its mask as the parity of
    popcount(mask & rot_k(mask)), which is C(k) mod 2.
    """
    masks = scan_masks(n)
    lags = [np.bitwise_count(masks & _rot(masks, k, n)) & 1 for k in range(n)]
    bits = (masks[:, None] >> np.arange(n - 1, -1, -1, dtype=np.uint32)) & 1
    return [
        BinaryWitness(bits=tuple(b), profile_mod2=tuple(p))
        for b, p in zip(bits.tolist(), np.stack(lags, axis=1).tolist())
    ]
