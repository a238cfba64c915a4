"""Independent certification of the two-valued correlation property.

`check_rr` certifies through the modular autocorrelation profile;
`gram_check` certifies through the circulant Gram product.  The two are
mathematically equivalent, and the test suite asserts that they agree,
which makes the pair a standing cross-check on both implementations.

`gram_check` forms all N**2 entries of the Gram product exactly, for a
modulus of any size, with float64 matmuls: a product of integers is exact
while every partial sum stays below 2**53.  Residues too large for one
such product are split into 16-bit limbs; each limb pair's product then
stays below N * (2**16 - 1)**2 < 2**53, which holds for every N < 2**21,
and the products are summed into base-2**16 digits with int64 carries.
Rows of 2**21 or more elements are refused with ValueError.  Each
circulant is read out of the row written twice over, as a strided view
copied into one contiguous array; nothing outlives the call.

`enumerate_binary_ideal` exhaustively lists every binary row of a given
length whose mod-2 correlation is two-valued (peak 1, off-peak 0); the
search itself is `scan_masks`, a popcount filter over all 2**n masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .correlation import profile_values
from .numtheory import is_prime
from .sequence import as_elements


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


def check_rr(seq: Sequence[int], n: int) -> RRCertificate:
    """Certify the two-valued property of seq modulo the prime n.

    verified is True iff every off-peak correlation is 0 mod n, the peak
    is nonzero mod n, and the reduced row is not identically zero.
    """
    if not is_prime(n):
        raise ValueError(f"modulus {n} is not prime")
    elems = as_elements(seq)
    peak, *offpeak = (v % n for v in profile_values(elems))
    offpeak_ok = all(v == 0 for v in offpeak)
    residues = tuple(e % n for e in elems)
    nonzero = any(r != 0 for r in residues)
    return RRCertificate(
        modulus=n,
        residues=residues,
        peak=peak,
        offpeak_ok=offpeak_ok,
        verified=offpeak_ok and peak != 0 and nonzero,
    )


# float64 sums of integers are exact while every partial sum is below 2**53.
_FLOAT_EXACT = 2**53
_LIMB_BITS = 16
_LIMB_MASK = (1 << _LIMB_BITS) - 1
# size * (2**16 - 1)**2 < 2**53 holds for every size below this.
_MAX_GRAM_SIZE = 2**21


def _limb_count(size: int, n: int) -> int:
    """Limbs per residue in the Gram product of a size-element row mod n:
    1 (the residue itself) while size * (n - 1)**2 < 2**53, otherwise
    ceil(bitlen(n - 1) / 16)."""
    if size * (n - 1) ** 2 < _FLOAT_EXACT:
        return 1
    return -(-(n - 1).bit_length() // _LIMB_BITS)


def _circulant(col: np.ndarray) -> np.ndarray:
    """The size x size circulant of a 1-D float64 array: entry (i, j) is
    col[(i + j) % size].  Row i is the length-size window at offset i of
    col followed by col[:-1]; the copy makes it contiguous for BLAS."""
    size = len(col)
    ext = np.concatenate((col, col[:-1]))
    return np.ndarray((size, size), np.float64, ext, 0, (ext.itemsize, ext.itemsize)).copy()


def _gram_ok(residues: tuple[int, ...], n: int, peak: int) -> bool:
    """True iff circ(residues) @ circ(residues).T is peak * I mod n, with
    every one of the size**2 entries formed as an exact integer."""
    size = len(residues)
    limbs = _limb_count(size, n)
    if limbs == 1:
        # The float64 product of the residues is the exact Gram matrix.
        circ = _circulant(np.array(residues, dtype=np.float64))
        gram = (circ @ circ.T).astype(np.int64) % n
        # peak * I: every diagonal entry is peak and nothing else is nonzero.
        return bool((gram.diagonal() == peak).all() and np.count_nonzero(gram) == (size if peak else 0))

    raw = b"".join(r.to_bytes(2 * limbs, "little") for r in residues)
    limb_rows = np.frombuffer(raw, dtype="<u2").reshape(size, limbs)
    circs = [_circulant(limb_rows[:, a].astype(np.float64)) for a in range(limbs)]
    # Entries are below size * n**2 < 2**(32 * limbs + 21): 2 * limbs + 2 digits.
    ndigits = 2 * limbs + 2
    digits = np.empty((size, size, ndigits), dtype="<u2")
    carry = np.zeros((size, size), dtype=np.int64)
    for s in range(ndigits):
        # Digit s gathers the limb pairs a + b = s.  Each product (below
        # 2**53) is split into its low 16 bits, added here, and the rest,
        # carried into digit s + 1, so the int64 sums stay near
        # limbs * 2**37 however large n is.
        acc, carry = carry, np.zeros((size, size), dtype=np.int64)
        for a in range(max(0, s - limbs + 1), min(s, limbs - 1) + 1):
            prod = (circs[a] @ circs[s - a].T).astype(np.int64)
            acc += prod & _LIMB_MASK
            carry += prod >> _LIMB_BITS
        digits[:, :, s] = acc & _LIMB_MASK
        carry += acc >> _LIMB_BITS

    # One Gram row at a time: each entry's little-endian digits become one
    # Python int; the row passes iff its diagonal entry is peak and all of
    # its other entries are 0, mod n.
    entries = digits.view(f"V{2 * ndigits}").reshape(size, size)
    for i in range(size):
        row = [v % n for v in map(int.from_bytes, entries[i].tolist(), repeat("little"))]
        if row[i] != peak or row.count(0) != size - 1:
            return False
    return True


def gram_check(seq: Sequence[int], n: int) -> bool:
    """True iff the circulant of seq times its transpose, mod n, equals
    a nonzero scalar (the peak correlation mod n) times the identity.

    Every one of the N**2 Gram entries is formed as an exact integer and
    reduced mod n; nothing is sampled, and no float tolerance is used.
    The product runs as float64 matmuls, which are exact while every
    partial sum is an integer below 2**53.  When N * (n - 1)**2 < 2**53 a
    single product of the residues is the Gram matrix.  Otherwise each
    residue is split into L = ceil(bitlen(n - 1) / 16) limbs of 16 bits,
    every limb pair (a, b) gives one product whose partial sums stay below
    N * (2**16 - 1)**2 < 2**53, the products are added into base-2**16
    digits a + b with carries in int64, and each entry is rebuilt from its
    digits as a Python int.  That bound needs N < 2**21, so longer rows
    raise ValueError instead of returning an unchecked answer.
    """
    if not is_prime(n):
        raise ValueError(f"modulus {n} is not prime")
    elems = as_elements(seq)
    size = len(elems)
    if size >= _MAX_GRAM_SIZE:
        raise ValueError(f"gram_check needs fewer than {_MAX_GRAM_SIZE} elements, got {size}")
    residues = tuple(e % n for e in elems)
    peak = sum(e * e for e in elems) % n  # C(0)
    if peak == 0:
        return False
    return _gram_ok(residues, n, peak)


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
