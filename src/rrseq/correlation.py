"""Exact periodic autocorrelation of integer rows, plain and modular.

The profile is kept as unnormalized integer sums: divisibility reasoning
downstream (gcd of off-peak values) needs exact integers, so no 1/N
prefactor is ever applied.

One kernel forms it.  `residue_profile` takes the profile of residues
0 <= r_i < n by Kronecker substitution: the residues become the digits
of two big integers, whose one product, made in C, holds every lag as a
digit.  The certificates and `autocorr_mod` call it on residues mod n;
`profile_values` calls it on any row, shifted up to nonnegative entries.

This module loads at first use: `import rrseq` does not import it, and
neither does a search or sweep of doubling rows, whose peak and gcd have
a closed form (`modsearch`).  The first other row, `rrseq autocorr`, a
certificate or a name of this module taken from the package load it.
"""

from __future__ import annotations

import functools
import operator
import struct
from dataclasses import dataclass
from typing import Sequence

from .sequence import as_elements


@dataclass(frozen=True)
class CorrProfile:
    """Periodic autocorrelation values C(0..N-1) of an integer row.

    For any real row, C(k) == C(N-k) for 1 <= k <= N-1.
    """

    values: tuple[int, ...]

    def offpeak(self) -> tuple[int, ...]:
        return self.values[1:]


def profile_values(a: tuple[int, ...]) -> tuple[int, ...]:
    """C(0..N-1) of a row `as_elements` has already normalised.

    The row is shifted by D = max(0, -min a) to r = a + D, whose entries
    are residues below max(r) + 1, and its profile is one
    `residue_profile` product.  Expanding (a_j + D)(a_(j+k) + D) summed
    over j gives C_r(k) = C(k) + 2 D S + N D**2, with S = sum(a), so
    C(k) = C_r(k) - 2 D S - N D**2, and C = C_r when D = 0.
    """
    d = -min(a)
    if d <= 0:
        return residue_profile(a, max(a) + 1)
    r = tuple([e + d for e in a])
    shift = d * (2 * sum(a) + len(a) * d)
    return tuple([v - shift for v in residue_profile(r, max(r) + 1)])


# struct codes of the digit sizes, in bytes, that struct packs natively.
_DIGIT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


@functools.lru_cache(maxsize=32)
def _digit_structs(size: int, b: int) -> tuple[struct.Struct, struct.Struct]:
    """The little- and big-endian structs of size native digits of b bytes."""
    code = f"{size}{_DIGIT_CODES[b]}"
    return struct.Struct("<" + code), struct.Struct(">" + code)


def residue_profile(r: tuple[int, ...], n: int) -> tuple[int, ...]:
    """C(0..N-1) of residues 0 <= r_i < n, from one big-integer product.

    Every lag sums N products below (n - 1)**2, so with digits of 8B bits,
    2**(8B) > N * (n - 1)**2, no digit of a product of two digit strings
    carries into the next (Kronecker substitution: Schoenhage 1982;
    Harvey, *Faster polynomial multiplication via multipoint Kronecker
    substitution*, JSC 2009).  Read r as x = sum r_i X**i and its reversal
    as y = sum r_(N-1-i) X**i, X = 2**(8B); y is r packed big-endian.
    Digit N-1+k of x * y is the acyclic sum A(k) = sum_i r_i r_(i+k),
    i + k < N, and digit k-1 is A(N-k), so folding the low N digits one
    place above the high ones gives digit k = A(k) + A(N-k) = C(k): the
    profile mod X**N - 1, with no carry as every C(k) < X.  B is 1, 2, 4
    or 8 when 8B bits suffice, packed by struct; a wider digit has the
    fewest bytes that suffice and is packed by int.to_bytes.

    Against a per-lag loop of elementwise products on the same residues,
    it is 2.7x faster at N = 16 with 16-bit n and 23x at N = 1024, but
    slower for wide n on short rows: 0.9x at N = 16 with 127-bit n, 0.5x
    with 521-bit n, and 0.8x at N = 128 with 521-bit n (README.md).
    """
    size = len(r)
    b = ((size * (n - 1) ** 2).bit_length() + 7) // 8
    if b <= 8:
        b = 1 << (b - 1).bit_length()
        little, big = _digit_structs(size, b)
        x = int.from_bytes(little.pack(*r), "little")
        y = int.from_bytes(big.pack(*r), "big")
    else:
        x = int.from_bytes(b"".join([e.to_bytes(b, "little") for e in r]), "little")
        y = int.from_bytes(b"".join([e.to_bytes(b, "big") for e in r]), "big")
    w = 8 * b
    z = x * y
    z = (z >> w * (size - 1)) + ((z & ((1 << w * size) - 1)) << w)
    digits = z.to_bytes(b * (size + 1), "little")
    if b <= 8:
        return little.unpack_from(digits)
    return tuple([int.from_bytes(digits[i : i + b], "little") for i in range(0, b * size, b)])


def periodic_autocorr(seq: Sequence[int]) -> CorrProfile:
    """C(k) = sum_j a(j) * a(j+k mod N), exact integers, k = 0..N-1."""
    return CorrProfile(profile_values(as_elements(seq)))


def autocorr_mod(seq: Sequence[int], n: int) -> CorrProfile:
    """The periodic autocorrelation reduced element-wise modulo n.  As
    reduction mod n is a ring homomorphism, the row is reduced first: the
    profile of its residues, one `residue_profile` product, has the same
    values mod n as the row's."""
    n = operator.index(n)
    if n < 2:
        raise ValueError("modulus must be at least 2")
    residues = tuple([e % n for e in as_elements(seq)])
    return CorrProfile(tuple([v % n for v in residue_profile(residues, n)]))
