"""Independent certification of the two-valued correlation property.

`check_rr` certifies through the modular autocorrelation profile;
`gram_check` certifies through the circulant Gram product.  The two are
mathematically equivalent, and the test suite asserts that they agree,
which makes the pair a standing cross-check on both implementations.
Both take the row through `_reduce` first and work on its residues mod n,
whose profile has the same values mod n as the row's.  Both are exact
for a modulus of any size: every sum is a Python int.

`check_rr` reads every lag off one product, `residue_profile`'s
Kronecker substitution: the residues are written as the digits of two
big integers, wide enough that no digit of their product carries, and
the one product, folded mod X**N - 1, holds C(0..N-1) as its digits.  It
then reduces the N/2 + 1 distinct lags mod n.

`gram_check` sums each lag on its own, straight from the definition.
The Gram matrix circ(r) circ(r)^T of the residues r is circulant, entry
(i, j) being C(j - i) (Davis, *Circulant Matrices*, 1979), so its first
row decides it: it is a nonzero scalar times the identity iff C(0) is
nonzero mod n and every other C(k) is 0 mod n.  The two certificates
share only `_reduce`, not the product that `check_rr` reads.

This module loads at the first use of one of its names through the
package (`rrseq/__init__.py`), or at `rrseq verify`: `import rrseq`, the
modulus search and the sweep do not import it.  It uses no numpy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .correlation import residue_profile
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


def _reduce(seq: Sequence[int], n: int) -> tuple[int, tuple[int, ...]]:
    """The prime modulus n as an int, and the residues of seq mod n."""
    n = operator.index(n)
    if not is_prime(n):
        raise ValueError(f"modulus {n} is not prime")
    return n, tuple([e % n for e in as_elements(seq)])


def check_rr(seq: Sequence[int], n: int) -> RRCertificate:
    """Certify the two-valued property of seq modulo the prime n.

    verified is True iff every off-peak correlation is 0 mod n and the
    peak is nonzero mod n (so the reduced row is not identically zero).
    """
    n, residues = _reduce(seq, n)
    values = residue_profile(residues, n)
    peak = values[0] % n
    # C(N - k) == C(k): lags 1..N/2 are all the distinct off-peak values,
    # and n divides each of them iff it divides their gcd with n.
    offpeak_ok = math.gcd(n, *values[1 : len(residues) // 2 + 1]) == n
    return RRCertificate(
        modulus=n,
        residues=residues,
        peak=peak,
        offpeak_ok=offpeak_ok,
        verified=offpeak_ok and peak != 0,
    )


def gram_check(seq: Sequence[int], n: int) -> bool:
    """True iff the circulant of seq times its transpose, mod n, equals
    a nonzero scalar times the identity.

    The Gram matrix is circulant, entry (i, j) being C(j - i), so its
    first row, C(0..N-1), decides it, and C(N - k) = C(k) leaves lags
    0..N/2.  Each is summed on its own from the residues r mod n as
    sum_i r[i] r[i + k], indices mod N, a plain Python int, exact for a
    modulus of any size: nothing is sampled and no float is used.  The
    scalar is the peak C(0), which must be nonzero mod n; the check then
    stops at the first lag that is nonzero mod n.  It forms at most
    N (N/2 + 1) products of residues: README.md gives the cost at N =
    2048.
    """
    n, r = _reduce(seq, n)
    if sum(map(operator.mul, r, r)) % n == 0:
        return False
    return all(sum(map(operator.mul, r, r[k:] + r[:k])) % n == 0 for k in range(1, len(r) // 2 + 1))
