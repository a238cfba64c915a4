"""Seed rows and the normaliser every entry point runs on its input.

A row is a plain ``tuple[int, ...]``.  Two constructions are supported:

* ``doubling_seed(p, n)`` -- the starting prime followed by successive
  powers of two: ``(p, 2, 4, ..., 2**(n-1))``.  This is the row the
  modulus search consumes by default.
* ``power_seed(p, n)`` -- consecutive powers of the starting prime:
  ``(p, p**2, ..., p**n)``.

Rows are exact integer sequences; no element ever overflows because all
arithmetic is arbitrary precision.  Every row, constructed or passed in,
has 2 to ``MAX_LENGTH`` elements: `as_elements` refuses any other length
for every library entry point.  The elements of a constructed row grow
to about N bits and the exact autocorrelation takes about N**2 / 2
products of them, so `periodic_autocorr` (and `rrseq autocorr`) on a
doubling row takes 0.28 s at N = 1024 and 4.2 s at N = 2048 (best of 3,
one core of a 2-vCPU VM, Python 3.11), more than ten times more with
each doubling of N.  `autocorr_mod` and the certificates reduce the row
mod q first: at N = 2048 with q = 7, `autocorr_mod` and `check_rr` take
2-3 ms, one big-integer product of the residues, and `gram_check`
0.25 s, more with a larger q (README.md).
The modulus search recognises a doubling row and reads its peak and
off-peak gcd from a closed form in O(N), so it skips the profile too.

Every length-N doubling row shares the tail ``(2, 4, ..., 2**(N-1))``.
`doubling_seed` and the recogniser take it from a cache of the last
length used, so a sweep builds it once.
"""

from __future__ import annotations

import functools
import operator
from typing import Sequence

from .numtheory import is_prime

ROW_DOUBLING = "doubling"
ROW_POWERS = "powers"
ROW_KINDS = (ROW_DOUBLING, ROW_POWERS)

# Longest row the constructors build and `as_elements` accepts (see the
# module docstring).
MAX_LENGTH = 2048

# Lengths whose doubling tail is cached: one, as every sweep, CLI process
# and benchmark workload uses one length.  Building and recognising the
# N = 16 tail afresh costs ~4 us per row, and on the table-n16 benchmark
# the cache takes median wall_s from 0.843 s to 0.792 s (seeds 0-9,
# 2-vCPU VM).
_TAIL_CACHE_SIZE = 1


def as_elements(seq: Sequence[int]) -> tuple[int, ...]:
    """The row as a tuple of Python ints, 2 to MAX_LENGTH long.

    Elements convert with operator.index, so ints, bools and numpy
    integers pass, while floats and strings raise TypeError instead of
    being truncated.  A row shorter than 2 or longer than MAX_LENGTH
    raises check_length's ValueError.
    """
    elems = tuple(map(operator.index, seq))
    if not 2 <= len(elems) <= MAX_LENGTH:
        check_length(len(elems))
    return elems


def check_length(n: int) -> None:
    """Raise ValueError unless 2 <= n <= MAX_LENGTH."""
    if n < 2:
        raise ValueError(f"row length must be at least 2, got {n}")
    if n > MAX_LENGTH:
        raise ValueError(f"row length must be at most {MAX_LENGTH}, got {n}")


def check_row_kind(kind: str) -> None:
    """Raise ValueError unless kind is one of ROW_KINDS."""
    if kind not in ROW_KINDS:
        raise ValueError(f"unknown row kind {kind!r}; expected one of {ROW_KINDS}")


def _seed_args(p: int, n: int) -> tuple[int, int]:
    """p and n as ints, once n is a valid length and p a prime.  A numpy
    p would otherwise wrap its powers at 64 bits."""
    p, n = operator.index(p), operator.index(n)
    check_length(n)
    if not is_prime(p):
        raise ValueError(f"starting value {p} is not prime")
    return p, n


@functools.lru_cache(maxsize=_TAIL_CACHE_SIZE)
def _doubling_tail(n: int) -> tuple[int, ...]:
    """(2, 4, ..., 2**(n-1)): a length-n doubling row after its first element."""
    return tuple(1 << j for j in range(1, n))


def _is_doubling(elems: tuple[int, ...]) -> bool:
    """True iff a normalised row is (x, 2, 4, ..., 2**(N-1)) for some x.

    The first element is not checked, so it may be any integer.  As
    `as_elements` refuses rows longer than MAX_LENGTH, the cache never
    holds a tail of more than MAX_LENGTH elements.
    """
    return elems[1] == 2 and elems[1:] == _doubling_tail(len(elems))


def doubling_seed(p: int, n: int) -> tuple[int, ...]:
    """Row of length n: the prime p followed by 2, 4, ..., 2**(n-1)."""
    p, n = _seed_args(p, n)
    return (p,) + _doubling_tail(n)


def power_seed(p: int, n: int) -> tuple[int, ...]:
    """Row of length n: consecutive powers p, p**2, ..., p**n."""
    p, n = _seed_args(p, n)
    return tuple(p**j for j in range(1, n + 1))


def build_seed(p: int, n: int, kind: str = ROW_DOUBLING) -> tuple[int, ...]:
    """Construct a seed row of the given kind ("doubling" or "powers")."""
    check_row_kind(kind)
    return doubling_seed(p, n) if kind == ROW_DOUBLING else power_seed(p, n)
