"""Seed rows and the normaliser every entry point runs on its input.

A row is a plain ``tuple[int, ...]``.  ``build_seed(p, n, kind)`` builds
the row of length n for a starting prime p, in one of the ROW_KINDS:

* ``"doubling"`` (the default) -- the starting prime followed by
  successive powers of two: ``(p, 2, 4, ..., 2**(n-1))``.
* ``"powers"`` -- consecutive powers of the starting prime:
  ``(p, p**2, ..., p**n)``.

Rows are exact integer sequences; no element ever overflows because all
arithmetic is arbitrary precision.  Every row, constructed or passed in,
has 2 to ``MAX_LENGTH`` elements: `as_elements` refuses any other length
for every library entry point.  A length-1 row has no off-peak lag, so
no row function takes one; the binary witness scan alone lists length 1
(`enumerate_binary_ideal(1)` returns the witness ``(1,)``).  The
elements of a constructed row grow to about N bits and the exact
autocorrelation is one product of two integers of about 2 N**2 bits, so
`periodic_autocorr` on a long row takes seconds, while `autocorr_mod`
and the certificates reduce the row mod q first (README.md gives the
costs).  The modulus search recognises a doubling row and reads its
peak and off-peak gcd from a closed form in O(N), so it skips the
profile too.

Every length-N doubling row shares the tail ``(2, 4, ..., 2**(N-1))``.
`build_seed` and the recogniser take it from a cache of the last length
used, so a sweep builds it once.
"""

from __future__ import annotations

import functools
import operator
from typing import Sequence

from .numtheory import is_prime

ROW_DOUBLING = "doubling"
ROW_POWERS = "powers"
ROW_KINDS = (ROW_DOUBLING, ROW_POWERS)

# Longest row `build_seed` builds and `as_elements` accepts (see the
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


def build_seed(p: int, n: int, kind: str = ROW_DOUBLING) -> tuple[int, ...]:
    """The seed row of length n for the prime p, of the given kind
    ("doubling" or "powers").  p and n must be integers
    (`operator.index`): a numpy p would otherwise wrap its powers at 64
    bits."""
    check_row_kind(kind)
    p, n = operator.index(p), operator.index(n)
    check_length(n)
    if not is_prime(p):
        raise ValueError(f"starting value {p} is not prime")
    if kind == ROW_DOUBLING:
        return (p,) + _doubling_tail(n)
    return tuple(p**j for j in range(1, n + 1))
