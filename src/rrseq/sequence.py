"""Seed rows and the normaliser every entry point runs on its input.

A row is a plain ``tuple[int, ...]``.  Two constructions are supported:

* ``doubling_seed(p, n)`` -- the starting prime followed by successive
  powers of two: ``(p, 2, 4, ..., 2**(n-1))``.  This is the row the
  modulus search consumes by default.
* ``power_seed(p, n)`` -- consecutive powers of the starting prime:
  ``(p, p**2, ..., p**n)``.

Rows are exact integer sequences; no element ever overflows because all
arithmetic is arbitrary precision.  Constructed rows are at most
``MAX_LENGTH`` long: the elements grow to about N bits and the
autocorrelation takes about N**2 / 2 products of them, so building and
correlating a doubling row takes 0.31 s at N = 1024 and 4.5 s at
N = 2048 (best of 3, one core of a 2-vCPU Xeon VM, Python 3.11), more
than ten times more with each doubling of N.
"""

from __future__ import annotations

import operator
from typing import Sequence

from .numtheory import is_prime

ROW_DOUBLING = "doubling"
ROW_POWERS = "powers"
ROW_KINDS = (ROW_DOUBLING, ROW_POWERS)

# Longest row the constructors build (see the module docstring).
MAX_LENGTH = 2048


def as_elements(seq: Sequence[int]) -> tuple[int, ...]:
    """The row as a tuple of Python ints, at least 2 long.

    Elements convert with operator.index, so ints, bools and numpy
    integers pass, while floats and strings raise TypeError instead of
    being truncated.  A row shorter than 2 raises ValueError.
    """
    elems = tuple(map(operator.index, seq))
    if len(elems) < 2:
        raise ValueError(f"a row needs at least 2 elements, got {len(elems)}")
    return elems


def check_length(n: int) -> None:
    """Raise ValueError unless 2 <= n <= MAX_LENGTH."""
    if n < 2:
        raise ValueError(f"row length must be at least 2, got {n}")
    if n > MAX_LENGTH:
        raise ValueError(f"row length must be at most {MAX_LENGTH}, got {n}")


def _check_seed_args(p: int, n: int) -> None:
    check_length(n)
    if not is_prime(p):
        raise ValueError(f"starting value {p} is not prime")


def doubling_seed(p: int, n: int) -> tuple[int, ...]:
    """Row of length n: the prime p followed by 2, 4, ..., 2**(n-1)."""
    _check_seed_args(p, n)
    return (p,) + tuple(1 << j for j in range(1, n))


def power_seed(p: int, n: int) -> tuple[int, ...]:
    """Row of length n: consecutive powers p, p**2, ..., p**n."""
    _check_seed_args(p, n)
    return tuple(p**j for j in range(1, n + 1))


def build_seed(p: int, n: int, kind: str = ROW_DOUBLING) -> tuple[int, ...]:
    """Construct a seed row of the given kind ("doubling" or "powers")."""
    if kind == ROW_DOUBLING:
        return doubling_seed(p, n)
    if kind == ROW_POWERS:
        return power_seed(p, n)
    raise ValueError(f"unknown row kind {kind!r}; expected one of {ROW_KINDS}")
