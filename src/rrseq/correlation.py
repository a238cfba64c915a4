"""Exact periodic autocorrelation of integer rows, plain and modular.

The profile is kept as unnormalized integer sums: divisibility reasoning
downstream (gcd of off-peak values) needs exact integers, so no 1/N
prefactor is ever applied.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .sequence import as_elements


@dataclass(frozen=True)
class CorrProfile:
    """Periodic autocorrelation values C(0..N-1) of an integer row.

    For any real row, C(k) == C(N-k) for 1 <= k <= N-1.
    """

    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> int:
        return self.values[k]

    @property
    def peak(self) -> int:
        return self.values[0]

    def offpeak(self) -> tuple[int, ...]:
        return self.values[1:]


def profile_values(a: tuple[int, ...]) -> tuple[int, ...]:
    """C(0..N-1) of a row `as_elements` has already normalised.

    Lag k pairs the row with its rotation a[k:] + a[:k], so C(k) is
    sum(map(operator.mul, a, a[k:] + a[:k])): one elementwise product of
    two tuples, with no per-term index arithmetic.  Only lags 0..N/2 are
    computed; C(N-k) == C(k) fills in the rest.
    """
    n = len(a)
    values = [sum(map(operator.mul, a, a[k:] + a[:k])) for k in range(n // 2 + 1)]
    return tuple(values + values[(n - 1) // 2 : 0 : -1])


def periodic_autocorr(seq: Sequence[int]) -> CorrProfile:
    """C(k) = sum_j a(j) * a(j+k mod N), exact integers, k = 0..N-1."""
    return CorrProfile(profile_values(as_elements(seq)))


def autocorr_mod(seq: Sequence[int], n: int) -> CorrProfile:
    """The periodic autocorrelation reduced element-wise modulo n."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    return CorrProfile(tuple(v % n for v in profile_values(as_elements(seq))))
