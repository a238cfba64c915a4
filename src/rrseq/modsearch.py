"""Prime modulus search for seed rows.

Pipeline per row: compute the exact off-peak autocorrelation values,
take their gcd, factor it within budget, and keep the prime factors
whose peak residue C(0) mod q is nonzero.  Those primes are exactly the
moduli that make the row's correlation two-valued: q dividing the gcd
forces every off-peak value to 0 mod q, and the peak condition keeps
the sequence itself from vanishing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .correlation import profile_values
from .numtheory import DEFAULT_BUDGET, FactorBudget, Factorization, factorize, gcd_many, primes_up_to
from .sequence import ROW_DOUBLING, as_elements, build_seed, check_length


class SelectionPolicy(enum.Enum):
    """How to pick the canonical modulus from the valid candidate set."""

    SMALLEST = "smallest"
    LARGEST = "largest"
    ALL = "all"


class SearchStatus(enum.Enum):
    NO_SEQUENCE = "NoSequence"
    NO_VALID_MODULUS = "NoValidModulus"
    FOUND = "Found"
    INCOMPLETE_FACTORIZATION = "IncompleteFactorization"


@dataclass(frozen=True)
class CandidateModulus:
    """A prime factor q of the off-peak gcd, with its peak residue C(0) mod q."""

    q: int
    peak_residue: int

    @property
    def valid(self) -> bool:
        return self.peak_residue != 0


@dataclass(frozen=True)
class ModulusSearchOutcome:
    gcd_value: int
    factorization: Factorization
    candidates: tuple[CandidateModulus, ...]
    status: SearchStatus
    canonical: int | None = None

    def valid_moduli(self) -> tuple[int, ...]:
        return tuple(c.q for c in self.candidates if c.valid)

    def all_moduli(self) -> tuple[int, ...]:
        return tuple(c.q for c in self.candidates)


@dataclass(frozen=True)
class SweepRow:
    index: int
    start_prime: int
    length: int
    outcome: ModulusSearchOutcome

    @property
    def efficient(self) -> bool:
        """Canonical modulus no larger than the row length."""
        c = self.outcome.canonical
        return c is not None and c <= self.length


def _select_canonical(valid: tuple[int, ...], policy: SelectionPolicy) -> int | None:
    if not valid:
        return None
    if policy is SelectionPolicy.SMALLEST:
        return min(valid)
    if policy is SelectionPolicy.LARGEST:
        return max(valid)
    return None  # ALL: report the full set, no single pick


def find_modulus(
    seq: Sequence[int],
    policy: SelectionPolicy = SelectionPolicy.LARGEST,
    budget: FactorBudget = DEFAULT_BUDGET,
) -> ModulusSearchOutcome:
    """Search for prime moduli giving the row a two-valued correlation.

    Statuses:
      NO_SEQUENCE               -- the off-peak gcd is 1; no modulus exists.
      FOUND                     -- at least one prime factor passes the peak
                                   test; `canonical` is chosen by `policy`
                                   (None under SelectionPolicy.ALL).
      INCOMPLETE_FACTORIZATION  -- no valid candidate among the factors
                                   extracted in budget, but an unfactored
                                   cofactor remains, so the candidate list
                                   is only a lower bound.
      NO_VALID_MODULUS          -- complete factorization, every prime
                                   factor kills the peak.

    Deterministic for fixed inputs.
    """
    values = profile_values(as_elements(seq))
    offpeak = [v for v in values[1:] if v != 0]
    if not offpeak:
        raise ValueError(
            "every off-peak correlation is zero; the row is two-valued over "
            "the integers and the gcd step does not apply"
        )
    g = gcd_many(abs(v) for v in offpeak)
    if g == 1:
        return ModulusSearchOutcome(
            gcd_value=1,
            factorization=Factorization(input=1, factors=()),
            candidates=(),
            status=SearchStatus.NO_SEQUENCE,
        )
    fact = factorize(g, budget)
    peak = values[0]
    candidates = tuple(
        CandidateModulus(q=q, peak_residue=peak % q) for q in fact.distinct_primes()
    )
    valid = tuple(c.q for c in candidates if c.valid)
    if valid:
        status = SearchStatus.FOUND
    elif not fact.complete:
        status = SearchStatus.INCOMPLETE_FACTORIZATION
    else:
        status = SearchStatus.NO_VALID_MODULUS
    return ModulusSearchOutcome(
        gcd_value=g,
        factorization=fact,
        candidates=candidates,
        status=status,
        canonical=_select_canonical(valid, policy) if status is SearchStatus.FOUND else None,
    )


def search_prime(
    p: int,
    n: int,
    policy: SelectionPolicy = SelectionPolicy.LARGEST,
    budget: FactorBudget = DEFAULT_BUDGET,
    row_kind: str = ROW_DOUBLING,
) -> ModulusSearchOutcome:
    """find_modulus on the constructed row for starting prime p, length n."""
    return find_modulus(build_seed(p, n, row_kind), policy, budget)


def sweep(
    n: int,
    prime_bound: int = 100,
    policy: SelectionPolicy = SelectionPolicy.LARGEST,
    budget: FactorBudget = DEFAULT_BUDGET,
    row_kind: str = ROW_DOUBLING,
) -> list[SweepRow]:
    """One search per starting prime p <= prime_bound, ascending.

    Rows with a negative status are kept, never dropped.
    """
    check_length(n)
    if prime_bound < 2:
        raise ValueError("prime bound must be at least 2")
    rows = []
    for i, p in enumerate(primes_up_to(prime_bound), start=1):
        outcome = find_modulus(build_seed(p, n, row_kind), policy, budget)
        rows.append(SweepRow(index=i, start_prime=p, length=n, outcome=outcome))
    return rows
