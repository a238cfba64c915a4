"""Prime modulus search for seed rows.

Pipeline per row: find the peak C(0) and the gcd of the off-peak
autocorrelation values, factor the gcd within budget, and pair each
prime factor q with its peak residue C(0) mod q.  The primes whose
residue is nonzero are exactly the moduli that make the row's
correlation two-valued: q dividing the gcd forces every off-peak value
to 0 mod q, and the peak condition keeps the sequence itself from
vanishing.

A doubling row (p, 2, 4, ..., 2**(N-1)) needs no profile.  For
1 <= k <= N - 1 its off-peak value is

    C(k) = (2**k + 2**(N-k)) * M / 3,    M = 3p + 2**N - 4.

Proof: the two products that hold p are p * a(k) = p * 2**k and
a(N-k) * p = 2**(N-k) * p.  The rest are two geometric series, the pairs
2**j * 2**(j+k) for 1 <= j < N - k and the wrapped pairs
2**j * 2**(j+k-N) for N - k < j < N; they sum to
(2**(2N-k) - 2**(k+2) + 2**(N+k) - 2**(N-k+2)) / 3, which is
(2**k + 2**(N-k)) * (2**N - 4) / 3.  In the same way the peak is
C(0) = p**2 + (4**N - 4) / 3.

So the off-peak gcd is |M| * h_N / 3, with h_N the gcd of
2**k + 2**(N-k) over 1 <= k <= N/2: 4 at N = 2, 6 for odd N and 2 for
even N >= 4.  (For N >= 3 the k = 1 term 2 + 2**(N-1) has exactly one
factor 2.  For N >= 5 an odd common divisor of the k = 1 and k = 2
terms divides (1 + 2**(N-2)) - (1 + 2**(N-4)) = 3 * 2**(N-4), so it is
1 or 3, and 3 divides every term iff k and N - k differ in parity, that
is iff N is odd; N = 3 and N = 4 give 6 and 2 directly.)  The gcd is an
integer because 3 | M for even N, and M = 0 makes every off-peak value
zero.  So a doubling row's search front end is O(N) integer operations
instead of the profile's product of two integers of about 2 N**2 bits.

The search has one plain core, `_search`, which returns a row's result
as the tuple (gcd, factors, cofactor, candidates, status, canonical).
The public records are thin wrappers over it: `find_modulus` and `sweep`
share `_outcome`, which builds a ModulusSearchOutcome, holding a
Factorization, from those values (and `sweep` puts a SweepRow around
it), while the CLI writes its rows from the tuples `_sweep_rows` yields
and builds none of the three.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .numtheory import DEFAULT_BUDGET, FactorBudget, Factorization, _factor, _primes
from .sequence import ROW_DOUBLING, _is_doubling, as_elements, build_seed, check_length, check_row_kind


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
class ModulusSearchOutcome:
    """One row's search result.  `candidates` holds the pair (q, C(0) mod q)
    for each prime q of `factorization.factors`, in the same order."""

    gcd_value: int
    factorization: Factorization
    candidates: tuple[tuple[int, int], ...]
    status: SearchStatus
    canonical: int | None = None

    def valid_moduli(self) -> tuple[int, ...]:
        return tuple(q for q, r in self.candidates if r)


class SweepRow(NamedTuple):
    """One row of a sweep: a starting prime and its search outcome.  A
    plain pair, unpacked as `for p, outcome in sweep(n, bound)`."""

    start_prime: int
    outcome: ModulusSearchOutcome


# The members `_search` reads or returns once a row, bound once: looking
# a member up on its class costs ~0.15 us on Python 3.11.
_SMALLEST, _LARGEST = SelectionPolicy.SMALLEST, SelectionPolicy.LARGEST
_FOUND, _NO_SEQUENCE = SearchStatus.FOUND, SearchStatus.NO_SEQUENCE
_NO_VALID_MODULUS = SearchStatus.NO_VALID_MODULUS
_INCOMPLETE = SearchStatus.INCOMPLETE_FACTORIZATION


def _policy(policy: SelectionPolicy | str) -> SelectionPolicy:
    """policy as a SelectionPolicy; ValueError if it names none."""
    return policy if isinstance(policy, SelectionPolicy) else SelectionPolicy(policy)


def _doubling_peak_gcd(p: int, n: int) -> tuple[int, int]:
    """C(0) and the off-peak gcd of the doubling row (p, 2, ..., 2**(n-1)),
    from the identities in the module docstring; the gcd is 0 iff every
    off-peak value is."""
    m = 3 * p + (1 << n) - 4
    h = 4 if n == 2 else 6 if n % 2 else 2
    return p * p + ((1 << 2 * n) - 4) // 3, abs(m) * h // 3


def _peak_gcd(elems: tuple[int, ...]) -> tuple[int, int]:
    """C(0) and the off-peak gcd of a normalised row: the closed form for a
    doubling row, else the exact profile and the gcd of C(1..N/2), which
    repeat as C(N-k) == C(k)."""
    if _is_doubling(elems):
        return _doubling_peak_gcd(elems[0], len(elems))
    from .correlation import profile_values  # loaded by the first row that is not doubling

    values = profile_values(elems)
    return values[0], math.gcd(*values[1 : len(elems) // 2 + 1])


def find_modulus(
    seq: Sequence[int],
    policy: SelectionPolicy | str = SelectionPolicy.LARGEST,
    budget: FactorBudget = DEFAULT_BUDGET,
) -> ModulusSearchOutcome:
    """Search for prime moduli giving the row a two-valued correlation.

    The outcome holds the off-peak gcd (`gcd_value`), its factorization,
    one candidate pair (q, C(0) mod q) per prime factor q, the status and
    the `canonical` pick; `valid_moduli()` lists the q whose residue is
    nonzero.  A row built from a starting prime is searched as
    find_modulus(build_seed(p, n, kind)).

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

    A doubling row (p, 2, 4, ..., 2**(N-1)), of any integer p, is told
    from the row itself.  Its peak is C(0) = p**2 + (4**N - 4) / 3 and its
    off-peak gcd is |3p + 2**N - 4| * h_N / 3 (h_N = 4 at N = 2, 6 for odd
    N, 2 otherwise), because C(k) = (2**k + 2**(N-k)) * (3p + 2**N - 4) / 3:
    the p terms give p * (2**k + 2**(N-k)), and the rest are two geometric
    series summing to (2**k + 2**(N-k)) * (2**N - 4) / 3.  Every other row
    gets its exact profile, and the gcd of C(1..N/2), which repeat as
    C(N-k) == C(k).  Both give the same outcome.  `sweep` builds no
    doubling rows: it hands each sieved prime straight to the closed form
    and shares `_search`, every step from the gcd on, with this function.

    `policy` may also be a SelectionPolicy value ("smallest", "largest",
    "all"); any other value raises ValueError before any work.

    The result is a wrapper over the plain values of `_search`, the core
    that `sweep` and the CLI share.  Deterministic for fixed inputs.
    """
    policy = _policy(policy)
    peak, g = _peak_gcd(as_elements(seq))
    return _outcome(*_search(peak, g, policy, budget))


def _outcome(g, factors, cofactor, candidates, status, canonical) -> ModulusSearchOutcome:
    """The ModulusSearchOutcome of the plain values `_search` returns."""
    return ModulusSearchOutcome(g, Factorization(g, factors, cofactor), candidates, status, canonical)


def _search(peak: int, g: int, policy: SelectionPolicy, budget: FactorBudget) -> tuple:
    """The search result of a row with peak C(0) and off-peak gcd g, as the
    plain tuple (gcd, factors, cofactor, candidates, status, canonical):
    the fields of a ModulusSearchOutcome, with its Factorization's factors
    and cofactor in place of the record."""
    if g == 0:
        raise ValueError(
            "every off-peak correlation is zero; the row is two-valued over "
            "the integers and the gcd step does not apply"
        )
    if g == 1:
        return 1, (), 1, (), _NO_SEQUENCE, None
    factors, cofactor = _factor(g, budget)
    candidates = []
    valid = []
    for q, _ in factors:
        residue = peak % q
        candidates.append((q, residue))
        if residue:
            valid.append(q)
    if not valid:
        status = _NO_VALID_MODULUS if cofactor == 1 else _INCOMPLETE
        return g, factors, cofactor, tuple(candidates), status, None
    # the factors ascend, so valid does; under ALL there is no single pick
    canonical = valid[0] if policy is _SMALLEST else valid[-1] if policy is _LARGEST else None
    return g, factors, cofactor, tuple(candidates), _FOUND, canonical


def _sweep_rows(
    n: int, prime_bound: int, policy: SelectionPolicy | str, budget: FactorBudget, row_kind: str
) -> Iterator[tuple]:
    """The rows of a sweep over the starting primes p <= prime_bound,
    ascending, made one at a time as they are read.  Each row is the
    plain tuple (p, gcd, factors, cofactor, candidates, status,
    canonical): p, then the values `_search` returns, with no record
    built.  A doubling row's peak and gcd come from the closed form; any
    other row is built and goes through `_peak_gcd`, as in find_modulus.
    Rows are not numbered: a reader that wants the 1-based row number
    takes it from enumerate(rows, 1).

    Not a generator function: every argument is checked at the call, n
    and prime_bound must be integers (`operator.index`), and ValueError
    is raised before the sieve runs.  The starting primes are then
    sieved, to be read off the sieve one at a time.
    """
    n, prime_bound, policy = operator.index(n), operator.index(prime_bound), _policy(policy)
    check_length(n)
    check_row_kind(row_kind)
    if prime_bound < 2:
        raise ValueError("prime bound must be at least 2")
    return (
        (p, *_search(*_doubling_peak_gcd(p, n), policy, budget))
        if row_kind == ROW_DOUBLING
        else (p, *_search(*_peak_gcd(build_seed(p, n, row_kind)), policy, budget))
        for p in _primes(prime_bound)
    )


def sweep(
    n: int,
    prime_bound: int = 100,
    policy: SelectionPolicy | str = SelectionPolicy.LARGEST,
    budget: FactorBudget = DEFAULT_BUDGET,
    row_kind: str = ROW_DOUBLING,
) -> list[SweepRow]:
    """One search per starting prime p <= prime_bound, ascending.

    Each row is the pair SweepRow(p, outcome), whose outcome equals
    find_modulus(build_seed(p, n, row_kind), policy, budget).  The
    starting primes come from a sieve.  A doubling row is never built,
    so its p is not tested for primality again: its peak and off-peak
    gcd come straight from the closed form in the module docstring.  Any
    other kind is built by `build_seed`, which tests p again.  Rows with
    a negative status are kept, never dropped.
    n and prime_bound must be integers (`operator.index`); every argument
    is checked before the sieve runs.

    Each row wraps the plain tuple of `_sweep_rows`, which the CLI's
    sweep and plotdata read directly, to write each row as it is made
    without building these records or holding the list.
    """
    rows = _sweep_rows(n, prime_bound, policy, budget, row_kind)
    return [SweepRow(p, _outcome(*values)) for p, *values in rows]
