"""gcd, primality, budgeted factorization, sieve."""

import random

import pytest

from rrseq import build_seed, find_modulus, sweep
from rrseq.numtheory import (
    _MR_BASES_64,
    _MR_PREFIXES,
    _SMALL_PRIMES,
    _WHEEL_CUTOFF,
    SIEVE_LIMIT,
    FactorBudget,
    Factorization,
    _last_candidate,
    _miller_rabin,
    _trial_chunks,
    factorize,
    gcd_many,
    is_prime,
    primes_up_to,
)


def test_gcd_many_basics():
    assert gcd_many([200, 160, 200]) == 40
    assert gcd_many([40]) == 40
    assert gcd_many([0, 12]) == 12
    assert gcd_many([7, 11]) == 1


def test_gcd_many_rejects_bad_input():
    with pytest.raises(ValueError):
        gcd_many([])
    with pytest.raises(ValueError):
        gcd_many([-4, 8])


def test_gcd_divides_every_value():
    rng = random.Random(99)
    for _ in range(500):
        vals = [rng.randrange(1, 10**9) for _ in range(rng.randrange(1, 8))]
        g = gcd_many(vals)
        assert g >= 1
        assert all(v % g == 0 for v in vals)


def test_is_prime_matches_sieve():
    sieve = set(primes_up_to(10**5))
    for n in range(-5, 10**5 + 1):
        assert is_prime(n) == (n in sieve), n


def _mr_sample(lo, hi, count, rng):
    """count random odd n in [lo, hi) with no factor among _SMALL_PRIMES,
    so each reaches Miller-Rabin."""
    out = []
    while len(out) < count:
        n = rng.randrange(lo, hi) | 1
        if lo <= n < hi and all(n % p for p in _SMALL_PRIMES):
            out.append(n)
    return out


MR_IDS = [f"k={k}" for _, k in _MR_PREFIXES]
# Every bound psi_k between the previous bound and the next, which is
# 4 * psi_13 above the last: the prefix's range and the range after it.
_MR_EDGES = (_SMALL_PRIMES[-1] + 1,) + tuple(b for b, _ in _MR_PREFIXES) + (4 * _MR_PREFIXES[-1][0],)
MR_RANGES = [_MR_EDGES[i : i + 3] for i in range(len(_MR_PREFIXES))]


@pytest.mark.parametrize("bound,k", _MR_PREFIXES, ids=MR_IDS)
def test_mr_base_table_bound_is_strong_pseudoprime(bound, k):
    # psi_k fools its own prefix, so the prefix is cut off there.
    assert _miller_rabin(bound, _MR_BASES_64[:k])
    assert not is_prime(bound)


@pytest.mark.parametrize("lo,bound,hi", MR_RANGES, ids=MR_IDS)
def test_mr_base_table_matches_all_bases(lo, bound, hi):
    rng = random.Random(bound)
    sample = _mr_sample(lo, bound, 1000, rng) + _mr_sample(bound, hi, 1000, rng)
    for n in sample:
        assert is_prime(n) == _miller_rabin(n, _MR_BASES_64), n
    assert any(map(is_prime, sample))
    sympy = pytest.importorskip("sympy")
    for n in sample:
        assert is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("n", [561, 1105, 1729, 41041, 825265, 321197185])
def test_carmichael_numbers_rejected(n):
    assert not is_prime(n)


def test_large_primality():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert not is_prime((2**61 - 1) ** 2)
    # beyond the deterministic-witness bound: derived-base path
    assert is_prime(2**89 - 1)
    assert not is_prime(2**89 - 3)


def test_factorize_small_round_trip():
    for n in range(1, 2000):
        f = factorize(n)
        assert f.complete
        assert f.reassemble() == n
        assert f.input == n
        assert all(is_prime(p) and e >= 1 for p, e in f.factors)
        assert list(f.factors) == sorted(f.factors)


def test_factorize_examples():
    assert factorize(40).factors == ((2, 3), (5, 1))
    assert factorize(1).factors == ()
    assert factorize(97).factors == ((97, 1),)
    assert factorize(2**20).factors == ((2, 20),)
    assert factorize(43692).factors == ((2, 2), (3, 1), (11, 1), (331, 1))


def test_factorize_rejects_nonpositive():
    for n in (0, -1, -40):
        with pytest.raises(ValueError):
            factorize(n)


def test_rho_stage_splits_semiprime():
    # both factors above the trial bound, so rho has to do the work
    budget = FactorBudget(trial_bound=10)
    f = factorize(1009 * 1013, budget)
    assert f.complete
    assert f.factors == ((1009, 1), (1013, 1))


def test_rho_splits_large_semiprime():
    p, q = 1_000_003, 1_000_033
    f = factorize(p * q, FactorBudget(trial_bound=100))
    assert f.complete
    assert f.factors == ((p, 1), (q, 1))


def test_budget_exhaustion_reports_cofactor():
    budget = FactorBudget(trial_bound=2, rho_rounds=0, ecm_curves=0)
    n = 8 * 1009**2
    f = factorize(n, budget)
    assert f.factors == ((2, 3),)
    assert f.cofactor == 1009**2
    assert not f.complete
    assert f.reassemble() == n


def test_budget_validation():
    with pytest.raises(ValueError):
        FactorBudget(trial_bound=1)
    with pytest.raises(ValueError, match="at most"):
        FactorBudget(trial_bound=SIEVE_LIMIT + 1)
    with pytest.raises(ValueError, match="at most"):
        FactorBudget(trial_bound=10**10)
    assert FactorBudget(trial_bound=SIEVE_LIMIT).trial_bound == SIEVE_LIMIT
    with pytest.raises(ValueError):
        FactorBudget(rho_rounds=-1)


def test_ecm_budget_validation():
    with pytest.raises(ValueError):
        FactorBudget(ecm_curves=-1)
    assert FactorBudget(ecm_curves=0).ecm_curves == 0


# Semiprimes whose smaller factor (30-52 bits) is out of reach of the short
# rho pass, so ECM has to split them.  The last two are the cofactors the
# N = 128 doubling rows for p = 13 and p = 19 kept under the old 24 x 2**17
# rho budget (44 x 63 and 52 x 54 bits).
ECM_SEMIPRIMES = (
    668835611 * 1009807734787610564681,
    716142411377 * 149193945349607,
    91993890975761195886141889730773,
    37950415978514965926319136089991,
)


@pytest.mark.slow
def test_ecm_matches_sympy_factorint():
    sympy = pytest.importorskip("sympy")
    for n in ECM_SEMIPRIMES:
        f = factorize(n)
        assert f.complete, n
        assert dict(f.factors) == sympy.factorint(n), n


def test_ecm_separates_small_primes_found_together():
    # Curve orders near 10**4 are all B1-smooth, so stage 1 catches every
    # prime of n at once; ECM must still split n.
    n = 10007 * 10009 * 10037
    f = factorize(n, FactorBudget(trial_bound=2, rho_rounds=0))
    assert f.factors == ((10007, 1), (10009, 1), (10037, 1))


def test_ecm_stage_splits_prime_squares():
    # Squares of primes below the ECM stage-1 bound, which no curve splits;
    # in the second case ECM takes 7919 out and leaves 1999**2.
    budget = FactorBudget(trial_bound=2, rho_rounds=0)
    f = factorize(1009**2, budget)
    assert f.complete
    assert f.factors == ((1009, 2),)
    f = factorize(1999**2 * 7919, budget)
    assert f.complete
    assert f.factors == ((1999, 2), (7919, 1))


def test_factorize_is_deterministic():
    # two curves split none of these, so the partial results must repeat too
    short = FactorBudget(trial_bound=2, rho_rounds=0, ecm_curves=2)
    for n in ECM_SEMIPRIMES:
        assert factorize(n, short) == factorize(n, short)
        assert not factorize(n, short).complete
    assert factorize(ECM_SEMIPRIMES[0]) == factorize(ECM_SEMIPRIMES[0])


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(100)) == 25
    assert len(primes_up_to(10**4)) == 1229


def test_primes_up_to_rejects_bounds_past_sieve_limit():
    # checked before the sieve is allocated, so this allocates nothing
    for bound in (SIEVE_LIMIT + 1, 10**10):
        with pytest.raises(ValueError, match="at most"):
            primes_up_to(bound)
    with pytest.raises(ValueError):
        primes_up_to(-1)


def _trial_oracle(n: int, budget: FactorBudget) -> Factorization:
    """The one-candidate-at-a-time wheel over the whole trial range, then
    the prime test on what is left (no rho, no ECM)."""
    counts: dict[int, int] = {}
    rem = n
    for d in (2, 3):
        while rem % d == 0:
            counts[d] = counts.get(d, 0) + 1
            rem //= d
    d = 5
    limit = budget.trial_bound
    while d <= limit and d * d <= rem:
        for cand in (d, d + 2):
            while rem % cand == 0:
                counts[cand] = counts.get(cand, 0) + 1
                rem //= cand
        d += 6

    cofactor = 1
    if rem > 1:
        if is_prime(rem):
            counts[rem] = counts.get(rem, 0) + 1
        else:
            cofactor = rem
    return Factorization(input=n, factors=tuple(sorted(counts.items())), cofactor=cofactor)


def _chunk_edges() -> list[tuple[int, int]]:
    """(first, last) prime of each chunk of the default trial bound."""
    return [(first, last) for _, first, last in _trial_chunks(_last_candidate(10**6))]


def test_trial_stage_matches_wheel_oracle():
    edges = _chunk_edges()
    (_, end0), (first1, end1), (first2, _) = edges[:3]
    mid = primes_up_to(end1)
    in_chunk1 = [p for p in mid if first1 <= p <= end1]
    # a bound of r - 2 still tries r, two past it
    r = next(p for p in in_chunk1 if p % 6 == 1)
    big = 2**61 - 1  # keeps the remainder large, so the chunk stage runs
    bounds = sorted(
        {2, 5, 6, 7, 11, 12, 13, 1000, 1001, 1002, 1003}
        | {_WHEEL_CUTOFF - 1, _WHEEL_CUTOFF, _WHEEL_CUTOFF + 1}
        | {first1, first1 + 1, end1, end1 + 1, r - 2, 10**6}
    )
    hand = [
        edges[0][0] ** 2, r * big, end0**2 * big, first1**2 * big, end0**3, first1**3, end1**2 * first2**3 * big,
        in_chunk1[3] ** 2 * in_chunk1[-4] * big, in_chunk1[0] * in_chunk1[1],
        in_chunk1[5] * 999_983, 8 * 999_983, 999_983**2 * 3, 999_983 * 1_000_003,
        2**10 * 3**5 * 5**3 * 7 * 16_381 * 16_411 * big, 997 * 1009 * big, 13 * big,
    ]
    rng = random.Random(2004)
    randoms = [rng.getrandbits(rng.randrange(20, 513)) | 1 for _ in range(40)]
    for bound in bounds:
        budget = FactorBudget(trial_bound=bound, rho_rounds=0, ecm_curves=0)
        # the oracle's full wheel to 10**6 costs ~0.1 s on a large remainder
        values = hand + (randoms[:6] if bound == 10**6 else randoms)
        for n in values:
            assert factorize(n, budget) == _trial_oracle(n, budget), (n, bound)


def test_small_rows_build_no_chunk_table():
    # Rows at the paper's lengths finish trial division in the wheel loop,
    # so one-shot runs pay for no chunk products.
    _trial_chunks.cache_clear()
    find_modulus(build_seed(3, 16))
    sweep(16, 2000)
    sweep(24, 200)
    assert _trial_chunks.cache_info().currsize == 0
