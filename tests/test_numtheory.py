"""gcd, primality, budgeted factorization, sieve."""

import collections
import itertools
import math
import random

import numpy as np
import pytest
from oracles import _naive_primes

import rrseq.modsearch
import rrseq.numtheory
from rrseq import build_seed, check_rr, find_modulus, gram_check, sweep
from rrseq.numtheory import (
    _MR_BASES_64,
    _PSI_13,
    _TRIAL_PROOF_LIMIT,
    SIEVE_LIMIT,
    FactorBudget,
    Factorization,
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
    sieve = set(primes_up_to(1 << 20))
    for n in range(-5, 1 << 20):
        assert is_prime(n) == (n in sieve), n


def test_is_prime_memo_is_bounded():
    maxsize = is_prime.cache_info().maxsize
    assert maxsize is not None and maxsize <= 16
    for n in range(10**4, 10**4 + 200):
        is_prime(n)
    assert is_prime.cache_info().currsize <= maxsize


def _spy_primality_tests(monkeypatch) -> list:
    """Record each primality test is_prime runs, of either kind: (n, None)
    for the trial-division proof, (n, bases) for Miller-Rabin."""
    seen = []
    proof, mr = rrseq.numtheory._trial_proof, rrseq.numtheory._miller_rabin

    def proof_spy(n):
        seen.append((n, None))
        return proof(n)

    def mr_spy(n, bases):
        bases = tuple(bases)  # above psi_13 a generator, read once
        seen.append((n, bases))
        return mr(n, bases)

    monkeypatch.setattr(rrseq.numtheory, "_trial_proof", proof_spy)
    monkeypatch.setattr(rrseq.numtheory, "_miller_rabin", mr_spy)
    is_prime.cache_clear()
    return seen


@pytest.mark.parametrize("p, n", [(50021, 16), (197, 128)])
def test_is_prime_memo_carries_the_modulus_into_both_certificates(p, n, monkeypatch):
    # q is tested once over the search and both certificates.  At N = 16
    # trial division proves q prime, so check_rr tests it and gram_check
    # finds it in the memo.  At N = 128, p = 197 factorize tests q and
    # then three more pieces, and the memo must still hold q for both.
    seen = _spy_primality_tests(monkeypatch)
    row = build_seed(p, n)
    q = find_modulus(row).canonical
    assert check_rr(row, q).verified and gram_check(row, q)
    assert [m for m, _ in seen].count(q) == 1


def _mr_sample(lo, hi, count, rng):
    """count random n prime to 6 in [lo, hi), each of which reaches a
    primality test: Miller-Rabin from _TRIAL_PROOF_LIMIT on."""
    out = []
    while len(out) < count:
        n = rng.randrange(lo, hi) | 1
        if n < hi and n % 3:
            out.append(n)
    return out


# (psi_k, k): psi_k is the smallest composite that is a strong pseudoprime
# to each of the first k prime bases 2, 3, 5, ... (Jaeschke, *On strong
# pseudoprimes to several bases*, Math. Comp. 61, 1993, to psi_8; Jiang &
# Deng, *Strong pseudoprimes to the first eight prime bases*, Math. Comp.
# 83, 2014, for psi_9 to psi_11; Sorenson & Webster, *Strong pseudoprimes
# to twelve prime bases*, Math. Comp. 86, 2017, for psi_12 and psi_13).
# psi_1 to psi_3 lie below _TRIAL_PROOF_LIMIT, where the trial-division
# proof must reject them; the rest lie in the 13-base band.
PSI = (
    (2_047, 1),  # 23 * 89
    (1_373_653, 2),  # 829 * 1657
    (25_326_001, 3),  # 2251 * 11251
    (3_215_031_751, 4),  # 151 * 751 * 28351
    (2_152_302_898_747, 5),  # 6763 * 10627 * 29947
    (3_474_749_660_383, 6),  # 1303 * 16927 * 157543
    (341_550_071_728_321, 7),  # 10670053 * 32010157
    (341_550_071_728_321, 8),
    (3_825_123_056_546_413_051, 9),  # 149491 * 747451 * 34233211
    (3_825_123_056_546_413_051, 10),
    (3_825_123_056_546_413_051, 11),
    (318_665_857_834_031_151_167_461, 12),  # 399165290221 * 798330580441
    (3_317_044_064_679_887_385_961_981, 13),  # 1287836182261 * 2575672364521
)
PSI_IDS = [f"k={k}" for _, k in PSI]
# Each distinct bound, with the least k that has it.
_PSI_FIRST = [(b, k) for i, (b, k) in enumerate(PSI) if i == 0 or b != PSI[i - 1][0]]
# Every distinct bound between the previous bound and the next, which is
# 4 * psi_13 above the last: the range below it and the range after it.
# The first range starts where every base of _MR_BASES_64 is at most n - 2.
_PSI_EDGES = (_MR_BASES_64[-1] + 2,) + tuple(b for b, _ in _PSI_FIRST) + (4 * PSI[-1][0],)
PSI_RANGES = [_PSI_EDGES[i : i + 3] for i in range(len(_PSI_FIRST))]
# The 13-base band, from _TRIAL_PROOF_LIMIT to _PSI_13, cut at each
# distinct psi_k inside it, so that samples reach every order of
# magnitude of the band.
_BAND_EDGES = (_TRIAL_PROOF_LIMIT,) + tuple(b for b, _ in _PSI_FIRST if b > _TRIAL_PROOF_LIMIT)
MR_RANGES = list(zip(_BAND_EDGES, _BAND_EDGES[1:]))


def test_psi_13_is_the_end_of_the_13_base_band():
    assert PSI[-1] == (_PSI_13, len(_MR_BASES_64))
    assert _MR_BASES_64 == tuple(primes_up_to(41))


@pytest.mark.parametrize("bound,k", PSI, ids=PSI_IDS)
def test_mr_base_table_bound_is_strong_pseudoprime(bound, k):
    # psi_k fools its own k bases, and is_prime still answers it composite.
    assert _miller_rabin(bound, _MR_BASES_64[:k])
    assert not is_prime(bound)


@pytest.mark.parametrize("lo,bound,hi", PSI_RANGES, ids=[f"k={k}" for _, k in _PSI_FIRST])
def test_mr_base_table_matches_all_bases(lo, bound, hi):
    rng = random.Random(bound)
    sample = _mr_sample(lo, bound, 1000, rng) + _mr_sample(bound, hi, 1000, rng)
    for n in sample:
        assert is_prime(n) == _miller_rabin(n, _MR_BASES_64), n
    assert any(map(is_prime, sample))
    sympy = pytest.importorskip("sympy")
    for n in sample:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_matches_sympy_up_to_four_times_the_proof_limit():
    # Every n prime to 6 in the sample reaches a test: the proof below
    # _TRIAL_PROOF_LIMIT, Miller-Rabin on the 13 bases from it on.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(_TRIAL_PROOF_LIMIT)
    below = _mr_sample(1 << 20, _TRIAL_PROOF_LIMIT, 3000, rng)
    above = _mr_sample(_TRIAL_PROOF_LIMIT, 4 * _TRIAL_PROOF_LIMIT, 3000, rng)
    for n in below + above:
        assert is_prime(n) == sympy.isprime(n), n
    assert sum(map(is_prime, below)) > 100 and sum(map(is_prime, above)) > 100


def test_is_prime_rejects_composites_at_the_edges_of_its_proof():
    # Below _TRIAL_PROOF_LIMIT the chunk table reaches 2**j, the power of
    # two above sqrt(n).  For p the largest prime below 2**j, p**2 has
    # 2j - 1 or 2j bits, so its table reaches 2**j and only the last prime
    # in it rejects p**2; that holds for every reach up to the limit's, 2**14.
    edges = []
    for j in range(2, 15):
        p = primes_up_to(1 << j)[-1]
        assert 1 << ((p * p).bit_length() + 1) // 2 == 1 << j
        edges.append(p * p)
    assert edges[-1] == 16381**2 < _TRIAL_PROOF_LIMIT
    # The first chunk of 512 primes from 5 ends at 3677 and the second
    # starts at 3691: products across that edge and within the second
    # chunk, which its own gcd must catch.
    assert [first for _, first in _trial_chunks(1 << 12)] == [5, 3691]
    assert max(primes_up_to(3690)) == 3677
    edges += [3677 * 3691, 3691**2, 3691 * 3697]
    for n in edges:
        assert not is_prime(n), n
    assert all(map(is_prime, (16381, 3677, 3691, 3697)))


# Carmichael numbers, then the strong pseudoprimes to base 2 below 3 * 10**4
@pytest.mark.parametrize(
    "n", [561, 1105, 1729, 41041, 825265, 321197185, 2047, 3277, 4033, 4681, 8321, 15841, 29341]
)
def test_carmichael_numbers_rejected(n):
    assert not is_prime(n)


def test_miller_rabin_gets_bases_in_range(monkeypatch):
    # _miller_rabin reduces no base mod n, so is_prime must pass it bases
    # in [2, n - 2].  Below _TRIAL_PROOF_LIMIT no n reaches it, and from
    # the limit on each n prime to 6 reaches it once.
    seen = _spy_primality_tests(monkeypatch)
    rng = random.Random(5)
    samples = [_mr_sample(lo, hi, 200, rng) for lo, hi in MR_RANGES]
    samples.append(_mr_sample(_PSI_13, 4 * _PSI_13, 200, rng))
    inputs = [*range(10**4), *itertools.chain(*samples), 2**89 - 1, 2**89 - 3, _PSI_13, _PSI_13 + 2, 2**127 - 1]
    for n in inputs:
        is_prime(n)
    tested = [(n, bases) for n, bases in seen if bases is not None]
    assert [n for n, _ in tested] == [n for n in inputs if n >= _TRIAL_PROOF_LIMIT and math.gcd(n, 6) == 1]
    assert all(2 <= a <= n - 2 for n, bases in tested for a in bases)
    assert 2**127 - 1 in dict(tested)


def test_is_prime_tests_each_band_with_its_bases(monkeypatch):
    # Below _TRIAL_PROOF_LIMIT the trial-division proof alone runs.  From
    # it up to _PSI_13, at both ends of each stretch of MR_RANGES,
    # Miller-Rabin runs on exactly the 13 bases: psi_12 fools 12.  From
    # _PSI_13 on, which fools all 13, it runs on the bases derived from n.
    seen = _spy_primality_tests(monkeypatch)

    def prime_to_6(ns):
        return list(itertools.islice((n for n in ns if math.gcd(n, 6) == 1), 2))

    def tests(n):
        seen.clear()
        is_prime(n)
        return seen

    for n in (5, 7, 25, 1 << 20 | 1, *prime_to_6(range(_TRIAL_PROOF_LIMIT - 1, 0, -1))):
        assert tests(n) == [(n, None)], n
    for lo, hi in MR_RANGES:
        for n in prime_to_6(range(lo, hi)) + prime_to_6(range(hi - 1, lo, -1)):
            assert tests(n) == [(n, _MR_BASES_64)], n
    for n in (*prime_to_6(range(_PSI_13, 2 * _PSI_13)), 2**89 - 1):
        assert tests(n) == [(n, tuple(rrseq.numtheory._derived_bases(n, 64)))], n
    is_prime.cache_clear()


def test_derived_bases_are_drawn_only_as_needed(monkeypatch):
    # Above psi_13 the bases are derived from n one at a time: a composite
    # that fails its first Miller-Rabin round draws one base, a prime all 64.
    drawn = []
    derive = rrseq.numtheory._derived_bases

    def counting(n, count):
        for a in derive(n, count):
            drawn.append(a)
            yield a

    monkeypatch.setattr(rrseq.numtheory, "_derived_bases", counting)
    semiprime = 4503599627382881 * 4503599627470633  # 105 bits, above psi_13
    assert semiprime > _PSI_13 and semiprime.bit_length() == 105
    is_prime.cache_clear()
    assert not is_prime(semiprime)
    assert len(drawn) == 1
    drawn.clear()
    assert is_prime(2**89 - 1)
    assert len(drawn) == 64
    assert drawn == list(derive(2**89 - 1, 64))
    assert all(2 <= a <= 2**89 - 3 for a in drawn)
    is_prime.cache_clear()


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
    assert factorize(1) == Factorization(1, ())
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
    # rho's batched gcd reaches 77 itself, so Brent's one-step backtrack
    # has to recover the factor
    assert factorize(77, FactorBudget(trial_bound=2)).factors == ((7, 1), (11, 1))


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


def test_ecm_separates_small_primes_found_together(monkeypatch):
    # Curve orders near 10**4 are all B1-smooth, so stage 1 catches every
    # prime of n at once; ECM must still split n.
    n = 10007 * 10009 * 10037
    f = factorize(n, FactorBudget(trial_bound=2, rho_rounds=0))
    assert f.factors == ((10007, 1), (10009, 1), (10037, 1))
    # Each curve splits n itself: after the one stage-1 ladder by the
    # whole product k, its retry takes the primes one at a time.
    k = rrseq.numtheory._ecm_tables()[1]
    ladders = []
    real = rrseq.numtheory._ladder
    monkeypatch.setattr(rrseq.numtheory, "_ladder", lambda m, *args: ladders.append(m) or real(m, *args))
    for sigma in range(6, 12):
        ladders.clear()
        g = rrseq.numtheory._ecm_curve(n, sigma)
        assert 1 < g < n and n % g == 0, sigma
        assert ladders[0] == k and len(ladders) > 1, sigma


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
    # Cubes and mixed powers of primes below B1, with no square test to
    # fall back on: stage 1's retry has to split them one prime at a time.
    cases = {
        7**3 * 11**3: ((7, 3), (11, 3)),
        3**2 * 5**3 * 7**3 * 11**2: ((3, 2), (5, 3), (7, 3), (11, 2)),
        2**3 * 3**3 * 343: ((2, 3), (3, 3), (7, 3)),
    }
    for n, factors in cases.items():
        f = factorize(n, budget)
        assert f.complete, n
        assert f.factors == factors
    # One curve: sigma = 9 finds every prime of 1999**2 * 7919 in stage 1,
    # and its retry splits off 1999**2 at its second ladder by 13 (13**2 <=
    # B1).  Running each prime once would skip that step and return n.
    assert rrseq.numtheory._ecm_curve(1999**2 * 7919, 9) == 1999**2


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


def test_primes_up_to_takes_integers_only(monkeypatch):
    assert primes_up_to(np.int64(30)) == primes_up_to(30)

    def no_work(*args):
        raise AssertionError("the sieve ran on a float bound")

    monkeypatch.setattr(rrseq.numtheory, "_sieve", no_work)
    with pytest.raises(TypeError):
        primes_up_to(10.0)


def test_primes_up_to_matches_naive_sieve():
    small = _naive_primes(3000)
    for bound in range(3001):
        assert primes_up_to(bound) == [p for p in small if p <= bound], bound
    assert primes_up_to(10**6) == _naive_primes(10**6)


def test_primes_up_to_rejects_bounds_past_sieve_limit():
    # checked before the sieve is allocated, so this allocates nothing
    for bound in (SIEVE_LIMIT + 1, 10**10):
        with pytest.raises(ValueError, match="at most"):
            primes_up_to(bound)
    with pytest.raises(ValueError):
        primes_up_to(-1)


def _trial_oracle(n: int, budget: FactorBudget) -> Factorization:
    """One-by-one division by 2, 3 and every prime up to the trial bound,
    then the prime test on what is left (no rho, no ECM)."""
    counts: dict[int, int] = {}
    rem = n
    for d in (2, 3, *primes_up_to(budget.trial_bound)[2:]):
        if d * d > rem:
            break
        while rem % d == 0:
            counts[d] = counts.get(d, 0) + 1
            rem //= d

    cofactor = 1
    if rem > 1:
        if is_prime(rem):
            counts[rem] = counts.get(rem, 0) + 1
        else:
            cofactor = rem
    return Factorization(input=n, factors=tuple(sorted(counts.items())), cofactor=cofactor)


def _chunk_edges() -> list[tuple[int, int]]:
    """(first, last) prime of each run of 512 primes from 5 below 2**20,
    the chunks of the default bound's largest table."""
    primes = primes_up_to(1 << 20)[2:]
    return [(run[0], run[-1]) for run in (primes[i : i + 512] for i in range(0, len(primes), 512))]


def _prime_pairs(k: int) -> tuple[int, int]:
    """The primes just below and just above 2**k."""
    below = max(p for p in primes_up_to(1 << k))
    above = next(q for q in range((1 << k) + 1, 1 << (k + 1)) if is_prime(q))
    return below, above


def test_trial_stage_matches_prime_oracle():
    edges = _chunk_edges()
    (_, end0), (first1, end1), (first2, _) = edges[:3]
    mid = primes_up_to(end1)
    in_chunk1 = [p for p in mid if first1 <= p <= end1]
    # a bound of r - 1 leaves r in the remainder
    r = next(p for p in in_chunk1 if p % 6 == 1)
    big = 2**61 - 1  # keeps the remainder large, so the chunk stage runs
    # each chunk table reaches a power of two, so bounds and primes on
    # either side of one
    bounds = sorted(
        {2, 5, 6, 7, 11, 12, 13, 1000, 1001, 1002, 1003}
        | {(1 << k) + e for k in range(3, 15) for e in (-1, 0, 1)}
        | {first1, first1 + 1, end1, end1 + 1, r - 1, 10**6}
    )
    pairs = [_prime_pairs(k) for k in range(3, 18)]
    # Trial division proves a remainder below low**2 prime (see factorize).
    # At the table's end low is min(reach, bound) + 1, so q**2 for the
    # first prime q past the bound must stay unproven: 7**2 at bound 6 is
    # exactly low**2.  1009 * 1013 at bound 1000 is unproven too, and the
    # prime just below 1001**2 is proven.  Past 2**11 the table holds a
    # second chunk, starting past 2**11, where trial division to the bound
    # 2**11 stops with low = bound + 1: the product of the two primes past
    # 2**11 is below that chunk's first prime squared, yet unproven.
    past = [next(q for q in itertools.count(b + 1) if is_prime(q)) for b in (2, 5, 6, 1000)]
    below_low2 = next(m for m in range(1001**2 - 1, 0, -1) if is_prime(m))
    past_2_11 = [p for p in mid if p > 1 << 11][:2]
    edges_of_the_proof = [q * q for q in past] + [1009 * 1013, below_low2, math.prod(past_2_11)]
    hand = [
        edges[0][0] ** 2, r * big, end0**2 * big, first1**2 * big, end0**3, first1**3, end1**2 * first2**3 * big,
        in_chunk1[3] ** 2 * in_chunk1[-4] * big, in_chunk1[0] * in_chunk1[1],
        in_chunk1[5] * 999_983, 8 * 999_983, 999_983**2 * 3, 999_983 * 1_000_003,
        2**10 * 3**5 * 5**3 * 7 * 16_381 * 16_411 * big, 997 * 1009 * big, 13 * big, 7 * big,
        *edges_of_the_proof,
    ]
    near = [below * above * big for below, above in pairs] + [below**2 * above for below, above in pairs]
    rng = random.Random(2004)
    randoms = [rng.getrandbits(rng.randrange(20, 513)) | 1 for _ in range(40)]
    for bound in bounds:
        budget = FactorBudget(trial_bound=bound, rho_rounds=0, ecm_curves=0)
        # the oracle's one-by-one division to 10**6 costs ~0.1 s on a large remainder
        values = hand + randoms[:6] if bound == 10**6 else hand + near + randoms
        for n in values:
            assert factorize(n, budget) == _trial_oracle(n, budget), (n, bound)
    # with rho and ECM off, a prime just past the bound stays in the cofactor
    for bound, q in ((5, 7), (6, 7), (r - 1, r)):
        budget = FactorBudget(trial_bound=bound, rho_rounds=0, ecm_curves=0)
        assert factorize(q * big, budget) == Factorization(q * big, (), q * big)


def test_paper_lengths_factor_without_a_prime_test(monkeypatch):
    # At N = 16 and N = 24 trial division proves every remainder prime, so
    # the factoring core the search calls runs no Miller-Rabin round
    # inside a sweep.
    inside, factored, tested = [], [], []
    real_mr, real_factor = rrseq.numtheory._miller_rabin, rrseq.modsearch._factor

    def mr_spy(m, bases):
        if inside:
            tested.append(m)
        return real_mr(m, bases)

    def factor_spy(g, budget):
        inside.append(g)
        factored.append(g)
        try:
            return real_factor(g, budget)
        finally:
            inside.pop()

    monkeypatch.setattr(rrseq.numtheory, "_miller_rabin", mr_spy)
    monkeypatch.setattr(rrseq.modsearch, "_factor", factor_spy)
    is_prime.cache_clear()
    rows = sweep(16, 2000) + sweep(24, 200)
    assert len(factored) == len(rows) == 349
    assert tested == []


def test_certified_paper_rows_run_no_miller_rabin(monkeypatch):
    # Every modulus at N = 16 and N = 24 (p <= 3000) lies below
    # _TRIAL_PROOF_LIMIT, so building the rows, searching them and both
    # certificates prove every prime by trial division alone.
    seen = _spy_primality_tests(monkeypatch)
    certified = 0
    for n in (16, 24):
        for p, outcome in sweep(n, 3000):
            row = build_seed(p, n)
            q = outcome.canonical
            if q is not None:
                assert check_rr(row, q).verified and gram_check(row, q), (p, n)
                certified += 1
    assert certified == 860
    assert seen and all(bases is None for _, bases in seen)


def _cached(reaches) -> int:
    """How many of these chunk tables were already built."""
    hits = _trial_chunks.cache_info().hits
    for reach in reaches:
        _trial_chunks(reach)
    return _trial_chunks.cache_info().hits - hits


def test_small_rows_build_only_small_chunk_tables():
    # Rows at the paper's lengths need only the small tables, at most
    # 2**13, so one-shot runs never pay for the default bound's 2**20 one.
    _trial_chunks.cache_clear()
    find_modulus(build_seed(3, 16))
    sweep(16, 2000)
    sweep(24, 200)
    built = _trial_chunks.cache_info().currsize
    assert 0 < built == _cached(1 << k for k in range(1, 14))


def test_chunk_table_keys_are_powers_of_two():
    # tables are keyed by reach, not by bound, so however many bounds a
    # process uses at most 24 tables exist
    _trial_chunks.cache_clear()
    big = (2**61 - 1) * (2**31 - 1)
    for bound in (2 << 14, 3 << 14, 10**6):
        factorize(big, FactorBudget(trial_bound=bound, rho_rounds=0, ecm_curves=0))
    built = _trial_chunks.cache_info().currsize
    assert 0 < built == _cached(1 << k for k in range(1, 21))


def test_certify_n128_miller_rabin_work(monkeypatch):
    # The Miller-Rabin work of the certify-n128 benchmark pass at seed 0:
    # for each p <= 60, find_modulus, then both certificates on the
    # canonical modulus.  Pinned per band: the calls, and the bases handed
    # over, the tuple's length in the 13-base band and the bases actually
    # drawn from psi_13 on.  A change to this work fails here until the
    # counts are changed on purpose.
    counts = collections.Counter()
    real = rrseq.numtheory._miller_rabin

    def mr_spy(n, bases):
        if n < _PSI_13:
            counts["13 bases", "calls"] += 1
            counts["13 bases", "bases"] += len(bases)
            return real(n, bases)
        counts["derived", "calls"] += 1

        def drawn():
            for a in bases:
                counts["derived", "bases"] += 1
                yield a

        return real(n, drawn())

    monkeypatch.setattr(rrseq.numtheory, "_miller_rabin", mr_spy)
    is_prime.cache_clear()
    for p in primes_up_to(60):
        row = build_seed(p, 128)
        q = find_modulus(row).canonical
        if q is not None:
            assert check_rr(row, q).verified and gram_check(row, q), p
    is_prime.cache_clear()
    assert dict(counts) == {
        ("13 bases", "calls"): 19,
        ("13 bases", "bases"): 247,
        ("derived", "calls"): 25,
        ("derived", "bases"): 592,
    }


def test_certify_n128_second_stage_work(monkeypatch):
    # The factoring work of the same pass: the search's `_factor` calls,
    # and the Brent-rho rounds, ECM curves and stage-1 ladders they run.
    # A change to the second stage fails here until the counts are changed
    # on purpose.
    counts = collections.Counter()

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    spy(rrseq.modsearch, "_factor")
    for name in ("_brent_rho", "_ecm_curve", "_ladder"):
        spy(rrseq.numtheory, name)
    is_prime.cache_clear()
    for p in primes_up_to(60):
        row = build_seed(p, 128)
        q = find_modulus(row).canonical
        if q is not None:
            assert check_rr(row, q).verified and gram_check(row, q), p
    is_prime.cache_clear()
    assert dict(counts) == {"_factor": 17, "_brent_rho": 17, "_ecm_curve": 21, "_ladder": 21}
