"""Exact integer utilities: list gcd, primality, budgeted factoring, prime sieve.

`is_prime` is exact below psi_13 ~ 3.3e24.  There it runs Miller-Rabin
on only as many of the bases 2, 3, 5, ..., 41 as the size of n needs:
the first k are exact below psi_k, the smallest strong pseudoprime to
all of them, and `_MR_PREFIXES` lists each bound with its k (Jaeschke,
Math. Comp. 61, 1993; Jiang & Deng, Math. Comp. 83, 2014; Sorenson &
Webster, Math. Comp. 86, 2017).  So a prime near 10**5 is tested to 2
bases instead of all 13.

`factorize` runs trial division, then a short Brent-rho, then Lenstra's
elliptic-curve method (ECM) on whatever composite is left, and reports
what no stage split as an explicit cofactor.

Trial division tries 2, 3, then d and d + 2 for every d = 5, 11, 17, ...
up to the bound B, so its last candidate is 6*floor((B - 5) / 6) + 7.  It
stops early once the remainder is below the square of the next candidate,
and picks its method by the size of the remainder.  Up to 2**14 it
divides by each candidate in turn, which every remainder below ~2**28
finishes.  Past that it takes the primes in chunks of 512 and computes
one gcd of the remainder with each chunk's product, looking inside a
chunk only when that gcd is above 1.  Both remove exactly the same primes.

Every sieve, and so every trial bound, is capped at SIEVE_LIMIT (10**7),
because a sieve to B takes B bytes.

Everything here works on arbitrary-precision Python ints and is purely
functional, so concurrent use needs no locking.  The ECM tables and the
chunk products of each trial bound are built on the first call that
needs them and then only read.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

# Deterministic Miller-Rabin: the first k of these bases are exact for
# every n below psi_k, the smallest strong pseudoprime to all of them
# (Jaeschke 1993 up to psi_8; Jiang & Deng 2014 for psi_9 to psi_11;
# Sorenson & Webster 2017 for psi_12 and psi_13).
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_k, k), ascending; a prefix is only listed where it is the shortest
# one exact below its bound, so psi_8, psi_10 and psi_11 do not appear.
_MR_PREFIXES = (
    (2_047, 1),  # psi_1 = 23 * 89
    (1_373_653, 2),  # psi_2 = 829 * 1657
    (25_326_001, 3),  # psi_3 = 2251 * 11251
    (3_215_031_751, 4),  # psi_4 = 151 * 751 * 28351
    (2_152_302_898_747, 5),  # psi_5 = 6763 * 10627 * 29947
    (3_474_749_660_383, 6),  # psi_6 = 1303 * 16927 * 157543
    (341_550_071_728_321, 7),  # psi_7 = psi_8 = 10670053 * 32010157
    (3_825_123_056_546_413_051, 9),  # psi_9 = psi_10 = psi_11 = 149491 * 747451 * 34233211
    (318_665_857_834_031_151_167_461, 12),  # psi_12 = 399165290221 * 798330580441
    (3_317_044_064_679_887_385_961_981, 13),  # psi_13 = 1287836182261 * 2575672364521
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Trial division divides by each wheel candidate in turn up to
# _WHEEL_CUTOFF, which is where every remainder below ~2**28 stops (at
# d*d > rem), so rows at the paper's lengths never leave the loop.  Larger
# remainders take the primes above it _CHUNK_PRIMES at a time, by one gcd
# with the chunk's product.  Both sizes were chosen by timing.
_WHEEL_CUTOFF = 1 << 14
_CHUNK_PRIMES = 512

# Largest bound of any sieve, so also of trial division: a sieve to B
# takes B bytes.  A trial bound B sieves to _last_candidate(B), which is
# at most 10**7 too for every B <= 10**7.
SIEVE_LIMIT = 10**7

# Iteration cap of one Brent-rho round.
_RHO_ITERS = 1 << 14

# ECM bounds: stage 1 multiplies by every prime power <= _ECM_B1, stage 2
# catches one more prime in (_ECM_B1, _ECM_B2].  Sized for the 40-55-bit
# factors that Brent-rho cannot reach within a short pass.
_ECM_B1 = 2_000
_ECM_B2 = 100_000
# Stage-2 giant step; baby steps are the j < _ECM_D / 2 coprime to it.
_ECM_D = 2310
# Suyama parameter of the first curve; curve i uses sigma = _ECM_SIGMA0 + i.
_ECM_SIGMA0 = 6


@dataclass(frozen=True)
class FactorBudget:
    """Effort limits for `factorize`, counted in work, never in seconds,
    so a budget gives the same result on any machine.

    trial_bound: bound B of trial division, 2 <= B <= SIEVE_LIMIT.  The
                 divisors tried are 2, 3 and every 6k -/+ 1 up to
                 6*floor((B - 5) / 6) + 7, so B = 5 still tries 7.  Above
                 2**14 they are tried through chunk products built once
                 per bound.
    rho_rounds:  number of Brent-rho restarts (distinct polynomial offsets)
                 per composite; the default is one short pass that takes
                 the small factors trial division left.  Each round
                 runs at most 2**14 iterations.
    ecm_curves:  ECM curves tried in one `factorize` call, shared by every
                 composite rho could not split (0 disables ECM).
    """

    trial_bound: int = 10**6
    rho_rounds: int = 1
    ecm_curves: int = 200

    def __post_init__(self) -> None:
        if self.trial_bound < 2:
            raise ValueError("trial_bound must be at least 2")
        if self.trial_bound > SIEVE_LIMIT:
            raise ValueError(f"trial_bound must be at most {SIEVE_LIMIT} (its primes come from a sieve)")
        if self.rho_rounds < 0:
            raise ValueError("rho_rounds must be non-negative")
        if self.ecm_curves < 0:
            raise ValueError("ecm_curves must be non-negative")


DEFAULT_BUDGET = FactorBudget()


@dataclass(frozen=True)
class Factorization:
    """Result of a budgeted factorization.

    `factors` lists (prime, exponent) pairs in ascending prime order.
    `cofactor` is the unfactored remainder: 1 when the factorization is
    complete, otherwise a composite (or unresolved) part that exceeded
    the budget.  Invariant: prod(p**e) * cofactor == input.
    """

    input: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def reassemble(self) -> int:
        out = self.cofactor
        for p, e in self.factors:
            out *= p**e
        return out

    def distinct_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def gcd_many(values: Iterable[int]) -> int:
    """Greatest common divisor of a non-empty collection (0 acts as identity)."""
    vals = list(values)
    if not vals:
        raise ValueError("gcd_many requires at least one value")
    if any(v < 0 for v in vals):
        raise ValueError("gcd_many is defined for non-negative integers")
    return math.gcd(*vals)


def _miller_rabin(n: int, bases: Sequence[int]) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _derived_bases(n: int, count: int) -> list[int]:
    # Deterministic pseudo-random bases derived from n itself, so repeated
    # calls always agree.  splitmix64-style scramble.
    bases = []
    state = (n ^ 0x9E3779B97F4A7C15) & (2**64 - 1)
    while len(bases) < count:
        state = (state + 0x9E3779B97F4A7C15) & (2**64 - 1)
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
        z ^= z >> 31
        a = 2 + z % (n - 3)
        bases.append(a)
    return bases


def is_prime(n: int) -> bool:
    """Primality test.

    Deterministic (exact) for all n below psi_13 ~ 3.3e24, which covers
    the full 64-bit range.  There it runs Miller-Rabin on the shortest
    prefix of the bases 2, 3, 5, ..., 41 that no composite below the next
    bound of `_MR_PREFIXES` passes: one base below 2047, four below
    3.2e9, seven below 3.4e14, nine below 3.8e18.  Each bound psi_k is
    the smallest strong pseudoprime to the first k prime bases (Jaeschke,
    *On strong pseudoprimes to several bases*, Math. Comp. 61, 1993;
    Jiang & Deng, *Strong pseudoprimes to the first eight prime bases*,
    Math. Comp. 83, 2014; Sorenson & Webster, *Strong pseudoprimes to
    twelve prime bases*, Math. Comp. 86, 2017).  Above psi_13 it falls back to Miller-Rabin
    with 64 rounds of bases derived deterministically from n; the error
    probability is below 4**-64 = 2**-128 and identical inputs always
    give identical answers.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    for bound, k in _MR_PREFIXES:
        if n < bound:
            return _miller_rabin(n, _MR_BASES_64[:k])
    return _miller_rabin(n, _derived_bases(n, 64))


def _brent_rho(n: int, c: int, max_iters: int) -> int:
    """One Brent-rho round on composite odd n; returns a nontrivial factor or 1."""
    if n % 2 == 0:
        return 2
    y, m = 2, 128
    g = r = q = 1
    iters = 0
    x = ys = y
    while g == 1 and iters < max_iters:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r *= 2
        iters += r
    if g == n:
        # Backtrack one step at a time to recover the factor.
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g if g != n else 1


def _rho_factor(n: int, budget: FactorBudget) -> int:
    for c in range(1, budget.rho_rounds + 1):
        f = _brent_rho(n, c, _RHO_ITERS)
        if 1 < f < n:
            return f
    return 1


@functools.cache
def _ecm_tables() -> tuple[tuple[int, ...], int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """Stage-1 prime powers and their product, and the stage-2 plan.

    Every prime r in (B1, B2] is m*D + j or m*D - j for one baby step j
    (odd, below D/2, coprime to D), and both share the test
    x(m*D*Q) == x(j*Q).  The plan lists each giant step m with the
    positions, among the ascending baby steps, of the j it must test.
    """
    powers = []
    for p in primes_up_to(_ECM_B1):
        pe = p
        while pe * p <= _ECM_B1:
            pe *= p
        powers.append(pe)
    babies = [j for j in range(1, _ECM_D // 2, 2) if math.gcd(j, _ECM_D) == 1]
    position = {j: i for i, j in enumerate(babies)}
    plan: dict[int, set[int]] = {}
    for r in primes_up_to(_ECM_B2):
        if r <= _ECM_B1:
            continue
        m, j = divmod(r, _ECM_D)
        if j > _ECM_D // 2:
            m, j = m + 1, _ECM_D - j
        plan.setdefault(m, set()).add(position[j])
    plan_steps = tuple((m, tuple(sorted(js))) for m, js in sorted(plan.items()))
    return tuple(powers), math.prod(powers), plan_steps


def _xadd(p: tuple[int, int], q: tuple[int, int], diff: tuple[int, int], n: int) -> tuple[int, int]:
    """x-only P + Q on a Montgomery curve, given P - Q (projective X:Z)."""
    u = (p[0] - p[1]) * (q[0] + q[1]) % n
    v = (p[0] + p[1]) * (q[0] - q[1]) % n
    return diff[1] * (u + v) ** 2 % n, diff[0] * (u - v) ** 2 % n


def _xdbl(p: tuple[int, int], a24: int, n: int) -> tuple[int, int]:
    """x-only 2P on By^2 = x^3 + Ax^2 + x, with a24 = (A + 2) / 4."""
    s = (p[0] + p[1]) ** 2 % n
    d = (p[0] - p[1]) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _ladder(k: int, x: int, a24: int, n: int) -> tuple[int, int]:
    """x-only k*P for the affine point x(P) = x, k >= 1 (Montgomery ladder).

    The two steps are written out inline: this loop is the ECM hot path.
    """
    xa, za = x, 1
    s = (x + 1) ** 2 % n
    d = (x - 1) ** 2 % n
    t = s - d
    xb, zb = s * d % n, t * (d + a24 * t) % n
    for bit in bin(k)[3:]:
        u = (xa - za) * (xb + zb) % n
        v = (xa + za) * (xb - zb) % n
        xs, zs = (u + v) ** 2 % n, x * (u - v) ** 2 % n
        if bit == "1":
            s = (xb + zb) ** 2 % n
            d = (xb - zb) ** 2 % n
            t = s - d
            xa, za, xb, zb = xs, zs, s * d % n, t * (d + a24 * t) % n
        else:
            s = (xa + za) ** 2 % n
            d = (xa - za) ** 2 % n
            t = s - d
            xa, za, xb, zb = s * d % n, t * (d + a24 * t) % n, xs, zs
    return xa, za


def _ecm_curve(n: int, sigma: int) -> int:
    """One ECM curve (Suyama parameter sigma) on n coprime to 6.

    Returns a divisor of n found by the curve, 1 when the curve finds
    nothing, or n when it finds every prime at once.
    """
    powers, k, plan = _ecm_tables()
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    den = 16 * pow(u, 3, n) * pow(v, 3, n) * v % n
    g = math.gcd(den, n)
    if g != 1:
        return g
    inv = pow(den, -1, n)
    # Suyama: x0 = u^3 / v^3 and a24 = (v - u)^3 (3u + v) / (16 u^3 v).
    x0 = 16 * pow(u, 6, n) * v * inv % n
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(v, 3, n) * inv % n

    # Stage 1: Q = k * P, with k the product of all prime powers <= B1.
    q = _ladder(k, x0, a24, n)
    g = math.gcd(q[1], n)
    if g == n:
        # Every prime of n at once (likely when they are all small): redo
        # stage 1 one prime power at a time to catch them apart.
        x = x0
        for pe in powers:
            xz = _ladder(pe, x, a24, n)
            g = math.gcd(xz[1], n)
            if g != 1:
                return g
            x = xz[0] * pow(xz[1], -1, n) % n
    if g != 1:
        return g

    # Stage 2: catch one more prime r = m*D -/+ j in (B1, B2].  Then r*Q is
    # the identity mod some p | n, so x(m*D*Q) == x(j*Q) mod p.
    q2 = _xdbl(q, a24, n)
    points = []  # the baby steps j*Q, then the giant steps m*D*Q of the plan
    prev, cur = q, q  # (j - 2) * Q and j * Q; x(-Q) = x(Q) starts the chain
    for j in range(1, _ECM_D // 2, 2):
        if math.gcd(j, _ECM_D) == 1:
            points.append(cur)
        prev, cur = cur, _xadd(cur, q2, prev, n)
    step = _xdbl(cur, a24, n)  # cur is (D/2) * Q here
    giant, after, m = step, _xdbl(step, a24, n), 1
    for mi, _ in plan:
        while m < mi:
            giant, after = after, _xadd(after, step, giant, n)
            m += 1
        points.append(giant)

    # Affine x of every point from one inversion (Montgomery's trick); a Z
    # that shares a factor with n means a point is the identity mod p.
    prefix = [1]
    for _, z in points:
        prefix.append(prefix[-1] * z % n)
    g = math.gcd(prefix[-1], n)
    if g != 1:
        return g
    inv = pow(prefix[-1], -1, n)
    xs = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        xs[i] = points[i][0] * prefix[i] % n * inv % n
        inv = inv * points[i][1] % n

    giant_xs = xs[len(xs) - len(plan) :]
    acc = 1
    for gx, (_, js) in zip(giant_xs, plan):
        for b in js:
            acc = acc * (gx - xs[b]) % n
    return math.gcd(acc, n)


def _last_candidate(bound: int) -> int:
    """Largest trial divisor for a bound >= 5: the wheel tries d and d + 2
    for every d = 5 (mod 6) up to the bound, so this may exceed it by 2."""
    return 6 * ((bound - 5) // 6) + 7


@functools.cache
def _trial_chunks(last: int) -> tuple[tuple[int, int, int], ...]:
    """(product, first prime, last prime) of each run of _CHUNK_PRIMES
    consecutive primes in (_last_candidate(_WHEEL_CUTOFF), last].

    Only the products are kept, never the primes: they are recovered from
    a chunk's gcd with the remainder, which is rarely > 1.
    """
    start = _last_candidate(_WHEEL_CUTOFF) + 2  # odd, like every prime here
    primes = itertools.compress(range(start, last + 1, 2), _sieve(last)[start::2])
    chunks = []
    while run := list(itertools.islice(primes, _CHUNK_PRIMES)):
        chunks.append((math.prod(run), run[0], run[-1]))
    return tuple(chunks)


def _chunk_trial(rem: int, last: int, counts: dict[int, int]) -> int:
    """Divide every prime in (_last_candidate(_WHEEL_CUTOFF), last] out of
    rem, counting each in counts, and return what is left.

    rem must have no prime factor the wheel loop tried.  One gcd with a
    chunk's product tells whether any of its primes divides rem.
    """
    for product, first, _ in _trial_chunks(last):
        if first * first > rem:
            break  # rem is 1 or a prime, as when the wheel stops at d*d > rem
        g = math.gcd(product, rem)
        if g == 1:
            continue
        # g is squarefree with no prime below first, so its smallest
        # divisor above 1 is always one of its primes.
        c = first
        while c * c <= g:
            if g % c == 0:
                g //= c
                while rem % c == 0:
                    counts[c] = counts.get(c, 0) + 1
                    rem //= c
            c += 2
        if g > 1:
            while rem % g == 0:
                counts[g] = counts.get(g, 0) + 1
                rem //= g
    return rem


def factorize(n: int, budget: FactorBudget = DEFAULT_BUDGET) -> Factorization:
    """Factor n within the given budget.

    Trial division up to budget.trial_bound comes first: 2, 3, then every
    6k -/+ 1 up to `_last_candidate(trial_bound)`, one by one up to 2**14
    and by gcds with cached products of 512 primes above it, stopping
    once the remainder is 1 or below the square of the next candidate.
    Every composite left then gets a short Brent-rho pass and, if rho
    cannot split it and ECM is enabled, a perfect-square test and then ECM
    curves (sigma = 6, 7, 8, ...) from one curve budget for the whole
    call.  Whatever no stage splits is reported as `cofactor` rather than
    dropped.  A complete factorization is unique, so it does not depend
    on which stage found which prime.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n == 1:
        return Factorization(input=1, factors=())

    counts: dict[int, int] = {}
    rem = n
    for d in (2, 3):
        while rem % d == 0:
            counts[d] = counts.get(d, 0) + 1
            rem //= d
    d = 5
    limit = budget.trial_bound
    wheel_end = min(limit, _WHEEL_CUTOFF)
    while d <= wheel_end and d * d <= rem:
        for cand in (d, d + 2):
            while rem % cand == 0:
                counts[cand] = counts.get(cand, 0) + 1
                rem //= cand
        d += 6
    if d <= limit and d * d <= rem:
        rem = _chunk_trial(rem, _last_candidate(limit), counts)

    # Second stage: rho, then ECM, on each composite trial division left.
    pending = [rem] if rem > 1 else []
    cofactor = 1
    curves = 0
    while pending:
        m = pending.pop()
        if m == 1:
            continue
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        f = _rho_factor(m, budget)
        if f == 1 and budget.ecm_curves:
            # ECM never splits p**2 for a prime p <= _ECM_B1: stage 1
            # multiplies by p, and a point that reaches the identity mod p
            # then has Z = 0 mod p**2, so every gcd it takes is m.
            r = math.isqrt(m)
            if r * r == m:
                f = r
        while f == 1 and curves < budget.ecm_curves:
            g = _ecm_curve(m, _ECM_SIGMA0 + curves)
            curves += 1
            if 1 < g < m and m % g == 0:
                f = g
        if f == 1:
            cofactor *= m
            continue
        pending.append(f)
        pending.append(m // f)

    factors = tuple(sorted(counts.items()))
    return Factorization(input=n, factors=factors, cofactor=cofactor)


def _sieve(bound: int) -> bytearray:
    """Sieve of Eratosthenes: flag i is 1 iff i is prime, for 0 <= i <= bound."""
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return sieve


def primes_up_to(bound: int) -> list[int]:
    """Ascending list of all primes <= bound (empty for bound < 2).

    Raises ValueError above SIEVE_LIMIT, before any sieve is allocated.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if bound > SIEVE_LIMIT:
        raise ValueError(f"prime bound must be at most {SIEVE_LIMIT} (the sieve takes one byte per integer)")
    if bound < 2:
        return []
    return list(itertools.compress(range(bound + 1), _sieve(bound)))
