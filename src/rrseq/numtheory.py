"""Exact integer utilities: list gcd, primality, budgeted factoring, prime sieve.

`is_prime` answers n prime to 6 in one of three bands: below
_TRIAL_PROOF_LIMIT (2**28) a trial-division proof, one gcd per chunk of
the primes up to the power of two above sqrt(n); from there to psi_13 ~
3.3e24 Miller-Rabin on the 13 prime bases 2..41, which is exact there;
from psi_13 on Miller-Rabin on 64 bases derived from n.

`factorize` runs trial division, then a short Brent-rho, then Lenstra's
elliptic-curve method (ECM) on whatever composite is left, and reports
what no stage split as an explicit cofactor.

Trial division to the bound B divides out 2 and 3, whatever B, then
every prime up to B and none past it.  Past 3 it takes the primes from 5
in chunks of 512, one gcd of the remainder with each chunk's product,
and looks inside a chunk only when that gcd is above 1 (Bernstein, *How
to find smooth parts of integers*, 2004).  It stops once the remainder
is below the square of the next chunk's first prime, and its chunk table
reaches only the power of two above the remainder's square root.  It
also returns a bound below which no prime divides the remainder; a
remainder below that bound's square is prime without a Miller-Rabin
test, which covers every row at N = 16 and N = 24 under the default
bound.

Every sieve, and so every trial bound, is capped at SIEVE_LIMIT (10**7),
because a sieve to B takes B bytes.

Everything here works on arbitrary-precision Python ints and is purely
functional, so concurrent use needs no locking.  The ECM tables and the
chunk products are built on the first call that needs them and then only
read; chunk tables are kept per reach, a power of two or SIEVE_LIMIT, so
at most 24 of them ever exist.
`is_prime` remembers its last _PRIME_MEMO_SIZE answers in a thread-safe
LRU cache, enough to carry a modulus from the search that found it to
the two certificates that re-check it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

# Below this bound `is_prime` proves n prime by trial division, above it
# Miller-Rabin tests n on the 13 bases.  Timed on the largest prime below
# each power of two, one pinned CPU, min of repeats: 3.2 against 25.7 us
# at 2**26, 6.1 against 27.7 us at 2**28 (table reach 2**14), 12.3
# against 33.8 us at 2**29 and 12.7 against 34.6 us at 2**30 (reach
# 2**15).  So the proof is the cheaper test to 2**30 at least; the bound
# covers every modulus of the rows at N = 16 and N = 24 (p <= 3000), and
# moving it is left open.
_TRIAL_PROOF_LIMIT = 1 << 28

# Miller-Rabin bases of `is_prime` from _TRIAL_PROOF_LIMIT up to
# _PSI_13, the smallest composite that is a strong pseudoprime to all 13.
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981  # 1287836182261 * 2575672364521

# Answers `is_prime` keeps, least recently used out first.  A certified
# row's modulus is tested once: by `factorize` if it tested the modulus,
# else by `check_rr`, and every later certificate finds it here.
# `factorize` tests no piece when trial division proves the remainder
# prime, as at N = 16 (p <= 10**5) and N = 24 (p <= 3000), so there
# `check_rr` tests the modulus, by the trial-division proof below
# _TRIAL_PROOF_LIMIT, and no row runs Miller-Rabin.  Where it
# tests the modulus, it tests at most this many pieces from it on: at
# most 2 at N = 64 (p <= 200) and at most 4 at N = 128 (p <= 400).
_PRIME_MEMO_SIZE = 4

# Trial division takes the primes from 5 on _CHUNK_PRIMES at a time, by
# one gcd with the chunk's product; the size was chosen by timing.  A
# remainder's table reaches only the power of two above its square root,
# so rows at the paper's lengths build tables of at most ~1000 primes.
_CHUNK_PRIMES = 512

# Largest bound of any sieve, so also of trial division and of its chunk
# tables: a sieve to B takes B bytes.
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

    trial_bound: bound B of trial division, 2 <= B <= SIEVE_LIMIT.  It
                 divides out 2 and 3 (ECM needs a remainder prime to 6),
                 then every prime <= B and no prime > B, so B = 5 leaves
                 a factor 7 to rho and ECM.  The primes past 3 are tried
                 through gcds with cached chunk products, whose table
                 reaches only as far as the remainder needs.
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
        # numpy integers become ints; floats raise TypeError here, not later
        for f in fields(self):
            object.__setattr__(self, f.name, operator.index(getattr(self, f.name)))
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


def gcd_many(values: Iterable[int]) -> int:
    """Greatest common divisor of a non-empty collection (0 acts as identity)."""
    vals = list(values)
    if not vals:
        raise ValueError("gcd_many requires at least one value")
    if any(v < 0 for v in vals):
        raise ValueError("gcd_many is defined for non-negative integers")
    return math.gcd(*vals)


def _miller_rabin(n: int, bases: Iterable[int]) -> bool:
    """Strong probable-prime test of odd n > 2 to every base, each in [2, n - 2]."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
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


def _derived_bases(n: int, count: int) -> Iterator[int]:
    # Deterministic pseudo-random bases derived from n itself, so repeated
    # calls always agree.  splitmix64-style scramble.  Yielded one at a
    # time, so a composite that fails its first round draws one base.
    state = (n ^ 0x9E3779B97F4A7C15) & (2**64 - 1)
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & (2**64 - 1)
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
        z ^= z >> 31
        yield 2 + z % (n - 3)


@functools.lru_cache(maxsize=_PRIME_MEMO_SIZE, typed=True)
def is_prime(n: int) -> bool:
    """Primality test: 2 and 3, then for n prime to 6 one of three bands,
    a trial-division proof below _TRIAL_PROOF_LIMIT (2**28), Miller-Rabin
    on the 13 fixed bases below _PSI_13 and on derived bases from it on.

    Below 2**28, n is prime iff no prime up to sqrt(n) divides it, which
    `_trial_proof` settles by one gcd per chunk of 512 primes, the proof
    `factorize` gives a remainder below low**2.  From 2**28 to psi_13 ~
    3.3e24, which covers the full 64-bit range, it is deterministic (exact):
    Miller-Rabin runs on the 13 prime bases 2, 3, 5, ..., 41, and no
    composite below psi_13 is a strong pseudoprime to all of them
    (Sorenson & Webster, *Strong pseudoprimes to twelve prime bases*,
    Math. Comp. 86, 2017).  Every base lies in [2, n - 2].  From psi_13
    on it falls back to Miller-Rabin with 64 rounds of bases derived
    deterministically from n, each derived only when its round starts, so
    a composite that fails the first round costs one; the error
    probability is below 4**-64 = 2**-128 and identical inputs always
    give identical answers.  The last _PRIME_MEMO_SIZE (4) answers are
    remembered, keyed by value and type (`is_prime.cache_info()`), so a
    float is never answered from an int's entry: it raises TypeError.
    """
    n = operator.index(n)
    if n < 5:
        return n == 2 or n == 3
    if n % 2 == 0 or n % 3 == 0:
        return False
    if n < _TRIAL_PROOF_LIMIT:
        return _trial_proof(n)
    return _miller_rabin(n, _MR_BASES_64 if n < _PSI_13 else _derived_bases(n, 64))


def _trial_proof(n: int) -> bool:
    """True iff n, above 4 and prime to 6, is prime: no prime in [5,
    reach] divides it, reach = 2**ceil(bitlen(n) / 2) > sqrt(n), which one
    gcd with each chunk product of `_trial_chunks(reach)` shows.  reach is
    below n, so n is never one of the chunks' own primes."""
    for product, _ in _trial_chunks(1 << (n.bit_length() + 1) // 2):
        if math.gcd(product, n) != 1:
            return False
    return True


def _brent_rho(n: int, c: int, max_iters: int) -> int:
    """One Brent-rho round on composite odd n; returns a nontrivial factor or 1."""
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
    """Stage-1 primes, each p once per power of p <= B1, and their
    product; and the stage-2 plan.

    Every prime r in (B1, B2] is m*D + j or m*D - j for one baby step j
    (odd, below D/2, coprime to D), and both share the test
    x(m*D*Q) == x(j*Q).  The plan lists each giant step m with the
    positions, among the ascending baby steps, of the j it must test.
    """
    steps = []
    for p in primes_up_to(_ECM_B1):
        pe = p
        while pe <= _ECM_B1:
            steps.append(p)
            pe *= p
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
    return tuple(steps), math.prod(steps), plan_steps


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
    steps, k, plan = _ecm_tables()
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
        # stage 1 one prime at a time, p once per power of p <= B1, to
        # catch them apart.  One prime per step also splits a prime power
        # such as 7**3 * 11**3, whose parts a whole p**e reaches together.
        x = x0
        for p in steps:
            xz = _ladder(p, x, a24, n)
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


# Every reach is a power of two up to 2**23 or SIEVE_LIMIT, so at most 24
# tables are kept, ~5 MB in all; the SIEVE_LIMIT one holds ~2 MB.
@functools.cache
def _trial_chunks(reach: int) -> tuple[tuple[int, int], ...]:
    """(product, first prime) of each run of _CHUNK_PRIMES consecutive
    primes in [5, reach].

    Only the products are kept, never the primes: they are recovered from
    a chunk's gcd with the remainder, which is rarely > 1.  Each product
    is a tree of pairwise products, cheaper than a running one.
    """
    primes = itertools.compress(range(5, reach + 1, 2), _sieve(reach)[5::2])
    chunks = []
    while run := list(itertools.islice(primes, _CHUNK_PRIMES)):
        first = run[0]
        while len(run) > 1:
            pairs = iter(run)
            run = [a * b for a, b in itertools.zip_longest(pairs, pairs, fillvalue=1)]
        chunks.append((run[0], first))
    return tuple(chunks)


def _chunk_trial(rem: int, bound: int, counts: dict[int, int]) -> tuple[int, int]:
    """Divide every prime in [5, bound] out of rem, which must be prime to
    6, counting each in counts; return what is left and a bound low such
    that no prime below low divides it.

    One gcd with a chunk's product tells whether any of its primes
    divides rem.  The table reaches the least of the powers of two above
    sqrt(rem) and above bound, and SIEVE_LIMIT; its primes past bound are
    never divided out.  The chunks are consecutive from 5, so when the
    loop stops at a chunk, every prime below its first and up to bound is
    gone: low is that first prime, or bound + 1 once it is past bound.
    When the table runs out, every prime up to the lesser of its reach
    and bound is gone, and low is one past that.
    """
    reach = min(1 << (rem.bit_length() + 1) // 2, 1 << bound.bit_length(), SIEVE_LIMIT)
    for product, first in _trial_chunks(reach):
        if first > bound or first * first > rem:
            return rem, min(first, bound + 1)
        g = math.gcd(product, rem)
        if g == 1:
            continue
        # g is squarefree with no prime below first, so its smallest
        # divisor above 1 is always one of its primes.
        c = first
        while c * c <= g and c <= bound:
            if g % c == 0:
                g //= c
                while rem % c == 0:
                    counts[c] = counts.get(c, 0) + 1
                    rem //= c
            c += 2
        if 1 < g <= bound:
            while rem % g == 0:
                counts[g] = counts.get(g, 0) + 1
                rem //= g
    return rem, min(reach, bound) + 1


def factorize(n: int, budget: FactorBudget = DEFAULT_BUDGET) -> Factorization:
    """Factor n within the given budget.

    Trial division to budget.trial_bound (see `FactorBudget`) comes
    first, by gcds with cached products of 512 primes, stopping once the
    remainder is 1 or below the square of the next chunk's first prime.
    It returns the remainder rem and a bound low: no prime below low
    divides rem.  So a remainder 1 < rem < low**2 is a prime factor,
    counted without a prime test: were it composite, its least prime
    factor would be at most sqrt(rem) < low.  The test is strict, since
    rem = low**2 is composite when low is prime (7**2 with trial_bound
    6).  Under the default bound this proves the remainder of every
    doubling row at N = 16 (p <= 10**5) and N = 24 (p <= 3000), 15 of 46
    at N = 64 (p <= 200) and none at N = 128, whose remainders are far
    above 10**12.  Any other remainder above 1 is tested with `is_prime`,
    and every composite left then gets a short Brent-rho pass and, if rho
    cannot split it and ECM is enabled, a perfect-square test and then ECM
    curves (sigma = 6, 7, 8, ...) from one curve budget for the whole
    call.  Whatever no stage splits is reported as `cofactor` rather than
    dropped.  A complete factorization is unique, so it does not depend
    on which stage found which prime.

    The work is done by `_factor`, which returns the plain pair
    (factors, cofactor); the modulus search calls it directly and builds
    no Factorization for the rows it only writes out.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    factors, cofactor = _factor(n, budget)
    return Factorization(n, factors, cofactor)


def _factor(n: int, budget: FactorBudget) -> tuple[tuple[tuple[int, int], ...], int]:
    """The (factors, cofactor) of `factorize(n, budget)`, for an int n >= 1
    the caller has checked."""
    counts: dict[int, int] = {}
    rem = n
    for d in (2, 3):
        while rem % d == 0:
            counts[d] = counts.get(d, 0) + 1
            rem //= d
    rem, low = _chunk_trial(rem, budget.trial_bound, counts)
    if 1 < rem < low * low:
        counts[rem] = 1  # a prime: see the docstring
        rem = 1

    # Second stage: rho, then ECM, on each composite trial division left.
    pending = [rem] if rem > 1 else []
    cofactor = 1
    curves = 0
    while pending:
        m = pending.pop()
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
            if 1 < g < m:
                f = g
        if f == 1:
            cofactor *= m
            continue
        pending.append(f)
        pending.append(m // f)

    return tuple(sorted(counts.items())), cofactor


def _sieve(bound: int) -> bytearray:
    """Sieve of Eratosthenes: flag i is 1 iff i is prime, for 0 <= i <= bound."""
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray((bound - p * p) // p + 1)
    return sieve


def _primes(bound: int) -> Iterator[int]:
    """The primes <= bound, ascending, read lazily off one sieve that is
    made now, so that a caller need not hold them all; bound is checked
    as in `primes_up_to`."""
    bound = operator.index(bound)
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if bound > SIEVE_LIMIT:
        raise ValueError(f"prime bound must be at most {SIEVE_LIMIT} (the sieve takes one byte per integer)")
    if bound < 2:
        return iter(())
    return itertools.compress(range(bound + 1), _sieve(bound))


def primes_up_to(bound: int) -> list[int]:
    """Ascending list of all primes <= bound: empty for bound 0 and 1.

    Raises ValueError for a bound below 0 or above SIEVE_LIMIT, before
    any sieve is allocated, and TypeError unless bound is an integer
    (`operator.index`).
    """
    return list(_primes(bound))
