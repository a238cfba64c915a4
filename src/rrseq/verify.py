"""Independent certification of the two-valued correlation property.

`check_rr` certifies through the modular autocorrelation profile;
`gram_check` certifies through the circulant Gram product.  The two are
mathematically equivalent, and the test suite asserts that they agree,
which makes the pair a standing cross-check on both implementations.
Both take the row through `_reduce` first and work on its residues mod n,
whose profile has the same values mod n as the row's.

`check_rr` takes that profile from `residue_profile`, by Kronecker
substitution: the residues are written as the digits of two big
integers, wide enough that no digit of their product carries, and the
one product, folded mod X**N - 1, holds C(0..N-1) as its digits.  It
then reduces the N/2 + 1 distinct lags mod n.  `gram_check` stays on
matrices, so the two certificates share only `_reduce`.

`gram_check` checks every entry of the Gram product exactly, for a
modulus of any size, with float64 matmuls, exact while every partial sum
stays below 2**53: one product of the residues when the entries fit,
else one product per word-size prime p of the residues mod p, whose
first rows the Chinese remainder theorem joins (the multi-modular
product of FFLAS-FFPACK: Dumas, Giorgi & Pernet, *Dense linear algebra
over word-size prime fields*, ACM TOMS 35, 2008).  A product of
circulants is circulant, so once each product is checked to be, only
the first row of the Gram matrix is rebuilt as Python ints; its
docstring has the bounds.  The scalar of the identity is read off the
product, not computed beside it.  One circulant is alive at a time, and
only the few primes each count of products takes, found by Miller-Rabin,
outlive the call.

`enumerate_binary_ideal` exhaustively lists every binary row of a given
length whose mod-2 correlation is two-valued (peak 1, off-peak 0).  Read
as u in F2[x]/(x^n - 1), such a row is exactly a unitary unit, u(x)
u(x^-1) = 1 (Bovdi & Kovacs 1994), so `scan_masks` lists that group
directly: the field components of F2[C_m], m odd, give its unitary
units, and each factor 2 of n = 2**k m doubles the length by one
square-zero lift through s = x^h + 1, n = 2h.  Each component's units
form a cyclic group, which `_orbit` lists by byte-table lookups, not by
one `_mul` per element.  The group is closed under bit reversal, so the
units, sorted in place as a uint32 array, are the sorted masks.  Its
docstring has the theorem and the proofs.  No 2**n-mask pass is made; a
popcount filter over all 2**n masks is the test oracle.

This module loads at the first use of one of its names through the
package (`rrseq/__init__.py`), or at `rrseq verify`: `import rrseq`, the
modulus search and the sweep do not import it.  numpy is imported by the
functions that use it, so it loads at the first Gram check or witness
scan; `check_rr` never touches it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .correlation import residue_profile
from .numtheory import _miller_rabin, factorize, is_prime
from .sequence import as_elements

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class RRCertificate:
    """Machine-checked evidence that a row is two-valued modulo n."""

    modulus: int
    residues: tuple[int, ...]
    peak: int
    offpeak_ok: bool
    verified: bool


@dataclass(frozen=True)
class BinaryWitness:
    """A binary row passing the mod-2 two-valued test."""

    bits: tuple[int, ...]
    profile_mod2: tuple[int, ...]


def _reduce(seq: Sequence[int], n: int) -> tuple[int, tuple[int, ...]]:
    """The prime modulus n as an int, and the residues of seq mod n."""
    n = operator.index(n)
    if not is_prime(n):
        raise ValueError(f"modulus {n} is not prime")
    return n, tuple([e % n for e in as_elements(seq)])


def check_rr(seq: Sequence[int], n: int) -> RRCertificate:
    """Certify the two-valued property of seq modulo the prime n.

    verified is True iff every off-peak correlation is 0 mod n and the
    peak is nonzero mod n (so the reduced row is not identically zero).
    """
    n, residues = _reduce(seq, n)
    values = residue_profile(residues, n)
    peak = values[0] % n
    # C(N - k) == C(k): lags 1..N/2 are all the distinct off-peak values,
    # and n divides each of them iff it divides their gcd with n.
    offpeak_ok = math.gcd(n, *values[1 : len(residues) // 2 + 1]) == n
    return RRCertificate(
        modulus=n,
        residues=residues,
        peak=peak,
        offpeak_ok=offpeak_ok,
        verified=offpeak_ok and peak != 0,
    )


# float64 sums of integers are exact while every partial sum is below 2**53.
_FLOAT_EXACT = 2**53


@functools.cache
def _word_primes(k: int) -> tuple[int, ...]:
    """The k largest primes below 2**22, largest first.  The odd numbers
    below 2**22 are tested to the bases 2, 3, 5 and 7, exact below psi_4
    ~ 3.2e9 (Jaeschke 1993), so no table is sieved or kept."""
    odd = range((1 << 22) - 1, 1 << 21, -2)
    return tuple(itertools.islice((c for c in odd if _miller_rabin(c, (2, 3, 5, 7))), k))


def _circulant(col: Sequence[int]) -> np.ndarray:
    """The size x size float64 circulant of a tuple or list of ints: entry
    (i, j) is col[(i + j) % size].  Row i is the length-size window at
    offset i of col followed by col[:-1]; the copy makes it contiguous
    for BLAS."""
    import numpy as np

    size = len(col)
    ext = np.array(col + col[:-1], dtype=np.float64)
    return np.ndarray((size, size), np.float64, ext, 0, (ext.itemsize, ext.itemsize)).copy()


def _gram_ok(residues: tuple[int, ...], n: int) -> bool:
    """True iff circ(residues) @ circ(residues).T is c * I mod n for some c
    != 0 mod n, with every one of the size**2 entries formed as an exact
    integer.  c is read off the product: its entry (0, 0)."""
    import numpy as np

    size = len(residues)
    bound = size * (n - 1) ** 2  # no Gram entry exceeds it
    if bound < _FLOAT_EXACT:
        # The float64 product of the residues is the exact Gram matrix.
        circ = _circulant(residues)
        gram = (circ @ circ.T).astype(np.int64) % n
        # c * I: with c taken off the diagonal, nothing is nonzero.
        c = int(gram[0, 0])
        gram.flat[:: size + 1] -= c
        return c != 0 and not gram.any()

    # Each prime exceeds 2**21, so k of them multiply past 2**(21 k) > bound.
    k = bound.bit_length() // 21 + 1
    if k > 140336:  # pi(2**22) - pi(2**21), the primes in (2**21, 2**22)
        raise ValueError(f"the Gram check mod n needs {k} primes in (2**21, 2**22), more than there are")
    # row is the first row of the Gram matrix mod m, the product of the primes so far.
    row, m = [0] * size, 1
    for p in _word_primes(k):
        # Balanced residues, |r| <= p // 2 < 2**21: every partial sum of the
        # product is below size * 2**42 <= 2**53, so it is exact.
        circ = _circulant([(r + p // 2) % p - p // 2 for r in residues])
        d = circ @ circ.T
        # d, the Gram matrix of the balanced residues, is circulant and
        # congruent to the row's mod p; once it is checked to be circulant,
        # its first row fixes it.
        if not ((d[1:, 1:] == d[:-1, :-1]).all() and (d[1:, 0] == d[:-1, -1]).all()):
            return False
        # Garner's step: each new entry is x mod m and a mod p, in [0, m p).
        inv = pow(m, -1, p)
        row, m = [x + m * ((a - x) * inv % p) for x, a in zip(row, map(int, d[0].tolist()))], m * p
    # The rebuilt row is exact, so the Gram matrix is circulant with c = row[0].
    return row[0] % n != 0 and all(x % n == 0 for x in row[1:])


def gram_check(seq: Sequence[int], n: int) -> bool:
    """True iff the circulant of seq times its transpose, mod n, equals
    a nonzero scalar times the identity.  The scalar, the peak
    correlation mod n, is read off the product itself, from its entry (0,
    0), and no other computation of it is made.

    Every entry of every product is formed as an exact integer and
    checked; nothing is sampled, and no float tolerance is used.  float64
    matmuls are exact while every partial sum is below 2**53, and no Gram
    entry exceeds B = N * (n - 1)**2.  When B < 2**53 the product of the
    residues is the Gram matrix, and all N**2 entries are reduced mod n.
    Otherwise it takes the k = bitlen(B) // 21 + 1 largest primes p in
    (2**21, 2**22), whose product exceeds 2**(21 k) > B.  Reduced mod p
    to balanced form, |r| <= p // 2 < 2**21, the residues keep every
    partial sum below N * 2**42 <= 2**53 up to N = MAX_LENGTH = 2048, so
    the one product per prime is exact and congruent to the Gram matrix
    mod p.  Each product must be circulant, as the Gram matrix is (entry
    (i, j) is C(j - i)): entry (i + 1, j + 1) equals entry (i, j),
    indices mod N.  Its first row is then folded in by Garner's step of
    the Chinese remainder theorem; as every Gram entry lies in [0, B],
    the rebuilt first row is exact, and its N entries are reduced mod n.
    So the number of products grows like 2 bitlen(n) / 21, linearly in
    the size of n.  A modulus that would need more primes than the
    140336 in that range, one of ~1.47 million bits, raises ValueError.
    The primes are found by Miller-Rabin, downward from 2**22, and the k
    of each count are kept.  One circulant is alive at a time: at N =
    1024 with 2**521 - 1 (51 primes) the traced peak is 25 MB.  README.md
    gives the cost at N = 2048.
    """
    n, residues = _reduce(seq, n)
    return _gram_ok(residues, n)


def _rot(m: np.ndarray, k: int, n: int) -> np.ndarray:
    """Rotate n-bit masks by k places."""
    return ((m >> k) | (m << (n - k))) & ((1 << n) - 1)


# Elements of F2[x]/(x^n - 1) are ints: bit i is the coefficient of x^i.


def _fold(p: int, n: int) -> int:
    """The polynomial p reduced mod x^n - 1 (x^n = 1)."""
    full = (1 << n) - 1
    while p > full:
        p = (p & full) ^ (p >> n)
    return p


def _mul(a: int, b: int, n: int) -> int:
    """a * b in F2[x]/(x^n - 1)."""
    p = 0
    while b:
        low = b & -b
        p ^= a * low
        b ^= low
    return _fold(p, n)


def _power(a: int, e: int, one: int, n: int) -> int:
    """a**e in F2[x]/(x^n - 1), in the component whose identity is one."""
    r = one
    while e:
        if e & 1:
            r = _mul(r, a, n)
        a = _mul(a, a, n)
        e >>= 1
    return r


def _conj(a: int, n: int) -> int:
    """a(x^-1) in F2[x]/(x^n - 1): coefficient i moves to -i mod n, which
    is the n bits reversed (i -> n - 1 - i), then rotated up by one."""
    r = int(f"{a:0{n}b}"[::-1], 2)
    return ((r << 1) | (r >> (n - 1))) & ((1 << n) - 1)


def _primitive(e: int, d: int, m: int) -> int:
    """A generator of the multiplicative group of the field e * F2[C_m],
    of order 2**d - 1, found by testing the order of r * e for r = 1, 2, ..."""
    order = (1 << d) - 1
    # 2**d - 1 < 2**22 for m <= 23, so trial division factors it completely.
    cofactors = [order // p for p, _ in factorize(order).factors]
    candidates = (_mul(r, e, m) for r in range(1, 1 << m))
    return next(a for a in candidates if a and all(_power(a, c, e, m) != e for c in cofactors))


def _orbit(u: int, c: int, size: int, m: int) -> list[int]:
    """[u, u c, u c**2, ...], the first size elements, in F2[x]/(x^m - 1).

    Multiplying by c is F2-linear, so each step is three table lookups,
    not a `_mul` (the method of Four Russians: Arlazarov, Dinic, Kronrod
    and Faradzev, 1970).  The m bits split into three fields of w =
    max(8, ceil(m / 3)) bits, bytes for every m <= 24, and entry b of
    table j is c (b << w j).  As c x^k is c rotated left by k places,
    each table is built by XOR doubling from c's rotations, with no
    multiplication.  Three fields keep the step unrolled for every m: a
    loop over ceil(m / 8) byte tables took twice as long at m = 23.  u
    must be below 2**m.
    """
    w = max(8, -(-m // 3))
    full = (1 << m) - 1
    t0, t1, t2 = tables = [0], [0], [0]
    for k in range(m):
        r = (c << k | c >> (m - k)) & full  # c x^k
        table = tables[k // w]
        table += [t ^ r for t in table]
    low, w2 = (1 << w) - 1, 2 * w
    out = [u]
    for _ in range(size - 1):
        u = t0[u & low] ^ t1[u >> w & low] ^ t2[u >> w2]
        out.append(u)
    return out


def _odd_units(m: int) -> list[int]:
    """The unitary group {u : u * conj(u) = 1} of F2[x]/(x^m - 1), m odd,
    as the XOR of one element from the unitary group of each class of
    components under conjugation."""
    etas, seen = [], set()
    for r in range(m):
        if r not in seen:
            coset = {r * (1 << i) % m for i in range(m)}
            seen |= coset
            etas.append(sum(1 << i for i in coset))
    # Each eta is idempotent; the primitive idempotents are the atoms of
    # the Boolean algebra they generate.
    atoms = [1]
    for eta in etas:
        atoms = [f for e in atoms for g in [_mul(e, eta, m)] for f in (g, e ^ g) if f]

    units = [0]
    for e in atoms:
        ebar = _conj(e, m)
        if ebar < e:
            continue  # the pair was taken with its smaller idempotent
        # The component is F_{2^d}: d is least with (x e)^(2^d) = x e.
        xe = _mul(2, e, m)
        d, y = 1, _mul(xe, xe, m)
        while y != xe:
            d, y = d + 1, _mul(y, y, m)
        if ebar == e and d == 1:
            group = [e]  # the coset {0}: conj is trivial, u**2 = 1
        elif ebar == e:
            # conj is the field's involution a -> a**(2**(d/2)), so u conj(u)
            # = u**(2**(d/2) + 1): the unitary units are that cyclic subgroup.
            a = _primitive(e, d, m)
            half = 1 << d // 2
            group = _orbit(e, _power(a, half - 1, e, m), half + 1, m)
        else:
            # On e + ebar, u = a + b is unitary iff b = conj(a)**-1.
            a = _primitive(e, d, m)
            order = (1 << d) - 1
            group = _orbit(e ^ ebar, a ^ _power(_conj(a, m), order - 1, ebar, m), order, m)
        units = [u ^ g for u in units for g in group]
    return units


def _unitary_group(n: int) -> list[int]:
    """The unitary group of F2[x]/(x^n - 1): for even n = 2h, each unit of
    U_h lifted through s = x^h + 1, s**2 = 0 (see `scan_masks`)."""
    if n % 2:
        return _odd_units(n)
    h = n // 2
    # A basis of Sym_h = {c : c = conj(c)}: x^i + x^-i for 0 <= i <= h/2,
    # read as x^i where i = -i.
    sym = [(1 << i) | (1 << -i % h) for i in range(h // 2 + 1)]
    low = (1 << (h + 1) // 2) - 2  # exponents 0 < i < h/2
    lifted = []
    for v in _unitary_group(h):
        w = (_mul(v, _conj(v, n), n) ^ 1) & ((1 << h) - 1)  # v conj(v) = 1 + s w
        c0 = w & low
        if w != c0 ^ _conj(c0, h):
            continue  # no c has c + conj(c) = w: v does not lift
        # The lifts v + s v c, c in c0 + Sym_h; s t = t + x^h t for deg t < h.
        t = _mul(v, c0, h)
        coset = [v ^ t ^ (t << h)]
        for c in sym:
            t = _mul(v, c, h)
            coset += [u ^ t ^ (t << h) for u in coset]
        lifted += coset
    return lifted


def scan_masks(n: int) -> np.ndarray:
    """All masks of length n (1 <= n <= 24) passing the mod-2 two-valued
    test, as an ascending uint32 array.

    Bit n-1-i of a mask holds element i of the row, so ascending masks
    are rows in lexicographic order.  Read the row as u = sum a_i x^i in
    R_n = F2[x]/(x^n - 1) and let conj(u) = u(x^-1).  Then u conj(u) =
    sum_k C(k) x^k, so the row passes (C(0) odd, every other C(k) even)
    iff u conj(u) = 1: the passing rows are the unitary group of R_n, the
    group algebra F2[C_n] (Bovdi & Kovacs, "Unitary units in modular
    group algebras", Manuscripta Math. 84 (1994) 57-72).  It is listed
    directly, never by testing all 2**n masks.  Write n = 2**k m, m odd.

    Odd part.  F2[C_m] is the direct sum of the fields e F2[C_m] over its
    primitive idempotents e, the atoms of the Boolean algebra spanned by
    the cyclotomic-coset sums eta_C = sum_{i in C} x^i.  conj permutes
    the components.  The component of the coset {0} gives {e}.  A
    self-conjugate F_{2^d} (d even) gives the cyclic group of order
    2**(d/2) + 1, generated by a**(2**(d/2) - 1) for a primitive a.  A
    conjugate pair gives the cyclic group of order 2**d - 1 generated by
    a + conj(a)**-1.  U_m is the XOR of one element of each.  Each cyclic
    group is listed by `_orbit`, whose step, a multiplication by the
    generator, is three byte-table lookups.

    Even n = 2h: one square-zero lift from U_h.  Let s = x^h + 1; then
    s**2 = x^n + 1 = 0 and conj(s) = x^-h + 1 = s.  Reducing mod s (x^h
    = 1: low half XOR high half) maps R_n onto R_h with kernel s R_n, and
    s t = t + x^h t for deg t < h, so every element over v in U_h is v (1
    + s c) for a c in R_h, unique mod s as v is a unit mod s.  Take v
    with the same bits in R_n: v conj(v) = 1 mod s, so v conj(v) = 1 + s
    w with w the low h bits of v conj(v) + 1.  As s**2 = 0, v (1 + s c)
    times its conjugate is 1 + s (w + c + conj(c)), which is 1 iff c +
    conj(c) = w in R_h.  The map c -> c + conj(c) has kernel Sym_h = {c =
    conj(c)}, one free bit per orbit {i, -i} of Z_h, so 2**(h // 2 + 1)
    elements; its image is the w with w_i = w_-i where i != -i and w_i =
    0 where i = -i.  So v lifts iff w = c0 + conj(c0), for c0 the bits of
    w at 0 < i < h/2, and its lifts are v (1 + s c), c in c0 + Sym_h.
    Every unit of U_n reduces to one v in U_h, so one step per factor 2
    of n, from the odd part up, lists U_n once each.

    Bit n-1-i of a mask holds coefficient i, so the mask of u is the
    element reverse(u) = x^(n-1) conj(u), again in U_n since x^(n-1) and
    conj(u) are.  Reversal therefore permutes U_n, and the sorted
    elements of U_n are the sorted masks: the group goes into a uint32
    array, which numpy sorts in place.
    """
    n = operator.index(n)
    if not 1 <= n <= 24:
        raise ValueError("mask scan supports lengths 1..24")
    import numpy as np

    masks = np.array(_unitary_group(n), dtype=np.uint32)
    masks.sort()
    return masks


def enumerate_binary_ideal(n: int) -> list[BinaryWitness]:
    """All binary rows of length n (1 <= n <= 24) whose periodic
    autocorrelation mod 2 is two-valued, in lexicographic order.

    Length 1 is listed, as the witness (1,), although a length-1 row has
    no off-peak lag and no row function, `periodic_autocorr` among them,
    takes one: they all take 2 to MAX_LENGTH elements.

    The n delta rows (a single 1) always qualify: their correlation is
    exactly the delta profile.  The mod-2 profile of every mask over all
    n lags, the parity of popcount(mask & rot_k(mask)), which is C(k) mod
    2, is checked against the delta (1, 0, ..., 0) in one array pass; a
    mask that fails raises RuntimeError, which the theorem in
    `scan_masks` rules out.  Every witness then shares that one delta
    tuple as its `profile_mod2`.
    """
    n = operator.index(n)
    import numpy as np

    masks = scan_masks(n)
    profiles = np.stack([np.bitwise_count(masks & _rot(masks, k, n)) & 1 for k in range(n)], axis=1)
    delta = (1,) + (0,) * (n - 1)
    bad = (profiles != delta).any(axis=1)
    if bad.any():
        raise RuntimeError(f"length {n}: mask {int(masks[bad.argmax()]):0{n}b} fails the mod-2 two-valued test")
    bits = (masks[:, None] >> np.arange(n - 1, -1, -1, dtype=np.uint32)) & 1
    return [BinaryWitness(b, delta) for b in map(tuple, bits.tolist())]
