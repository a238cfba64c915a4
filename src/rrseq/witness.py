"""Exhaustive mod-2 witness scan: every binary row of a given length
whose mod-2 correlation is two-valued (peak 1, off-peak 0).

Read as u in F2[x]/(x^n - 1), such a row is exactly a unitary unit, u(x)
u(x^-1) = 1 (Bovdi & Kovacs 1994), so `scan_masks` lists that group
directly: the field components of F2[C_m], m odd, give its unitary
units, and each factor 2 of n = 2**k m doubles the length by one
square-zero lift through s = x^h + 1, n = 2h.  Each component's units
form a cyclic group, which `_orbit` lists by byte-table lookups, not by
one `_mul` per element.  The group is a list of int masks throughout:
the components join by one XOR per pair, and each lift multiplies by
the basis x^i + x^-i of the self-conjugate elements as two rotations of
the lifted units, doubling every coset at once.  The group is closed
under bit reversal, so the units, sorted, are the sorted masks.  Its
docstring has the theorem and the proofs.  No 2**n-mask pass is made; a
popcount filter over all 2**n masks is the test oracle.

`enumerate_binary_ideal` checks each listed row against the definition,
over lags 0..n/2 only, as C(n - k) = C(k), bit-sliced: bit plane i is
one int holding bit i of every mask, a byte apiece, so each AND and XOR
checks every mask at once (Biham, "A fast new DES implementation in
software", FSE 1997).  The same planes, zipped, are the bit tuples, so
no per-row list is built, and `BinaryWitness` is a slotted record.  They
are built with the cyclic garbage collector paused, as they form no
cycle that it could free.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import operator
import struct
from dataclasses import dataclass

from .numtheory import factorize


@dataclass(frozen=True, slots=True)
class BinaryWitness:
    """A binary row passing the mod-2 two-valued test."""

    bits: tuple[int, ...]
    profile_mod2: tuple[int, ...]


# _BIT[j] maps every byte to its bit j, for `bytes.translate`.
_BIT = [bytes(b >> j & 1 for b in range(256)) for j in range(8)]


def _rot(m: int, k: int, n: int) -> int:
    """Rotate an n-bit mask right by k places."""
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
    as a list of int masks: the XOR of one element from the unitary group
    of each class of components under conjugation."""
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
        # A unit of the direct sum is the sum, an XOR, of one unit per component.
        units = [u ^ g for u in units for g in group]
    return units


def _unitary_group(n: int) -> list[int]:
    """The unitary group of F2[x]/(x^n - 1) as a list of int masks: for
    even n = 2h, each unit of U_h lifted through s = x^h + 1, s**2 = 0
    (see `scan_masks`)."""
    if n % 2:
        return _odd_units(n)
    h = n // 2
    low = (1 << (h + 1) // 2) - 2  # exponents 0 < i < h/2
    lifting, cosets = [], []
    for v in _unitary_group(h):
        w = (_mul(v, _conj(v, n), n) ^ 1) & ((1 << h) - 1)  # v conj(v) = 1 + s w
        c0 = w & low
        if w != c0 ^ _conj(c0, h):
            continue  # no c has c + conj(c) = w: v does not lift
        # The lifts v + s v c, c in c0 + Sym_h; s t = t + x^h t for deg t < h.
        t = _mul(v, c0, h)
        lifting.append(v)
        cosets.append(v ^ t ^ (t << h))
    # Each basis element c = x^i + x^-i of Sym_h doubles every coset; v c
    # is v rotated right by i and by -i places, once where i = -i.  The
    # list holds blocks of one lift per v, in the order of `lifting`.
    for i in range(h // 2 + 1):
        j = -i % h
        ts = [_rot(v, i, h) if i == j else _rot(v, i, h) ^ _rot(v, j, h) for v in lifting]
        steps = [t ^ t << h for t in ts] * (len(cosets) // len(lifting))
        cosets += [c ^ d for c, d in zip(cosets, steps)]
    return cosets


def scan_masks(n: int) -> list[int]:
    """All masks of length n (1 <= n <= 24) passing the mod-2 two-valued
    test, as an ascending list of ints.

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
    a + conj(a)**-1.  U_m is the XOR of one element of each, formed for
    every choice by one XOR per pair, a component at a time.  Each cyclic
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
    of n, from the odd part up, lists U_n once each.  Sym_h has the basis
    x^i + x^-i, 0 <= i <= h/2 (x^i alone where i = -i), and v x^-i is v
    rotated right by i places, so v times a basis element is two
    rotations of v, one where i = -i.  Each basis element doubles the
    lifts of every v at once, so h // 2 + 1 list doublings list them.

    Bit n-1-i of a mask holds coefficient i, so the mask of u is the
    element reverse(u) = x^(n-1) conj(u), again in U_n since x^(n-1) and
    conj(u) are.  Reversal therefore permutes U_n, and the sorted
    elements of U_n are the sorted masks: no element is reversed.
    """
    n = operator.index(n)
    if not 1 <= n <= 24:
        raise ValueError("mask scan supports lengths 1..24")
    return sorted(_unitary_group(n))


@contextlib.contextmanager
def _gc_paused():
    """Turn the cyclic garbage collector off for the block, then restore
    the state it had, even if the block raises.  The young-generation
    pass that the block's survivors owe runs at the first allocation
    after the restore, which this generator's exit makes: the caller of
    the block pays it, not the code that runs after it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def enumerate_binary_ideal(n: int) -> list[BinaryWitness]:
    """All binary rows of length n (1 <= n <= 24) whose periodic
    autocorrelation mod 2 is two-valued, in lexicographic order.

    Length 1 is listed, as the witness (1,), although a length-1 row has
    no off-peak lag and no row function, `periodic_autocorr` among them,
    takes one: they all take 2 to MAX_LENGTH elements.

    The n delta rows (a single 1) always qualify: their correlation is
    exactly the delta profile.  The mod-2 profile of every mask, the
    parity of popcount(mask & rot_k(mask)), which is C(k) mod 2, is
    checked against the delta (1, 0, ..., 0) over lags 0..n/2: as C(n -
    k) = C(k), the other lags repeat those values (`check_rr` rests on
    the same identity).  The check is bit-sliced.  The masks are packed
    once as 4-byte little-endian words.  Plane i is byte i >> 3 of every
    word, mapped to its bit i & 7 by `bytes.translate`: bit i of every
    mask, one byte per mask.  Read as an int, a plane takes every mask
    through each AND and XOR at once, so the parity of lag k is the XOR
    over i of plane i AND plane i + k mod n, and a byte that differs
    from the delta marks a failing mask.  The lowest such byte is the
    first failing mask, which raises RuntimeError; the theorem in
    `scan_masks` rules that out.  The same planes, in row
    order and zipped together, are the bit tuples, with no per-row list
    built.  Every witness then shares one delta tuple as its
    `profile_mod2`.

    The bit tuples and the records are built with the cyclic garbage
    collector paused, and its earlier state restored, also on an error.
    They hold only tuples of ints, so they form no cycle and no
    collection could free one of them; built with the collector on, the
    8 042 records of n = 20..23 set off ~21 collections, generation 1 and
    2 passes among them.  A caller who keeps the list pays one
    young-generation pass over it when the collector next runs; in
    CPython 3.11 that is as the pause ends, still inside this call.
    """
    n = operator.index(n)
    masks = scan_masks(n)
    packed = struct.pack(f"<{len(masks)}I", *masks)
    # Element i of a row is mask bit n-1-i, so the planes are in row order.
    planes = [packed[i >> 3 :: 4].translate(_BIT[i & 7]) for i in reversed(range(n))]
    sliced = [int.from_bytes(p, "little") for p in planes]
    ones = int.from_bytes(b"\1" * len(masks), "little")
    # C(n - k) = C(k): lags 0..n/2 hold every value of the profile.
    bad = 0
    for k in range(n // 2 + 1):
        odd = functools.reduce(operator.xor, map(operator.and_, sliced, sliced[k:] + sliced[:k]))
        bad |= odd ^ ones if k == 0 else odd
    if bad:
        mask = masks[(bad & -bad).bit_length() // 8]
        raise RuntimeError(f"length {n}: mask {mask:0{n}b} fails the mod-2 two-valued test")
    with _gc_paused():
        return list(map(BinaryWitness, zip(*planes), itertools.repeat((1,) + (0,) * (n - 1))))
