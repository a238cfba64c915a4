"""The binary mask scan against two oracles, the coset count formula, the
lift to lengths past the public cap, the table multiply that lists each
cyclic component and the group laws of the unitary units of F2[C_n]."""

import functools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_masks, passes

from rrseq import enumerate_binary_ideal, scan_masks, witness


# A numpy popcount filter over all 2**n masks, straight off the definition
# and free of the algebra: the oracle for every n <= 24.
_SCAN_CHUNK = 1 << 20


def _rot(m, k, n):
    """Rotate n-bit masks by k places."""
    return ((m >> k) | (m << (n - k))) & ((1 << n) - 1)


def popcount_scan(n):
    total = 1 << n
    hits = []
    for start in range(0, total, _SCAN_CHUNK):
        m = np.arange(start, min(start + _SCAN_CHUNK, total), dtype=np.uint32)
        m = m[(np.bitwise_count(m) & 1) == 1]
        # lag n-k gives the same popcount as lag k, so lags above n/2 add nothing
        for k in range(1, n // 2 + 1):
            m = m[(np.bitwise_count(m & _rot(m, k, n)) & 1) == 0]
        hits.append(m)
    return np.concatenate(hits)


@pytest.mark.parametrize("n", range(1, 17))
def test_scan_matches_brute_force_oracle(n):
    assert scan_masks(n) == oracle_masks(n)


@pytest.mark.parametrize(
    "n", [n if n < 21 else pytest.param(n, marks=pytest.mark.slow) for n in range(1, 25)]
)
def test_scan_matches_popcount_oracle(n):
    got = scan_masks(n)
    assert all(type(m) is int for m in got)
    assert got == popcount_scan(n).tolist()


def test_masks_ascending_and_typed():
    out = scan_masks(10)
    assert type(out) is list and all(type(m) is int for m in out)
    assert out == sorted(out)


def test_known_small_case():
    # length 4: the four deltas plus the four weight-3 rows
    assert scan_masks(4) == [1, 2, 4, 7, 8, 11, 13, 14]


def test_delta_masks_always_present():
    for n in range(1, 15):
        got = set(scan_masks(n))
        assert all((1 << j) in got for j in range(n))


def test_rejects_out_of_range_lengths():
    for n in (0, -1, 25):
        with pytest.raises(ValueError):
            scan_masks(n)


def test_float_length_refused_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started on a float length")

    monkeypatch.setattr(witness, "_unitary_group", no_work)
    with pytest.raises(TypeError):
        scan_masks(20.0)
    monkeypatch.setattr(witness, "scan_masks", no_work)
    with pytest.raises(TypeError):
        enumerate_binary_ideal(20.0)


# --- counts -------------------------------------------------------------------


def coset_count(n):
    """|U_n| for odd n: each cyclotomic coset C of 2 mod n is one field
    F_{2^d}, d = |C|.  The coset {0} gives 1, a self-conjugate coset (C =
    -C) gives 2**(d/2) + 1 and a conjugate pair {C, -C} gives 2**d - 1."""
    count, seen = 1, set()
    for r in range(1, n):
        if r in seen:
            continue
        coset = {r * 2**i % n for i in range(n)}
        neg = {-i % n for i in coset}
        seen |= coset | neg
        d = len(coset)
        count *= 2 ** (d // 2) + 1 if neg == coset else 2**d - 1
    return count


# len(scan_masks(n)) of the popcount scan, n = 9..24
SCAN_COUNTS = dict(
    zip(range(9, 25), (27, 40, 33, 192, 65, 112, 225, 512, 289, 864, 513, 2560, 1323, 2112, 2047, 12288))
)


@pytest.mark.parametrize("n", range(1, 24, 2))
def test_coset_formula_counts_odd_lengths(n):
    assert len(scan_masks(n)) == coset_count(n)


@pytest.mark.parametrize("m", range(1, 12, 2))
def test_doubling_an_odd_length_multiplies_the_count(m):
    # |U_2m| = |U_m| * |Sym_m|, with |Sym_m| = 2**((m + 1) / 2)
    assert len(scan_masks(2 * m)) == coset_count(m) * 2 ** ((m + 1) // 2)


def test_coset_formula_at_47():
    # 2 has order 23 mod 47 and -1 is not a power of 2 there: one pair, d = 23
    assert coset_count(47) == 8_388_607


def test_counts_match_the_popcount_scan():
    assert {n: len(scan_masks(n)) for n in SCAN_COUNTS} == SCAN_COUNTS


# --- the lift past the public cap ------------------------------------------------


@functools.cache
def group(n):
    return witness._unitary_group(n)


@pytest.mark.parametrize("n", range(2, 33, 2))
def test_lift_fibres_over_the_half_length(n):
    # u mod x^h - 1 (low half XOR high half) is unitary in F2[C_h], and each
    # unit of U_h that lifts has |Sym_h| = 2**(h // 2 + 1) lifts
    h = n // 2
    fibres = Counter((u & ((1 << h) - 1)) ^ (u >> h) for u in group(n))
    assert set(fibres) <= set(group(h))
    assert set(fibres.values()) == {2 ** (n // 4 + 1)}
    assert sum(fibres.values()) == len(set(group(n)))


def passes_uint64(m, n):
    """The popcount filter of `popcount_scan` on any uint64 masks, n <= 32."""
    ok = (np.bitwise_count(m) & 1) == 1
    for k in range(1, n // 2 + 1):
        ok &= (np.bitwise_count(m & _rot(m, k, n)) & 1) == 0
    return ok


@pytest.mark.parametrize("n, count", [(28, 28_672), (32, 131_072)])
def test_lift_past_the_cap_meets_the_definition(n, count):
    got = np.array(group(n), dtype=np.uint64)
    assert len(got) == len(np.unique(got)) == count
    assert passes_uint64(got, n).all()


# --- the table multiply ---------------------------------------------------------


def mul_chain(u, c, size, m):
    """[u, u c, u c**2, ...] by one `_mul` per element, as the components
    were listed before `_orbit`: its oracle."""
    out = [u]
    for _ in range(size - 1):
        out.append(witness._mul(out[-1], c, m))
    return out


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_table_multiply_matches_mul(data):
    m = data.draw(st.sampled_from(range(1, 32, 2)))
    u, c = (data.draw(st.integers(0, (1 << m) - 1)) for _ in range(2))
    assert witness._orbit(u, c, 3, m) == mul_chain(u, c, 3, m)


@pytest.mark.parametrize("m", range(1, 24, 2))
def test_each_component_is_listed_as_the_mul_chain(monkeypatch, m):
    orbit = witness._orbit
    listed = []

    def recording(u, c, size, m):
        out = orbit(u, c, size, m)
        listed.append(((u, c, size, m), out))
        return out

    monkeypatch.setattr(witness, "_orbit", recording)
    units = witness._odd_units(m)
    for (u, c, size, _), out in listed:
        assert out == mul_chain(u, c, size, m)
        # a cyclic group of exactly size elements: c**size is its identity u
        assert len(set(out)) == size and witness._mul(out[-1], c, m) == u
    # the coset {0} gives one unit; every other unit comes from an orbit
    assert math.prod(size for (_, _, size, _), _ in listed) == len(units) == coset_count(m)


# `_mul` calls of one scan_masks(n): the idempotents, one product per
# atom and idempotent, the primitive elements and their powers, and two
# per unit of U_h in each even lift (v conj(v) and v c0).  Listing the cyclic components by one `_mul` per element
# made these 386, 185, 508 and 2 143; forming each atom's split product
# twice made them 382, 115, 476 and 97; one `_mul` per Sym_h basis element
# and lifted unit, where two rotations now form v c, made them 380, 97,
# 474 and 93.
MUL_CALLS = {20: 125, 21: 97, 22: 276, 23: 93}


def test_mul_calls_of_the_scan(monkeypatch):
    mul, calls = witness._mul, []

    def counting(*args):
        calls.append(args)
        return mul(*args)

    monkeypatch.setattr(witness, "_mul", counting)
    got = {}
    for n in MUL_CALLS:
        calls.clear()
        scan_masks(n)
        got[n] = len(calls)
    assert got == MUL_CALLS


# --- group laws -----------------------------------------------------------------


@functools.cache
def witnesses(n):
    return scan_masks(n)


def row(mask, n):
    return [(mask >> (n - 1 - i)) & 1 for i in range(n)]


def mask(r):
    return int("".join(map(str, r)), 2)


def convolve(a, b):
    """Cyclic convolution mod 2: the product in F2[x]/(x^n - 1)."""
    n = len(a)
    return [sum(a[i] & b[(k - i) % n] for i in range(n)) % 2 for k in range(n)]


@st.composite
def witness_rows(draw, count):
    n = draw(st.integers(1, 24))
    return n, [row(draw(st.sampled_from(witnesses(n))), n) for _ in range(count)]


LAWS = settings(derandomize=True, max_examples=150, deadline=None)


@LAWS
@given(witness_rows(2))
def test_product_of_witnesses_is_a_witness(case):
    n, (a, b) = case
    assert passes(mask(convolve(a, b)), n)


@LAWS
@given(witness_rows(1), st.integers(0, 23))
def test_rotation_and_reversal_of_a_witness_are_witnesses(case, k):
    n, (a,) = case
    k %= n
    assert passes(mask(a[k:] + a[:k]), n)
    assert passes(mask(a[::-1]), n)


@LAWS
@given(witness_rows(1))
def test_witness_times_its_reversal_rotated_by_one_is_one(case):
    n, (a,) = case
    c = convolve(a, a[::-1])
    assert c[-1:] + c[:-1] == [1] + [0] * (n - 1)
