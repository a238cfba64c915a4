"""Exact periodic autocorrelation, checked against a brute-force oracle."""

import random

import numpy as np
import pytest

from rrseq.correlation import autocorr_mod, periodic_autocorr
from rrseq.sequence import doubling_seed, power_seed


def oracle_autocorr(a):
    # Independent reference: direct double loop over the definition,
    # with explicit cyclic index wrap-around.
    size = len(a)
    out = []
    for k in range(size):
        acc = 0
        for j in range(size):
            acc += a[j] * a[(j + k) % size]
        out.append(acc)
    return out


def test_hand_oracle_profile():
    prof = periodic_autocorr(power_seed(2, 4))
    assert prof.values == (340, 200, 160, 200)
    assert prof.peak == 340
    assert prof.offpeak() == (200, 160, 200)


def test_small_examples():
    assert periodic_autocorr([1, 2, 3]).values == (14, 11, 11)
    assert periodic_autocorr([1, 1]).values == (2, 2)
    assert periodic_autocorr([0, 0, 0]).values == (0, 0, 0)


def test_matches_oracle_on_random_rows():
    rng = random.Random(4242)
    for _ in range(3000):
        size = rng.randrange(2, 7)
        row = [rng.randrange(-20, 21) for _ in range(size)]
        assert list(periodic_autocorr(row).values) == oracle_autocorr(row), row


@pytest.mark.parametrize("size", [2, 3, 15, 16, 24, 128])
def test_matches_oracle_at_paper_and_bench_lengths(size):
    rng = random.Random(size)
    rows = [
        doubling_seed(3, size),
        power_seed(5, size),
        [rng.randrange(-(2**70), 2**70) for _ in range(size)],
        np.array([rng.randrange(-1000, 1000) for _ in range(size)], dtype=np.int64),
    ]
    for row in rows:
        expected = oracle_autocorr([int(x) for x in row])
        values = periodic_autocorr(row).values
        assert list(values) == expected
        assert all(type(v) is int for v in values)


def test_symmetry():
    rng = random.Random(777)
    for _ in range(1000):
        size = rng.randrange(2, 12)
        row = [rng.randrange(0, 50) for _ in range(size)]
        vals = periodic_autocorr(row).values
        for k in range(1, size):
            assert vals[k] == vals[size - k]


def test_shift_invariance():
    rng = random.Random(31337)
    for _ in range(1000):
        size = rng.randrange(2, 10)
        row = [rng.randrange(-9, 10) for _ in range(size)]
        base = periodic_autocorr(row).values
        k = rng.randrange(size)
        assert periodic_autocorr(row[k:] + row[:k]).values == base


def test_rejects_tiny_input():
    with pytest.raises(ValueError):
        periodic_autocorr([5])
    with pytest.raises(ValueError):
        periodic_autocorr([])


def test_autocorr_mod_reduces_elementwise():
    row = power_seed(2, 4)
    exact = periodic_autocorr(row).values
    for n in (2, 3, 5, 7, 331):
        reduced = autocorr_mod(row, n)
        assert reduced.values == tuple(v % n for v in exact)


def test_autocorr_mod_two_valued_case():
    # doubling row for p=2, length 16 reduced mod 331: zero off-peak
    from rrseq.sequence import doubling_seed

    prof = autocorr_mod(doubling_seed(2, 16), 331)
    assert prof.peak != 0
    assert all(v == 0 for v in prof.offpeak())
