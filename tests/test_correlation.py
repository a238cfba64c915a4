"""Exact periodic autocorrelation, checked against a brute-force oracle."""

import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_autocorr

from rrseq.correlation import autocorr_mod, periodic_autocorr, residue_profile
from rrseq.sequence import ROW_POWERS, build_seed


def test_oracles_import_nothing_from_rrseq():
    # the shared oracles must stay independent of the code they check
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "rrseq", ast.dump(node)
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "rrseq" for alias in node.names), ast.dump(node)


def test_hand_oracle_profile():
    prof = periodic_autocorr(build_seed(2, 4, ROW_POWERS))
    assert prof.values == (340, 200, 160, 200)
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
    bumped = []
    for step in (1, -1):
        row = list(build_seed(3, size))
        row[rng.randrange(1, size)] += step
        bumped.append(row)
    rows = [
        build_seed(3, size),
        build_seed(5, size, ROW_POWERS),
        [rng.randrange(-(2**70), 2**70) for _ in range(size)],
        np.array([rng.randrange(-1000, 1000) for _ in range(size)], dtype=np.int64),
        *bumped,
        [-rng.randrange(1, 2**70) for _ in range(size)],
        [0] * size,
        # the offset that makes the row nonnegative is far wider than most entries
        [-(2**200)] + [rng.choice((0, 0, 0, 2**200)) for _ in range(size - 1)],
    ]
    for row in rows:
        expected = oracle_autocorr([int(x) for x in row])
        values = periodic_autocorr(row).values
        assert list(values) == expected
        assert all(type(v) is int for v in values)


@st.composite
def _signed_rows(draw):
    bound = draw(st.integers(1, 2**200) | st.integers(1, 2**20))
    size = draw(st.integers(2, 64))
    return draw(st.lists(st.integers(-bound, bound), min_size=size, max_size=size))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_signed_rows())
def test_signed_rows_match_oracle(row):
    values = periodic_autocorr(row).values
    assert list(values) == oracle_autocorr(row)
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


def test_autocorr_mod_reduces_elementwise(monkeypatch):
    # The row is reduced before its profile is taken: residue_profile only
    # ever sees residues in [0, n), and the result still equals the exact
    # profile reduced mod n, for prime and composite n alike.
    rows = [build_seed(2, 4, ROW_POWERS), [-5, 17, -(2**70), 3, 0, 1000, -1], build_seed(3, 128)]
    moduli = (2, 3, 5, 7, 12, 331, 2**61 - 1, 2**64)
    exact = [periodic_autocorr(row).values for row in rows]
    calls = []

    def spy(a, modulus):
        assert modulus == n
        assert all(0 <= e < n for e in a), (n, a)
        calls.append(n)
        return residue_profile(a, modulus)

    monkeypatch.setattr("rrseq.correlation.residue_profile", spy)
    for row, values in zip(rows, exact):
        for n in moduli:
            assert autocorr_mod(row, n).values == tuple(v % n for v in values), (row, n)
    assert len(calls) == len(rows) * len(moduli)
    for n in (1, 0):
        with pytest.raises(ValueError, match="at least 2"):
            autocorr_mod(rows[0], n)


def test_autocorr_mod_two_valued_case():
    # doubling row for p=2, length 16 reduced mod 331: zero off-peak
    prof = autocorr_mod(build_seed(2, 16), 331)
    assert prof.values[0] != 0
    assert all(v == 0 for v in prof.offpeak())


@st.composite
def _residue_rows(draw):
    n = draw(st.integers(2, 2**200) | st.integers(2, 2**20))
    size = draw(st.integers(2, 64))
    return draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)), n


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_residue_rows())
def test_residue_profile_matches_oracle(case):
    row, n = case
    values = residue_profile(tuple(row), n)
    assert list(values) == oracle_autocorr(row)
    assert all(type(v) is int for v in values)


def _digit_boundary_moduli(size):
    """The largest n with size * (n - 1)**2 < 2**63, the next n, and the
    smallest n with size * (n - 1)**2 > 2**64."""
    m = math.isqrt((2**63 - 1) // size)  # largest n - 1 below the bound
    return m + 1, m + 2, math.isqrt(2**64 // size) + 2


@pytest.mark.parametrize("size", [16, 128])
def test_residue_profile_on_both_sides_of_the_64_bit_digit(size):
    rng = random.Random(size)
    below, above, wide = _digit_boundary_moduli(size)
    assert size * (below - 1) ** 2 < 2**63 <= size * (above - 1) ** 2
    assert size * (wide - 1) ** 2 >= 2**64
    for n in (below, above, wide, below - 1, wide + 1):
        # the all-(n - 1) row has the largest digits: every lag is N (n - 1)**2
        rows = ([n - 1] * size, [rng.randrange(n) for _ in range(size)], [0] * (size - 1) + [n - 1])
        for row in rows:
            assert list(residue_profile(tuple(row), n)) == oracle_autocorr(row), (size, n)


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_residue_profile_fills_each_native_digit(width):
    # N (n - 1)**2 just below 2**width packs into width-bit digits; at
    # 2**width and above it needs the next size.  The all-(n - 1) row puts
    # the largest value in every digit.
    for size in (2, 3, 16, 17):
        m = math.isqrt((2**width - 1) // size)
        for n in (m + 1, m + 2):
            row = [n - 1] * size
            assert list(residue_profile(tuple(row), n)) == oracle_autocorr(row), (size, n)
