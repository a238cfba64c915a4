"""Seed row constructors and the row normaliser."""

import numpy as np
import pytest

from rrseq.correlation import autocorr_mod
from rrseq.modsearch import find_modulus, sweep
from rrseq.sequence import (
    MAX_LENGTH,
    ROW_DOUBLING,
    ROW_POWERS,
    as_elements,
    build_seed,
    doubling_seed,
    power_seed,
)
from rrseq.verify import check_rr, gram_check


def test_power_seed_elements():
    assert power_seed(2, 4) == (2, 4, 8, 16)
    assert power_seed(3, 3) == (3, 9, 27)


def test_doubling_seed_elements():
    assert doubling_seed(2, 4) == (2, 2, 4, 8)
    assert doubling_seed(29, 5) == (29, 2, 4, 8, 16)
    assert doubling_seed(7, 16) == (7,) + tuple(2**j for j in range(1, 16))


def test_build_seed_dispatch():
    assert build_seed(5, 3) == doubling_seed(5, 3)
    assert build_seed(5, 3, ROW_POWERS) == power_seed(5, 3)
    assert build_seed(5, 3, ROW_DOUBLING) == (5, 2, 4)
    with pytest.raises(ValueError):
        build_seed(5, 3, "fibonacci")


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 15, 100])
def test_constructors_reject_composite_start(p):
    with pytest.raises(ValueError, match="not prime"):
        build_seed(p, 4)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_constructors_reject_short_rows(n):
    with pytest.raises(ValueError):
        power_seed(2, n)
    with pytest.raises(ValueError):
        doubling_seed(2, n)


def test_as_elements_accepts_plain_sequences():
    assert as_elements([1, 2, 3]) == (1, 2, 3)
    assert as_elements((4, 5)) == (4, 5)
    assert as_elements(power_seed(2, 3)) == (2, 4, 8)


@pytest.mark.parametrize("n", [MAX_LENGTH + 1, 10**9])
def test_constructors_reject_long_rows(n):
    # refused before anything is built; never build a row this long
    for kind in (ROW_DOUBLING, ROW_POWERS):
        with pytest.raises(ValueError, match=f"at most {MAX_LENGTH}"):
            build_seed(3, n, kind)
    with pytest.raises(ValueError, match=f"at most {MAX_LENGTH}"):
        sweep(n, 10)


def test_as_elements_refuses_non_integers():
    assert as_elements(np.array([3, 2, 1], dtype=np.int64)) == (3, 2, 1)
    assert all(type(x) is int for x in as_elements(np.arange(4, dtype=np.uint64)))
    assert as_elements([True, 2]) == (1, 2)
    for row in (["3", 2, 1], [3, 2.9, 1], np.array([1.0, 2.0])):
        with pytest.raises(TypeError):
            as_elements(row)
    with pytest.raises(TypeError):
        find_modulus([1.5, 2, 3])


@pytest.mark.parametrize(
    "entry",
    [
        as_elements,
        lambda row: autocorr_mod(row, 7),
        lambda row: check_rr(row, 7),
        lambda row: gram_check(row, 7),
    ],
)
def test_every_entry_point_refuses_rows_shorter_than_2(entry):
    for row in ([5], []):
        with pytest.raises(ValueError, match="at least 2"):
            entry(row)
