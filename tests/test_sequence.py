"""The seed row constructor and the row normaliser."""

import numpy as np
import pytest

from rrseq.correlation import autocorr_mod, periodic_autocorr
from rrseq.modsearch import find_modulus, sweep
from rrseq.numtheory import FactorBudget, factorize, is_prime
from rrseq.sequence import (
    MAX_LENGTH,
    ROW_DOUBLING,
    ROW_KINDS,
    ROW_POWERS,
    _doubling_tail,
    _is_doubling,
    as_elements,
    build_seed,
)
from rrseq.verify import check_rr, gram_check
from rrseq.witness import enumerate_binary_ideal, scan_masks


@pytest.mark.parametrize(
    ("p", "n", "kind", "row"),
    [
        (2, 4, ROW_POWERS, (2, 4, 8, 16)),
        (3, 3, ROW_POWERS, (3, 9, 27)),
        (5, 3, ROW_POWERS, (5, 25, 125)),
        (2, 4, ROW_DOUBLING, (2, 2, 4, 8)),
        (29, 5, ROW_DOUBLING, (29, 2, 4, 8, 16)),
        (5, 3, ROW_DOUBLING, (5, 2, 4)),
    ],
)
def test_build_seed_elements(p, n, kind, row):
    assert build_seed(p, n, kind) == row


def test_doubling_tail_cache_is_bounded():
    maxsize = _doubling_tail.cache_info().maxsize
    assert maxsize is not None and maxsize <= 8
    for n in range(2, 40):
        row = build_seed(3, n)
        assert row == (3,) + tuple(2**j for j in range(1, n))
        assert _is_doubling(row)
    assert _doubling_tail.cache_info().currsize <= maxsize


def test_recogniser_reads_only_the_tail():
    assert _is_doubling((-5, 2)) and _is_doubling((0, 2, 4, 8))
    assert not _is_doubling((3, 4, 8, 16)) and not _is_doubling((3, 2, 4, 9))
    assert not _is_doubling((3, 2, 4, 8, 16, 31))
    # Past MAX_LENGTH the row is refused before it reaches the recogniser,
    # so no tail is built.
    row = (3,) + tuple(2**j for j in range(1, MAX_LENGTH + 1))
    before = _doubling_tail.cache_info()
    with pytest.raises(ValueError, match=f"at most {MAX_LENGTH}"):
        find_modulus(row)
    assert _doubling_tail.cache_info() == before
    assert _is_doubling(row[:MAX_LENGTH])


def test_build_seed_dispatch():
    # doubling is the default kind
    assert build_seed(5, 3) == (5, 2, 4)
    assert build_seed(7, 16) == (7,) + tuple(2**j for j in range(1, 16))
    with pytest.raises(ValueError, match="unknown row kind 'fibonacci'"):
        build_seed(5, 3, "fibonacci")


@pytest.mark.parametrize("kind", ROW_KINDS)
@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 15, 100])
def test_constructors_reject_composite_start(p, kind):
    with pytest.raises(ValueError, match=f"starting value {p} is not prime"):
        build_seed(p, 4, kind)


@pytest.mark.parametrize("kind", ROW_KINDS)
@pytest.mark.parametrize("n", [-1, 0, 1])
def test_constructors_reject_short_rows(n, kind):
    with pytest.raises(ValueError, match=f"row length must be at least 2, got {n}"):
        build_seed(2, n, kind)


def test_as_elements_accepts_plain_sequences():
    assert as_elements([1, 2, 3]) == (1, 2, 3)
    assert as_elements((4, 5)) == (4, 5)
    assert as_elements(build_seed(2, 3, ROW_POWERS)) == (2, 4, 8)


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


ENTRY_POINTS = [
    as_elements,
    lambda row: autocorr_mod(row, 7),
    lambda row: check_rr(row, 7),
    lambda row: gram_check(row, 7),
    periodic_autocorr,
    find_modulus,
]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_refuses_rows_shorter_than_2(entry):
    for row in ([5], []):
        with pytest.raises(ValueError, match="at least 2"):
            entry(row)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_refuses_rows_longer_than_max_length(entry):
    with pytest.raises(ValueError, match=f"row length must be at most {MAX_LENGTH}, got {MAX_LENGTH + 1}"):
        entry([1] * (MAX_LENGTH + 1))


# Entry points taking one integer scalar, each with a value for it.
SCALAR_ENTRY_POINTS = [
    pytest.param(
        lambda b: factorize(997 * 1009 * (2**61 - 1), FactorBudget(trial_bound=b, rho_rounds=0, ecm_curves=0)),
        1000,
        id="trial_bound",
    ),
    pytest.param(lambda k: FactorBudget(rho_rounds=k, ecm_curves=k), 3, id="rho_rounds-ecm_curves"),
    pytest.param(is_prime, 3121, id="is_prime"),
    pytest.param(factorize, 2**62 + 1, id="factorize"),
    pytest.param(lambda m: check_rr(build_seed(3, 16), m), 3121, id="check_rr"),
    pytest.param(lambda m: gram_check(build_seed(3, 16), m), 3121, id="gram_check"),
    pytest.param(lambda m: autocorr_mod(build_seed(3, 128), m), 2**61 - 1, id="autocorr_mod"),
    pytest.param(lambda p: build_seed(p, 48, ROW_POWERS), 3, id="build_seed-p"),
    pytest.param(lambda n: build_seed(3, n), 16, id="build_seed-n"),
    pytest.param(scan_masks, 20, id="scan_masks"),
    pytest.param(enumerate_binary_ideal, 20, id="enumerate_binary_ideal"),
]


@pytest.mark.parametrize(("entry", "value"), SCALAR_ENTRY_POINTS)
def test_every_scalar_entry_point_takes_numpy_integers_and_refuses_floats(entry, value):
    # repr tells an np.int64 field or result apart from an int one
    assert repr(entry(np.int64(value))) == repr(entry(value))
    with pytest.raises(TypeError):
        entry(float(value))
