"""Modulus search pipeline: gcd, factor, peak test, policy, statuses."""

import pytest

from rrseq.modsearch import (
    SearchStatus,
    SelectionPolicy,
    find_modulus,
    search_prime,
    sweep,
)
from rrseq.numtheory import FactorBudget
from rrseq.sequence import ROW_POWERS, power_seed
from rrseq.verify import check_rr, gram_check


def test_hand_oracle_failure_case():
    # [2, 4, 8, 16]: off-peak (200, 160, 200), gcd 40 = 2^3 * 5,
    # peak 340 divisible by both prime factors.
    out = find_modulus(power_seed(2, 4))
    assert out.gcd_value == 40
    assert out.factorization.factors == ((2, 3), (5, 1))
    assert out.all_moduli() == (2, 5)
    assert out.valid_moduli() == ()
    assert out.status is SearchStatus.NO_VALID_MODULUS
    assert out.canonical is None


def test_found_with_policies():
    largest = search_prime(2, 16)
    assert largest.status is SearchStatus.FOUND
    assert largest.valid_moduli() == (3, 11, 331)
    assert largest.canonical == 331

    smallest = search_prime(2, 16, SelectionPolicy.SMALLEST)
    assert smallest.canonical == 3

    every = search_prime(2, 16, SelectionPolicy.ALL)
    assert every.status is SearchStatus.FOUND
    assert every.canonical is None  # reported as a set, no single pick
    assert every.valid_moduli() == (3, 11, 331)


def test_no_sequence_when_gcd_is_one():
    # off-peak values 15, 16, 15 -> gcd 1
    out = find_modulus([1, 2, 2, 3])
    assert out.gcd_value == 1
    assert out.status is SearchStatus.NO_SEQUENCE
    assert out.candidates == ()


def test_incomplete_factorization_status():
    # constant row (2018, 2018): off-peak gcd 2^3 * 1009^2; with the rho
    # stage disabled and trial division stopping at 2, only the prime 2
    # comes out, it fails the peak test, and 1009^2 is left unfactored.
    budget = FactorBudget(trial_bound=2, rho_rounds=0, ecm_curves=0)
    out = find_modulus([2018, 2018], budget=budget)
    assert out.gcd_value == 8 * 1009**2
    assert not out.factorization.complete
    assert out.factorization.cofactor == 1009**2
    assert out.valid_moduli() == ()
    assert out.status is SearchStatus.INCOMPLETE_FACTORIZATION


def test_found_beats_incomplete_factorization():
    # gcd = 5 * 1009^2; trial division extracts the valid prime 5, the
    # 1009^2 part stays unfactored.  A usable modulus exists, so the
    # status is Found even though the factorization is partial.
    budget = FactorBudget(trial_bound=5, rho_rounds=0, ecm_curves=0)
    out = find_modulus([1, 2, 1696801], budget=budget)
    assert out.gcd_value == 5 * 1009**2
    assert not out.factorization.complete
    assert out.status is SearchStatus.FOUND
    assert out.canonical == 5


def test_signed_row_uses_absolute_offpeak_values():
    # [1, -2, 3]: C(0) = 14, C(1) = C(2) = -5, so the gcd is 5 and 5 keeps the peak
    row = [1, -2, 3]
    out = find_modulus(row)
    assert out.status is SearchStatus.FOUND
    assert out.gcd_value == 5
    assert out.canonical == 5
    assert check_rr(row, 5).verified
    assert gram_check(row, 5)


def test_rejects_degenerate_rows():
    with pytest.raises(ValueError):
        find_modulus([7])  # too short
    with pytest.raises(ValueError):
        find_modulus([0, 0, 1, 0])  # off-peak identically zero


def test_candidate_validity_bookkeeping():
    out = find_modulus(power_seed(2, 4))
    for cand in out.candidates:
        assert cand.valid == (cand.peak_residue != 0)
        assert 340 % cand.q == cand.peak_residue


def test_search_prime_equals_find_modulus_on_built_row():
    from rrseq.sequence import build_seed

    a = search_prime(7, 12)
    b = find_modulus(build_seed(7, 12))
    assert a == b


def test_sweep_shape_and_order():
    rows = sweep(8, prime_bound=30)
    assert [r.start_prime for r in rows] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [r.index for r in rows] == list(range(1, 11))
    assert all(r.length == 8 for r in rows)


def test_sweep_keeps_negative_rows():
    rows = sweep(4, prime_bound=2, row_kind=ROW_POWERS)
    assert len(rows) == 1
    assert rows[0].outcome.status is SearchStatus.NO_VALID_MODULUS


def test_sweep_rejects_bad_bounds():
    with pytest.raises(ValueError):
        sweep(1)
    with pytest.raises(ValueError):
        sweep(8, prime_bound=1)


def test_n128_sweep_factors_every_row():
    # rows 13 and 19 need ECM: rho alone leaves them 107- and 105-bit cofactors
    rows = sweep(128, prime_bound=60)
    assert len(rows) == 17
    assert all(r.outcome.factorization.complete for r in rows)
    assert all(r.outcome.status is SearchStatus.FOUND for r in rows)


def test_efficient_flag():
    rows = {r.start_prime: r for r in sweep(16, prime_bound=40)}
    assert rows[31].outcome.canonical == 7
    assert rows[31].efficient  # 7 <= 16
    assert rows[2].outcome.canonical == 331
    assert not rows[2].efficient
