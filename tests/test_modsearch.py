"""Modulus search pipeline: gcd, factor, peak test, policy, statuses."""

import math
import random

import numpy as np
import pytest
from oracles import oracle_autocorr, oracle_moduli

import rrseq.correlation
import rrseq.modsearch
import rrseq.numtheory
from rrseq.modsearch import (
    ModulusSearchOutcome,
    SearchStatus,
    SelectionPolicy,
    SweepRow,
    _sweep_rows,
    find_modulus,
    sweep,
)
from rrseq.numtheory import DEFAULT_BUDGET, SIEVE_LIMIT, FactorBudget, Factorization, factorize, primes_up_to
from rrseq.sequence import MAX_LENGTH, ROW_DOUBLING, ROW_POWERS, build_seed
from rrseq.verify import check_rr, gram_check

# Trial division only: the front end is what these tests compare, and
# rows past N = 40 would otherwise spend seconds in rho and ECM.
TRIAL_ONLY = FactorBudget(trial_bound=10**4, rho_rounds=0, ecm_curves=0)
# Trial division to 5 alone, which leaves most rows a cofactor.
BARE_TRIAL = FactorBudget(trial_bound=5, rho_rounds=0, ecm_curves=0)


def oracle_outcome(row, budget):
    """The search outcome from a brute-force profile and the gcd of all
    N - 1 off-peak values; None when every off-peak value is zero."""
    values = oracle_autocorr(row)
    g = math.gcd(*(abs(v) for v in values[1:]))
    if g == 0:
        return None
    if g == 1:
        return ModulusSearchOutcome(1, Factorization(1, ()), (), SearchStatus.NO_SEQUENCE)
    fact = factorize(g, budget)
    candidates = tuple((q, values[0] % q) for q, _ in fact.factors)
    valid = [q for q, r in candidates if r]
    if valid:
        return ModulusSearchOutcome(g, fact, candidates, SearchStatus.FOUND, max(valid))
    status = SearchStatus.NO_VALID_MODULUS if fact.complete else SearchStatus.INCOMPLETE_FACTORIZATION
    return ModulusSearchOutcome(g, fact, candidates, status)


def doubling_row(p, n):
    return (p,) + tuple(2**j for j in range(1, n))


@pytest.fixture
def profile_calls(monkeypatch):
    """Count find_modulus's calls of the exact profile."""
    calls = []
    real = rrseq.correlation.profile_values

    def spy(elems):
        calls.append(len(elems))
        return real(elems)

    monkeypatch.setattr(rrseq.correlation, "profile_values", spy)
    return calls


def _starting_values(n):
    """Primes, 1, 0 and negatives; for even N also the p with
    3p + 2**N - 4 = 0, whose off-peak values all vanish."""
    ps = [2, 3, 50021, 1, 0, -1, -2, -50021]
    if n % 2 == 0:
        ps.append((4 - 2**n) // 3)
    return ps


@pytest.mark.parametrize("n", [*range(2, 41), 64, 128])
def test_doubling_closed_form_matches_oracle(n, profile_calls):
    budget = DEFAULT_BUDGET if n <= 40 else TRIAL_ONLY
    for p in _starting_values(n):
        row = doubling_row(p, n)
        want = oracle_outcome(row, budget)
        if want is None:
            with pytest.raises(ValueError, match="every off-peak correlation is zero"):
                find_modulus(row, budget=budget)
        else:
            assert find_modulus(row, budget=budget) == want, (n, p)
    assert profile_calls == []  # every row took the closed form


def _doubling_profile_split_at_the_wrap(N, k, p):
    """C(k) = sum_i a(i) a(i + k mod N) of the doubling row a(0) = p, a(i)
    = 2**i, for 1 <= k <= N - 1, split at the wrap i + k = N: the two
    products that hold a(0) = p, at i = 0 and i = N - k, then the pairs
    that do not wrap (0 < i < N - k) and those that do (N - k < i < N),
    summed with sympy.  N, k and p may be symbols or ints."""
    import sympy

    i = sympy.Dummy("i", integer=True)
    unwrapped = sympy.summation(2**i * 2 ** (i + k), (i, 1, N - k - 1))
    wrapped = sympy.summation(2**i * 2 ** (i + k - N), (i, N - k + 1, N - 1))
    return p * 2**k + 2 ** (N - k) * p + unwrapped + wrapped


def test_doubling_closed_forms_hold_symbolically():
    # The closed forms of the modsearch docstring, for symbolic N, k and p:
    # C(k) = (2**k + 2**(N-k)) * M / 3 with M = 3p + 2**N - 4, and C(0) =
    # p**2 + (4**N - 4) / 3.  test_doubling_closed_form_matches_oracle
    # checks that the search uses them, at sampled N.
    sympy = pytest.importorskip("sympy")
    N, k, p = sympy.symbols("N k p", integer=True)
    i = sympy.Dummy("i", integer=True)
    offpeak = _doubling_profile_split_at_the_wrap(N, k, p)
    peak = p**2 + sympy.summation(4**i, (i, 1, N - 1))

    def holds(value, claim):
        return sympy.simplify(value - claim) == 0

    assert holds(offpeak, (2**k + 2 ** (N - k)) * (3 * p + 2**N - 4) / 3)
    assert holds(peak, p**2 + (4**N - 4) / 3)
    # Not vacuous: a wrong constant does not simplify away.
    assert not holds(offpeak, (2**k + 2 ** (N - k)) * (3 * p + 2**N - 3) / 3)
    assert not holds(peak, p**2 + (4**N - 1) / 3)
    # The split is the row's own profile: at small N every k agrees with
    # the brute-force sum over the row.
    for n in (2, 3, 4, 7):
        row = doubling_row(5, n)
        for j in range(1, n):
            want = sum(row[t] * row[(t + j) % n] for t in range(n))
            assert _doubling_profile_split_at_the_wrap(n, j, 5) == want, (n, j)


def _powers_profile_split_at_the_wrap(N, k, p):
    """C(k) = sum_i a(i) a(i + k mod N) of the powers row a(i) = p**(i + 1),
    0 <= i < N, for 0 <= k <= N - 1, split at the wrap i + k = N: the pairs
    that do not wrap (i < N - k) and those that do (i >= N - k), summed
    with sympy.  N, k and p may be symbols or ints."""
    import sympy

    i = sympy.Dummy("i", integer=True)
    unwrapped = sympy.summation(p ** (i + 1) * p ** (i + k + 1), (i, 0, N - k - 1))
    wrapped = sympy.summation(p ** (i + 1) * p ** (i + k - N + 1), (i, N - k, N - 1))
    return unwrapped + wrapped


def test_powers_closed_forms_hold_symbolically():
    # For symbolic N, k and p: the powers row (p, p**2, ..., p**N) has
    # C(k) = p**2 (p**N - 1) (p**k + p**(N-k)) / (p**2 - 1) for 1 <= k < N
    # and C(0) = p**2 (p**(2N) - 1) / (p**2 - 1).  sympy sums the geometric
    # series as a Piecewise; its branch for p**2 != 1 is the one claimed.
    sympy = pytest.importorskip("sympy")
    N, k, p = sympy.symbols("N k p", integer=True)

    def holds(value, claim):
        value = sympy.piecewise_fold(value)
        if isinstance(value, sympy.Piecewise):
            (value,) = [v for v, cond in value.args if cond is sympy.true]
        return sympy.simplify(sympy.expand(value - claim)) == 0

    offpeak = _powers_profile_split_at_the_wrap(N, k, p)
    peak = _powers_profile_split_at_the_wrap(N, 0, p)
    assert holds(offpeak, p**2 * (p**N - 1) * (p**k + p ** (N - k)) / (p**2 - 1))
    assert holds(peak, p**2 * (p ** (2 * N) - 1) / (p**2 - 1))
    # Not vacuous: a wrong sign does not simplify away.
    assert not holds(offpeak, p**2 * (p**N + 1) * (p**k + p ** (N - k)) / (p**2 - 1))
    assert not holds(peak, p**2 * (p ** (2 * N) + 1) / (p**2 - 1))
    # ROADMAP item 4's screen on the doubling row's peak C(0) = p**2 + (4**N
    # - 4) / 3, with M = 3p + 2**N - 4: 9 C(0) - 4 (2**N - 1)**2 = (3p - 2**N
    # + 4) M.
    i = sympy.Dummy("i", integer=True)
    doubling_peak = p**2 + sympy.summation(4**i, (i, 1, N - 1))
    m = 3 * p + 2**N - 4
    assert holds(9 * doubling_peak - 4 * (2**N - 1) ** 2, (3 * p - 2**N + 4) * m)
    assert not holds(9 * doubling_peak - 4 * (2**N - 1) ** 2, (3 * p - 2**N + 3) * m)
    # The split is the row's own profile: at small N every k agrees with
    # the brute-force sum over the row.
    for n in (2, 3, 4, 7):
        want = oracle_autocorr([5 ** (t + 1) for t in range(n)])
        assert [_powers_profile_split_at_the_wrap(n, j, 5) for j in range(n)] == want, n


def _h(n):
    """h_N, the gcd of 2**k + 2**(N-k) over 1 <= k <= N/2, by brute force."""
    return math.gcd(*(2**k + 2 ** (n - k) for k in range(1, n // 2 + 1)))


def _h_rule(n):
    """h_N by the modsearch docstring's rule."""
    return 4 if n == 2 else 6 if n % 2 else 2


@pytest.mark.parametrize(
    "lengths",
    [range(2, 513), pytest.param(range(513, MAX_LENGTH + 1), marks=pytest.mark.slow)],
    ids=["to-512", "past-512"],
)
def test_doubling_gcd_rule_holds_at_every_length(lengths):
    # check_length caps N at MAX_LENGTH, so this covers every length the
    # library accepts.  sympy cannot take this gcd over symbolic N
    # (sympy.gcd treats 2**N as a free generator and answers 1), so the
    # rule is checked exactly at each N, and its one symbolic step below.
    h = {n: _h(n) for n in lengths}
    assert all(h[n] == _h_rule(n) for n in lengths)
    # Not vacuous: the rule "2 for every N >= 3" fails (at every odd N).
    assert any(h[n] != 2 for n in lengths if n >= 3)
    for n in lengths[:: max(1, len(lengths) // 40)]:
        for p in (3, 50021, -7):
            assert rrseq.modsearch._doubling_peak_gcd(p, n)[1] == abs(3 * p + 2**n - 4) * h[n] // 3, (p, n)


def test_doubling_gcd_rule_step_holds_symbolically():
    # The docstring's step for N >= 5: the k = 1 and k = 2 terms are 2 and
    # 4 times 1 + 2**(N-2) and 1 + 2**(N-4), which differ by 3 * 2**(N-4).
    sympy = pytest.importorskip("sympy")
    N = sympy.symbols("N", integer=True)

    def holds(value, claim):
        return sympy.simplify(value - claim) == 0

    assert holds(2 + 2 ** (N - 1), 2 * (1 + 2 ** (N - 2)))
    assert holds(4 + 2 ** (N - 2), 4 * (1 + 2 ** (N - 4)))
    assert holds((1 + 2 ** (N - 2)) - (1 + 2 ** (N - 4)), 3 * 2 ** (N - 4))
    assert not holds((1 + 2 ** (N - 2)) - (1 + 2 ** (N - 4)), 3 * 2 ** (N - 3))


@pytest.mark.slow
@pytest.mark.parametrize("n", [256, 512])
def test_doubling_closed_form_matches_oracle_long_rows(n, profile_calls):
    for p in (3, 1, -7):
        row = doubling_row(p, n)
        assert find_modulus(row, budget=TRIAL_ONLY) == oracle_outcome(row, TRIAL_ONLY), (n, p)
    assert profile_calls == []


def test_numpy_int64_doubling_row_takes_closed_form(profile_calls):
    for n in (16, 40):
        row = np.array(doubling_row(50021, n), dtype=np.int64)
        out = find_modulus(row)
        assert out == oracle_outcome(doubling_row(50021, n), DEFAULT_BUDGET)
        assert out == find_modulus(doubling_row(50021, n))
    assert profile_calls == []


@pytest.mark.parametrize("n", [2, 3, 4, 16, 17, 64])
def test_changed_tail_takes_generic_path(n, profile_calls):
    # every doubling row with one tail element bumped, and the powers rows
    rows = []
    for j in range(1, n):
        row = list(doubling_row(50021, n))
        row[j] += 1
        rows.append(row)
    rows += [build_seed(p, n, ROW_POWERS) for p in (2, 3, 101)]
    for row in rows:
        assert find_modulus(row, budget=TRIAL_ONLY) == oracle_outcome(row, TRIAL_ONLY), (n, row[:3])
    assert profile_calls == [n] * len(rows)


def _oracle_rows():
    """Doubling and powers rows, doubling rows with one tail entry moved
    by 1 either way (seeded), and signed rows."""
    rng = random.Random(0)
    for n in (2, 3, 15, 16, 24):
        for p in (2, 3, 5, 101, 50021):
            moved = list(doubling_row(p, n))
            moved[rng.randrange(1, n)] += rng.choice((-1, 1))
            yield from (doubling_row(p, n), build_seed(p, n, ROW_POWERS), moved)
    yield from ([1, -2, 3], [-3, 2, 4, 8], [5, -2, -4, 8, 16, -32])


def test_valid_moduli_match_the_gcd_free_oracle():
    # every prime up to the bound, tried on the profile itself; the bound
    # is below the trial bound, so trial division takes out each such q
    bound = 1000
    assert bound <= TRIAL_ONLY.trial_bound
    found = 0
    for row in _oracle_rows():
        want = oracle_moduli(row, bound)
        assert [q for q in find_modulus(row, budget=TRIAL_ONLY).valid_moduli() if q <= bound] == want, row
        found += len(want)
    assert found == 64


def test_hand_oracle_failure_case():
    # [2, 4, 8, 16]: off-peak (200, 160, 200), gcd 40 = 2^3 * 5,
    # peak 340 divisible by both prime factors.
    out = find_modulus(build_seed(2, 4, ROW_POWERS))
    assert out.gcd_value == 40
    assert out.factorization.factors == ((2, 3), (5, 1))
    assert out.candidates == ((2, 0), (5, 0))  # 340 = 2^2 * 5 * 17
    assert out.valid_moduli() == ()
    assert out.status is SearchStatus.NO_VALID_MODULUS
    assert out.canonical is None


def test_found_with_policies():
    largest = find_modulus(build_seed(2, 16))
    assert largest.status is SearchStatus.FOUND
    assert largest.valid_moduli() == (3, 11, 331)
    assert largest.canonical == 331

    smallest = find_modulus(build_seed(2, 16), SelectionPolicy.SMALLEST)
    assert smallest.canonical == 3

    every = find_modulus(build_seed(2, 16), SelectionPolicy.ALL)
    assert every.status is SearchStatus.FOUND
    assert every.canonical is None  # reported as a set, no single pick
    assert every.valid_moduli() == (3, 11, 331)


def test_policy_given_by_its_value():
    row = build_seed(3, 16)
    assert find_modulus(row).valid_moduli() == (2, 7, 3121)
    assert find_modulus(row, "smallest").canonical == 2
    assert find_modulus(row, "largest").canonical == 3121
    assert find_modulus(row, "all") == find_modulus(row, SelectionPolicy.ALL)
    assert sweep(16, 10, "largest") == sweep(16, 10, SelectionPolicy.LARGEST)
    assert sweep(16, 10, "smallest") == sweep(16, 10, SelectionPolicy.SMALLEST)
    assert find_modulus([1, 2, 2, 3], "smallest").status is SearchStatus.NO_SEQUENCE


def test_unknown_policy_refused_before_any_factoring(monkeypatch):
    def no_work(*args):
        raise AssertionError("factoring started under an unknown policy")

    monkeypatch.setattr(rrseq.modsearch, "_factor", no_work)
    calls = [
        lambda: find_modulus(build_seed(3, 16), "bogus"),
        lambda: find_modulus(build_seed(3, 16), None),
        lambda: find_modulus([1, 2, 2, 3], "bogus"),  # gcd 1: no policy is ever read
        lambda: sweep(16, 10, "bogus"),
        lambda: sweep(6, 10, "SMALLEST", row_kind=ROW_POWERS),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


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


# (row, budget, status): doubling, powers and explicit signed rows, a row
# with gcd 1, and a constant row whose 1009^2 stays unfactored.
CANDIDATE_ROWS = [
    pytest.param(build_seed(2, 16), DEFAULT_BUDGET, SearchStatus.FOUND, id="doubling-16"),
    pytest.param(build_seed(3, 24), DEFAULT_BUDGET, SearchStatus.FOUND, id="doubling-24"),
    pytest.param(build_seed(13, 128), DEFAULT_BUDGET, SearchStatus.FOUND, id="doubling-128"),
    pytest.param(build_seed(2, 4, ROW_POWERS), DEFAULT_BUDGET, SearchStatus.NO_VALID_MODULUS, id="powers-4"),
    pytest.param(build_seed(101, 6, ROW_POWERS), DEFAULT_BUDGET, SearchStatus.NO_VALID_MODULUS, id="powers-6"),
    pytest.param([1, -2, 3], DEFAULT_BUDGET, SearchStatus.FOUND, id="signed-3"),
    pytest.param([-6, 4, 9], DEFAULT_BUDGET, SearchStatus.FOUND, id="signed-3-mixed"),
    pytest.param([-7, 8, -1, -8], DEFAULT_BUDGET, SearchStatus.FOUND, id="signed-4-mixed"),
    pytest.param([1, 2, 2, 3], DEFAULT_BUDGET, SearchStatus.NO_SEQUENCE, id="gcd-1"),
    pytest.param(
        [2018, 2018], FactorBudget(trial_bound=2, rho_rounds=0, ecm_curves=0),
        SearchStatus.INCOMPLETE_FACTORIZATION, id="incomplete",
    ),
]


@pytest.mark.parametrize("row, budget, status", CANDIDATE_ROWS)
def test_candidates_pair_each_prime_factor_with_the_peak_residue(row, budget, status):
    out = find_modulus(row, budget=budget)
    peak = sum(x * x for x in row)
    assert out.candidates == tuple((q, peak % q) for q, _ in out.factorization.factors)
    assert out.valid_moduli() == tuple(q for q, r in out.candidates if r != 0)
    assert out.status is status


@pytest.mark.parametrize(
    "n, bound, row_kind",
    # N = 2 has h_N = 4, odd N have 6 and even N >= 4 have 2
    [(2, 200, ROW_DOUBLING), (3, 200, ROW_DOUBLING), (4, 200, ROW_DOUBLING), (5, 200, ROW_DOUBLING),
     (16, 200, ROW_DOUBLING), (24, 200, ROW_DOUBLING), (64, 60, ROW_DOUBLING), (6, 60, ROW_POWERS),
     (16, 60, ROW_POWERS)],
)
@pytest.mark.parametrize("policy", list(SelectionPolicy))
@pytest.mark.parametrize(
    "budget", [DEFAULT_BUDGET, FactorBudget(trial_bound=5), TRIAL_ONLY, pytest.param(BARE_TRIAL, id="bare-trial")]
)
def test_sweep_equals_find_modulus_on_built_rows(n, bound, row_kind, policy, budget):
    assert sweep(n, bound, policy, budget, row_kind) == [
        SweepRow(p, find_modulus(build_seed(p, n, row_kind), policy, budget)) for p in primes_up_to(bound)
    ]


@pytest.mark.parametrize(
    "n, bound, row_kind, status",
    [(64, 60, ROW_DOUBLING, SearchStatus.FOUND), (16, 60, ROW_POWERS, SearchStatus.INCOMPLETE_FACTORIZATION)],
)
def test_bare_trial_rows_keep_a_cofactor(n, bound, row_kind, status):
    # The oracle above compares these rows too: a wrapper that dropped the
    # cofactor, or an outcome that forgot it, would differ there.
    rows = sweep(n, bound, budget=BARE_TRIAL, row_kind=row_kind)
    assert any(row.outcome.factorization.cofactor != 1 and row.outcome.status is status for row in rows)


def test_sweep_shape_and_order():
    rows = sweep(8, prime_bound=30)
    assert [r.start_prime for r in rows] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for row in rows:
        p, outcome = row
        assert p == row.start_prime and outcome is row.outcome is row[1]


def test_sweep_keeps_negative_rows():
    rows = sweep(4, prime_bound=2, row_kind=ROW_POWERS)
    assert len(rows) == 1
    assert rows[0].outcome.status is SearchStatus.NO_VALID_MODULUS


def test_sweep_rejects_bad_bounds():
    with pytest.raises(ValueError):
        sweep(1)
    with pytest.raises(ValueError):
        sweep(8, prime_bound=1)


def test_sweep_takes_numpy_integers():
    assert sweep(np.int64(16), np.int64(100)) == sweep(16, 100)
    assert sweep(np.int64(6), np.int64(30), row_kind=ROW_POWERS) == sweep(6, 30, row_kind=ROW_POWERS)


def test_float_sweep_arguments_refused_before_the_sieve(monkeypatch):
    def no_work(*args):
        raise AssertionError("the sieve ran on a float argument")

    monkeypatch.setattr(rrseq.numtheory, "_sieve", no_work)
    with pytest.raises(TypeError):
        sweep(16.0, 100)
    with pytest.raises(TypeError):
        sweep(16, 100.0)
    with pytest.raises(ValueError, match="unknown row kind"):
        sweep(16, 100, row_kind="bogus")


class _SieveRan(Exception):
    pass


@pytest.mark.parametrize(
    ("n", "bound", "policy", "kind", "error", "match"),
    [
        pytest.param(1, 100, "largest", ROW_DOUBLING, ValueError, "at least 2, got 1", id="short-n"),
        pytest.param(MAX_LENGTH + 1, 100, "largest", ROW_DOUBLING, ValueError, f"at most {MAX_LENGTH}", id="long-n"),
        pytest.param(16, 1, "largest", ROW_DOUBLING, ValueError, "prime bound must be at least 2", id="low-bound"),
        pytest.param(16, SIEVE_LIMIT + 1, "largest", ROW_DOUBLING, ValueError, f"at most {SIEVE_LIMIT}", id="high-bound"),
        pytest.param(16, 100, "bogus", ROW_DOUBLING, ValueError, "not a valid SelectionPolicy", id="policy"),
        pytest.param(16, 100, "largest", "bogus", ValueError, "unknown row kind 'bogus'", id="row-kind"),
        pytest.param(16.0, 100, "largest", ROW_DOUBLING, TypeError, None, id="float-n"),
    ],
)
def test_sweep_rows_checks_its_arguments_at_the_call(n, bound, policy, kind, error, match, monkeypatch):
    # _sweep_rows must not be a generator function: its checks run when it
    # is called, before the CLI opens --out, not when the first row is read.
    def sieve_ran(*args):
        raise _SieveRan

    monkeypatch.setattr(rrseq.numtheory, "_sieve", sieve_ran)
    with pytest.raises(error, match=match):
        _sweep_rows(n, bound, policy, DEFAULT_BUDGET, kind)
    # with valid arguments the sieve, too, runs at the call
    with pytest.raises(_SieveRan):
        _sweep_rows(16, 100, "largest", DEFAULT_BUDGET, ROW_DOUBLING)


def test_n128_sweep_factors_every_row():
    # rows 13 and 19 need ECM: rho alone leaves them 107- and 105-bit cofactors
    rows = sweep(128, prime_bound=60)
    assert len(rows) == 17
    assert all(r.outcome.factorization.complete for r in rows)
    assert all(r.outcome.status is SearchStatus.FOUND for r in rows)
