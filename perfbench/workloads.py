"""The four workloads.

Each workload builds its inputs from the seed, lists the timed units of
one pass, runs a unit untraced or traced, and checks each unit's result
(outside the timed region) for certified_frac.  Every unit is one call
at a time in this single-threaded process, a closed loop.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

from rrseq import (
    FactorBudget,
    Factorization,
    SearchStatus,
    build_seed,
    check_rr,
    cli,
    enumerate_binary_ideal,
    factorize,
    find_modulus,
    gcd_many,
    gram_check,
    periodic_autocorr,
    primes_up_to,
    scan_masks,
    sweep,
)

from checks import counts_ok, factorization_ok, golden_ok, same_bytes, search_row_ok, witnesses_ok

# factorize is split from outside into its two stages: trial division
# alone (no rho rounds), then rho alone on the cofactor trial division
# left (a trial bound of 2 skips trial division; that cofactor has no
# factor below the default bound anyway).
TRIAL_ONLY = FactorBudget(rho_rounds=0)
RHO_ONLY = FactorBudget(trial_bound=2)

# Primes <= 400 whose N=128 doubling row exhausts the default rho budget
# (24 rounds of 2**17 iterations) and keeps a cofactor of 83-114 bits.
# certify-n128 always holds two of them (13 and 19) beside 15 rows that
# factor completely, so every seed has the same character.
N128_BUDGET_EXHAUSTING = (13, 19, 61, 127, 193, 241, 359, 367, 383, 397)

STATUSES = tuple(s.value for s in SearchStatus)


class ReplayMismatch(RuntimeError):
    """A traced replay disagreed with the call it replays."""


class LayerCounts:
    """Per-layer counters of a traced run."""

    def __init__(self) -> None:
        self.c: Counter = Counter()
        self.cofactor_bits_max = 0


def traced_primes(bound: int, tr, replay: bool = False) -> list[int]:
    primes, d = tr.call(primes_up_to, bound, replay=replay)
    tr.record("numtheory.primes_up_to.self_s", d)
    return primes


def traced_search(p: int, n: int, tr, lc: LayerCounts, certify: bool, replay: bool = False):
    """build_seed -> find_modulus (split by replaying its children) -> certificates.

    replay marks the whole row as work the untraced pass does not do.
    """
    row, d = tr.call(build_seed, p, n, replay=replay)
    tr.record("sequence.build_seed.self_s", d)
    outcome, d_fm = tr.call(find_modulus, row, replay=replay)
    profile, d_ac = tr.call(periodic_autocorr, row, replay=True)
    offpeak = [v for v in profile.offpeak() if v != 0]
    g, d_gcd = tr.call(gcd_many, offpeak, replay=True)
    if g != outcome.gcd_value:
        raise ReplayMismatch(f"gcd of row p={p} n={n}: replay {g}, find_modulus {outcome.gcd_value}")
    d_trial = d_rho = 0.0
    if g > 1:
        trial, d_trial = tr.call(factorize, g, TRIAL_ONLY, replay=True)
        fact = trial
        if trial.cofactor != 1:
            rest, d_rho = tr.call(factorize, trial.cofactor, RHO_ONLY, replay=True)
            fact = Factorization(g, tuple(sorted(trial.factors + rest.factors)), rest.cofactor)
        if fact != outcome.factorization:
            raise ReplayMismatch(f"factorisation of row p={p} n={n} differs from find_modulus")
        tr.record("numtheory.factorize.trial_s", d_trial)
        tr.record("numtheory.factorize.rho_s", d_rho)
    tr.record("correlation.periodic_autocorr.self_s", d_ac)
    tr.record("numtheory.gcd_many.self_s", d_gcd)
    tr.record("modsearch.find_modulus.self_s", d_fm - d_ac - d_gcd - d_trial - d_rho)

    c = lc.c
    c["correlation.products"] += n * (n // 2 + 1)
    c["modsearch.status." + outcome.status.value] += 1
    c["modsearch.candidates"] += len(outcome.candidates)
    c["modsearch.valid"] += len(outcome.valid_moduli())
    cofactor = outcome.factorization.cofactor
    c["numtheory.factorize.incomplete"] += cofactor != 1
    lc.cofactor_bits_max = max(lc.cofactor_bits_max, cofactor.bit_length() if cofactor != 1 else 0)

    q = outcome.canonical
    if not certify or q is None:
        return outcome, None
    cert, d = tr.call(check_rr, row, q)
    tr.record("verify.check_rr.self_s", d)
    gram_ok, d = tr.call(gram_check, row, q)
    tr.record("verify.gram_check.self_s", d)
    # gram_check documents an int64 path whenever n * (q - 1)**2 < 2**63.
    c["verify.gram_check.exact_calls"] += n * (q - 1) ** 2 >= 2**63
    return outcome, (cert, gram_ok)


def traced_witnesses(n: int, tr, lc: LayerCounts):
    """enumerate_binary_ideal, split by replaying the mask scan and the profiles."""
    witnesses, d_en = tr.call(enumerate_binary_ideal, n)
    masks, d_scan = tr.call(scan_masks, n, replay=True)
    if len(masks) != len(witnesses):
        raise ReplayMismatch(f"scan_masks({n}) found {len(masks)} masks, enumeration {len(witnesses)}")
    d_ac = 0.0
    if n > 1:
        for w in witnesses:
            profile, d = tr.call(periodic_autocorr, w.bits, replay=True)
            d_ac += d
            if tuple(v % 2 for v in profile.values) != w.profile_mod2:
                raise ReplayMismatch(f"mod-2 profile of witness {w.bits} differs from the enumeration")
        lc.c["correlation.products"] += n * (n // 2 + 1) * len(witnesses)
    tr.record("verify.enumerate_binary_ideal.self_s", d_en - d_scan - d_ac)
    tr.record("kernels.scan_masks.self_s", d_scan)
    tr.record("correlation.periodic_autocorr.self_s", d_ac)
    lc.c["verify.witnesses"] += len(witnesses)
    lc.c["kernels.masks"] += 1 << n
    lc.c["kernels.hits"] += len(masks)
    return witnesses


def traced_render(argv: list[str], n: int, bound: int, out: Path, tr, lc: LayerCounts) -> None:
    """In-process cli.main, split from the sweep it renders by calling sweep alone."""
    code, d_main = tr.call(cli.main, argv, replay=True)
    if code != 0:
        raise ReplayMismatch(f"in-process rrseq {' '.join(argv)} exited {code}")
    _, d_sweep = tr.call(sweep, n, bound, replay=True)
    tr.record("cli.render_s", d_main - d_sweep)
    lc.c["cli.bytes_out"] += out.stat().st_size


def warm_up(tr, lc: LayerCounts, tmp: Path) -> None:
    """One small call into every layer, so lazy set-up is done before timing.

    (3, 60) is a row whose gcd needs rho after trial division and whose
    canonical modulus takes gram_check's arbitrary-precision path.
    """
    traced_primes(100, tr)
    for p, n in ((3, 16), (3, 60)):
        traced_search(p, n, tr, lc, certify=True)
    traced_witnesses(8, tr, lc)
    out = tmp / "warm_up.json"
    traced_render(["sweep", "-n", "16", "--primes-up-to", "50", "--format", "json", "--out", str(out)],
                  16, 50, out, tr, lc)


class Workload:
    """Tallies shared by every workload; subclasses define the units."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.rows_factored = 0
        self.rows_complete = 0
        self.statuses: Counter = Counter()

    def _tally(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def complete_frac(self) -> float:
        # A workload that factors nothing leaves no row incomplete.
        return self.rows_complete / self.rows_factored if self.rows_factored else 1.0

    def character(self) -> dict:
        """What this seed's inputs turned out to be."""
        return {
            "inputs": self.describe(),
            "status_counts": dict(self.statuses),
            "incomplete_share": 1.0 - self.complete_frac(),
        }

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def problems(self) -> list[str]:
        """Workload-level checks, run once after the timed passes."""
        return []


class SearchWorkload(Workload):
    """Rows of length n through find_modulus, check_rr and gram_check."""

    def __init__(self, n: int, primes: list[int], block: int, isprime=None, golden=None) -> None:
        super().__init__()
        self.n = n
        self.primes = primes
        self.blocks = [primes[i : i + block] for i in range(0, len(primes), block)]
        self.isprime = isprime
        self.golden = golden or []
        self._golden_primes = {p for p, _ in self.golden}
        self._golden_seen: dict[int, tuple[int, ...]] = {}

    def describe(self) -> str:
        return f"N={self.n}, {len(self.primes)} starting primes {self.primes[0]}..{self.primes[-1]}"

    def units(self):
        return self.blocks

    def rows(self, block) -> int:
        return len(block)

    def run(self, block):
        n = self.n
        out = []
        for p in block:
            try:
                row = build_seed(p, n)
                outcome = find_modulus(row)
                q = outcome.canonical
                out.append((p, outcome, None if q is None else (check_rr(row, q), gram_check(row, q))))
            except Exception as exc:  # noqa: BLE001 - a failing row is counted, not fatal
                out.append((p, exc, None))
        return out

    def trace(self, block, tr, lc: LayerCounts):
        return [(p, *traced_search(p, self.n, tr, lc, certify=True)) for p in block]

    def check(self, block, results) -> None:
        for p, outcome, certs in results:
            if isinstance(outcome, Exception):
                self._tally(False)
                continue
            ok = search_row_ok(outcome, certs)
            if self.isprime is not None:
                ok = ok and factorization_ok(outcome, self.isprime)
            self._tally(ok)
            self.statuses[outcome.status.value] += 1
            self.rows_factored += 1
            self.rows_complete += outcome.factorization.complete
            if p in self._golden_primes:
                self._golden_seen[p] = outcome.valid_moduli()

    def problems(self) -> list[str]:
        if not self.golden:
            return []
        valid = dict(self._golden_seen)
        for p, _ in self.golden:  # golden rows outside this seed's window
            if p not in valid:
                valid[p] = find_modulus(build_seed(p, self.n)).valid_moduli()
        return [] if golden_ok(valid, self.golden) else ["a golden pair is not among the valid candidates"]


def table_n16(seed: int, tr, golden: list[tuple[int, int]]) -> SearchWorkload:
    """9 592 consecutive primes; seed 0 gives exactly the primes <= 10**5."""
    offset = (seed % 64) * 8
    primes = traced_primes(120_000, tr)[offset : offset + 9592]
    return SearchWorkload(16, primes, block=400, golden=golden)


def certify_n128(seed: int, tr, isprime) -> SearchWorkload:
    """2 budget-exhausting rows plus 15 complete ones; seed 0 gives the primes <= 60."""
    complete = [p for p in traced_primes(400, tr) if p not in N128_BUDGET_EXHAUSTING]
    start = seed % 8
    primes = sorted([13, 19] + complete[start : start + 15])
    return SearchWorkload(128, primes, block=1, isprime=isprime)


class WitnessScan(Workload):
    """enumerate_binary_ideal for n = 20..23; the seed picks their order."""

    LENGTHS = (20, 21, 22, 23)

    def __init__(self, seed: int, counts_table: dict[int, int]) -> None:
        super().__init__()
        self.lengths = list(self.LENGTHS)
        if seed:
            random.Random(seed).shuffle(self.lengths)
        self.counts_table = counts_table

    def describe(self) -> str:
        return f"lengths in order {self.lengths}"

    def units(self):
        return self.lengths

    def rows(self, n: int) -> int:
        return 1 << n  # every candidate row is scanned

    def run(self, n: int):
        try:
            return enumerate_binary_ideal(n)
        except Exception as exc:  # noqa: BLE001 - a failing call is counted, not fatal
            return exc

    def trace(self, n: int, tr, lc: LayerCounts):
        return traced_witnesses(n, tr, lc)

    def check(self, n: int, result) -> None:
        self._tally(not isinstance(result, Exception) and witnesses_ok(n, result))

    def problems(self) -> list[str]:
        counts = {n: len(enumerate_binary_ideal(n)) for n in self.counts_table}
        return [] if counts_ok(counts, self.counts_table) else ["witness counts differ from the golden table"]


class CliSweep(Workload):
    """Fresh `rrseq sweep -n 16 --format json` processes, one at a time."""

    N = 16

    def __init__(self, seed: int, tr, tmp: Path) -> None:
        super().__init__()
        self.bound = 100_000 + (seed % 64) * 16
        self.tmp = tmp
        self.out = tmp / "sweep.json"
        self.argv = ["sweep", "-n", str(self.N), "--primes-up-to", str(self.bound), "--format", "json"]
        self.nrows = len(traced_primes(self.bound, tr))
        self.max_child_rss_kb = 0
        self.want = b""

    def describe(self) -> str:
        return f"rrseq sweep -n {self.N} --primes-up-to {self.bound} ({self.nrows} rows)"

    def prepare(self) -> None:
        """Render in process once: the bytes every invocation must reproduce."""
        ref = self.tmp / "sweep_in_process.json"
        if cli.main(self.argv + ["--out", str(ref)]) != 0:
            raise RuntimeError("in-process sweep failed")
        self.want = ref.read_bytes()
        for row in sweep(self.N, self.bound):
            self.statuses[row.outcome.status.value] += 1
            self.rows_factored += 1
            self.rows_complete += row.outcome.factorization.complete

    def units(self):
        return [None]

    def rows(self, _unit) -> int:
        return self.nrows

    def run(self, _unit):
        self.out.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "rrseq.cli", *self.argv, "--out", str(self.out)]
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def trace(self, unit, tr, lc: LayerCounts):
        result, _ = tr.call(self.run, unit)
        out = self.tmp / "sweep_traced.json"
        traced_render(self.argv + ["--out", str(out)], self.N, self.bound, out, tr, lc)
        for p in traced_primes(self.bound, tr, replay=True):
            traced_search(p, self.N, tr, lc, certify=False, replay=True)
        return result

    def check(self, _unit, result) -> None:
        code, rss_kb = result
        self.max_child_rss_kb = max(self.max_child_rss_kb, rss_kb)
        ok = code == 0 and self.out.exists() and same_bytes(self.out.read_bytes(), self.want)
        self._tally(ok)

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_kb / 1024.0
