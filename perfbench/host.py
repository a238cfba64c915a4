"""Drift calibration and the host cleanliness guard.

The host's effective speed drifts from run to run (shared cores, other
tenants), and neither CPU time nor longer runs remove that drift.  So
every timed unit is bracketed by a fixed-work reference slice, and its
raw time is rescaled to what it would have taken on a host running the
slice in its nominal time:

    calibrated = raw * nominal / mean(slice before, slice after)

The slice is benchmark code, never rrseq code, so a change to rrseq
cannot move it.  It has a part for each kind of work the workloads do:
a pure-Python loop of ~128-bit multiply-mod with small-tuple allocation,
and a numpy popcount/bitwise pass over an array larger than L2.
"""

from __future__ import annotations

import os
import resource
import statistics
import time

import numpy as np

_MULMOD_MODULUS = (1 << 127) - 1
_MULMOD_ITERS = 20_000
_ARRAY_WORDS = 1 << 20  # 8 MiB of uint64, larger than the L2 of common x86 parts
_POPCOUNT_SHIFTS = (1, 13)
_SECONDS_PER_SLICE = 0.1  # one slice after each 0.1 s of unit, up to
_MAX_SLICES = 25


class DirtyHostError(RuntimeError):
    """The process is not in the state the reference slice assumes."""


def assert_clean() -> None:
    """Fail unless this process has one thread and no child process.

    Background work (a thread, or a child left running) would slow the
    reference slice and so flatter every calibrated time after it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
                break
        else:
            raise DirtyHostError("cannot read the thread count")
    if threads != 1:
        raise DirtyHostError(f"process has {threads} threads, expected 1")
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise DirtyHostError("a child process is still running" if pid == 0 else f"child {pid} was never waited for")


class Calibrator:
    """Runs timed units between reference slices and rescales their times.

    The slice has two parts, timed separately: the multiply-mod loop
    tracks interpreter-bound work, the popcount pass memory-bound numpy
    work.  A unit's scale blends the two parts' speed ratios, giving the
    popcount part the weight that suits the work being timed (0 for pure
    interpreter work).
    """

    def __init__(self, nominal_mulmod_s: float, nominal_popcount_s: float) -> None:
        if nominal_mulmod_s <= 0 or nominal_popcount_s <= 0:
            raise ValueError("nominal slice times must be positive")
        self.nominal = (nominal_mulmod_s, nominal_popcount_s)
        self.slices: list[tuple[float, float]] = []
        self._array = np.arange(_ARRAY_WORDS, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        self._last = self._slice()

    def _slice(self) -> tuple[float, float]:
        assert_clean()
        t0 = time.perf_counter()
        x, acc = 3, 0
        for i in range(_MULMOD_ITERS):
            x = (x * x + i) % _MULMOD_MODULUS
            pair = (x & 0xFFFF, i)
            acc ^= pair[0]
        t1 = time.perf_counter()
        a = self._array
        for k in _POPCOUNT_SHIFTS:
            acc ^= int(np.bitwise_count(a ^ (a >> np.uint64(k))).sum())
        t2 = time.perf_counter()
        self.slices.append((t1 - t0, t2 - t1))
        return t1 - t0, t2 - t1

    def _slices_after(self, raw: float) -> tuple[float, float]:
        # A long unit averages the host's speed over its whole length, stalls
        # included; so does the mean of several slices after it, where a
        # single 20 ms slice would not.
        k = min(_MAX_SLICES, max(1, round(raw / _SECONDS_PER_SLICE)))
        parts = [self._slice() for _ in range(k)]
        return sum(p[0] for p in parts) / k, sum(p[1] for p in parts) / k

    def measure(self, fn, *args, popcount_weight: float = 0.0):
        """Call fn(*args) once between slices.

        Returns (result, raw seconds, scale): the calibrated time of any
        interval inside the call is its raw time times scale.
        """
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        before, after = self._last, self._slices_after(raw)
        self._last = after
        self.last_bracket = (before, after)
        ratios = [n / ((b + a) / 2) for n, b, a in zip(self.nominal, before, after)]
        return result, raw, (1.0 - popcount_weight) * ratios[0] + popcount_weight * ratios[1]


def steal_ticks() -> int:
    """Cumulative steal ticks of the whole host, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def involuntary_switches() -> int:
    """Involuntary context switches of this process and its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_nivcsw


class HostRecord:
    """Counters taken at the start and end of a run."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._steal0 = steal_ticks()
        self._nivcsw0 = involuntary_switches()
        self.load_start = os.getloadavg()

    def summary(self, cal: Calibrator) -> dict:
        slices_ms = sorted(1000 * (a + b) for a, b in cal.slices)
        return {
            "raw_wall_s": time.perf_counter() - self._t0,
            "steal_ticks": steal_ticks() - self._steal0,
            "nivcsw": involuntary_switches() - self._nivcsw0,
            "load_start": self.load_start,
            "load_end": os.getloadavg(),
            "ref_slices": len(slices_ms),
            "ref_slice_ms_min": slices_ms[0],
            "ref_slice_ms_median": statistics.median(slices_ms),
            "ref_slice_ms_max": slices_ms[-1],
        }
