"""Spans recorded by the benchmark around its own calls into rrseq.

Every span is a call into one public rrseq function, made by the
benchmark's own code; rrseq itself is not instrumented.  A call whose
children cannot be seen from outside is split by replaying the children
on the same input right after it (a replay span), so

    self time of the parent = parent span - replayed children spans.

Spans and the layer times derived from them are drained once per timed
unit, so they can be rescaled by that unit's calibration.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self._layer_s: dict[str, float] = defaultdict(float)
        self._span_s = 0.0
        self._replay_s = 0.0

    def call(self, fn, *args, replay: bool = False):
        """Call fn(*args) inside a span; return (result, span seconds).

        replay marks a call the untraced run does not make: work the trace
        adds to split a layer from outside, not part of the workload.
        """
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        self._span_s += dt
        if replay:
            self._replay_s += dt
        return out, dt

    def record(self, metric: str, seconds: float) -> None:
        """Charge raw seconds to a per-layer time metric."""
        self._layer_s[metric] += seconds

    def drain(self) -> tuple[dict[str, float], float, float]:
        """Layer seconds, span seconds and replay seconds since the last drain."""
        out = (dict(self._layer_s), self._span_s, self._replay_s)
        self._layer_s.clear()
        self._span_s = self._replay_s = 0.0
        return out
