"""Benchmark of the rrseq search -> certify pipeline, in calibrated seconds.

Run from the root of a source checkout:

    python3 perfbench/run.py --nominal-mulmod-ms 10 --nominal-popcount-ms 8 \\
        --workload table-n16 --seed 0 --seconds 20 --trace 0

It imports rrseq from ./src (never from an installed copy), times one
workload in this fresh single-threaded process, checks every result
outside the timed regions, prints one line of diagnostics and then, as
its last line, one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, taken from
a traced pass.  See perfbench/README.md for what each one means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
WORKLOADS = ("table-n16", "certify-n128", "witness-scan", "cli-sweep")
COLD_STARTS = 11

# Weight of the popcount part of the reference slice against the
# multiply-mod part when calibrating each workload (see host.py): the
# blend under which calibrated unit times varied least on a 2-vCPU VM.
# Interpreter-bound work follows the multiply-mod part; scan_masks' array
# passes, and fresh processes paging in numpy, follow both.
POPCOUNT_WEIGHT = {"table-n16": 0.0, "certify-n128": 0.0, "witness-scan": 0.5, "cli-sweep": 0.5}
SETUP_POPCOUNT_WEIGHT = 0.75

# A fresh interpreter: spawn, import rrseq, one warm-up call.  It prints
# its own clock readings; perf_counter is CLOCK_MONOTONIC, shared by all
# processes on the host.
COLD_START = (
    "import time; t0 = time.perf_counter(); import rrseq; t1 = time.perf_counter(); "
    "rrseq.find_modulus(rrseq.build_seed(3, 16)); t2 = time.perf_counter(); "
    "print(t0, t1, t2, rrseq.__file__)"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--nominal-mulmod-ms", type=float, required=True,
                    help="multiply-mod part of the reference slice on the nominal host")
    ap.add_argument("--nominal-popcount-ms", type=float, required=True,
                    help="popcount part of the reference slice on the nominal host")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0, help="picks the input window; 0 is the documented default")
    ap.add_argument("--seconds", type=float, required=True, help="time budget of the timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def source_missing() -> str | None:
    for path in (SRC / "rrseq" / "__init__.py", DATA / "reference_pairs_len16.csv",
                 DATA / "binary_witness_counts.csv", ROOT / "BENCHMARK.json"):
        if not path.is_file():
            return str(path.relative_to(ROOT))
    return None


def current_cpu() -> int:
    with open("/proc/self/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def pin_environment() -> None:
    """One CPU, single-threaded numpy, and rrseq from ./src, here and in every child.

    The slices measure the speed of the CPU they run on; pinning keeps the
    timed work, and every child it spawns, on that same CPU.
    """
    os.sched_setaffinity(0, {current_cpu()})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def cold_start() -> tuple[float, float, float]:
    """Spawn, import and ready times of one fresh interpreter, in raw seconds."""
    t = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", COLD_START], stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, check=True).stdout.split()
    t0, t1, t2 = (float(v) for v in out[:3])
    if not Path(out[3]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"child imported rrseq from {out[3]}, not from {SRC}")
    return t0 - t, t1 - t0, t2 - t


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(s) * (1 - q / 100) >= 10:
            return {"percentile": q, "value_ms": s[math.ceil(q / 100 * len(s)) - 1], "samples": len(s)}
    return None


class Run:
    """One benchmark run: set-up, inputs, warm-up, passes, checks."""

    def __init__(self, args, tmp: Path) -> None:
        # Imported only now: numpy must not load before pin_environment ran.
        from host import Calibrator, HostRecord
        from tracing import Tracer
        import workloads

        self.args = args
        self.tmp = tmp
        self.host = HostRecord()
        self.cal = Calibrator(args.nominal_mulmod_ms / 1000.0, args.nominal_popcount_ms / 1000.0)
        self.popcount_weight = POPCOUNT_WEIGHT[args.workload]
        self.tr = Tracer()
        self.lc = workloads.LayerCounts()
        self.layer_s: dict[str, float] = defaultdict(float)  # calibrated seconds per layer metric
        self.span_s = self.replay_s = self.traced_s = 0.0  # calibrated, over traced units
        self.w = workloads

    def measure(self, fn, *args, traced: bool = False):
        """Time one unit; when traced, charge its spans at the unit's scale."""
        result, raw, scale = self.cal.measure(fn, *args, popcount_weight=self.popcount_weight)
        layers, span, replay = self.tr.drain()
        if traced:
            for name, sec in layers.items():
                self.layer_s[name] += sec * scale
            self.span_s += span * scale
            self.replay_s += replay * scale
            self.traced_s += raw * scale
        return result, raw, scale

    def setup(self) -> dict:
        cold_start()  # first start after a checkout writes the bytecode caches
        spawn, imp, ready = [], [], []
        for _ in range(COLD_STARTS):
            (s, i, r), _, scale = self.cal.measure(cold_start, popcount_weight=SETUP_POPCOUNT_WEIGHT)
            spawn.append(s * scale)
            imp.append(i * scale)
            ready.append(r * scale)
        return {"spawn": spawn, "import": imp, "ready": ready}

    def make_workload(self, checks):
        a, w, tr = self.args, self.w, self.tr
        if a.workload == "table-n16":
            return w.table_n16(a.seed, tr, checks.read_pairs(DATA / "reference_pairs_len16.csv"))
        if a.workload == "certify-n128":
            from sympy import isprime  # the benchmark's own primality oracle; rrseq never imports sympy

            return w.certify_n128(a.seed, tr, isprime)
        if a.workload == "witness-scan":
            return w.WitnessScan(a.seed, checks.read_counts(DATA / "binary_witness_counts.csv"))
        return w.CliSweep(a.seed, tr, self.tmp)

    def passes(self, wl, budget_s: float, traced: bool = False) -> list[dict]:
        """Closed-loop passes over the workload's units until budget_s is spent.

        A pass starts while time is left, so there is always at least one
        and the last may overrun.  A traced run makes exactly one.
        """
        out = []
        t_start = time.perf_counter()
        while True:
            p = {"raw_s": 0.0, "cal_s": 0.0, "replay_cal_s": 0.0, "rows": 0, "row_ms": [], "units": []}
            for unit in wl.units():
                replay0 = self.replay_s
                if traced:
                    res, raw, scale = self.measure(wl.trace, unit, self.tr, self.lc, traced=True)
                else:
                    res, raw, scale = self.measure(wl.run, unit)
                rows = wl.rows(unit)
                p["raw_s"] += raw
                p["cal_s"] += raw * scale
                p["replay_cal_s"] += self.replay_s - replay0
                p["rows"] += rows
                p["row_ms"].append(1000.0 * raw * scale / rows)
                p["units"].append((raw, scale, *self.cal.last_bracket))
                wl.check(unit, res)
            out.append(p)
            if traced or time.perf_counter() - t_start >= budget_s:
                return out

    def execute(self) -> tuple[dict, dict, dict]:
        import checks

        a = self.args
        cold = self.setup()
        wl, _, _ = self.measure(self.make_workload, checks, traced=a.trace == 1)
        if isinstance(wl, self.w.CliSweep):
            wl.prepare()
        self.measure(self.w.warm_up, self.tr, self.lc, self.tmp, traced=a.trace == 1)

        t0 = time.perf_counter()
        traced = self.passes(wl, a.seconds, traced=True) if a.trace else []
        plain = self.passes(wl, max(0.0, a.seconds - (time.perf_counter() - t0)))
        rss_mb = wl.peak_rss_mb()

        problems = list(wl.problems())
        isprime = getattr(wl, "isprime", None)
        if isprime is None:
            from sympy import isprime
        bad = checks.self_check(isprime, checks.read_pairs(DATA / "reference_pairs_len16.csv"),
                                checks.read_counts(DATA / "binary_witness_counts.csv"))
        problems += [f"self-check: {name} did not reject its corrupted result" for name in bad]
        if wl.failed:
            problems.append(f"{wl.failed} of {wl.attempted} units failed their checks")

        host = self.host.summary(self.cal)
        values = {
            "setup_s": statistics.median(cold["ready"]),
            "wall_s": statistics.median(p["cal_s"] for p in plain),
            "rows_per_s": statistics.median(p["rows"] / p["cal_s"] for p in plain),
            "row_p50_ms": statistics.median(statistics.median(p["row_ms"]) for p in plain),
            "complete_frac": wl.complete_frac(),
            "certified_frac": (wl.attempted - wl.failed) / wl.attempted,
            "peak_rss_mb": rss_mb,
        }
        if a.trace:
            values = self.layer_values(cold, traced[0], plain, host)
        diag = {
            "workload": a.workload,
            "seed": a.seed,
            "character": wl.character(),
            "problems": problems,
            "passes": len(plain),
            "pass_raw_s": [p["raw_s"] for p in plain],
            "pass_cal_s": [p["cal_s"] for p in plain],
            # per unit: raw s, scale, slice before and after (multiply-mod s, popcount s)
            "units": [p["units"] for p in plain],
            "setup_cal_s": cold["ready"],
            "row_tail": tail([ms for p in plain for ms in p["row_ms"]]),
            "host": host,
        }
        if a.trace:
            diag["trace"] = {
                "traced_cal_s": self.traced_s,
                "layer_self_cal_s": dict(self.layer_s),
                "span_cal_s": self.span_s,
                "replay_cal_s": self.replay_s,
                "glue_cal_s": self.traced_s - self.span_s,
            }
        status = {"correct": not problems, "attempted": wl.attempted, "failed": wl.failed}
        return status, values, diag

    def layer_values(self, cold: dict, traced: dict, plain: list[dict], host: dict) -> dict:
        c, ls = self.lc.c, self.layer_s
        time_metrics = (
            "sequence.build_seed.self_s", "correlation.periodic_autocorr.self_s",
            "numtheory.primes_up_to.self_s", "numtheory.gcd_many.self_s",
            "numtheory.factorize.trial_s", "numtheory.factorize.rho_s",
            "modsearch.find_modulus.self_s", "verify.check_rr.self_s", "verify.gram_check.self_s",
            "verify.enumerate_binary_ideal.self_s", "kernels.scan_masks.self_s", "cli.render_s",
        )
        untraced_s = statistics.median(p["cal_s"] for p in plain)
        values = {name: ls.get(name, 0.0) for name in time_metrics}
        values.update({
            "correlation.products": c["correlation.products"],
            "numtheory.factorize.incomplete": c["numtheory.factorize.incomplete"],
            "numtheory.cofactor_bits_max": self.lc.cofactor_bits_max,
            "modsearch.valid_frac": c["modsearch.valid"] / c["modsearch.candidates"],
            "verify.gram_check.exact_calls": c["verify.gram_check.exact_calls"],
            "verify.witnesses": c["verify.witnesses"],
            "kernels.hit_frac": c["kernels.hits"] / c["kernels.masks"],
            "cli.spawn_s": statistics.median(cold["spawn"]),
            "cli.import_s": statistics.median(cold["import"]),
            "cli.bytes_out": c["cli.bytes_out"],
            "host.ref_slice_ms": host["ref_slice_ms_median"],
            "host.raw_wall_s": statistics.median(p["raw_s"] for p in plain),
            "host.steal_ticks": host["steal_ticks"],
            "host.nivcsw": host["nivcsw"],
            "trace.overhead_frac": (traced["cal_s"] - traced["replay_cal_s"]) / untraced_s - 1.0,
            "trace.glue_frac": (self.traced_s - self.span_s) / self.traced_s,
        })
        for status in self.w.STATUSES:
            values["modsearch.status." + status] = c["modsearch.status." + status]
        return values


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = source_missing()
    if missing:
        print(f"error: {missing} not found; run from the root of an rrseq source checkout", file=sys.stderr)
        return 2
    pin_environment()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        status, values, diag = Run(args, tmp).execute()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json")
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps({**status, "metrics": {k: {"value": values[k], "unit": u} for k, u in declared.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
