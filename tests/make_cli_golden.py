"""Write tests/data/cli_golden.json: the reference CLI output that
tests/test_cli_golden.py compares against.

Run it against the commit whose output is the reference:

    PYTHONPATH=src python tests/make_cli_golden.py

Each record holds an argv, its exit code and its stdout, in full when
short and as a sha256 digest otherwise.  The matrix is every subcommand
in csv and json, both row kinds, and for the subcommands that take
--policy every policy, at N = 2, 3, 15, 16 and 24, plus `verify` at
N = 128 with the 61-bit modulus 2**61 - 1.  `search` and `sweep` also
run at N = 16, 24 and 64 under the trial bounds 5 (the smallest that
tries a prime past 3), 1000, 2**14 + 1 and the default 10**6.  Last
comes `sweep -n 16 --primes-up-to 100000` in csv and json, the 9592-row
table that `rrseq sweep` is benchmarked on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from rrseq.cli import main
from rrseq.modsearch import find_modulus
from rrseq.sequence import ROW_KINDS, build_seed

OUT = Path(__file__).parent / "data" / "cli_golden.json"
LENGTHS = (2, 3, 15, 16, 24)
POLICIES = ("smallest", "largest", "all")
FORMATS = ("csv", "json")
PRIME = 3
PRIMES_UP_TO = "30"
# stdout longer than this is stored as its sha256 digest.
INLINE_LIMIT = 256
BOUND_LENGTHS = (16, 24, 64)
TRIAL_BOUNDS = (5, 1000, 16385, 10**6)
# The benchmark's sweep: every starting prime up to 10**5 at N = 16.
FULL_SWEEP = ["sweep", "-n", "16", "--primes-up-to", "100000"]


def _verify_modulus(n: int, row: str) -> int:
    """A modulus worth certifying: the row's largest valid candidate, else
    its largest candidate (a failing certificate), else 7."""
    outcome = find_modulus(build_seed(PRIME, n, row))
    return max(outcome.valid_moduli() or tuple(q for q, _ in outcome.candidates) or (7,))


def invocations() -> list[list[str]]:
    calls = []
    for n in LENGTHS:
        for row in ROW_KINDS:
            seq = ",".join(map(str, build_seed(PRIME, n, row)))
            m = str(_verify_modulus(n, row))
            for fmt in FORMATS:
                tail = ["--format", fmt]
                calls.append(["seed", "-p", str(PRIME), "-n", str(n), "--row", row] + tail)
                calls.append(["autocorr", "-p", str(PRIME), "-n", str(n), "--row", row] + tail)
                calls.append(["autocorr", "--seq", seq] + tail)
                calls.append(["verify", "-p", str(PRIME), "-n", str(n), "-m", m, "--row", row] + tail)
                for policy in POLICIES:
                    opts = ["--row", row, "--policy", policy] + tail
                    calls.append(["search", "-p", str(PRIME), "-n", str(n)] + opts)
                    calls.append(["sweep", "-n", str(n), "--primes-up-to", PRIMES_UP_TO] + opts)
                    calls.append(["plotdata", "-n", str(n), "--primes-up-to", PRIMES_UP_TO] + opts)
    for row in ROW_KINDS:
        for fmt in FORMATS:
            calls.append(
                ["verify", "-p", str(PRIME), "-n", "128", "-m", str(2**61 - 1), "--row", row, "--format", fmt]
            )
    for n in BOUND_LENGTHS:
        for bound in TRIAL_BOUNDS:
            for fmt in FORMATS:
                tail = ["--trial-bound", str(bound), "--format", fmt]
                calls.append(["search", "-p", str(PRIME), "-n", str(n)] + tail)
                calls.append(["sweep", "-n", str(n), "--primes-up-to", PRIMES_UP_TO] + tail)
    for fmt in FORMATS:
        calls.append(FULL_SWEEP + ["--format", fmt])
    return calls


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def record(argv: list[str]) -> dict:
    code, out = run(argv)
    rec = {"argv": argv, "exit": code}
    if len(out) <= INLINE_LIMIT:
        rec["stdout"] = out
    else:
        rec["stdout_sha256"] = hashlib.sha256(out.encode()).hexdigest()
    return rec


if __name__ == "__main__":
    records = [record(argv) for argv in invocations()]
    OUT.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {OUT}")
