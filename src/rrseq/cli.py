"""Command-line driver.

Subcommands: seed, autocorr, search, sweep, verify, plotdata.  Output is
CSV (default) or JSON, to stdout or --out, and is byte-identical across
runs for a fixed invocation: rows are emitted in ascending prime order,
integers as exact decimals (JSON carries them as strings to survive
tools that parse numbers as doubles), lines end with "\\n", and nothing
time- or host-dependent is written.

Exit codes: 0 success/Found; 1 negative result (no valid modulus, or
verification failed); 2 usage or domain error; 3 incomplete
factorization; 4 output I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .modsearch import (
    ModulusSearchOutcome,
    SearchStatus,
    SelectionPolicy,
    SweepRow,
    search_prime,
    sweep,
)
from .numtheory import SIEVE_LIMIT, FactorBudget
from .sequence import MAX_LENGTH, ROW_DOUBLING, ROW_KINDS, build_seed, check_length
from .correlation import periodic_autocorr
from .verify import check_rr, gram_check

_STATUS_EXIT = {
    SearchStatus.FOUND: 0,
    SearchStatus.NO_SEQUENCE: 1,
    SearchStatus.NO_VALID_MODULUS: 1,
    SearchStatus.INCOMPLETE_FACTORIZATION: 3,
}

SWEEP_HEADER = (
    "index,start_prime,length,gcd,status,"
    "canonical_modulus,valid_candidates,all_candidates,efficient"
)


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def _join(values) -> str:
    return ";".join(str(v) for v in values)


def _factor_text(outcome: ModulusSearchOutcome) -> str:
    return _join(f"{p}^{e}" for p, e in outcome.factorization.factors)


def _sweep_csv_line(row: SweepRow) -> str:
    o = row.outcome
    canonical = "" if o.canonical is None else str(o.canonical)
    return ",".join(
        (
            str(row.index),
            str(row.start_prime),
            str(row.length),
            str(o.gcd_value),
            o.status.value,
            canonical,
            _join(o.valid_moduli()),
            _join(o.all_moduli()),
            _bool_text(row.efficient),
        )
    )


def _sweep_json_obj(row: SweepRow) -> dict:
    o = row.outcome
    return {
        "index": row.index,
        "start_prime": str(row.start_prime),
        "length": row.length,
        "gcd": str(o.gcd_value),
        "status": o.status.value,
        "canonical_modulus": None if o.canonical is None else str(o.canonical),
        "valid_candidates": [str(q) for q in o.valid_moduli()],
        "all_candidates": [str(q) for q in o.all_moduli()],
        "efficient": row.efficient,
    }


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, out: Path | None) -> int:
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 4
    return 0


def _budget(args: argparse.Namespace) -> FactorBudget:
    return FactorBudget(trial_bound=args.trial_bound)


def _policy(args: argparse.Namespace) -> SelectionPolicy:
    return SelectionPolicy(args.policy)


def _cmd_seed(args: argparse.Namespace) -> tuple[int, str]:
    elems = build_seed(args.prime, args.length, args.row)
    if args.format == "json":
        return 0, _json_text([str(e) for e in elems])
    return 0, ",".join(str(e) for e in elems) + "\n"


def _parse_seq(text: str) -> tuple[int, ...]:
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if len(tokens) > MAX_LENGTH:
        check_length(len(tokens))  # refused before any entry is converted
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise ValueError(f"cannot parse sequence {text!r}; expected comma-separated integers")


def _cmd_autocorr(args: argparse.Namespace) -> tuple[int, str]:
    if (args.seq is None) == (args.prime is None or args.length is None):
        raise ValueError("give either --seq or both -p and -n")
    if args.seq is not None:
        elems = _parse_seq(args.seq)
    else:
        elems = build_seed(args.prime, args.length, args.row)
    values = periodic_autocorr(elems).values
    if args.format == "json":
        return 0, _json_text([str(v) for v in values])
    return 0, ",".join(str(v) for v in values) + "\n"


def _cmd_search(args: argparse.Namespace) -> tuple[int, str]:
    outcome = search_prime(
        args.prime, args.length, _policy(args), _budget(args), args.row
    )
    code = _STATUS_EXIT[outcome.status]
    canonical = outcome.canonical
    efficient = canonical is not None and canonical <= args.length
    if args.format == "json":
        payload = {
            "start_prime": str(args.prime),
            "length": args.length,
            "row": args.row,
            "gcd": str(outcome.gcd_value),
            "factors": [
                {"prime": str(p), "exp": e} for p, e in outcome.factorization.factors
            ],
            "cofactor": str(outcome.factorization.cofactor),
            "status": outcome.status.value,
            "canonical_modulus": None if canonical is None else str(canonical),
            "candidates": [
                {"q": str(c.q), "peak_residue": str(c.peak_residue), "valid": c.valid}
                for c in outcome.candidates
            ],
            "efficient": efficient,
        }
        return code, _json_text(payload)
    header = (
        "start_prime,length,gcd,factorization,cofactor,status,"
        "canonical_modulus,valid_candidates,all_candidates,efficient"
    )
    line = ",".join(
        (
            str(args.prime),
            str(args.length),
            str(outcome.gcd_value),
            _factor_text(outcome),
            str(outcome.factorization.cofactor),
            outcome.status.value,
            "" if canonical is None else str(canonical),
            _join(outcome.valid_moduli()),
            _join(outcome.all_moduli()),
            _bool_text(efficient),
        )
    )
    return code, header + "\n" + line + "\n"


def _cmd_sweep(args: argparse.Namespace) -> tuple[int, str]:
    rows = sweep(args.length, args.primes_up_to, _policy(args), _budget(args), args.row)
    if args.format == "json":
        return 0, _json_text([_sweep_json_obj(r) for r in rows])
    lines = [SWEEP_HEADER] + [_sweep_csv_line(r) for r in rows]
    return 0, "\n".join(lines) + "\n"


def _cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    elems = build_seed(args.prime, args.length, args.row)
    cert = check_rr(elems, args.modulus)
    gram_ok = gram_check(elems, args.modulus)
    ok = cert.verified and gram_ok
    if args.format == "json":
        payload = {
            "start_prime": str(args.prime),
            "length": args.length,
            "row": args.row,
            "modulus": str(args.modulus),
            "peak": str(cert.peak),
            "offpeak_ok": cert.offpeak_ok,
            "verified": cert.verified,
            "gram_ok": gram_ok,
            "residues": [str(r) for r in cert.residues],
        }
        return (0 if ok else 1), _json_text(payload)
    header = "start_prime,length,modulus,peak,offpeak_ok,verified,gram_ok"
    line = ",".join(
        (
            str(args.prime),
            str(args.length),
            str(args.modulus),
            str(cert.peak),
            _bool_text(cert.offpeak_ok),
            _bool_text(cert.verified),
            _bool_text(gram_ok),
        )
    )
    return (0 if ok else 1), header + "\n" + line + "\n"


def _cmd_plotdata(args: argparse.Namespace) -> tuple[int, str]:
    policy = _policy(args)
    if policy is SelectionPolicy.ALL:
        raise ValueError("plotdata needs a single canonical modulus per prime; use --policy smallest or largest")
    rows = sweep(args.length, args.primes_up_to, policy, _budget(args), args.row)
    found = [r for r in rows if r.outcome.canonical is not None]
    if args.format == "json":
        payload = [
            {"start_prime": str(r.start_prime), "canonical_modulus": str(r.outcome.canonical)}
            for r in found
        ]
        return 0, _json_text(payload)
    lines = ["start_prime,canonical_modulus"] + [
        f"{r.start_prime},{r.outcome.canonical}" for r in found
    ]
    return 0, "\n".join(lines) + "\n"


_PRIMES_UP_TO_HELP = f"search every starting prime up to B, at most {SIEVE_LIMIT}"
_LENGTH_HELP = f"row length N, 2 <= N <= {MAX_LENGTH}"


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    common.add_argument("--out", type=Path, default=None, help="write output to this path")
    common.add_argument(
        "--policy",
        choices=tuple(p.value for p in SelectionPolicy),
        default=SelectionPolicy.LARGEST.value,
        help="how to pick the canonical modulus from the valid candidates",
    )
    common.add_argument(
        "--trial-bound",
        type=int,
        default=10**6,
        metavar="B",
        help="trial-division bound for the factorization stage, at most "
        f"{SIEVE_LIMIT} (trial division sieves its primes up to B)",
    )
    common.add_argument(
        "--row",
        choices=ROW_KINDS,
        default=ROW_DOUBLING,
        help="seed row construction",
    )

    parser = argparse.ArgumentParser(
        prog="rrseq",
        description="Random residue sequences: seed rows, exact periodic "
        "autocorrelation, prime modulus search, and certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seed = sub.add_parser("seed", parents=[common], help="print a seed row")
    p_seed.add_argument("-p", "--prime", type=int, required=True)
    p_seed.add_argument("-n", "--length", type=int, required=True, help=_LENGTH_HELP)
    p_seed.set_defaults(func=_cmd_seed)

    p_auto = sub.add_parser(
        "autocorr", parents=[common], help="exact periodic autocorrelation profile"
    )
    p_auto.add_argument("-p", "--prime", type=int)
    p_auto.add_argument("-n", "--length", type=int, help=_LENGTH_HELP)
    p_auto.add_argument(
        "--seq", help=f"explicit comma-separated row instead of -p/-n, at most {MAX_LENGTH} entries"
    )
    p_auto.set_defaults(func=_cmd_autocorr)

    p_search = sub.add_parser(
        "search", parents=[common], help="find prime moduli for one starting prime"
    )
    p_search.add_argument("-p", "--prime", type=int, required=True)
    p_search.add_argument("-n", "--length", type=int, required=True, help=_LENGTH_HELP)
    p_search.set_defaults(func=_cmd_search)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="search every starting prime up to a bound"
    )
    p_sweep.add_argument("-n", "--length", type=int, required=True, help=_LENGTH_HELP)
    p_sweep.add_argument("--primes-up-to", type=int, default=100, metavar="B", help=_PRIMES_UP_TO_HELP)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="certify the two-valued property"
    )
    p_verify.add_argument("-p", "--prime", type=int, required=True)
    p_verify.add_argument("-n", "--length", type=int, required=True, help=_LENGTH_HELP)
    p_verify.add_argument("-m", "--modulus", type=int, required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_plot = sub.add_parser(
        "plotdata", parents=[common], help="(starting prime, modulus) pairs for Found rows"
    )
    p_plot.add_argument("-n", "--length", type=int, required=True, help=_LENGTH_HELP)
    p_plot.add_argument("--primes-up-to", type=int, default=100, metavar="B", help=_PRIMES_UP_TO_HELP)
    p_plot.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, text = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit_code = _emit(text, args.out)
    return emit_code if emit_code else code


if __name__ == "__main__":
    sys.exit(main())
