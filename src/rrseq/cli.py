"""Command-line driver.

Subcommands: seed, autocorr, search, sweep, verify, plotdata.  Each takes
--format, --out and --row (autocorr only with -p/-n, not with --seq);
search, sweep and plotdata, which factor, also take --policy and
--trial-bound.

Each subcommand checks its arguments, then returns an exit code and its
records, dicts (or, for seed and autocorr, a bare value list) holding
only JSON-typed values.  sweep and plotdata return their records as a
lazy iterator, one per row, made only as it is read, straight from the
plain tuples of the search core (`modsearch._sweep_rows`): no
Factorization, ModulusSearchOutcome or SweepRow is built for a row.
`_render` alone turns the records into pieces of CSV (default) or JSON
text, and `_emit` writes each piece to stdout or --out as it comes, so a
sweep holds one row at a time, not the whole table.  Output is
byte-identical across runs for a fixed invocation: rows are emitted in
ascending prime order, integers as exact decimals (JSON carries them as
strings to survive tools that parse numbers as doubles), lines end with
"\\n", and nothing time- or host-dependent is written.

Exit codes: 0 success/Found; 1 negative result (no valid modulus, or
verification failed); 2 usage or domain error, before any output is
written; 3 incomplete factorization; 4 output I/O error, on stdout or
--out, after which the output may hold a prefix of the text.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from pathlib import Path
from typing import Iterable, Iterator

from .modsearch import SearchStatus, SelectionPolicy, _sweep_rows, find_modulus
from .numtheory import DEFAULT_BUDGET, SIEVE_LIMIT, FactorBudget
from .sequence import MAX_LENGTH, ROW_DOUBLING, ROW_KINDS, build_seed, check_length
from .correlation import periodic_autocorr
from .verify import check_rr, gram_check

_STATUS_EXIT = {
    SearchStatus.FOUND: 0,
    SearchStatus.NO_SEQUENCE: 1,
    SearchStatus.NO_VALID_MODULUS: 1,
    SearchStatus.INCOMPLETE_FACTORIZATION: 3,
}

_SWEEP_FIELDS = (
    "index", "start_prime", "length", "gcd", "status",
    "canonical_modulus", "valid_candidates", "all_candidates", "efficient",
)
_SEARCH_FIELDS = (
    "start_prime", "length", "gcd", "factorization", "cofactor", "status",
    "canonical_modulus", "valid_candidates", "all_candidates", "efficient",
)
_SEARCH_KEYS = (
    "start_prime", "length", "row", "gcd", "factors", "cofactor", "status",
    "canonical_modulus", "candidates", "efficient",
)
_VERIFY_FIELDS = ("start_prime", "length", "modulus", "peak", "offpeak_ok", "verified", "gram_ok")
_PLOT_FIELDS = ("start_prime", "canonical_modulus")


def _cell(value) -> str:
    """One CSV cell: true/false for a bool, empty for None, a list of
    strings joined with ';'."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(value)
    return str(value)


_escape = json.encoder.encode_basestring_ascii


def _json(value, pad: str) -> str:
    """json.dumps(value, indent=2) with every line after the first
    indented by pad, for the types records hold: dicts with str keys,
    lists, str, int, bool and None.  Any other type raises TypeError.

    json.dumps with an indent always runs the stdlib's pure-Python
    encoder; this writes the same text with the C string escaper it
    uses.  The str, int, bool and None items of a dict or list are
    written inline, in one loop with a bare scalar, and only a nested
    dict or list takes a recursive call.  A bool is tested before any
    int, since a bool is an int.
    """
    t = type(value)
    inner = pad + "  "
    items = []
    for v in value.values() if t is dict else value if t is list else (value,):
        u = type(v)
        if u is str:
            items.append(_escape(v))
        elif u is bool:
            items.append("true" if v else "false")
        elif u is int:
            items.append(int.__repr__(v))
        elif v is None:
            items.append("null")
        elif u is dict or u is list:
            items.append(_json(v, inner))
        elif isinstance(v, int):
            items.append(int.__repr__(v))
        else:
            raise TypeError(f"cannot write {u.__name__} as JSON")
    if t is dict:
        if not value:
            return "{}"
        items = [_escape(k) + ": " + item for k, item in zip(value, items)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if t is list:
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]" if value else "[]"
    return items[0]


def _render(records, fmt: str, fields: tuple[str, ...] | None, keys: tuple[str, ...] | None) -> Iterator[str]:
    """The text of a subcommand's records in the chosen format, in pieces.

    A single record (a dict) or a bare value list (seed, autocorr) is one
    piece.  Any other records are an iterable that sweep and plotdata
    fill lazily, one record per row; it is read once, each record
    becoming a piece as it comes, so no more than one record is held.

    JSON writes the records as they are, or, when keys is given, the one
    record cut down to those keys in that order; a lazy iterable is
    written as a list, the same text as json.dumps(list(records),
    indent=2).  CSV writes a bare value list (fields None) as one line;
    otherwise a header of the fields, then one line per record, or for a
    single dict its one line.
    """
    if fmt == "json":
        if keys is not None:
            records = {k: records[k] for k in keys}
        if isinstance(records, (dict, list)):
            yield _json(records, "") + "\n"
            return
        sep = "[\n  "  # before the first record; ",\n  " before each later one
        for rec in records:
            yield sep + _json(rec, "  ")
            sep = ",\n  "
        yield "[]\n" if sep == "[\n  " else "\n]\n"
        return
    if fields is None:
        yield ",".join(records) + "\n"
        return
    yield ",".join(fields) + "\n"
    for rec in [records] if isinstance(records, dict) else records:
        yield ",".join([_cell(rec[f]) for f in fields]) + "\n"


def _drop_stdout() -> None:
    """Point the stdout file descriptor at os.devnull, so that the flush at
    interpreter exit writes what is left in its buffer there instead of
    failing again (the recipe in the `signal` module docs)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, io.UnsupportedOperation):
        return  # not backed by a file descriptor
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _emit(pieces: Iterable[str], out: Path | None) -> int:
    """Write the pieces as they come, to sys.stdout or to out; 0, or 4 on
    an I/O error.

    sys.stdout is looked up at write time, so a redirected stdout gets
    the text.  out is opened only here, after the subcommand has checked
    its arguments, so a run that exits 2 creates no file.  On exit 4 the
    output may hold a prefix of the text: rows are written as they are
    made.  A failed stdout (a full disk, or a closed pipe such as
    `| head -1`) is pointed at os.devnull, so nothing more is reported.
    """
    if out is None:
        try:
            for piece in pieces:
                sys.stdout.write(piece)
            sys.stdout.flush()
        except OSError as exc:
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
            _drop_stdout()
            return 4
        return 0
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            for piece in pieces:
                fh.write(piece)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 4
    return 0


def _factoring(args: argparse.Namespace) -> tuple[SelectionPolicy, FactorBudget]:
    """The selection policy and factoring budget of search, sweep or plotdata."""
    return SelectionPolicy(args.policy), FactorBudget(trial_bound=args.trial_bound)


def _values(values) -> tuple[int, list[str]]:
    """Exit 0 with a bare list of integers, as decimal strings."""
    return 0, [str(v) for v in values]


def _row_record(
    index: int | None, n: int, p: int, g: int, candidates: tuple, status: SearchStatus, canonical: int | None
) -> dict:
    """The columns that search and sweep share, for the row of length n
    and starting prime p, from its plain search values: the off-peak gcd
    g, the pairs (q, C(0) mod q), the status and the canonical modulus.
    index is the sweep's 1-based row number, its first column; search has
    none, passes None and writes no index column.  `efficient` says the
    canonical modulus is no larger than n."""
    valid, every = [], []
    for q, r in candidates:
        every.append(str(q))
        if r:
            valid.append(every[-1])
    return {
        "index": index,
        "start_prime": str(p),
        "length": n,
        "gcd": str(g),
        "status": status._value_,  # the Enum.value property costs ~0.2 us
        "canonical_modulus": None if canonical is None else str(canonical),
        "valid_candidates": valid,
        "all_candidates": every,
        "efficient": canonical is not None and canonical <= n,
    }


def _cmd_seed(args: argparse.Namespace) -> tuple[int, list[str]]:
    return _values(build_seed(args.prime, args.length, args.row))


# One --seq entry: an optional sign and ASCII digits, with ASCII whitespace
# around it.  int() alone would also take "1_0" and non-ASCII digits.  Kept
# as text, so it is compiled (and cached by re) only when --seq is given.
_SEQ_ENTRY = r"[ \t\n\r\f\v]*[+-]?[0-9]+[ \t\n\r\f\v]*"


def _parse_seq(text: str) -> tuple[int, ...]:
    tokens = text.split(",")
    if len(tokens) > MAX_LENGTH:
        check_length(len(tokens))  # refused before any entry is converted
    if all(re.fullmatch(_SEQ_ENTRY, t) for t in tokens):
        try:
            return tuple(map(int, tokens))
        except ValueError:  # past int()'s digit limit
            pass
    raise ValueError(f"cannot parse sequence {text!r}; expected comma-separated integers")


def _cmd_autocorr(args: argparse.Namespace) -> tuple[int, list[str]]:
    with_seq = args.seq is not None
    if (args.prime is None) != with_seq or (args.length is None) != with_seq:
        raise ValueError("give either --seq or both -p and -n")
    if with_seq:
        if args.row is not None:
            raise ValueError("--row builds the row from -p and -n; --seq gives it whole")
        elems = _parse_seq(args.seq)
    else:
        elems = build_seed(args.prime, args.length, args.row or ROW_DOUBLING)
    return _values(periodic_autocorr(elems).values)


def _cmd_search(args: argparse.Namespace) -> tuple[int, dict]:
    o = find_modulus(build_seed(args.prime, args.length, args.row), *_factoring(args))
    fact = o.factorization
    record = {
        **_row_record(None, args.length, args.prime, o.gcd_value, o.candidates, o.status, o.canonical),
        "row": args.row,
        "factors": [{"prime": str(p), "exp": e} for p, e in fact.factors],
        "factorization": [f"{p}^{e}" for p, e in fact.factors],
        "cofactor": str(fact.cofactor),
        "candidates": [
            {"q": str(q), "peak_residue": str(r), "valid": r != 0}
            for q, r in o.candidates
        ],
    }
    return _STATUS_EXIT[o.status], record


def _cmd_sweep(args: argparse.Namespace) -> tuple[int, Iterator[dict]]:
    n = args.length
    rows = _sweep_rows(n, args.primes_up_to, *_factoring(args), args.row)
    return 0, (
        _row_record(i, n, p, g, candidates, status, canonical)
        for i, (p, g, _, _, candidates, status, canonical) in enumerate(rows, 1)
    )


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    elems = build_seed(args.prime, args.length, args.row)
    cert = check_rr(elems, args.modulus)
    gram_ok = gram_check(elems, args.modulus)
    record = {
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
    return (0 if cert.verified and gram_ok else 1), record


def _cmd_plotdata(args: argparse.Namespace) -> tuple[int, Iterator[dict]]:
    policy, budget = _factoring(args)
    if policy is SelectionPolicy.ALL:
        raise ValueError("plotdata needs a single canonical modulus per prime; use --policy smallest or largest")
    rows = _sweep_rows(args.length, args.primes_up_to, policy, budget, args.row)
    return 0, ({"start_prime": str(p), "canonical_modulus": str(c)} for p, *_, c in rows if c is not None)


_PRIMES_UP_TO_HELP = f"search every starting prime up to B, at most {SIEVE_LIMIT}"
_LENGTH_HELP = f"row length N, 2 <= N <= {MAX_LENGTH}"


def _row_parser(default: str | None) -> argparse.ArgumentParser:
    """The --row option.  autocorr leaves it None, so that it can refuse
    --row beside --seq and still default to doubling for -p/-n."""
    row = argparse.ArgumentParser(add_help=False)
    row.add_argument("--row", choices=ROW_KINDS, default=default, help="seed row construction")
    return row


def _build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    output.add_argument("--out", type=Path, default=None, help="write output to this path")
    output.set_defaults(fields=None, keys=None)
    # Only the subcommands that factor take a selection policy and a budget.
    factoring = argparse.ArgumentParser(add_help=False)
    factoring.add_argument(
        "--policy",
        choices=tuple(p.value for p in SelectionPolicy),
        default=SelectionPolicy.LARGEST.value,
        help="how to pick the canonical modulus from the valid candidates",
    )
    factoring.add_argument(
        "--trial-bound",
        type=int,
        default=DEFAULT_BUDGET.trial_bound,
        metavar="B",
        help="largest prime tried by trial division, at most "
        f"{SIEVE_LIMIT} (trial division takes its primes from a sieve)",
    )
    row = _row_parser(ROW_DOUBLING)
    # Three parents, so every usage line lists output, factoring, row.
    plain, factored = [output, row], [output, factoring, row]

    parser = argparse.ArgumentParser(
        prog="rrseq",
        description="Random residue sequences: seed rows, exact periodic "
        "autocorrelation, prime modulus search, and certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seed = sub.add_parser("seed", parents=plain, help="print a seed row")
    p_seed.add_argument("-p", "--prime", type=int, required=True)
    p_seed.add_argument("-n", "--length", type=int, required=True, help=_LENGTH_HELP)
    p_seed.set_defaults(func=_cmd_seed)

    p_auto = sub.add_parser(
        "autocorr", parents=[output, _row_parser(None)], help="exact periodic autocorrelation profile"
    )
    p_auto.add_argument("-p", "--prime", type=int)
    p_auto.add_argument("-n", "--length", type=int, help=_LENGTH_HELP)
    p_auto.add_argument(
        "--seq", help=f"explicit comma-separated row instead of -p/-n, at most {MAX_LENGTH} entries"
    )
    p_auto.set_defaults(func=_cmd_autocorr)

    p_search = sub.add_parser(
        "search", parents=factored, help="find prime moduli for one starting prime"
    )
    p_search.add_argument("-p", "--prime", type=int, required=True)
    p_search.add_argument("-n", "--length", type=int, required=True, help=_LENGTH_HELP)
    p_search.set_defaults(func=_cmd_search, fields=_SEARCH_FIELDS, keys=_SEARCH_KEYS)

    p_sweep = sub.add_parser(
        "sweep", parents=factored, help="search every starting prime up to a bound"
    )
    p_sweep.add_argument("-n", "--length", type=int, required=True, help=_LENGTH_HELP)
    p_sweep.add_argument("--primes-up-to", type=int, default=100, metavar="B", help=_PRIMES_UP_TO_HELP)
    p_sweep.set_defaults(func=_cmd_sweep, fields=_SWEEP_FIELDS)

    p_verify = sub.add_parser(
        "verify", parents=plain, help="certify the two-valued property"
    )
    p_verify.add_argument("-p", "--prime", type=int, required=True)
    p_verify.add_argument("-n", "--length", type=int, required=True, help=_LENGTH_HELP)
    p_verify.add_argument("-m", "--modulus", type=int, required=True)
    p_verify.set_defaults(func=_cmd_verify, fields=_VERIFY_FIELDS)

    p_plot = sub.add_parser(
        "plotdata", parents=factored, help="(starting prime, modulus) pairs for Found rows"
    )
    p_plot.add_argument("-n", "--length", type=int, required=True, help=_LENGTH_HELP)
    p_plot.add_argument("--primes-up-to", type=int, default=100, metavar="B", help=_PRIMES_UP_TO_HELP)
    p_plot.set_defaults(func=_cmd_plotdata, fields=_PLOT_FIELDS)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, records = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit_code = _emit(_render(records, args.format, args.fields, args.keys), args.out)
    return emit_code if emit_code else code


if __name__ == "__main__":
    sys.exit(main())
