"""Command-line driver.

Subcommands: seed, autocorr, search, sweep, verify, plotdata.  Each takes
--format, --out and --row (autocorr only with -p/-n, not with --seq);
search, sweep and plotdata, which factor, also take --policy and
--trial-bound.

Each subcommand checks its arguments, then returns an exit code and its
output text, in pieces.  search and verify build one record, a dict of
JSON-typed values, and seed and autocorr a bare value list; `_render`
writes either in CSV (default) or in JSON, by json.dumps.  sweep and
plotdata build no record: from the plain tuple the search core yields
(`modsearch._sweep_rows`) they make each row's values, with the
modulus and the candidate lists already written in the chosen format,
and the writer of that format (`_json_rows`, `_csv_rows`) puts them in
one template fill per row.  `_emit` writes each piece to stdout or
--out as it comes, so a sweep holds one row at a time, not the whole
table.
Output is byte-identical across runs for a fixed invocation: rows are
emitted in ascending prime order, integers as exact decimals (JSON
carries them as strings to survive tools that parse numbers as
doubles), lines end with "\\n", and nothing time- or host-dependent is
written.

What only one subcommand uses is imported when it runs: autocorr loads
the profiles (`rrseq.correlation`), verify the certificates
(`rrseq.verify`), and `_render` loads `json` for a JSON record or value
list.  So sweep and plotdata in either format, and seed or a search of a
doubling row in CSV, load none of them.  No subcommand loads numpy.

Exit codes: 0 success/Found; 1 negative result (no valid modulus, or
verification failed); 2 usage or domain error, before any output is
written; 3 incomplete factorization; 4 output I/O error, on stdout or
--out, after which the output may hold a prefix of the text.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import sys
from pathlib import Path
from typing import Iterable, Iterator

from .modsearch import SearchStatus, SelectionPolicy, _sweep_rows, find_modulus
from .numtheory import DEFAULT_BUDGET, SIEVE_LIMIT, FactorBudget
from .sequence import MAX_LENGTH, ROW_DOUBLING, ROW_KINDS, build_seed, check_length

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

# The fields that the JSON row writer puts in quotes.  Every other value
# of a row arrives as its JSON text.  Every value in a row stream is a
# decimal, a status name or true/false, so no value needs JSON escaping:
# the writers put quotes around it and nothing else.
_QUOTED = {"start_prime", "gcd", "status"}


def _cell(value) -> str:
    """One CSV cell of a single record: true/false for a bool, empty for
    None, a list of strings joined with ';'."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(value)
    return str(value)


def _render(value, fmt: str, fields: tuple[str, ...] | None = None, keys: tuple[str, ...] | None = None) -> list[str]:
    """The text of a single record (search, verify) or of a bare value
    list (seed, autocorr, fields None), as one piece.

    JSON writes the value as it is, or, when keys is given, the record cut
    down to those keys in that order.  CSV writes a bare value list as one
    line, and a record as a header of the fields and its one line.
    """
    if fmt == "json":
        import json  # only single records load it; row streams write their own text

        return [json.dumps(value if keys is None else {k: value[k] for k in keys}, indent=2) + "\n"]
    if fields is None:
        return [",".join(value) + "\n"]
    return [",".join(fields) + "\n" + ",".join([_cell(value[f]) for f in fields]) + "\n"]


def _json_list(items: list[str]) -> str:
    """A row's list of decimal strings as its JSON value, one level in."""
    return '[\n      "' + '",\n      "'.join(items) + '"\n    ]' if items else "[]"


def _json_rows(fields: tuple[str, ...], rows: Iterable[tuple]) -> Iterator[str]:
    """The JSON list of the rows of sweep or plotdata, one piece per row:
    the same text as json.dumps of the records, indent 2.  Each row is a
    tuple of its values in field order, each a JSON text but those of
    _QUOTED, written by one fill of a template built once from the
    fields."""
    template = "{\n    " + ",\n    ".join(f'"{f}": ' + ('"%s"' if f in _QUOTED else "%s") for f in fields) + "\n  }"
    sep = "[\n  "  # before the first row; ",\n  " before each later one
    for values in rows:
        yield sep + template % values
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _csv_rows(fields: tuple[str, ...], rows: Iterable[tuple]) -> Iterator[str]:
    """The CSV of the rows of sweep or plotdata: a header of the fields,
    then one line per row, its values (each a CSV cell) filled into a
    template built once."""
    yield ",".join(fields) + "\n"
    template = ",".join(["%s"] * len(fields)) + "\n"
    for values in rows:
        yield template % values


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

    sys.stdout is looked up once, when writing starts, so a redirected
    stdout gets the text.  out is opened only here, after the subcommand
    has checked its arguments, so a run that exits 2 creates no file.  On
    exit 4 the output may hold a prefix of the text: rows are written as
    they are made.  A failed stdout (a full disk, or a closed pipe such
    as `| head -1`) is pointed at os.devnull, so nothing more is reported.
    """
    try:
        with contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8", newline="\n") as fh:
            for piece in pieces:
                fh.write(piece)
            fh.flush()
    except OSError as exc:
        print(f"error: cannot write {'stdout' if out is None else out}: {exc}", file=sys.stderr)
        if out is None:
            _drop_stdout()
        return 4
    return 0


def _factoring(args: argparse.Namespace) -> tuple[SelectionPolicy, FactorBudget]:
    """The selection policy and factoring budget of search, sweep or plotdata."""
    return SelectionPolicy(args.policy), FactorBudget(trial_bound=args.trial_bound)


def _values(values, fmt: str) -> tuple[int, list[str]]:
    """Exit 0 with a bare list of integers, written as decimal strings."""
    return 0, _render([str(v) for v in values], fmt)


def _rows(fmt: str, fields: tuple[str, ...], rows: Iterable[tuple]) -> tuple[int, Iterator[str]]:
    """Exit 0 with the text of the rows of sweep or plotdata, written as
    they are read by the writer of the format."""
    return 0, (_json_rows if fmt == "json" else _csv_rows)(fields, rows)


def _cmd_seed(args: argparse.Namespace) -> tuple[int, list[str]]:
    return _values(build_seed(args.prime, args.length, args.row), args.format)


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
    from .correlation import periodic_autocorr

    return _values(periodic_autocorr(elems).values, args.format)


def _cmd_search(args: argparse.Namespace) -> tuple[int, list[str]]:
    n = args.length
    o = find_modulus(build_seed(args.prime, n, args.row), *_factoring(args))
    fact, c = o.factorization, o.canonical
    record = {
        "start_prime": str(args.prime),
        "length": n,
        "row": args.row,
        "gcd": str(o.gcd_value),
        "factors": [{"prime": str(p), "exp": e} for p, e in fact.factors],
        "factorization": [f"{p}^{e}" for p, e in fact.factors],
        "cofactor": str(fact.cofactor),
        "status": o.status.value,
        "canonical_modulus": None if c is None else str(c),
        "valid_candidates": [str(q) for q in o.valid_moduli()],
        "all_candidates": [str(q) for q, _ in o.candidates],
        "candidates": [
            {"q": str(q), "peak_residue": str(r), "valid": r != 0}
            for q, r in o.candidates
        ],
        "efficient": c is not None and c <= n,
    }
    return _STATUS_EXIT[o.status], _render(record, args.format, _SEARCH_FIELDS, _SEARCH_KEYS)


def _sweep_values(n: int, rows: Iterable[tuple], fmt: str) -> Iterator[tuple]:
    """The values of each row of `rrseq sweep -n n`, in _SWEEP_FIELDS
    order, from the plain tuples of `_sweep_rows`.  Rows are numbered
    from 1.  The canonical modulus and the two candidate lists are
    written in the format fmt: in JSON as null or a string and as lists
    of strings, in CSV as an empty or plain cell and as ';'-joined cells.
    Each candidate's decimal is formed once, for both lists, and
    `efficient`, which says the canonical modulus is no larger than n,
    is true/false as both formats write it."""
    none, modulus, join = ("null", '"%s"', _json_list) if fmt == "json" else ("", "%s", ";".join)
    for i, (p, g, _, _, candidates, status, canonical) in enumerate(rows, 1):
        valid, every = [], []
        for q, r in candidates:
            every.append(str(q))
            if r:
                valid.append(every[-1])
        efficient = "true" if canonical is not None and canonical <= n else "false"
        # status._value_: the Enum.value property costs ~0.2 us
        yield (
            i, p, n, g, status._value_, none if canonical is None else modulus % canonical,
            join(valid), join(every), efficient,
        )


def _cmd_sweep(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
    n = args.length
    rows = _sweep_rows(n, args.primes_up_to, *_factoring(args), args.row)
    return _rows(args.format, _SWEEP_FIELDS, _sweep_values(n, rows, args.format))


def _cmd_verify(args: argparse.Namespace) -> tuple[int, list[str]]:
    from .verify import check_rr, gram_check

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
    return (0 if cert.verified and gram_ok else 1), _render(record, args.format, _VERIFY_FIELDS)


def _cmd_plotdata(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
    policy, budget = _factoring(args)
    if policy is SelectionPolicy.ALL:
        raise ValueError("plotdata needs a single canonical modulus per prime; use --policy smallest or largest")
    rows = _sweep_rows(args.length, args.primes_up_to, policy, budget, args.row)
    modulus = '"%s"' if args.format == "json" else "%s"
    return _rows(args.format, _PLOT_FIELDS, ((p, modulus % c) for p, *_, c in rows if c is not None))


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
    p_search.set_defaults(func=_cmd_search)

    p_sweep = sub.add_parser(
        "sweep", parents=factored, help="search every starting prime up to a bound"
    )
    p_sweep.add_argument("-n", "--length", type=int, required=True, help=_LENGTH_HELP)
    p_sweep.add_argument("--primes-up-to", type=int, default=100, metavar="B", help=_PRIMES_UP_TO_HELP)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser(
        "verify", parents=plain, help="certify the two-valued property"
    )
    p_verify.add_argument("-p", "--prime", type=int, required=True)
    p_verify.add_argument("-n", "--length", type=int, required=True, help=_LENGTH_HELP)
    p_verify.add_argument("-m", "--modulus", type=int, required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_plot = sub.add_parser(
        "plotdata", parents=factored, help="(starting prime, modulus) pairs for Found rows"
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
    return _emit(text, args.out) or code


if __name__ == "__main__":
    sys.exit(main())
