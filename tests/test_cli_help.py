"""The help text of `rrseq -h` and of each `rrseq <cmd> -h`, byte for
byte, against the copy in tests/data/cli_help.json, so that a change to
how the parser is built cannot change what it prints unnoticed.

argparse wraps help to the terminal width, which it reads from COLUMNS,
so the copy was made, and the test runs, with COLUMNS=80.  argparse's
layout also differs between Python minor versions, so the copy records
the version that made it and the test runs only under that version.
Write the copy anew, after a change that means to alter the help, with

    PYTHONPATH=src python tests/test_cli_help.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from rrseq.cli import main

COPY = Path(__file__).parent / "data" / "cli_help.json"
ARGVS = (("-h",), *((cmd, "-h") for cmd in ("seed", "autocorr", "search", "sweep", "verify", "plotdata")))
VERSION = "%d.%d" % sys.version_info[:2]


def help_text(argv: tuple[str, ...]) -> str:
    """What `rrseq argv` writes to stdout; argv must ask for help."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
        main(list(argv))
    assert exit_.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_help_text_matches_the_copy(argv, monkeypatch):
    copy = json.loads(COPY.read_text(encoding="utf-8"))
    if copy["python"] != VERSION:
        pytest.skip(f"the copy holds Python {copy['python']}'s argparse layout")
    monkeypatch.setenv("COLUMNS", "80")
    assert help_text(argv) == copy["help"][" ".join(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    texts = {" ".join(argv): help_text(argv) for argv in ARGVS}
    COPY.write_text(json.dumps({"python": VERSION, "help": texts}, indent=2) + "\n", encoding="utf-8")
