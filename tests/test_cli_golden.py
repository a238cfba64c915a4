"""CLI output pinned byte for byte: stdout and exit code of every record
in data/cli_golden.json, written by make_cli_golden.py."""

import hashlib
import json
from pathlib import Path

import pytest

from make_cli_golden import run

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("rec", GOLDEN, ids=lambda rec: " ".join(rec["argv"])[:80])
def test_cli_output_matches_golden(rec):
    code, out = run(rec["argv"])
    assert code == rec["exit"]
    if "stdout" in rec:
        assert out == rec["stdout"]
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == rec["stdout_sha256"]
