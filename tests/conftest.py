"""Shared set-up for the test suite.

numpy's BLAS pools are pinned to one thread before any test module
imports numpy.  The Gram checks run small float64 matmuls, and a
default-sized pool oversubscribes the cores as soon as another process
is busy: on a 2-vCPU VM, test_gram_matches_exact_oracle took ~4 s idle,
~7 s beside one busy-loop process, and ~3.5 s there with one thread.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fresh_python():
    """Run a fresh interpreter, with rrseq imported from this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)

    return run
