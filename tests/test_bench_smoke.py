"""Smoke runs of the benchmark in `perfbench/`.

Each runs one reduced repetition of a benchmark workload as a subprocess and
requires every output to match the recorded references, so a change that
moves a checked value past the benchmark's tolerance fails here first.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["cli-short", "crosscheck", "ghz-n5", "sweep-n3"])
def test_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0, proc.stdout
