"""Smoke runs of the benchmark in `perfbench/`.

Each runs one reduced repetition of a benchmark workload as a subprocess and
requires every output to match the recorded references, so a change that
moves a checked value past the benchmark's tolerance fails here first.
"""

import contextlib
import importlib.util
import io
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from iongate.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _perfbench_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


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


def test_full_size_n3_sweep_matches_the_references(tmp_path):
    # the smoke sweep runs N=2 at n_max=20; the dense composite-fidelity
    # noise is largest at the full size N=3, n_max=40, so the whole full
    # reference grid (8 eta x 2 nbar) is checked at REF_TOL as well
    workloads = _perfbench_workloads()
    etas, nbars = workloads.SWEEP_ETAS, workloads.SWEEP_NBARS
    size = workloads.FULL
    job = workloads.sweep_job(etas, nbars, size.sweep_n_ions, size.sweep_n_max, tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(job.args)
    assert len(job.outputs()) == len(etas) * len(nbars) == 16
    assert workloads.check_job(job, rc, workloads.load_refs()) == []


def test_full_size_gate_checks_match_the_references(tmp_path):
    # the smoke gate-checks run at n_max=20; the composite fidelities move at
    # the dense noise level, so every full-size gate-check of the reference
    # grid (6 eta x 3 nbar x 2 models, n_max=40) is checked at REF_TOL as well
    workloads = _perfbench_workloads()
    refs = workloads.load_refs()
    grid = list(
        itertools.product(workloads.CLI_ETAS, workloads.CLI_NBARS, workloads.MODELS)
    )
    assert len(grid) == 36
    for i, (eta, nbar, model) in enumerate(grid):
        out = tmp_path / f"{i}.json"
        job = workloads.gate_check_job(eta, nbar, workloads.FULL.gate_n_max, model, out)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(job.args)
        assert workloads.check_job(job, rc, refs) == []


@pytest.mark.filterwarnings("ignore:thermal tail weight")
def test_full_size_convergences_match_the_references(tmp_path):
    # a smoke run checks one drawn convergence job; its gate_infidelity and
    # diff_infidelity carry the dense composite-fidelity noise, so every
    # convergence job of the reference grid (6 eta x 3 nbar) is checked at
    # REF_TOL as well
    workloads = _perfbench_workloads()
    refs = workloads.load_refs()
    grid = list(itertools.product(workloads.CLI_ETAS, workloads.CLI_NBARS))
    assert len(grid) == 18
    for i, (eta, nbar) in enumerate(grid):
        job = workloads.convergence_job(eta, nbar, tmp_path / f"{i}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(job.args)
        assert workloads.check_job(job, rc, refs) == []
