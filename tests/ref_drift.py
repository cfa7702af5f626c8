"""Drift of the CLI outputs from the benchmark's recorded references.

    python3 tests/ref_drift.py

Runs every reference-checked job that any benchmark seed can draw
(`perfbench/workloads.reference_plan`), at the full and the smoke size,
through `iongate.cli.main` in this process with BLAS pinned to one thread. It
compares each output with `perfbench/refs.json` and prints, per command and
field, the worst |value - reference| (angles modulo 2 pi) and that drift as a
share of `REF_TOL`, then the number of jobs with any value above `REF_TOL/2`
and outside `REF_TOL`, so that every change shows how close the pinned
noise runs to the tolerance. Last it prints one SHA-256 over the names and
bytes of every file the jobs wrote, so that two checkouts whose outputs are
byte-identical print the same digest. It exits 1 if a job is outside
`REF_TOL`.
`perfbench/` is read, never written. The file name does not match pytest's
`test_*.py`, so the suite does not collect it.
"""

import os
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import warnings  # noqa: E402

import iongate.cli  # noqa: E402
import workloads  # noqa: E402


def drifts(actual, ref, field: str, worst: dict) -> None:
    """Record in ``worst[field]`` the largest |actual - ref| of every number
    under ``field``; a list's entries count under the list's own name."""
    if isinstance(ref, dict):
        for key, value in ref.items():
            if isinstance(actual, dict) and key in actual:
                drifts(actual[key], value, key, worst)
    elif isinstance(ref, list):
        if isinstance(actual, list) and len(actual) == len(ref):
            for a, r in zip(actual, ref):
                drifts(a, r, field, worst)
    elif isinstance(ref, float) and isinstance(actual, (int, float)):
        diff = actual - ref
        if field in workloads.PHASE_KEYS:
            diff = math.remainder(diff, 2.0 * math.pi)
        worst[field] = max(worst.get(field, 0.0), abs(diff))


def files(root: Path) -> set[Path]:
    return {path for path in root.rglob("*") if path.is_file()}


def main() -> int:
    refs = workloads.load_refs()
    worst: dict[tuple[str, str], float] = {}
    jobs = outside = near = 0
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        root = Path(tmp)
        for name, size in (("full", workloads.FULL), ("smoke", workloads.SMOKE)):
            for job in workloads.reference_plan(size, root / name):
                before = files(root)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = iongate.cli.main(job.args)
                # the job's outputs, by their path under the temporary root
                for path in sorted(files(root) - before):
                    digest.update(str(path.relative_to(root)).encode())
                    digest.update(path.read_bytes())
                jobs += 1
                errors = workloads.check_job(job, rc, refs)
                outside += bool(errors)
                for error in errors[:3]:
                    print(f"outside: {error}")
                if rc != 0:
                    continue
                job_worst = 0.0
                for key, value in job.outputs().items():
                    per_field: dict = {}
                    drifts(value, refs.get(key, {}), "", per_field)
                    command = key.split(":", 1)[0]
                    for field, diff in per_field.items():
                        worst[command, field] = max(worst.get((command, field), 0.0), diff)
                        job_worst = max(job_worst, diff)
                near += job_worst > workloads.REF_TOL / 2
    print(f"{'command':<12} {'field':<24} {'worst |value - ref|':<20} share of REF_TOL")
    for (command, field), diff in sorted(worst.items()):
        print(f"{command:<12} {field:<24} {diff:<20.3g} {diff / workloads.REF_TOL:.3f}")
    print(f"{near} of {jobs} jobs above REF_TOL/2 = {workloads.REF_TOL / 2:g}")
    print(f"{outside} of {jobs} jobs outside REF_TOL = {workloads.REF_TOL:g}")
    print(f"sha256 of every job's output files: {digest.hexdigest()}")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
