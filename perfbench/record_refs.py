"""Record the reference outputs the benchmark checks CLI results against.

    python3 perfbench/record_refs.py

Runs every reference-checked job that any seed can draw, at both the full
and the smoke size, through ``iongate.cli.main`` in this process with BLAS
pinned to one thread, and writes ``perfbench/refs.json``. The references
belong to the commit they were recorded at; re-record only when a change of
output values is intended, and say so.
"""

import os
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import warnings  # noqa: E402

import iongate.cli  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    refs = {}
    work = HERE.parent / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, size in (("full", workloads.FULL), ("smoke", workloads.SMOKE)):
            jobs = workloads.reference_plan(size, Path(tmp) / name)
            for i, job in enumerate(jobs):
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = iongate.cli.main(job.args)
                errors = job.extra_check() if rc == 0 and job.extra_check else []
                if rc != 0 or errors:
                    print(f"{job.args}: exit {rc} {errors}", file=sys.stderr)
                    return 1
                refs.update(job.outputs())
                print(f"[{name} {i + 1}/{len(jobs)}] {job.name}", file=sys.stderr)
    workloads.REFS_PATH.write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(refs)} references to {workloads.REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
