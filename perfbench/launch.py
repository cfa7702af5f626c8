"""Child-process stub: time the import of iongate, then run one job.

    python3 launch.py REPORT T_SPAWN TRACE MODE [ARGS...]

REPORT is the JSON file this process writes before it exits. T_SPAWN is the
parent's ``time.monotonic()`` just before it started this process, so
``t_imported - T_SPAWN``, less the first calibration, is the set-up time a
user pays: interpreter start plus the package import. TRACE is 0 or 1. MODE
is one of

- ``cli``: import ``iongate.cli`` and call ``iongate.cli.main(ARGS)``, the
  way the ``iongate`` console script does;
- ``setup``: import ``iongate.cli`` and stop;
- ``crosscheck``: import ``iongate``, then run the cases in file ARGS[0] and
  write their results to ARGS[1] (see ``crosscheck.py``);
- ``env``: import ``iongate.cli``, then record versions and the BLAS build.

With TRACE=1 the layers are wrapped after the import (see ``tracer.py``) and
the report carries the spans. With TRACE=0 the process times ``calibrate``
once before the import and once after the job, and reports both times as
``cal``; the parent leaves them out of the job's time and divides by them.
"""

import sys
import time

#: steps of the calibration loop: 0.07-0.11 s on the 2-vCPU VM of README.md
CAL_STEPS = 600_000


def calibrate() -> float:
    """Time a fixed integer recurrence. It allocates nothing that the
    collector tracks and touches no package code, so its time depends on how
    fast the host runs this process right now, not on what the process has
    loaded."""
    t0 = time.monotonic()
    x = 1
    for _ in range(CAL_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.monotonic() - t0


def main() -> int:
    report_path, t_spawn, trace, mode = sys.argv[1:5]
    args = sys.argv[5:]
    cal = [] if trace == "1" else [calibrate()]
    if mode == "crosscheck":
        import iongate as entry
    else:
        import iongate.cli as entry
    t_imported = time.monotonic()

    import json

    report = {"t_imported": t_imported}
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.add("cli.import", float(t_spawn), t_imported)
        tracer.install()

    rc = 0
    report["t_main_start"] = time.monotonic()
    if mode == "cli":
        try:
            rc = entry.main(args)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    elif mode == "crosscheck":
        import crosscheck

        run = crosscheck.run if tracer is None else tracer.wrap("bench.crosscheck", crosscheck.run)
        rc = run(args[0], args[1])
    elif mode == "env":
        report["env"] = environment(sys.modules["iongate"])
    report["t_main_end"] = time.monotonic()
    report["rc"] = rc
    if cal:
        cal.append(calibrate())
        report["cal"] = cal
    if tracer is not None:
        report["spans"] = tracer.spans
    sys.stdout.flush()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


def environment(iongate) -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "iongate_file": iongate.__file__,
        "iongate": iongate.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
    }


if __name__ == "__main__":
    sys.exit(main())
