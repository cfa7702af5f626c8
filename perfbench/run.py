"""Benchmark runner for iongate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --smoke [--trace 1]

Repeats one workload (see ``workloads.py``) for about S seconds: a
repetition starts while one of median length would end less than half its
length after them. Every job runs in a fresh child process, one at a time,
against this checkout's ``src`` with BLAS pinned to one thread, so it is timed
the way a user runs ``iongate``: interpreter start and imports included.
Every output is checked.

The host's speed drifts by tens of percent from one minute to the next, so
the gated times are relative: each untraced child times a fixed calibration
loop (``launch.calibrate``) before its import and after its job, and a job's
time is divided by the mean of the two. The seconds are printed as well.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of ``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics
with ``--trace 1``. Lines before it start with ``#`` and carry the
environment record and the timing distributions.

``--trace 1`` alternates untraced and traced repetitions: layer metrics are
medians over the traced ones, and ``trace.overhead_s`` is the traced minus
the untraced median repetition time; ``--trace-out FILE`` also writes every
traced span as a JSON line. ``--smoke`` runs one repetition (two with
``--trace 1``) at reduced size, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = Path(__file__).resolve().parent / "launch.py"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".perfbench_work"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: child processes started before the timed repetitions, the environment
#: probe included; each one gives a set-up sample and warms the file cache
SETUP_PROBES = 3
#: a hung child is killed after this, so a run still ends within 180 s
CHILD_TIMEOUT_S = 120.0
#: the layer self times must cover the traced repetition up to the tracing
#: overhead. That overhead is a difference of two noisy medians and can come
#: out negative, so the check also allows this share of a repetition; the
#: uncovered time measured at the first commit is below 0.4% of it
TRACE_SLACK = 0.01

#: per-layer metric names that differ from the generic ``<span>.<stat>``
ALIASES = {
    "cli.import_s": "cli.import.self_s",
    "cli.exit_s": "cli.exit.self_s",
    "hilbert.QuantumState.validate_s": f"{tracer.VALIDATE_SPAN}.self_s",
    "hilbert.QuantumState.calls": f"{tracer.VALIDATE_SPAN}.calls",
}


@dataclass
class Proc:
    """One finished child process."""

    t0: float
    t1: float
    rc: int
    maxrss_mb: float
    report: dict | None

    @property
    def cal(self) -> list[float]:
        """The child's calibration times; empty if it was traced or failed."""
        return [] if self.report is None else self.report.get("cal", [])

    @property
    def wall(self) -> float:
        """Start to exit, without the calibrations."""
        return self.t1 - self.t0 - sum(self.cal)

    @property
    def speed(self) -> float | None:
        """Seconds per calibration: the divisor of the relative times."""
        return statistics.fmean(self.cal) if self.cal else None

    @property
    def setup_s(self) -> float | None:
        if self.report is None:
            return None
        return self.report["t_imported"] - self.t0 - sum(self.cal[:1])

    def spans(self) -> list[list]:
        """The child's spans plus its exit span (main returned -> reaped)."""
        if self.report is None:
            return []
        return self.report.get("spans", []) + [
            ["cli.exit", self.report["t_main_end"], self.t1, None, None]
        ]


@dataclass
class Rep:
    """One repetition of a workload."""

    traced: bool
    wall: float
    procs: list[Proc]
    attempted: int
    failed: int
    errors: list[str]
    job_seconds: list[float] = field(default_factory=list)
    job_cal: list[float] = field(default_factory=list)

    @property
    def wall_cal(self) -> float | None:
        """The repetition's time in calibrations: each child's time over its
        own calibration time, summed."""
        if any(p.speed is None for p in self.procs):
            return None
        return sum(p.wall / p.speed for p in self.procs)


def _kill(pidfd: int) -> None:
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts child processes one at a time and reaps each with its rusage."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)

    def spawn(self, mode: str, args: list[str], trace: bool = False) -> Proc:
        self.count += 1
        base = self.work / f"p{self.count}"
        report = base.with_suffix(".json")
        with open(base.with_suffix(".out"), "wb") as out, open(
            base.with_suffix(".err"), "wb"
        ) as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCH), str(report), repr(t0), str(int(trace)), mode]
                + args,
                env=self.env,
                cwd=self.work,
                stdout=out,
                stderr=err,
            )
            pidfd = os.pidfd_open(proc.pid)
            timer = threading.Timer(CHILD_TIMEOUT_S, _kill, (pidfd,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill(pidfd)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
                timer.join()
                os.close(pidfd)
            t1 = time.monotonic()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        try:
            with open(report, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = None
        return Proc(t0, t1, rc, usage.ru_maxrss / 1024.0, data)


def run_rep(runner, workload, seed, index, size, refs, traced) -> Rep:
    repdir = runner.work / f"r{index}"
    jobs = workloads.plan(workload, seed, index, size, repdir)
    procs = [runner.spawn(job.mode, job.args, traced) for job in jobs]
    cal = sum(sum(p.cal) for p in procs)
    rep = Rep(traced, procs[-1].t1 - procs[0].t0 - cal, procs, 0, 0, [])
    for job, proc in zip(jobs, procs):
        errors = workloads.check_job(job, proc.rc, refs)
        rep.attempted += job.cases
        rep.failed += min(len(errors), job.cases)
        rep.errors += errors
        if job.case_seconds is None:
            seconds = [proc.wall]
        elif proc.rc == 0 and not errors:
            seconds = job.case_seconds()
        else:
            seconds = []
        rep.job_seconds += seconds
        if proc.speed is not None:
            rep.job_cal += [s / proc.speed for s in seconds]
    return rep


def layer_totals(rep: Rep, dims: Counter) -> dict[str, float]:
    """Per-span and per-layer totals over one traced repetition; ``dims``
    counts calls by span name and dimension."""
    totals: dict[str, float] = defaultdict(float)
    covered = 0.0
    for proc in rep.procs:
        spans = proc.spans()
        for (name, _, _, _, dim), own in zip(spans, tracer.self_times(spans)):
            covered += own
            totals[f"{name}.self_s"] += own
            totals[f"{name}.calls"] += 1
            totals[f"{name.split('.')[0]}.self_s"] += own
            if dim is not None:
                totals[f"{name}.dim_max"] = max(totals[f"{name}.dim_max"], dim)
                totals[f"{name}.flops_computed"] += float(dim) ** 3
                dims[f"{name}@{dim}"] += 1
    totals["trace.wall_s"] = rep.wall
    totals["trace.uncovered_s"] = rep.wall - covered
    return totals


def tail(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return "no samples"
    text = f"median {statistics.median(ordered):.6g} n={n}"
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return text + f" p{pct:g} {ordered[rank - 1]:.6g}"
    return text + " (too few samples for a tail percentile)"


def environment(probe: Proc) -> dict:
    env = dict(probe.report["env"]) if probe.report else {"probe_exit": probe.rc}
    src = ROOT / "src" / "iongate"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = out.stdout.strip() or None
    env.update(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        blas_env=BLAS_ENV,
        commit=commit,
        src_sha256=digest.hexdigest(),
        loadavg_start=_loadavg(),
    )
    return env


def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def run(args) -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    size = workloads.SMOKE if args.smoke else workloads.FULL
    refs = workloads.load_refs()
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        runner = Runner(work)
        setup_probes = [runner.spawn("env", [])]
        setup_probes += [runner.spawn("setup", []) for _ in range(SETUP_PROBES - 1)]
        env = environment(setup_probes[0])
        reps: list[Rep] = []
        lengths: list[float] = []
        deadline = time.monotonic() + seconds
        want = 2 if args.trace else 1
        while len(reps) < want or not (
            args.smoke or time.monotonic() + statistics.median(lengths) / 2 > deadline
        ):
            traced = bool(args.trace) and len(reps) % 2 == 1
            t0 = time.monotonic()
            reps.append(
                run_rep(runner, args.workload, args.seed, len(reps), size, refs, traced)
            )
            lengths.append(time.monotonic() - t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = _loadavg()
    print("# env " + json.dumps(env, sort_keys=True))

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    for rep in reps:
        for err in rep.errors:
            print(f"# error: {err}")
    print(
        f"# {args.workload}: {len(reps)} repetitions, {attempted} jobs, {failed} failed, "
        f"error_rate {failed / attempted:.6g}"
    )
    plain = [r for r in reps if not r.traced]
    if args.trace:
        metrics = trace_metrics(spec, reps, plain, args.trace_out)
    else:
        metrics = end_to_end_metrics(spec, plain, setup_probes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def end_to_end_metrics(spec, reps: list[Rep], probes: list[Proc]) -> dict:
    procs = probes + [p for r in reps for p in r.procs]
    samples = {
        "wall_s": [r.wall for r in reps],
        "job_s": [s for r in reps for s in r.job_seconds],
        "wall_cal": [r.wall_cal for r in reps if r.wall_cal is not None],
        "job_cal": [s for r in reps for s in r.job_cal],
        "setup_s": [p.setup_s for p in procs if p.setup_s is not None],
        "calibration_s": [c for p in procs for c in p.cal],
    }
    for name, values in samples.items():
        print(f"# {name}: {tail(values)}")
    values = {name: statistics.median(v) for name, v in samples.items() if v}
    values["peak_rss_mb"] = max(p.maxrss_mb for p in procs)
    print(f"# peak_rss_mb: {values['peak_rss_mb']:.6g} over {len(procs)} processes")
    return _select(spec["end_to_end"], values)


def trace_metrics(spec, reps: list[Rep], plain: list[Rep], trace_out) -> dict:
    traced = [r for r in reps if r.traced]
    dims: Counter = Counter()
    per_rep = [layer_totals(r, dims) for r in traced]
    if trace_out:
        write_spans(trace_out, reps)
    print("# dims " + json.dumps(dict(sorted(dims.items()))))
    values = {
        m["name"]: statistics.median(t.get(ALIASES.get(m["name"], m["name"]), 0.0) for t in per_rep)
        for m in spec["per_layer"]
    }
    overhead = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain)
    uncovered = statistics.median(t["trace.uncovered_s"] for t in per_rep)
    wall = statistics.median(t["trace.wall_s"] for t in per_rep)
    values["trace.overhead_s"] = overhead
    ok = uncovered <= max(overhead, 0.0) + TRACE_SLACK * wall
    print(
        f"# trace check: self times leave {uncovered:.6g} s of the traced {wall:.6g} s "
        f"uncovered; overhead {overhead:.6g} s; " + ("pass" if ok else "FAIL")
    )
    return _select(spec["per_layer"], values)


def write_spans(path: str, reps: list[Rep]) -> None:
    """One JSON object per span, with its run id and self time."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, rep in enumerate(reps):
            if not rep.traced:
                continue
            for j, proc in enumerate(rep.procs):
                spans = proc.spans()
                for (name, start, end, parent, dim), own in zip(
                    spans, tracer.self_times(spans)
                ):
                    fh.write(
                        json.dumps(
                            {
                                "run": f"r{i}/p{j}",
                                "name": name,
                                "start": start,
                                "end": end,
                                "parent": parent,
                                "dim": dim,
                                "self_s": own,
                            }
                        )
                        + "\n"
                    )


def _select(declared: list[dict], values: dict) -> dict:
    return {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one reduced repetition")
    parser.add_argument("--trace-out", help="write the traced spans here as JSON lines")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so the running child is killed and reaped
    # and the scratch directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "iongate" / "__init__.py").is_file():
        print(f"error: no iongate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
