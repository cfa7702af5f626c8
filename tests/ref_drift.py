"""Drift of the CLI outputs from the benchmark's recorded references.

    python3 tests/ref_drift.py

Runs every reference-checked job that any benchmark seed can draw
(`perfbench/workloads.reference_plan`), at the full and the smoke size,
through `iongate.cli.main` in this process with BLAS pinned to one thread.
That leaves the process one OS thread, so, as in the benchmark, the full-size
N=3 sweep (d = 2^N (n_max+1) = 328, from `analysis._FORK_MIN_DIM` = 200 on)
splits its points with one forked child (`analysis._fanned_out`), and no
other job forks: a gate check or a convergence computes its spectra
in-process at any d. It counts the `os.fork` calls of its jobs and prints
the count, one per full-size sweep, which shows that the digests cover that
path. It compares each output with
`perfbench/refs.json` and prints, per command and field, the worst |value -
reference| (angles modulo 2 pi) and that drift as a share of `REF_TOL`, then
the number of jobs with any value above `REF_TOL/2` and outside `REF_TOL`, so
that every change shows how close the pinned noise runs to the tolerance. It
reruns each job that computes truth tables in this process with no fork,
records the sector blocks of each of its tables (`analysis._sector_table`) and
prints, per command, the worst distance of the truth table's composite
fidelities and of the gate infidelity derived from them (gate-check
`composite_fidelities` and `gate_infidelity`, convergence `gate_infidelity`,
sweep `infidelity_gate`) from their exact values, (sum of the singular values
of Z_k)^2 from the same blocks (`analysis._evolution`,
`analysis._trace_norm_squared`): the distance that a tolerance of the pinned
fields must admit once the (n_max+1)-sized values replace the pinned d-sized
spectra. These distances are printed only: they move neither the exit status
nor a digest. Last it prints one SHA-256 over the names and bytes of every
file the jobs wrote, so that two checkouts whose outputs are byte-identical
print the same digest, and one SHA-256 per command over the files of its jobs,
so that a change which moves one command's outputs can show that the others'
are byte-identical. The reference plan has no `solve` job; the `solve` digest
covers one run of `cli-short`'s solve job per eta of `CLI_ETAS`, with and
without `--literal-params`, which are checked by their own closed-form checks
and kept out of the overall digest. The reference plan's full-size GHZ jobs
are odd N, so the even-N recipe gets a digest of its own, also kept out of the
overall one: the `ghz` job (`workloads.ghz_job`, full model, n_max 40) for N =
2 and 4 at every eta of `GHZ_ETAS` and nbar of `GHZ_NBARS`. It has no
reference; it shows that a change leaves the even recipe's outputs
byte-identical. Then it prints the worst restricted distance of
`closed_form_propagator(...).product` from the dense oracle over the full-size
`crosscheck` cases of the seeds in `CROSSCHECK_SEEDS` (first repetition), the
comparison the `crosscheck` workload makes: no CLI output reads the closed
form, so the digests cannot show a change to it. It exits 1 if a job is
outside `REF_TOL`, a solve job fails its checks, an even-N GHZ job exits
nonzero or the closed form is farther than `CROSSCHECK_TOL` from the oracle.
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
import itertools  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import warnings  # noqa: E402

import crosscheck  # noqa: E402
import iongate.cli  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from iongate import ModelParams, analysis, dynamics  # noqa: E402

#: the benchmark seeds whose full-size crosscheck cases are compared
CROSSCHECK_SEEDS = (0, 1, 2, 3, 4, 5)
#: the ion numbers of the even-N GHZ digest
EVEN_GHZ_N_IONS = (2, 4)
#: the output field of each command that holds the truth table's gate
#: infidelity; only gate-check writes the composite fidelities themselves
GATE_FIELDS = {
    "gate-check": "gate_infidelity",
    "convergence": "gate_infidelity",
    "sweep": "infidelity_gate",
}


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


def exact_drifts(tables: list, command: str, worst: dict) -> None:
    """Record in ``worst`` the largest distance of each recorded truth
    table's composite fidelities, and of the gate infidelity derived from
    them, from the exact values of the same sector blocks."""
    for report, n_ions, blocks, p in tables:
        sqrt_p = np.sqrt(p)
        per_sector = [
            analysis._trace_norm_squared(analysis._evolution(block, np.ones(1), sqrt_p)[-1])
            for block in blocks
        ]
        exact = [analysis._unit(per_sector[k]) for k in analysis._pm_products(n_ions)[2]]
        composite = np.abs(np.subtract(report.composite_fidelities, exact)).max()
        gate = abs(report.gate_infidelity - analysis._infidelity(float(np.mean(exact))))
        for field, diff in (("composite_fidelities", composite), (GATE_FIELDS[command], gate)):
            worst[command, field] = max(worst.get((command, field), 0.0), float(diff))


def files(root: Path) -> set[Path]:
    return {path for path in root.rglob("*") if path.is_file()}


def run(job, root: Path, digests: list) -> int:
    """Run one job in this process and feed the names and bytes of the files
    it wrote under ``root`` to every hash in ``digests``; return its exit
    code."""
    before = files(root)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = iongate.cli.main(job.args)
    for path in sorted(files(root) - before):
        for digest in digests:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return rc


def in_process_tables(job) -> list:
    """Rerun `job` in this process with no fork and return the report, ion
    number, sector blocks and populations of each of its truth tables
    (`analysis._sector_table`): when a sweep forks, its child computes the
    tables of every other point, out of reach of a recorder here. The rerun
    writes the job's files again; they are hashed before it."""
    tables = []
    sector_table, floor = analysis._sector_table, analysis._FORK_MIN_DIM

    def recorded_table(params, blocks, p, model):
        report = sector_table(params, blocks, p, model)
        tables.append((report, params.n_ions, blocks, p))
        return report

    analysis._sector_table, analysis._FORK_MIN_DIM = recorded_table, math.inf
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            iongate.cli.main(job.args)
    finally:
        analysis._sector_table, analysis._FORK_MIN_DIM = sector_table, floor
    return tables


def closed_form_distance() -> tuple[float, int]:
    """The worst restricted distance of the closed-form propagator from the
    dense oracle, as the `crosscheck` workload measures it, over the
    full-size cases of `CROSSCHECK_SEEDS`, and the number of cases."""
    worst, count = 0.0, 0
    for seed in CROSSCHECK_SEEDS:
        rng = random.Random(f"crosscheck:{seed}:0")
        for case in workloads.crosscheck_cases(rng, workloads.FULL):
            params = ModelParams(**case["params"])
            closed = dynamics.closed_form_propagator(params, case["t"]).product
            oracle = dynamics.expm_propagator(dynamics.hamiltonian_ld(params), case["t"])
            distance = crosscheck.restricted_distance(
                closed.mat, oracle.mat, closed.dims, params.n_max // 2
            )
            # a NaN distance counts as infinitely far
            worst = max(worst, math.inf if math.isnan(distance) else distance)
            count += 1
    return worst, count


def main() -> int:
    refs = workloads.load_refs()
    worst: dict[tuple[str, str], float] = {}
    jobs = outside = near = 0
    digest = hashlib.sha256()
    per_command: dict = {}
    forks = []

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    fork, os.fork = os.fork, counted_fork
    exact_worst: dict[tuple[str, str], float] = {}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        root = Path(tmp)
        for name, size in (("full", workloads.FULL), ("smoke", workloads.SMOKE)):
            for job in workloads.reference_plan(size, root / name):
                command_digest = per_command.setdefault(job.name, hashlib.sha256())
                rc = run(job, root, [digest, command_digest])
                if job.name in GATE_FIELDS:
                    exact_drifts(in_process_tables(job), job.name, exact_worst)
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
        (root / "solve").mkdir()
        solve_digest = per_command["solve"] = hashlib.sha256()
        solves = [(eta, literal) for eta in workloads.CLI_ETAS for literal in (False, True)]
        failed_solves = 0
        for i, (eta, literal) in enumerate(solves):
            job = workloads.solve_job(eta, literal, root / "solve" / f"{i}.json")
            errors = workloads.check_job(job, run(job, root, [solve_digest]), refs)
            failed_solves += bool(errors)
            for error in errors[:3]:
                print(f"failed: {error}")
        (root / "ghz-even").mkdir()
        even_digest = per_command["ghz even-N"] = hashlib.sha256()
        evens = list(
            itertools.product(EVEN_GHZ_N_IONS, workloads.GHZ_ETAS, workloads.GHZ_NBARS)
        )
        failed_evens = 0
        for i, (n_ions, eta, nbar) in enumerate(evens):
            job = workloads.ghz_job(n_ions, 40, eta, nbar, root / "ghz-even" / f"{i}.json")
            rc = run(job, root, [even_digest])
            if rc != 0:
                failed_evens += 1
                print(f"failed: ghz N={n_ions} eta={eta} nbar={nbar}: exit code {rc}")
    print(f"{'command':<12} {'field':<24} {'worst |value - ref|':<20} share of REF_TOL")
    for (command, field), diff in sorted(worst.items()):
        print(f"{command:<12} {field:<24} {diff:<20.3g} {diff / workloads.REF_TOL:.3f}")
    print(f"{near} of {jobs} jobs above REF_TOL/2 = {workloads.REF_TOL / 2:g}")
    print(f"{outside} of {jobs} jobs outside REF_TOL = {workloads.REF_TOL:g}")
    print(f"{failed_solves} of {len(solves)} solve jobs fail their closed-form checks")
    print(f"{failed_evens} of {len(evens)} even-N ghz jobs exit nonzero")
    print(f"{len(forks)} forks by the jobs")
    cross_worst, cross_cases = closed_form_distance()
    print(
        f"closed form vs dense oracle: worst restricted distance {cross_worst:.6e} "
        f"over {cross_cases} crosscheck cases (seeds {', '.join(map(str, CROSSCHECK_SEEDS))}), "
        f"CROSSCHECK_TOL = {workloads.CROSSCHECK_TOL:g}"
    )
    print(f"{'command':<12} {'field':<24} worst |value - exact (n_max+1)-sized value|")
    for (command, field), diff in sorted(exact_worst.items()):
        print(f"{command:<12} {field:<24} {diff:.3g}")
    print(f"sha256 of every job's output files: {digest.hexdigest()}")
    for command, command_digest in sorted(per_command.items()):
        print(f"sha256 of {command + ' outputs:':<24} {command_digest.hexdigest()}")
    cross_failed = not cross_worst <= workloads.CROSSCHECK_TOL
    return 1 if outside or failed_solves or failed_evens or cross_failed else 0


if __name__ == "__main__":
    sys.exit(main())
