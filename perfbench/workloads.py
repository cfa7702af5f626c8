"""The four benchmark workloads: which jobs a repetition runs, and how each
job's output is checked.

A job is one child process. CLI jobs run ``iongate.cli.main(argv)``; the
crosscheck job runs several library cases in one process. A seed only picks
parameter values (eta, nbar, pulse parameters, times) from fixed pools or
ranges; matrix sizes depend on the size profile alone, so the work per
repetition does not depend on the seed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("cli-short", "sweep-n3", "ghz-n5", "crosscheck")

#: absolute tolerance against recorded references; it admits the dense
#: Uhlmann-fidelity noise floor of about 5-7e-8 and nothing wider
REF_TOL = 1e-7
#: solve: achieved C and -D against pi/8 and pi/4
COEFF_TOL = 1e-12
#: solve: solved (theta, r) against the principal-branch closed form
CLOSED_FORM_TOL = 1e-10
#: crosscheck: restricted closed-form vs oracle distance (criterion 3)
CROSSCHECK_TOL = 1e-10
#: reference fields that are angles, compared modulo 2 pi
PHASE_KEYS = frozenset({"rel_phase", "phi_e", "phi_g", "expected_rel_phase"})

CLI_ETAS = (0.05, 0.08, 0.1, 0.12, 0.15, 0.2)
CLI_NBARS = (0.5, 1.0, 2.0)
SWEEP_ETAS = (0.04, 0.06, 0.08, 0.1, 0.12, 0.15, 0.2, 0.25)
SWEEP_NBARS = (0.0, 2.0)
GHZ_ETAS = (0.05, 0.1, 0.15, 0.2)
GHZ_NBARS = (1.0, 2.0)
MODELS = ("ld", "full")

REFS_PATH = Path(__file__).resolve().parent / "refs.json"


@dataclass(frozen=True)
class Size:
    """Matrix sizes of one profile; no seed changes them."""

    gate_n_max: int
    sweep_n_ions: int
    sweep_n_max: int
    sweep_points: int
    ghz_n_ions: int
    ghz_n_max: int
    cross_n_max: int
    cross_cases: tuple[tuple[int, int], ...]  # (n_ions, number of cases)


FULL = Size(
    gate_n_max=40,
    sweep_n_ions=3,
    sweep_n_max=40,
    sweep_points=3,
    ghz_n_ions=5,
    ghz_n_max=40,
    cross_n_max=60,
    cross_cases=((2, 6), (3, 10)),
)
SMOKE = Size(
    gate_n_max=20,
    sweep_n_ions=2,
    sweep_n_max=20,
    sweep_points=1,
    ghz_n_ions=3,
    ghz_n_max=20,
    cross_n_max=60,
    cross_cases=((2, 1), (3, 1)),
)


@dataclass
class Job:
    """One child process: launcher mode, its arguments, and its checks.

    A CLI job is one case; the crosscheck job runs ``cases`` of them.
    ``outputs()`` returns the reference-comparable values the job wrote, keyed
    by reference key; ``extra_check()`` returns error strings from checks that
    need no reference; ``case_seconds()`` returns in-process per-case times.
    """

    name: str
    mode: str
    args: list[str]
    cases: int = 1
    outputs: Callable[[], dict] | None = None
    extra_check: Callable[[], list[str]] | None = None
    case_seconds: Callable[[], list[float]] | None = None


def _num(x: float) -> str:
    return repr(float(x))


def gate_key(eta, nbar, n_max, model) -> str:
    return f"gate-check:eta={eta!r}:nbar={nbar!r}:n_max={n_max}:model={model}"


def convergence_key(eta, nbar) -> str:
    return f"convergence:eta={eta!r}:nbar={nbar!r}:list=default:model=ld"


def sweep_key(n_ions, n_max, eta, nbar) -> str:
    return f"sweep:n_ions={n_ions}:n_max={n_max}:model=full:eta={eta!r}:nbar={nbar!r}"


def ghz_key(n_ions, n_max, eta, nbar) -> str:
    return f"ghz:n_ions={n_ions}:n_max={n_max}:model=full:eta={eta!r}:nbar={nbar!r}"


def _jobdirs(base: Path):
    for i in itertools.count():
        path = base / f"j{i}"
        path.mkdir(parents=True)
        yield path


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- jobs ------------------------------------------------------------------


def solve_job(eta: float, literal: bool, out: Path) -> Job:
    args = ["solve", "--eta", _num(eta), "--out", str(out)]
    if literal:
        args.insert(3, "--literal-params")

    def check() -> list[str]:
        payload = _read_json(out)
        sol = payload["solution"]
        errors = []
        if not abs(sol["achieved_c"] - math.pi / 8) <= COEFF_TOL:
            errors.append(f"solve C={sol['achieved_c']!r} is not pi/8")
        if not abs(-sol["achieved_d"] - math.pi / 4) <= COEFF_TOL:
            errors.append(f"solve -D={-sol['achieved_d']!r} is not pi/4")
        r = math.sqrt(eta**2 + 4.0) / (8.0 * eta)
        theta = -math.asin(eta / math.sqrt(eta**2 + 4.0))
        if not (
            abs(sol["omega_ratio"] - r) <= CLOSED_FORM_TOL * max(1.0, r)
            and abs(sol["theta"] - theta) <= CLOSED_FORM_TOL
        ):
            errors.append("solve (theta, r) differs from the closed form")
        if literal:
            lit = payload["literal"]
            if not abs(lit["achieved_c"] - math.pi**2 / 8) <= COEFF_TOL:
                errors.append(f"literal C={lit['achieved_c']!r} is not pi^2/8")
            if not abs(-lit["achieved_d"] - math.pi**2 / 4) <= COEFF_TOL:
                errors.append(f"literal -D={-lit['achieved_d']!r} is not pi^2/4")
        return errors

    return Job("solve", "cli", args, extra_check=check)


def gate_check_job(eta, nbar, n_max, model, out: Path) -> Job:
    args = ["gate-check", "--eta", _num(eta), "--nbar", _num(nbar), "--n-max", str(n_max)]
    if model == "full":
        args.append("--full-hamiltonian")
    args += ["--out", str(out)]
    return Job(
        "gate-check",
        "cli",
        args,
        outputs=lambda: {gate_key(eta, nbar, n_max, model): _read_json(out)},
    )


def convergence_job(eta, nbar, out: Path) -> Job:
    args = ["convergence", "--eta", _num(eta), "--nbar", _num(nbar), "--out", str(out)]
    return Job(
        "convergence",
        "cli",
        args,
        outputs=lambda: {convergence_key(eta, nbar): _read_json(out)},
    )


def sweep_job(etas, nbars, n_ions, n_max, jobdir: Path) -> Job:
    config = jobdir / "sweep_config.json"
    csv_path, json_path = jobdir / "sweep.csv", jobdir / "sweep.json"
    config.write_text(
        json.dumps(
            {
                "model": {
                    "n_ions": n_ions,
                    "n_max": n_max,
                    "n_pad": 10,
                    "hamiltonian": "full",
                    "seed": 7,
                },
                "grids": {"eta": list(etas), "nbar": list(nbars)},
                "output": {"csv": str(csv_path), "json": str(json_path)},
            }
        ),
        encoding="utf-8",
    )

    def outputs() -> dict:
        records = _read_json(json_path)["records"]
        return {sweep_key(n_ions, n_max, r["eta"], r["nbar"]): r for r in records}

    def check() -> list[str]:
        records = _read_json(json_path)["records"]
        errors = []
        if len(records) != len(etas) * len(nbars):
            errors.append(f"sweep wrote {len(records)} records")
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, rec in zip(rows, records):
            for col in ("eta", "nbar", "infidelity_gate", "infidelity_ghz", "leakage"):
                if float(row[col]) != rec[col]:
                    errors.append(f"sweep csv {col}={row[col]} differs from json {rec[col]!r}")
        if len(rows) != len(records):
            errors.append("sweep csv and json disagree on the row count")
        return errors

    return Job(
        "sweep",
        "cli",
        ["sweep", "--config", str(config)],
        outputs=outputs,
        extra_check=check,
    )


def ghz_job(n_ions, n_max, eta, nbar, out: Path) -> Job:
    args = [
        "ghz",
        "--n-ions",
        str(n_ions),
        "--n-max",
        str(n_max),
        "--nbar",
        _num(nbar),
        "--eta",
        _num(eta),
        "--full-hamiltonian",
        "--out",
        str(out),
    ]
    return Job(
        "ghz",
        "cli",
        args,
        outputs=lambda: {ghz_key(n_ions, n_max, eta, nbar): _read_json(out)},
    )


def crosscheck_cases(rng: random.Random, size: Size) -> list[dict]:
    """Contained draws, t in [0, tau]. The coupling lambda = eta r cos(theta)
    is kept to lambda <= 1/(2N), so the conditional displacement |beta m| stays
    within 1 and the oracle's Fock-60 cutoff stays out of the compared
    Fock <= 30 blocks (at N=3, lambda near 1/4 reaches 6e-10)."""
    cases = []
    for n_ions, count in size.cross_cases:
        for _ in range(count):
            eta = rng.uniform(0.05, 0.3)
            lam = rng.uniform(0.02, 0.5 / n_ions)
            theta = rng.uniform(-1.2, 1.2)
            params = {
                "eta": eta,
                "omega_ratio": lam / (eta * math.cos(theta)),
                "theta": theta,
                "n_ions": n_ions,
                "n_max": size.cross_n_max,
            }
            cases.append({"params": params, "t": rng.uniform(0.0, 2.0 * math.pi)})
    return cases


def crosscheck_job(cases: list[dict], jobdir: Path) -> Job:
    cases_path, results_path = jobdir / "cases.json", jobdir / "results.json"
    cases_path.write_text(json.dumps(cases), encoding="utf-8")

    def check() -> list[str]:
        results = _read_json(results_path)
        errors = []
        for i, res in enumerate(results):
            dist = res.get("distance")
            if dist is None or not dist <= CROSSCHECK_TOL:
                errors.append(f"crosscheck case {i}: {res}")
        errors += ["crosscheck case missing"] * (len(cases) - len(results))
        return errors

    return Job(
        "crosscheck",
        "crosscheck",
        [str(cases_path), str(results_path)],
        cases=len(cases),
        extra_check=check,
        case_seconds=lambda: [r["seconds"] for r in _read_json(results_path)],
    )


# --- plans -------------------------------------------------------------------


def plan(workload: str, seed: int, rep: int, size: Size, repdir: Path) -> list[Job]:
    """The jobs of repetition ``rep``; the same (seed, rep) gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}:{rep}")
    dirs = _jobdirs(repdir)
    jobs: list[Job] = []

    if workload == "cli-short":
        for literal in (False, True):
            jobs.append(solve_job(rng.uniform(0.03, 0.3), literal, next(dirs) / "out.json"))
        for model in MODELS:
            eta, nbar = rng.choice(CLI_ETAS), rng.choice(CLI_NBARS)
            jobs.append(gate_check_job(eta, nbar, size.gate_n_max, model, next(dirs) / "out.json"))
        eta, nbar = rng.choice(CLI_ETAS), rng.choice(CLI_NBARS)
        jobs.append(convergence_job(eta, nbar, next(dirs) / "out.json"))
    elif workload == "sweep-n3":
        etas = sorted(rng.sample(SWEEP_ETAS, size.sweep_points))
        jobs.append(sweep_job(etas, SWEEP_NBARS, size.sweep_n_ions, size.sweep_n_max, next(dirs)))
    elif workload == "ghz-n5":
        eta, nbar = rng.choice(GHZ_ETAS), rng.choice(GHZ_NBARS)
        jobs.append(ghz_job(size.ghz_n_ions, size.ghz_n_max, eta, nbar, next(dirs) / "out.json"))
    elif workload == "crosscheck":
        jobs.append(crosscheck_job(crosscheck_cases(rng, size), next(dirs)))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return jobs


def reference_plan(size: Size, workdir: Path) -> list[Job]:
    """Every reference-checked job any seed can draw at this size."""
    dirs = _jobdirs(workdir)
    jobs: list[Job] = []

    for eta in CLI_ETAS:
        for nbar in CLI_NBARS:
            for model in MODELS:
                jobs.append(gate_check_job(eta, nbar, size.gate_n_max, model, next(dirs) / "o.json"))
            jobs.append(convergence_job(eta, nbar, next(dirs) / "o.json"))
    jobs.append(sweep_job(SWEEP_ETAS, SWEEP_NBARS, size.sweep_n_ions, size.sweep_n_max, next(dirs)))
    for eta in GHZ_ETAS:
        for nbar in GHZ_NBARS:
            jobs.append(ghz_job(size.ghz_n_ions, size.ghz_n_max, eta, nbar, next(dirs) / "o.json"))
    return jobs


# --- checks ------------------------------------------------------------------


def compare(actual, ref, path: str = "") -> list[str]:
    """Mismatches of ``actual`` against ``ref``: floats within REF_TOL (angles
    modulo 2 pi), everything else exactly. Keys absent from ``ref`` are not
    compared, so new output fields are additive."""
    if isinstance(ref, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        errors = []
        for key, value in ref.items():
            if key not in actual:
                errors.append(f"{path}.{key}: missing")
            else:
                errors += compare(actual[key], value, f"{path}.{key}")
        return errors
    if isinstance(ref, list):
        if not isinstance(actual, list) or len(actual) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        errors = []
        for i, (a, r) in enumerate(zip(actual, ref)):
            errors += compare(a, r, f"{path}[{i}]")
        return errors
    if isinstance(ref, float):
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            return [f"{path}: {actual!r} is not a number"]
        diff = actual - ref
        if path.rsplit(".", 1)[-1] in PHASE_KEYS:
            diff = math.remainder(diff, 2.0 * math.pi)
        if not abs(diff) <= REF_TOL:
            return [f"{path}: {actual!r} differs from reference {ref!r}"]
        return []
    if actual != ref or type(actual) is not type(ref):
        return [f"{path}: {actual!r} differs from reference {ref!r}"]
    return []


def check_job(job: Job, rc: int, refs: dict) -> list[str]:
    """Error strings for a finished job. The job's failed cases number
    ``min(len(errors), job.cases)``."""
    if rc != 0:
        return [f"{job.name}: exit code {rc}"] * job.cases
    errors: list[str] = []
    try:
        if job.outputs is not None:
            for key, value in job.outputs().items():
                if key not in refs:
                    errors.append(f"{job.name}: no reference for {key}")
                else:
                    errors += compare(value, refs[key], key)
        if job.extra_check is not None:
            errors += job.extra_check()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{job.name}: unreadable output ({exc!r})"] * job.cases
    return errors


def load_refs() -> dict:
    return _read_json(REFS_PATH)
