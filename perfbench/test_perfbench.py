"""Tests of the benchmark itself: trace arithmetic, wrapping coverage, output
checks, the BENCHMARK.json contract, and smoke runs of every workload.

    python3 -m pytest perfbench -q

The smoke runs take about a minute; they check correctness only, with no
timing bounds.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )
    return out


def last_json(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


# --- trace arithmetic --------------------------------------------------------


def test_self_times_of_hand_built_spans():
    spans = [
        ["outer", 0.0, 10.0, None, None],
        ["a", 1.0, 3.0, 0, None],
        ["b", 4.0, 8.0, 0, None],
        ["c", 5.0, 6.0, 2, None],
        ["other", 11.0, 12.0, None, None],
    ]
    assert tracer.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.0]


def test_self_times_of_a_synthetic_nested_call():
    tr = tracer.Tracer()

    def leaf():
        time.sleep(0.02)

    def middle():
        leaf()
        leaf()

    def outer():
        time.sleep(0.01)
        middle()

    leaf = tr.wrap("t.leaf", leaf)
    middle = tr.wrap("t.middle", middle)
    outer = tr.wrap("t.outer", outer)
    outer()
    names = [s[0] for s in tr.spans]
    assert names == ["t.outer", "t.middle", "t.leaf", "t.leaf"]
    assert [s[3] for s in tr.spans] == [None, 0, 1, 1]
    own = tracer.self_times(tr.spans)
    total = tr.spans[0][2] - tr.spans[0][1]
    assert math.isclose(sum(own), total, rel_tol=0, abs_tol=1e-9)
    assert own[0] >= 0.01 and own[2] >= 0.02 and own[3] >= 0.02
    assert 0.0 <= own[1] < 0.01


def test_install_wraps_every_binding_and_uninstall_restores():
    import iongate
    import iongate.cli
    from iongate import analysis, cli, dynamics, hilbert

    original_evolve = dynamics.evolve
    original_post_init = hilbert.QuantumState.__post_init__
    tr = tracer.Tracer()
    tr.install()
    try:
        # the same function reached through every re-export is wrapped
        for owner in (dynamics, analysis, iongate):
            assert owner.evolve is not original_evolve
            assert owner.evolve.__wrapped__ is original_evolve
        assert cli.truth_table_check.__wrapped__ is analysis.truth_table_check.__wrapped__
        # no module attribute still holds an unwrapped public layer function
        for mod in (iongate, hilbert, dynamics, analysis, cli, sys.modules["iongate.synthesis"]):
            for attr, obj in vars(mod).items():
                if callable(obj) and getattr(obj, "__module__", "").startswith("iongate."):
                    if not attr.startswith("_") and type(obj).__name__ == "function":
                        assert hasattr(obj, "__wrapped__"), f"{mod.__name__}.{attr}"
        params = iongate.ModelParams(eta=0.1, omega_ratio=1.0, theta=0.1, n_max=6, n_pad=4)
        motion = iongate.fock_state(0, 6)
        iongate.truth_table_check(params, motion)
    finally:
        tr.uninstall()
    assert dynamics.evolve is original_evolve and analysis.evolve is original_evolve
    assert hilbert.QuantumState.__post_init__ is original_post_init
    names = [s[0] for s in tr.spans]
    top = names.index("analysis.truth_table_check")
    assert tr.spans[top][3] is None
    evolves = [s for s in tr.spans if s[0] == "dynamics.evolve"]
    assert len(evolves) == 4 and all(s[3] == top for s in evolves)
    assert {s[4] for s in evolves} == {4 * 7}
    assert "dynamics.expm_propagator" in names and tracer.VALIDATE_SPAN in names


# --- calibration -------------------------------------------------------------


def test_calibration_is_left_out_of_times_and_divides_them():
    report = {"t_imported": 1.5, "t_main_end": 3.0, "cal": [0.2, 0.4]}
    proc = run.Proc(t0=1.0, t1=4.0, rc=0, maxrss_mb=1.0, report=report)
    assert proc.wall == pytest.approx(2.4)
    assert proc.setup_s == pytest.approx(0.3)
    assert proc.speed == pytest.approx(0.3)
    rep = run.Rep(False, 4.8, [proc, proc], 2, 0, [])
    assert rep.wall_cal == pytest.approx(16.0)
    traced = run.Proc(1.0, 4.0, 0, 1.0, {"t_imported": 1.5, "t_main_end": 3.0})
    assert traced.wall == 3.0 and traced.setup_s == 0.5 and traced.speed is None
    assert run.Rep(True, 3.0, [traced], 1, 0, []).wall_cal is None


# --- output checks -----------------------------------------------------------


def test_compare_admits_the_noise_floor_and_nothing_wider():
    ref = {"fidelity": 0.99, "rel_phase": math.pi, "flags": [], "n_max": 40}
    assert workloads.compare({"fidelity": 0.99 + 7e-8, "rel_phase": -math.pi + 1e-9,
                              "flags": [], "n_max": 40, "new_field": 1}, ref) == []
    assert workloads.compare({"fidelity": 0.99 + 2e-7, "rel_phase": math.pi,
                              "flags": [], "n_max": 40}, ref)
    assert workloads.compare({"fidelity": float("nan"), "rel_phase": math.pi,
                              "flags": [], "n_max": 40}, ref)
    assert workloads.compare({"fidelity": 0.99, "rel_phase": math.pi,
                              "flags": ["truncation-unreliable"], "n_max": 40}, ref)
    assert workloads.compare({"rel_phase": math.pi, "flags": [], "n_max": 40}, ref)


def test_every_drawable_job_has_a_reference():
    w = workloads
    refs = w.load_refs()
    for size in (w.FULL, w.SMOKE):
        keys = [
            w.sweep_key(size.sweep_n_ions, size.sweep_n_max, e, n)
            for e in w.SWEEP_ETAS
            for n in w.SWEEP_NBARS
        ]
        keys += [
            w.ghz_key(size.ghz_n_ions, size.ghz_n_max, e, n)
            for e in w.GHZ_ETAS
            for n in w.GHZ_NBARS
        ]
        for e in w.CLI_ETAS:
            for n in w.CLI_NBARS:
                keys.append(w.convergence_key(e, n))
                keys += [w.gate_key(e, n, size.gate_n_max, m) for m in w.MODELS]
        assert [k for k in keys if k not in refs] == []


def test_plans_are_deterministic_per_seed(tmp_path):
    def shape(seed, sub):
        jobs = workloads.plan("cli-short", seed, 0, workloads.FULL, tmp_path / sub)
        return [j.args for j in jobs]

    assert shape(1, "a") != shape(2, "b")
    first, again = shape(1, "c"), shape(1, "d")
    strip = lambda argv: [a for a in argv if str(tmp_path) not in a]  # noqa: E731
    assert [strip(a) for a in first] == [strip(a) for a in again]


# --- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    seen = set()
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for metric in SPEC[group]:
            assert set(metric) == keys
            assert name.match(metric["name"]) and metric["name"] not in seen
            assert unit.match(metric["unit"]) and metric["better"] in ("lower", "higher")
            seen.add(metric["name"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert len(SPEC["per_layer"]) <= 128
    assert len(json.dumps(SPEC)) <= 64 * 1024


# --- smoke runs ----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct(workload):
    result = last_json(run_bench("--workload", workload, "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_trace_dims_do_not_depend_on_the_seed(workload):
    dims = []
    for seed in ("1", "2"):
        out = run_bench("--workload", workload, "--smoke", "--trace", "1", "--seed", seed)
        result = last_json(out)
        assert result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        line = next(x for x in out.stdout.splitlines() if x.startswith("# dims "))
        dims.append(json.loads(line[len("# dims "):]))
        check = next(x for x in out.stdout.splitlines() if x.startswith("# trace check"))
        assert check.endswith("pass"), check
    assert dims[0] == dims[1] and dims[0]


def test_a_directory_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "cli-short", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip().endswith("}")
