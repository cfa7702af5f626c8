"""Command-line interface: exit codes, output schemas, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import ROOT
from iongate import ThermalSpec, analysis, cli, dynamics, synthesis, thermal_state
from iongate.cli import ConfigError, load_run_config, main

SCHEMA = json.loads(
    (Path(__file__).parent / "data" / "cli_schema.json").read_text()
)


def run_cli(*argv) -> int:
    return main(list(argv))


def write_config(path: Path, **overrides) -> Path:
    config = {
        "model": {"n_ions": 2, "n_max": 12, "n_pad": 10, "hamiltonian": "ld"},
        "grids": {"eta": [0.1], "nbar": [0.0]},
        "output": {},
    }
    config.update(overrides)
    cfg_path = path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path


class TestSolveCommand:
    def test_happy_path_schema(self, tmp_path, capsys):
        out = tmp_path / "solve.json"
        assert run_cli("solve", "--eta", "0.1", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert sorted(payload) == SCHEMA["solve"]["top"]
        assert sorted(payload["solution"]) == SCHEMA["solve"]["solution"]
        assert abs(payload["solution"]["achieved_c"] - np.pi / 8) < 1e-12
        assert "theta" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, literal", [([], False), (["--literal-params"], True)])
    def test_settings_recorded(self, tmp_path, flags, literal):
        out = tmp_path / "solve.json"
        assert run_cli("solve", "--eta", "0.1", *flags, "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["eta"] == 0.1
        assert payload["literal_params"] is literal

    def test_literal_params_section(self, tmp_path):
        out = tmp_path / "solve.json"
        code = run_cli(
            "solve", "--eta", "0.1", "--literal-params", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert sorted(payload) == sorted(
            SCHEMA["solve"]["top"] + SCHEMA["solve"]["optional"]
        )
        assert abs(payload["literal"]["achieved_c"] - 1.2337005501361697) < 1e-10

    def test_invalid_eta_exits_2(self, capsys):
        assert run_cli("solve", "--eta", "-1") == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["inf", "nan"])
    def test_nonfinite_eta_exits_2(self, eta, capsys):
        assert run_cli("solve", "--eta", eta) == 2
        assert "finite" in capsys.readouterr().err

    def test_tiny_eta_solves(self, tmp_path):
        # eta^2 and r^2 leave the float range, the coupling eta r cos(theta)
        # = 1/4 does not; the literal expressions are evaluated without eta^2
        out = tmp_path / "solve.json"
        code = run_cli(
            "solve", "--eta", "1e-200", "--literal-params", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        sol, literal = payload["solution"], payload["literal"]
        assert abs(sol["achieved_c"] - np.pi / 8) < 1e-12
        assert np.isclose(sol["omega_ratio"], 2.5e199, rtol=1e-12)
        assert abs(literal["achieved_c"] - np.pi**2 / 8) < 1e-12
        assert abs(-literal["achieved_d"] - np.pi**2 / 4) < 1e-12

    @pytest.mark.parametrize("eta", ["1e5", "1e200", "1e-320"])
    def test_out_of_range_eta_exits_1(self, eta, capsys):
        # above eta ~ 2.4e4 cos(theta) is roundoff-limited and C misses its
        # 1e-12 residual (at 1e200, C is inf); a subnormal eta makes r inf
        assert run_cli("solve", "--eta", eta) == 1
        assert "gate parameter solve failed" in capsys.readouterr().err


class TestGateCheckCommand:
    def test_vacuum_run_schema_and_values(self, tmp_path):
        out = tmp_path / "gc.json"
        code = run_cli(
            "gate-check", "--eta", "0.1", "--nbar", "0", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert sorted(payload) == SCHEMA["gate-check"]["top"]
        assert payload["model"] == "ld"
        assert min(payload["composite_fidelities"]) > 1 - 1e-8
        assert payload["flags"] == []

    def test_thermal_default_cutoff_is_flagged(self, tmp_path):
        out = tmp_path / "gc.json"
        code = run_cli(
            "gate-check", "--eta", "0.1", "--nbar", "2", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert "truncation-unreliable" in payload["flags"]

    def test_full_hamiltonian_reported(self, tmp_path):
        out = tmp_path / "gc.json"
        code = run_cli(
            "gate-check",
            "--eta",
            "0.1",
            "--nbar",
            "0",
            "--n-max",
            "30",
            "--full-hamiltonian",
            "--out",
            str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["model"] == "full"
        # degraded but still a good gate at eta=0.1; reported, not asserted
        assert 0.99 < min(payload["composite_fidelities"]) < 1.0


class TestGhzCommand:
    def test_schema_and_measured_phase(self, tmp_path):
        out = tmp_path / "ghz.json"
        code = run_cli(
            "ghz",
            "--n-ions",
            "2",
            "--eta",
            "0.1",
            "--nbar",
            "0",
            "--n-max",
            "16",
            "--out",
            str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert sorted(payload) == SCHEMA["ghz"]["top"]
        assert payload["fidelity"] > 1 - 1e-9
        assert abs(payload["rel_phase"] - np.pi / 2) < 1e-8
        assert abs(payload["expected_rel_phase"] - np.pi / 2) < 1e-12
        assert abs(payload["phase_deviation"]) < 1e-8

    def test_odd_recipe(self, tmp_path):
        out = tmp_path / "ghz.json"
        code = run_cli(
            "ghz", "--n-ions", "3", "--nbar", "0", "--n-max", "16",
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["fidelity"] > 1 - 1e-9
        assert payload["expected_rel_phase"] is None

    @pytest.mark.filterwarnings("ignore:thermal tail weight")
    def test_n_max_is_the_cutoff_of_the_motion(self, tmp_path):
        # ghz_check reads the cutoff from the thermal motion --n-max builds;
        # at nbar = 2 the leakage above n_max/2 depends on it
        leakages = []
        for n_max in (8, 16):
            out = tmp_path / f"ghz{n_max}.json"
            argv = ("ghz", "--n-ions", "3", "--eta", "0.1", "--nbar", "2")
            assert run_cli(*argv, "--n-max", str(n_max), "--out", str(out)) == 0
            motion = thermal_state(ThermalSpec(nbar=2.0, n_max=n_max))
            report = analysis.ghz_check(3, 0.1, motion)
            payload = json.loads(out.read_text())
            assert payload["leakage"] == report.leakage
            assert payload["fidelity"] == report.fidelity
            leakages.append(report.leakage)
        assert leakages[0] != leakages[1]

    def test_ion_count_guard(self, tmp_path, capsys):
        out = tmp_path / "ghz.json"
        for flags, message in [
            (["--n-ions", "7"], "--n-ions=7 outside the desk-scale guard [2, 6]; "
             "pass --force to override"),
            # one ion is refused by its floor, which --force cannot lift
            (["--n-ions", "1"], "--n-ions must be >= 2, got 1"),
            (["--n-ions", "1", "--force"], "--n-ions must be >= 2, got 1"),
        ]:
            assert run_cli("ghz", *flags, "--out", str(out)) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n"
            assert captured.out == ""
            assert not out.exists()

    @pytest.mark.parametrize("n_ions", ["2", "4"])
    @pytest.mark.parametrize("eta", ["0", "-0.0"])
    def test_zero_eta_exits_2_for_the_even_recipe(self, n_ions, eta, capsys):
        code = run_cli(
            "ghz", "--n-ions", n_ions, "--eta", eta, "--n-max", "6", "--nbar", "0"
        )
        assert code == 2
        assert "eta must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("n_ions", ["2", "3"])
    def test_subnormal_eta_fails_the_solve_for_either_recipe(self, n_ions, capsys):
        # r = inf misses the residual check of every solved pulse, even or odd
        code = run_cli(
            "ghz", "--n-ions", n_ions, "--eta", "1e-320", "--n-max", "4", "--nbar", "0"
        )
        assert code == 1
        assert "gate parameter solve failed" in capsys.readouterr().err

    def test_force_keeps_in_range_behavior(self, tmp_path):
        code = run_cli(
            "ghz", "--n-ions", "2", "--force", "--nbar", "0", "--n-max", "12"
        )
        assert code == 0

    def test_force_runs_large_n(self, tmp_path):
        out = tmp_path / "ghz.json"
        code = run_cli(
            "ghz", "--n-ions", "12", "--force", "--n-max", "160", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert np.isfinite(payload["fidelity"])
        assert np.isfinite(payload["rel_phase"])
        assert payload["fidelity"] > 1 - 1e-8
        assert payload["phase_deviation"] < 1e-8

    def test_force_runs_past_the_float_range_of_two_to_the_n(self, tmp_path):
        # 2.0**1024 overflows a float, and from N = 67 on C(N, k) leaves
        # int64; the sector weights C(N, k) / 2^N are exact integer ratios
        out = tmp_path / "ghz.json"
        code = run_cli(
            "ghz", "--n-ions", "1024", "--force", "--n-max", "2", "--nbar", "0",
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert 0.0 <= payload["fidelity"] <= 1.0
        assert np.isfinite(payload["rel_phase"])
        assert np.isfinite(payload["leakage"])


class TestFloatFlagNames:
    """A float flag or cutoff list that the library refuses is refused by its
    flag's name, as every cutoff flag is."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("solve", "--eta", "0"), "--eta must be finite and > 0, got 0.0"),
            *[
                ((command, "--eta", "nan"), "--eta must be finite and > 0, got nan")
                for command in ("gate-check", "ghz", "convergence")
            ],
            *[
                ((command, "--nbar", "-1"), "--nbar must be finite and >= 0, got -1.0")
                for command in ("gate-check", "ghz", "convergence")
            ],
            (
                ("convergence", "--n-max-list", "10,10"),
                "--n-max-list must be strictly increasing, got [10, 10]",
            ),
        ],
    )
    def test_exits_2_naming_the_flag(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert run_cli(*argv, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_solve_refusal_loads_no_numpy(self):
        run_python("""
import contextlib, io, sys
import iongate.cli
with contextlib.redirect_stderr(io.StringIO()) as err:
    assert iongate.cli.main(["solve", "--eta", "0"]) == 2
assert err.getvalue() == "error: --eta must be finite and > 0, got 0.0\\n", err.getvalue()
assert "numpy" not in sys.modules
""")

    def test_library_messages_keep_their_field_names(self):
        with pytest.raises(ValueError, match="^eta must be finite and > 0, got 0.0$"):
            synthesis.solve_gate_params(0.0)
        with pytest.raises(ValueError, match=r"^nbar must be finite and >= 0, got -1.0$"):
            ThermalSpec(nbar=-1.0, n_max=8)
        with pytest.raises(ValueError, match=r"^n_max_list must be strictly increasing"):
            analysis.truncation_convergence(synthesis.solve_gate_params(0.1), [10, 10])


class TestNonfiniteNbar:
    @pytest.mark.parametrize(
        "argv",
        [
            ("ghz", "--nbar", "nan", "--n-max", "8"),
            ("ghz", "--nbar", "inf", "--n-max", "8"),
            ("gate-check", "--nbar", "nan", "--n-max", "8"),
            ("convergence", "--nbar", "inf", "--n-max-list", "8"),
        ],
    )
    def test_exits_2_naming_nbar(self, argv, capsys):
        assert run_cli(*argv) == 2
        assert "nbar must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("nbar", ["1e16", "1e300"])
    def test_huge_nbar_runs_with_the_tail_warning_only(self, nbar, tmp_path):
        # the uniform limit of the thermal populations: finite output and
        # exit 0, with the truncation warning as the only warning
        out = tmp_path / "gate.json"
        with pytest.warns(UserWarning) as record:
            code = run_cli(
                "gate-check", "--nbar", nbar, "--n-max", "8", "--out", str(out)
            )
        assert code == 0
        assert [str(w.message) for w in record] == [
            "thermal tail weight 1.000e+00 above the cutoff n_max=8 exceeds 1e-6;"
            " results may be truncation-limited"
        ]
        payload = json.loads(out.read_text())
        assert np.isfinite(payload["gate_infidelity"])
        assert np.all(np.isfinite(payload["composite_fidelities"]))

    @pytest.mark.parametrize(
        "grids, key",
        [
            ({"eta": [0.1], "nbar": [0.0, float("nan")]}, "nbar"),
            ({"eta": [0.1], "nbar": [float("inf")]}, "nbar"),
            ({"eta": [float("nan")], "nbar": [0.0]}, "eta"),
            ({"eta": [float("inf")], "nbar": [0.0]}, "eta"),
        ],
    )
    def test_sweep_config_rejects_nonfinite_grid(self, tmp_path, capsys, grids, key):
        # json.dumps writes, and json.load accepts, the NaN and Infinity
        # tokens, so the loader itself must reject them
        cfg = write_config(tmp_path, grids=grids)
        assert "NaN" in cfg.read_text() or "Infinity" in cfg.read_text()
        assert run_cli("sweep", "--config", str(cfg)) == 2
        assert f"{key} grid values must be finite" in capsys.readouterr().err


#: `iongate sweep` in a fresh process with `analysis._FORK_MIN_DIM` set to its
#: first argument and an affinity of two CPUs; it prints a line before the
#: command, which stdout to a pipe holds in its buffer when the sweep forks,
#: and the number of forks after it
FORKED_SWEEP_SCRIPT = """
import os, sys
from iongate import analysis, cli
forks = []
fork = os.fork
def counted_fork():
    forks.append(os.getpid())
    return fork()
os.fork = counted_fork
os.sched_getaffinity = lambda pid: {0, 1}
analysis._FORK_MIN_DIM = float(sys.argv[1])
print("before the sweep")
code = cli.main(sys.argv[2:])
print(f"forks {len(forks)}")
sys.exit(code)
"""


class TestSweepCommand:
    def test_a_forked_sweep_writes_the_bytes_of_an_in_process_one(self, tmp_path):
        # N=3, n_max=25: d = 208, so with BLAS pinned to one thread the
        # sweep's points split with one forked child, which inherits the
        # command's open output files and stdout buffer
        blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **blas)
        runs = {}
        for floor in ("200", "inf"):
            out = tmp_path / floor
            out.mkdir()
            cfg = write_config(
                out,
                model={"n_ions": 3, "n_max": 25, "n_pad": 10, "hamiltonian": "full"},
                grids={"eta": [0.05, 0.1, 0.2], "nbar": [0.0, 0.5]},
                output={"csv": str(out / "sweep.csv"), "json": str(out / "sweep.json")},
            )
            proc = subprocess.run(
                [sys.executable, "-c", FORKED_SWEEP_SCRIPT, floor, "sweep", "--config", str(cfg)],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            files = [(out / name).read_bytes() for name in ("sweep.csv", "sweep.json")]
            runs[floor] = files, proc.stdout.splitlines()
        (fanned, fanned_lines), (local, local_lines) = runs["200"], runs["inf"]
        assert fanned == local
        assert fanned_lines[-1] == "forks 1" and local_lines[-1] == "forks 0"
        # the marker, the summary, six rows, two paths and the fork count,
        # each once
        assert len(set(fanned_lines)) == len(fanned_lines) == len(local_lines) == 11
        assert fanned_lines[0] == "before the sweep"

    def test_grid_rows_and_rerun_identical(self, tmp_path):
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        json_a = tmp_path / "a.json"
        json_b = tmp_path / "b.json"
        cfg = write_config(
            tmp_path,
            grids={"eta": [0.08, 0.1, 0.12], "nbar": [0.0, 0.5]},
        )
        assert run_cli("sweep", "--config", str(cfg), "--out", str(csv_a), "--format", "csv") == 0
        assert run_cli("sweep", "--config", str(cfg), "--out", str(csv_b), "--format", "csv") == 0
        assert run_cli("sweep", "--config", str(cfg), "--out", str(json_a)) == 0
        assert run_cli("sweep", "--config", str(cfg), "--out", str(json_b)) == 0
        assert csv_a.read_bytes() == csv_b.read_bytes()
        assert json_a.read_bytes() == json_b.read_bytes()
        lines = csv_a.read_text().splitlines()
        assert len(lines) == 1 + 6
        assert lines[0] == ",".join(SCHEMA["sweep"]["csv_columns"])
        payload = json.loads(json_a.read_text())
        assert sorted(payload) == SCHEMA["sweep"]["top"]
        assert sorted(payload["records"][0]) == SCHEMA["sweep"]["record"]
        assert payload["grids"] == {"eta": [0.08, 0.1, 0.12], "nbar": [0.0, 0.5]}
        assert set(payload["versions"]) == {"iongate", "numpy"}

    def test_n_pad_recorded_when_the_first_point_fails(self, tmp_path):
        out = tmp_path / "sw.json"
        cfg = write_config(
            tmp_path,
            model={"n_ions": 2, "n_max": 12, "n_pad": 7, "hamiltonian": "ld"},
            grids={"eta": [1e9, 0.1], "nbar": [0.0]},
        )
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 1
        payload = json.loads(out.read_text())
        assert payload["records"][0]["error"]
        assert payload["model"]["n_pad"] == 7

    @pytest.mark.parametrize("missing", ["csv", "json", "out"])
    def test_unwritable_output_refused_before_computing(self, tmp_path, capsys, missing):
        paths = {
            key: tmp_path / ("nodir" if key == missing else ".") / f"sw.{key}"
            for key in ("csv", "json", "out")
        }
        cfg = write_config(
            tmp_path, output={"csv": str(paths["csv"]), "json": str(paths["json"])}
        )
        code = run_cli("sweep", "--config", str(cfg), "--out", str(paths["out"]))
        assert code == 2
        # no row was computed, and the outputs that could be opened are gone
        assert capsys.readouterr().out == ""
        assert not any(path.exists() for path in paths.values())

    def test_output_paths_from_config(self, tmp_path):
        target = tmp_path / "rows.csv"
        cfg = write_config(tmp_path, output={"csv": str(target)})
        assert run_cli("sweep", "--config", str(cfg)) == 0
        assert target.exists()
        assert target.read_text().startswith("eta,nbar,n_max,")

    @pytest.mark.filterwarnings("ignore:thermal tail weight")
    def test_undertruncated_row_is_flagged(self, tmp_path):
        out = tmp_path / "sw.csv"
        cfg = write_config(
            tmp_path,
            model={"n_ions": 2, "n_max": 20, "hamiltonian": "ld"},
            grids={"eta": [0.3], "nbar": [2.0]},
        )
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out), "--format", "csv") == 0
        row = out.read_text().splitlines()[1]
        assert "truncation-unreliable" in row

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        for bad in (
            {"surprise": 1},
            {"model": {"n_ions": 2, "typo": 3}},
            {"grids": {"eta": [0.1], "nbar": [0.0], "extra": []}},
            {"output": {"parquet": "x"}},
        ):
            cfg = write_config(tmp_path, **bad)
            assert run_cli("sweep", "--config", str(cfg)) == 2
            assert "unknown" in capsys.readouterr().err

    def test_invalid_grids_rejected(self, tmp_path):
        cfg = write_config(tmp_path, grids={"eta": [], "nbar": [0.0]})
        assert run_cli("sweep", "--config", str(cfg)) == 2
        cfg = write_config(tmp_path, grids={"eta": [-0.1], "nbar": [0.0]})
        assert run_cli("sweep", "--config", str(cfg)) == 2
        cfg = write_config(tmp_path, grids={"eta": [0.1]})
        assert run_cli("sweep", "--config", str(cfg)) == 2

    @pytest.mark.parametrize(
        "grids, key",
        [
            ({"eta": 0.1, "nbar": [0.0]}, "eta"),
            ({"eta": [True], "nbar": [0.0]}, "eta"),
            ({"eta": ["0.1"], "nbar": [0.0]}, "eta"),
            ({"eta": [0.1], "nbar": "2"}, "nbar"),
        ],
        ids=["scalar", "boolean", "string-element", "string"],
    )
    def test_grid_must_be_array_of_numbers(self, tmp_path, capsys, grids, key):
        cfg = write_config(tmp_path, grids=grids)
        assert run_cli("sweep", "--config", str(cfg)) == 2
        captured = capsys.readouterr()
        assert f"grids.{key} must be a JSON array of numbers" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key", ["eta", "nbar"])
    def test_grid_integer_past_the_float_range_exits_2(self, tmp_path, capsys, key):
        # json.load reads a 401-digit integer exactly; float() of it overflows
        grids = {"eta": [0.1], "nbar": [0.0]}
        grids[key] = [10**400]
        cfg = write_config(tmp_path, grids=grids)
        assert run_cli("sweep", "--config", str(cfg)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: grids.{key} holds an integer too large for a float\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "model, flags, name",
        [
            ({"n_ions": 0}, [], "model.n_ions"),
            ({"n_max": 0}, [], "model.n_max"),
            ({"n_pad": -3}, [], "model.n_pad"),
            ({}, ["--n-max", "0"], "--n-max"),
            ({}, ["--n-pad=-3"], "--n-pad"),
            # every row runs the GHZ recipe, which needs two ions
            ({"n_ions": 1}, [], "model.n_ions"),
        ],
        ids=[
            "model0-n_ions",
            "model1-n_max",
            "model2-n_pad",
            "n-max-flag",
            "n-pad-flag",
            "one-ion",
        ],
    )
    def test_out_of_range_model_values_exit_2(self, tmp_path, capsys, model, flags, name):
        base = {"n_ions": 2, "n_max": 12, "hamiltonian": "ld"}
        cfg = write_config(tmp_path, model={**base, **model})
        assert run_cli("sweep", "--config", str(cfg), *flags) == 2
        captured = capsys.readouterr()
        assert f"{name} must be >=" in captured.err
        # rejected up front, before any sweep row is computed
        assert captured.out == ""

    @pytest.mark.parametrize(
        "model, flags, name",
        [
            ({"n_max": 10**40}, [], "model.n_max"),
            ({"n_max": 2**28}, [], "model.n_max"),
            ({"n_ions": 10**12}, [], "model.n_ions"),
            ({"n_pad": 10**19}, [], "model.n_pad"),
            ({}, ["--n-max", str(10**40)], "--n-max"),
            ({}, [f"--n-pad={10**19}"], "--n-pad"),
        ],
        ids=["n_max", "n_max-n_ions", "n_ions", "n_pad", "n-max-flag", "n-pad-flag"],
    )
    def test_cutoff_past_numpy_size_limit_exits_2(
        self, tmp_path, capsys, monkeypatch, model, flags, name
    ):
        # 2^n_ions (n_max + 1), or n_max + n_pad + 1 for the padded sine
        # operator, past the side of the largest complex matrix numpy can
        # index; today's rows would each record numpy's ValueError
        def forbidden(*args, **kwargs):
            raise AssertionError("a sweep row was computed")

        monkeypatch.setattr(cli, "lamb_dicke_error_sweep", forbidden)
        paths = {key: tmp_path / f"sw.{key}" for key in ("csv", "json", "out")}
        base = {"n_ions": 2, "n_max": 12, "hamiltonian": "ld"}
        cfg = write_config(
            tmp_path,
            model={**base, **model},
            output={"csv": str(paths["csv"]), "json": str(paths["json"])},
        )
        code = run_cli("sweep", "--config", str(cfg), "--out", str(paths["out"]), *flags)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and f"{name}=" in captured.err
        assert "numpy's array size limit" in captured.err
        assert captured.out == ""
        assert not any(path.exists() for path in paths.values())

    def test_cutoff_at_numpy_size_limit_is_accepted(self, tmp_path):
        side = cli._MAX_SIDE
        # the largest accepted cutoffs build nothing in load_run_config
        cfg = write_config(tmp_path, model={"n_ions": 2, "n_max": side // 4 - 1, "n_pad": 0})
        assert load_run_config(str(cfg)).n_max == side // 4 - 1
        cfg = write_config(tmp_path, model={"n_ions": 2, "n_max": 1, "n_pad": side - 2})
        assert load_run_config(str(cfg)).n_pad == side - 2
        cfg = write_config(tmp_path, model={"n_ions": 2, "n_max": 1, "n_pad": side - 1})
        with pytest.raises(ConfigError, match="model.n_pad"):
            load_run_config(str(cfg))
        # numpy itself refuses the first rejected side, without allocating
        with pytest.raises(ValueError, match="too big"):
            np.empty((side + 1, side + 1), dtype=complex)

    def test_size_limit_is_numpys(self):
        # written with sys.maxsize, so that importing the CLI loads no numpy
        itemsize = np.dtype(complex).itemsize
        assert cli._MAX_SIDE == math.isqrt(np.iinfo(np.intp).max // itemsize)

    def test_flag_replaces_a_config_value_below_its_floor(self, tmp_path, capsys):
        # the settings are checked once, after --n-max has replaced the file's
        out = tmp_path / "sw.json"
        cfg = write_config(tmp_path, model={"n_ions": 2, "n_max": 0, "hamiltonian": "ld"})
        assert run_cli("sweep", "--config", str(cfg), "--n-max", "8", "--out", str(out)) == 0
        assert json.loads(out.read_text())["model"]["n_max"] == 8
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "flags, n_max, n_pad",
        [
            ([], 12, 10),
            (["--n-max=30"], 30, 10),
            (["--n-max", "30"], 30, 10),
            (["--n-pad=4"], 12, 4),
        ],
    )
    def test_cutoff_flags_override_config(self, tmp_path, flags, n_max, n_pad):
        out = tmp_path / "sw.json"
        cfg = write_config(tmp_path)
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out), *flags) == 0
        payload = json.loads(out.read_text())
        assert payload["model"]["n_max"] == n_max
        assert payload["model"]["n_pad"] == n_pad
        assert {rec["n_max"] for rec in payload["records"]} == {n_max}

    @pytest.mark.parametrize("flags, seed", [([], 7), (["--seed", "42"], 42)])
    def test_seed_from_config_and_flag(self, tmp_path, flags, seed):
        # model.seed is the sweep's provenance, and --seed overrides it
        out = tmp_path / "sw.json"
        model = {"n_ions": 2, "n_max": 12, "hamiltonian": "ld", "seed": 7}
        cfg = write_config(tmp_path, model=model)
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out), *flags) == 0
        assert json.loads(out.read_text())["seed"] == seed

    @pytest.mark.parametrize(
        "model",
        [
            {"n_ions": 3.5},
            {"n_ions": True},
            {"n_max": 12.0},
            {"n_pad": "10"},
            {"seed": "7"},
            {"seed": 1.5},
            {"seed": False},
        ],
    )
    def test_noninteger_model_values_rejected(self, tmp_path, capsys, model):
        base = {"n_ions": 2, "n_max": 12, "hamiltonian": "ld"}
        cfg = write_config(tmp_path, model={**base, **model})
        assert run_cli("sweep", "--config", str(cfg)) == 2
        assert "integer" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert run_cli("sweep", "--config", str(tmp_path / "nope.json")) == 2

    def test_load_run_config_defaults(self, tmp_path):
        cfg = write_config(tmp_path)
        parsed = load_run_config(str(cfg))
        assert parsed.hamiltonian == "ld"
        assert parsed.n_max == 12
        assert parsed.seed is None

    def test_absent_model_keys_take_the_defaults(self, tmp_path):
        cfg = write_config(tmp_path, model={})
        parsed = load_run_config(str(cfg))
        assert (parsed.n_ions, parsed.n_max, parsed.n_pad) == (2, 40, 10)
        assert parsed.hamiltonian == "full"
        assert parsed.csv_path is None and parsed.json_path is None

    @pytest.mark.parametrize("key", ["csv", "json"])
    @pytest.mark.parametrize("value", [True, 7, 3.5, ["x.csv"], None])
    def test_output_paths_must_be_strings(self, tmp_path, key, value):
        # checked on the loader itself: through the CLI, true and 7 would be
        # opened as file descriptors 1 and 7
        cfg = write_config(tmp_path, output={key: value})
        with pytest.raises(ConfigError, match=f"output.{key}"):
            load_run_config(str(cfg))


class TestConvergenceCommand:
    @pytest.mark.filterwarnings("ignore:thermal tail weight")
    def test_table_csv(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = run_cli(
            "convergence",
            "--eta", "0.1", "--nbar", "0.5",
            "--n-max-list", "10,20",
            "--out", str(out), "--format", "csv",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n_max,gate_infidelity,metric")
        assert len(lines) == 3

    def test_single_element_list(self, tmp_path):
        out = tmp_path / "conv.json"
        code = run_cli(
            "convergence", "--nbar", "0", "--n-max-list", "15", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert sorted(payload) == SCHEMA["convergence"]["top"]
        assert len(payload["rows"]) == 1
        assert sorted(payload["rows"][0]) == SCHEMA["convergence"]["row"]
        assert payload["rows"][0]["diff_infidelity"] is None

    def test_default_cutoffs_recorded(self, tmp_path):
        out = tmp_path / "conv.json"
        assert run_cli("convergence", "--nbar", "0", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["n_max_list"] == [10, 20, 40]
        assert [row["n_max"] for row in payload["rows"]] == [10, 20, 40]

    def test_decreasing_list_rejected(self, capsys):
        assert run_cli("convergence", "--n-max-list", "20,10") == 2
        assert "increasing" in capsys.readouterr().err

    def test_malformed_list_rejected(self):
        assert run_cli("convergence", "--n-max-list", "10,abc") == 2


class TestOutputContract:
    def test_csv_refused_for_scalar_commands(self, tmp_path, capsys):
        # JSON is their only machine format, so --format is not an option
        # and the command is refused before it computes anything
        out = tmp_path / "x.csv"
        for command in ("solve", "gate-check", "ghz"):
            with pytest.raises(SystemExit) as exc:
                run_cli(command, "--eta", "0.1", "--out", str(out), "--format", "csv")
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "convergence"])
    def test_text_format_refused(self, tmp_path, capsys, command):
        # human text goes to standard output only; no file takes it
        cfg = write_config(tmp_path)
        args = ["--config", str(cfg)] if command == "sweep" else []
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *args, "--format", "text")
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_machine_output_only_via_out(self, tmp_path, capsys):
        assert run_cli("solve", "--eta", "0.1") == 0
        text = capsys.readouterr().out
        assert not text.lstrip().startswith("{")

    def test_runtime_never_in_machine_output(self, tmp_path):
        out = tmp_path / "sw.json"
        cfg = write_config(tmp_path)
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
        assert "runtime" not in out.read_text()

    def test_seed_recorded(self, tmp_path):
        out = tmp_path / "solve.json"
        assert run_cli("solve", "--eta", "0.1", "--seed", "42", "--out", str(out)) == 0
        assert json.loads(out.read_text())["seed"] == 42

    @pytest.mark.parametrize(
        "argv",
        [
            ["gate-check", "--nbar", "0", "--n-max", "8"],
            ["ghz", "--nbar", "0", "--n-max", "8"],
            ["convergence", "--nbar", "0", "--n-max-list", "6,8"],
        ],
        ids=["gate-check", "ghz", "convergence"],
    )
    @pytest.mark.parametrize("flags, n_pad", [([], 10), (["--n-pad", "4"], 4)])
    def test_n_pad_recorded(self, tmp_path, argv, flags, n_pad):
        # the padding changes the full model's numbers, so its value is
        # provenance like the cutoff's
        out = tmp_path / "out.json"
        assert run_cli(*argv, *flags, "--out", str(out)) == 0
        assert json.loads(out.read_text())["n_pad"] == n_pad

    @pytest.mark.parametrize(
        "argv, moving",
        [
            (["gate-check", "--full-hamiltonian"], {"composite_fidelities", "gate_infidelity"}),
            (["ghz", "--n-ions", "5", "--full-hamiltonian"], set()),
            (["convergence", "--full-hamiltonian"], {"gate_infidelity", "diff_infidelity"}),
        ],
        ids=["gate-check", "ghz", "convergence"],
    )
    def test_only_composite_fields_depend_on_the_blas_threads(self, tmp_path, argv, moving):
        # each full-model default command in fresh processes at one and at two
        # OpenBLAS threads. The composite-derived fields (`moving`, in the
        # convergence rows for that command) come from d-sized eigvalsh
        # spectra whose roundoff moves with the thread count; ROADMAP item 2
        # replaces them with (n_max+1)-sized values and removes that noise.
        # Every other field keeps its bits
        def fields(threads):
            out = tmp_path / f"{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "iongate.cli", *argv, "--out", str(out)],
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            payload = json.loads(out.read_text())
            for record in payload.get("rows", [payload]):
                for name in moving:
                    record.pop(name)
            return payload

        assert fields("1") == fields("2")

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        assert run_cli("solve", "--eta", "0.1", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["gate-check", "ghz"])
    def test_unwritable_out_refused_before_computing(self, tmp_path, capsys, command):
        # --out is opened before the command computes, so nothing is printed
        assert run_cli(command, "--out", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["solve", "--eta", "1e5"], 1),
            (["ghz", "--n-ions", "9"], 2),
            (["convergence", "--n-max-list", "20,10"], 2),
        ],
    )
    def test_failed_command_leaves_no_output(self, tmp_path, argv, code):
        out = tmp_path / "out.json"
        assert run_cli(*argv, "--out", str(out)) == code
        assert not out.exists()

    def test_failed_command_keeps_a_symbolic_link(self, tmp_path):
        # only regular files are removed, never what a link points through
        target = tmp_path / "target.json"
        target.write_text("{}")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert run_cli("solve", "--eta", "1e5", "--out", str(link)) == 1
        assert link.is_symlink() and target.exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["ghz", "--n-ions", "3"], "ghz_check"),
            (["convergence", "--n-max-list", "10,20"], "truncation_convergence"),
        ],
    )
    @pytest.mark.parametrize(
        "error, message",
        [
            # what numpy raises for an array past the memory it can get
            (
                MemoryError("Unable to allocate 1.42 EiB for an array with shape (2, 2)"),
                "Unable to allocate 1.42 EiB for an array with shape (2, 2)",
            ),
            (MemoryError(), "MemoryError"),
        ],
        ids=["numpy", "bare"],
    )
    def test_out_of_memory_exits_1(
        self, tmp_path, capsys, monkeypatch, argv, name, error, message
    ):
        # the command is made to raise: a real allocation of that size may
        # fail at once or be granted, depending on the host's overcommit
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, name, exhausted)
        out = tmp_path / "out.json"
        assert run_cli(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["gate-check", "--n-max", str(10**18)], "--n-max"),
            (["gate-check", "--full-hamiltonian", f"--n-pad={10**19}"], "--n-pad"),
            # refused although the LD model builds no sine operator
            (["gate-check", f"--n-pad={10**19}"], "--n-pad"),
            (["convergence", "--n-max-list", f"10,{10**18}"], "--n-max-list"),
            (["convergence", f"--n-pad={10**19}"], "--n-pad"),
            (["ghz", "--n-max", str(3 * 10**18)], "--n-max"),
            (["ghz", "--full-hamiltonian", f"--n-pad={10**19}"], "--n-pad"),
        ],
        ids=[
            "gate-n-max",
            "gate-n-pad-full",
            "gate-n-pad-ld",
            "conv-list",
            "conv-n-pad",
            "ghz-n-max",
            "ghz-n-pad-full",
        ],
    )
    def test_cutoff_past_numpy_size_limit_exits_2(
        self, tmp_path, capsys, monkeypatch, argv, name
    ):
        # refused before computing, as the sweep refuses its cutoffs, with
        # the flag's name: numpy would fail to allocate, as if out of memory
        def forbidden(*args, **kwargs):
            raise AssertionError("the command computed")

        for command in (
            "solve_gate_params",
            "truth_table_check",
            "truncation_convergence",
            "ghz_check",
        ):
            monkeypatch.setattr(cli, command, forbidden)
        out = tmp_path / "out.json"
        assert run_cli(*argv, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and f"{name}=" in captured.err
        assert "numpy's array size limit" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gate-check", "--n-max", "0"], "--n-max must be >= 1, got 0"),
            (["gate-check", "--n-pad", "-1"], "--n-pad must be >= 0, got -1"),
            (["ghz", "--n-max", "0"], "--n-max must be >= 1, got 0"),
            (["ghz", "--n-pad", "-2"], "--n-pad must be >= 0, got -2"),
            (["convergence", "--n-max-list", "0"], "--n-max-list must be >= 1, got 0"),
            # every cutoff of the list, not only the largest
            (["convergence", "--n-max-list", "10,-3"], "--n-max-list must be >= 1, got -3"),
            (["convergence", "--n-pad", "-1"], "--n-pad must be >= 0, got -1"),
        ],
        ids=[
            "gate-n-max",
            "gate-n-pad",
            "ghz-n-max",
            "ghz-n-pad",
            "conv-list",
            "conv-list-last",
            "conv-n-pad",
        ],
    )
    def test_cutoff_below_its_floor_exits_2_naming_the_flag(
        self, tmp_path, capsys, argv, message
    ):
        # named by the flag, as the sweep names its cutoff flags
        out = tmp_path / "out.json"
        assert run_cli(*argv, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--eta", "0.1", "--n-max", "5"],
            ["solve", "--eta", "0.1", "--n-pad", "3"],
            ["convergence", "--n-max", "8"],
        ],
    )
    def test_cutoff_flags_only_where_read(self, argv):
        # solve reads no cutoff, convergence takes its cutoffs from the list
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


def test_commands_assemble_no_composite_propagator(tmp_path, monkeypatch):
    # every command runs on the J_x sector blocks: the solve verifies its
    # parameters on the sector phases, and the convergence metric reads the
    # blocks, so neither assembler may run, wherever it is bound
    def forbidden(*args, **kwargs):
        raise AssertionError("a command assembled a composite propagator")

    for module in (dynamics, synthesis, analysis, cli):
        for name in ("sector_sum", "propagator_at_tau"):
            monkeypatch.setattr(module, name, forbidden, raising=module is dynamics)
    cfg = write_config(tmp_path, grids={"eta": [0.1], "nbar": [0.0, 0.5]})
    for argv in (
        ["solve", "--eta", "0.1", "--literal-params"],
        ["gate-check", "--nbar", "0.5", "--n-max", "12"],
        ["gate-check", "--nbar", "0.5", "--n-max", "12", "--full-hamiltonian"],
        ["ghz", "--n-ions", "3", "--nbar", "0.5", "--n-max", "12"],
        ["convergence", "--nbar", "0", "--n-max-list", "6,8"],
        ["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep.json")],
    ):
        assert run_cli(*argv) == 0, argv


def run_python(script: str) -> None:
    """Run `script` in a fresh interpreter and require it to succeed."""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


class TestCollector:
    """`iongate.cli` moves the import-time heap out of the cyclic collector's
    reach, and `main` numpy's when it first imports it; a library import of
    `iongate` leaves the collector as it found it. Each test imports in a
    fresh interpreter."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_library_import_leaves_the_collector_alone(self, enabled):
        run_python(f"""
import gc
{"gc.enable()" if enabled else "gc.disable()"}
import iongate
assert gc.isenabled() is {enabled}, gc.isenabled()
assert gc.get_freeze_count() == 0, gc.get_freeze_count()
""")

    def test_cli_import_freezes_the_import_heap(self):
        run_python("""
import gc
import iongate.cli
assert gc.isenabled()
assert gc.get_freeze_count() > 0, gc.get_freeze_count()
""")

    def test_first_numpy_import_in_main_freezes_its_heap(self):
        run_python("""
import contextlib, gc, io, sys
import iongate.cli
assert "numpy" not in sys.modules
frozen = gc.get_freeze_count()
with contextlib.redirect_stdout(io.StringIO()):
    assert iongate.cli.main(["gate-check", "--nbar", "0", "--n-max", "8"]) == 0
assert "numpy" in sys.modules
assert gc.get_freeze_count() > frozen, (gc.get_freeze_count(), frozen)
""")

    def test_main_freezes_nothing_when_numpy_is_loaded(self):
        run_python("""
import contextlib, gc, io
import numpy
import iongate.cli
frozen = gc.get_freeze_count()
with contextlib.redirect_stdout(io.StringIO()):
    assert iongate.cli.main(["gate-check", "--nbar", "0", "--n-max", "8"]) == 0
assert gc.get_freeze_count() == frozen, (gc.get_freeze_count(), frozen)
""")


class TestNumpyBinding:
    """The layers bind numpy on first use, so `iongate.cli` imports every
    layer and no numpy, and the closed-form solve never loads it. Each test
    imports in a fresh interpreter, except where it refuses a name."""

    def test_cli_import_loads_every_layer_and_no_numpy(self):
        # the benchmark's tracer wraps the layers loaded by this import
        run_python("""
import sys
import iongate.cli
for layer in ("hilbert", "dynamics", "synthesis", "analysis"):
    assert f"iongate.{layer}" in sys.modules, layer
assert "numpy" not in sys.modules
""")

    def test_solve_loads_no_numpy(self):
        run_python("""
import contextlib, io, sys
import iongate.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert iongate.cli.main(["solve", "--eta", "0.1", "--literal-params"]) == 0
assert "numpy" not in sys.modules
""")

    def test_every_public_name_resolves(self):
        # PAULI is built on first use; every other name is bound by the import
        run_python("""
import sys
import iongate
assert len(set(iongate.__all__)) == len(iongate.__all__), iongate.__all__
missing = [name for name in iongate.__all__ if name != "PAULI" and not hasattr(iongate, name)]
assert not missing, missing
assert "numpy" not in sys.modules
namespace = {}
exec("from iongate import *", namespace)
assert set(iongate.__all__) <= set(namespace), set(iongate.__all__) - set(namespace)
assert namespace["PAULI"] is iongate.hilbert.PAULI
""")

    def test_unknown_name_is_refused(self):
        # in this process, so that tests/unrun_lines.py sees the refusal run
        import iongate

        with pytest.raises(AttributeError) as exc:
            iongate.nope
        assert str(exc.value) == "module 'iongate' has no attribute 'nope'"

    def test_dunder_lookup_loads_no_numpy(self):
        # here numpy is loaded already, so only a fresh interpreter shows that
        # the refusal imports nothing; this process runs it for the line tracer
        from iongate import _numpy

        assert not hasattr(_numpy.np, "__wrapped__")
        run_python("""
import sys
from iongate._numpy import np
assert not hasattr(np, "__wrapped__")
assert "numpy" not in sys.modules
""")

    def test_pauli_matrices_on_first_use(self):
        run_python("""
import sys
import iongate
assert "numpy" not in sys.modules
from iongate.hilbert import PAULI
import numpy as np
expected = {"x": [[0, 1], [1, 0]], "y": [[0, 1j], [-1j, 0]], "z": [[-1, 0], [0, 1]]}
assert iongate.PAULI is PAULI and list(PAULI) == list(expected)
for axis, rows in expected.items():
    want = np.array(rows, dtype=complex)
    assert PAULI[axis].dtype == want.dtype and PAULI[axis].tobytes() == want.tobytes()
""")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "iongate.cli", "solve", "--eta", "0.1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "achieved C" in proc.stdout

    def test_runs_without_importing_scipy(self, tmp_path):
        # scipy is a test dependency only: neither the import nor any command
        # may load it, nor importlib.metadata, which would only read its version
        out = tmp_path / "sweep.json"
        cfg = write_config(tmp_path)
        script = f"""
import json, sys
import iongate.cli
assert "scipy" not in sys.modules, "import iongate.cli loaded scipy"
for argv in (
    ["solve", "--eta", "0.1", "--literal-params"],
    ["gate-check", "--nbar", "0", "--n-max", "8"],
    ["ghz", "--n-ions", "3", "--nbar", "0", "--n-max", "8"],
    ["convergence", "--nbar", "0", "--n-max-list", "6,8"],
    ["sweep", "--config", {str(cfg)!r}, "--out", {str(out)!r}],
):
    assert iongate.cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
    assert "importlib.metadata" not in sys.modules, argv
assert set(json.load(open({str(out)!r}))["versions"]) == {{"iongate", "numpy"}}
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    def test_validation_exit_code_through_process(self):
        proc = subprocess.run(
            [sys.executable, "-m", "iongate.cli", "solve", "--eta", "-1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2


GRIDS = {"eta": [0.1], "nbar": [0.0]}


@pytest.mark.parametrize(
    "raw, message",
    [
        pytest.param([GRIDS], "config root must be a JSON object", id="root"),
        pytest.param(
            {"model": {}, "grids": [0.1], "output": {}},
            "grids section must be a JSON object",
            id="section",
        ),
        pytest.param(
            {"model": {"hamiltonian": "exact"}, "grids": GRIDS, "output": {}},
            "hamiltonian must be 'full' or 'ld', got 'exact'",
            id="hamiltonian",
        ),
    ],
)
def test_load_run_config_refuses_outside_input(tmp_path, raw, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as exc:
        load_run_config(str(path))
    assert str(exc.value) == message
