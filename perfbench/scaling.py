"""One-shot scaling report: per-layer medians over a fixed (N, n_max) grid.

    python3 perfbench/scaling.py > scaling.json

Times ``position_sine_operator``, ``hamiltonian_full``, ``expm_propagator`` (at
tau) and ``truth_table_check(..., u=u)`` (full model, thermal nbar=2, solved
gate parameters at eta=0.1) for N in {2, 3, 4} and n_max in {40, 80}, in this
process with BLAS pinned to one thread, as medians of three repeats. It
prints a table on standard error and the report as JSON on standard output.

This is where a change in how cost grows with N and n_max shows. It is a
report, not a gating workload: the grid is fixed, and one pass takes minutes,
because the truth table at N=4, n_max=80 alone runs for more than a minute.
"""

import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

from iongate import (  # noqa: E402
    ModelParams,
    ThermalSpec,
    expm_propagator,
    hamiltonian_full,
    position_sine_operator,
    solve_gate_params,
    thermal_state,
    truth_table_check,
)

GRID_N_IONS = (2, 3, 4)
GRID_N_MAX = (40, 80)
ETA = 0.1
NBAR = 2.0
REPEATS = 3


def time_cell(params: ModelParams) -> dict:
    motion = thermal_state(ThermalSpec(nbar=NBAR, n_max=params.n_max))
    samples: dict[str, list[float]] = {}

    def timed(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        samples.setdefault(name, []).append(time.perf_counter() - t0)
        return out

    for _ in range(REPEATS):
        timed("position_sine_operator", position_sine_operator, params)
        h = timed("hamiltonian_full", hamiltonian_full, params)
        u = timed("expm_propagator", expm_propagator, h, params.tau)
        timed("truth_table_check", truth_table_check, params, motion, model="full", u=u)
    return {name: statistics.median(values) for name, values in samples.items()}


def main() -> int:
    sol = solve_gate_params(ETA)
    rows = []
    print("n_ions n_max  dim  sine_op_s  h_full_s  expm_s  truth_table_s", file=sys.stderr)
    for n_ions in GRID_N_IONS:
        for n_max in GRID_N_MAX:
            params = ModelParams(
                eta=ETA, omega_ratio=sol.omega_ratio, theta=sol.theta, n_ions=n_ions, n_max=n_max
            )
            row = {"n_ions": n_ions, "n_max": n_max, "dim": params.dim}
            row.update(time_cell(params))
            rows.append(row)
            print(
                f"{n_ions:6d} {n_max:5d} {params.dim:4d}  {row['position_sine_operator']:9.4f}"
                f"  {row['hamiltonian_full']:8.4f}  {row['expm_propagator']:6.3f}"
                f"  {row['truth_table_check']:13.3f}",
                file=sys.stderr,
                flush=True,
            )
    report = {
        "grid": {"n_ions": GRID_N_IONS, "n_max": GRID_N_MAX},
        "eta": ETA,
        "nbar": NBAR,
        "repeats": REPEATS,
        "blas_threads": 1,
        "rows": rows,
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
