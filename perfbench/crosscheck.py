"""In-process cross-check of the closed-form propagator against the dense oracle.

Each case compares ``closed_form_propagator(p, t).product`` with
``expm_propagator(hamiltonian_ld(p), t)`` on the Fock <= n_max/2 blocks, the
comparison acceptance criterion 3 makes (tolerance 1e-10). The functions are
looked up on their modules at call time, so a traced run sees them wrapped.
"""

from __future__ import annotations

import json
import time

import numpy as np

from iongate import dynamics, hilbert


def restricted_distance(a: np.ndarray, b: np.ndarray, dims, n_limit: int) -> float:
    """Largest |a - b| entry over the blocks with both Fock indices <= n_limit."""
    d_i, d_m = dims
    diff = (a - b).reshape(d_i, d_m, d_i, d_m)[:, : n_limit + 1, :, : n_limit + 1]
    return float(np.abs(diff).max())


def run(cases_path: str, results_path: str) -> int:
    """Run every case in ``cases_path``; write one result per case."""
    with open(cases_path, encoding="utf-8") as fh:
        cases = json.load(fh)
    results = []
    for case in cases:
        t0 = time.monotonic()
        try:
            params = hilbert.ModelParams(**case["params"])
            closed = dynamics.closed_form_propagator(params, case["t"]).product
            oracle = dynamics.expm_propagator(dynamics.hamiltonian_ld(params), case["t"])
            distance = restricted_distance(
                closed.mat, oracle.mat, closed.dims, params.n_max // 2
            )
            results.append({"distance": distance, "seconds": time.monotonic() - t0})
        except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
            results.append({"error": repr(exc), "seconds": time.monotonic() - t0})
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0
