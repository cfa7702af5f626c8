"""Shared test utilities: cached gate solutions, quiet state builders and the
benchmark's workload definitions."""

from __future__ import annotations

import importlib.util
import sys
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np

from iongate import (
    ModelParams,
    OperatorMatrix,
    QuantumState,
    ThermalSpec,
    composite_mixed,
    composite_pure,
    evolve,
    expm_propagator,
    fidelity,
    ghz_fidelity,
    ghz_recipe,
    hamiltonian_full,
    hamiltonian_ld,
    ideal_gate_unitary,
    internal_product_state,
    leakage_population,
    partial_trace,
    pm_product_states,
    solve_gate_params,
    thermal_state,
    TruthTableReport,
)
from iongate.analysis import LEAKAGE_THRESHOLD, TRUNCATION_FLAG
from iongate.hilbert import _pm_products

#: the repository root
ROOT = Path(__file__).resolve().parent.parent


def perfbench_workloads():
    """The benchmark's `perfbench/workloads.py`, loaded from its file."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def solved(eta: float):
    return solve_gate_params(eta)


def sector_projectors(n_ions: int) -> np.ndarray:
    """The N+1 J_x sector projectors P_k = S_k S_k^T / 2^N, shape
    (N+1, 2^N, 2^N), with S_k the +/-1 columns of `_pm_products` in sector k:
    the reference for the closed-form entries, exact in floating point."""
    signs, _, sector = _pm_products(n_ions)
    in_sector = sector == np.arange(n_ions + 1)[:, None]
    return (signs * in_sector[:, None, :]) @ signs.T / 2.0**n_ions


def gate_params(eta: float, n_max: int, n_ions: int = 2, n_pad: int = 10) -> ModelParams:
    """ModelParams at the solved gate point for this eta."""
    return solved(eta).model_params(n_ions=n_ions, n_max=n_max, n_pad=n_pad)


def quiet_thermal(nbar: float, n_max: int) -> QuantumState:
    """Thermal state with the tail-weight warning suppressed (tests that
    exercise under-truncated inputs deliberately)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return thermal_state(ThermalSpec(nbar=nbar, n_max=n_max))


def random_density(rng: np.random.Generator, dim: int) -> QuantumState:
    """Random full-rank density matrix via a Wishart-style construction."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = 0.5 * (rho + rho.conj().T)
    return QuantumState("mixed", rho, "internal")


def random_pure(rng: np.random.Generator, dim: int) -> QuantumState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState("pure", v / np.linalg.norm(v), "internal")


def dense_ghz(
    n_ions: int, eta: float, motion: QuantumState, model: str = "ld"
) -> tuple[float, float, float]:
    """(fidelity, relative phase, leakage) of the GHZ recipe by dense
    evolution of |g...g> x motion on the whole 2^N (n_max+1) space, n_max the
    motion's cutoff: the reference for the J_x-sector route of `ghz_check`."""
    solution, _ = ghz_recipe(n_ions, eta)
    params = solution.model_params(n_ions=n_ions, n_max=motion.dim - 1, n_pad=10)
    h = hamiltonian_ld(params) if model == "ld" else hamiltonian_full(params)
    u = expm_propagator(h, params.tau)
    ground = internal_product_state("g" * n_ions)
    if motion.kind == "pure":
        state = composite_pure(ground, motion)
    else:
        state = composite_mixed(ground, motion)
    out = evolve(state, u)
    fid, phase = ghz_fidelity(partial_trace(out, "internal"))
    return fid, phase, leakage_population(out)


def dense_truth_table(
    params: ModelParams, motion: QuantumState, u: OperatorMatrix, model: str = "ld"
) -> TruthTableReport:
    """The truth table by evolving each composite input U (|v><v| x rho) U+
    as a validated state and reading every metric through the public state
    functions: the reference for the W rho W+ route of `truth_table_check`."""
    ideal = ideal_gate_unitary(params.n_ions)
    inputs = pm_product_states(params.n_ions)
    labels, f_int, f_res, f_comp = [], [], [], []
    leak = 0.0
    for label in sorted(inputs):
        vec = inputs[label]
        image_vec = ideal.mat @ vec.data
        image = QuantumState("pure", image_vec / np.linalg.norm(image_vec), "internal")
        state_in = composite_mixed(vec, motion)
        out = evolve(state_in, u)
        f_int.append(fidelity(partial_trace(out, "internal"), image))
        f_res.append(fidelity(partial_trace(out, "motion"), motion))
        target = composite_mixed(image, motion)
        f_comp.append(fidelity(out, target))
        leak = max(leak, leakage_population(out))
        labels.append(label)
    flags = (TRUNCATION_FLAG,) if leak > LEAKAGE_THRESHOLD else ()
    return TruthTableReport(
        model=model,
        input_labels=tuple(labels),
        internal_fidelities=tuple(f_int),
        restoration_fidelities=tuple(f_res),
        composite_fidelities=tuple(f_comp),
        leakage=leak,
        flags=flags,
    )


def exact_composite_fidelity(
    u: OperatorMatrix, vec: np.ndarray, image: np.ndarray, p: np.ndarray
) -> float:
    """The composite fidelity F(U (|v><v| x rho) U+, |Gv><Gv| x rho) of an
    input v with image Gv and motion rho = diag(p), from (n_max+1)-sized
    matrices: (sum of the singular values of sqrt(p) Y sqrt(p))^2, with
    Y = (<Gv| x I) U (|v> x I). The reference for the composite fields, which
    `dense_truth_table` computes from d-sized spectra with a roundoff bias."""
    d_i, d_m = u.dims
    y = np.einsum("i,imjn,j->mn", image.conj(), u.mat.reshape(d_i, d_m, d_i, d_m), vec)
    sqrt_p = np.sqrt(p)
    return float(np.linalg.svd(sqrt_p[:, None] * y * sqrt_p, compute_uv=False).sum() ** 2)
