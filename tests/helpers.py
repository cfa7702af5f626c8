"""Shared test utilities: cached gate solutions and quiet state builders."""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from iongate import (
    ModelParams,
    QuantumState,
    ThermalSpec,
    composite_mixed,
    composite_pure,
    evolve,
    expm_propagator,
    ghz_fidelity,
    ghz_recipe,
    hamiltonian_full,
    hamiltonian_ld,
    internal_product_state,
    leakage_population,
    partial_trace,
    solve_gate_params,
    thermal_state,
)


@lru_cache(maxsize=None)
def solved(eta: float):
    return solve_gate_params(eta)


def gate_params(eta: float, n_max: int, n_ions: int = 2, n_pad: int = 10) -> ModelParams:
    """ModelParams at the solved gate point for this eta."""
    s = solved(eta)
    return ModelParams(
        eta=eta,
        omega_ratio=s.omega_ratio,
        theta=s.theta,
        n_ions=n_ions,
        n_max=n_max,
        n_pad=n_pad,
    )


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
    n_ions: int, eta: float, motion: QuantumState, n_max: int, model: str = "ld"
) -> tuple[float, float, float]:
    """(fidelity, relative phase, leakage) of the GHZ recipe by dense
    evolution of |g...g> x motion on the whole 2^N (n_max+1) space: the
    reference for the J_x-sector route of `ghz_check`."""
    params = ghz_recipe(n_ions, eta, n_max=n_max).params
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
