"""Simulator and verification suite for a single-pulse standing-wave phase
gate on trapped ions in thermal motion.

The package is organized as: `hilbert` (spaces, operators, states),
`dynamics` (Hamiltonians and propagators), `synthesis` (gate parameter
solving and GHZ recipes), `analysis` (fidelities, sweeps, convergence), and
`cli` (command-line front end). The layers bind numpy through `_numpy`,
which imports it on first use, so importing the package loads no numpy.
"""

__version__ = "0.1.0"

from .analysis import (
    ConvergenceRow,
    GhzReport,
    SweepPoint,
    TruthTableReport,
    fidelity,
    ghz_check,
    ghz_fidelity,
    lamb_dicke_error_sweep,
    leakage_population,
    motional_independence_metric,
    partial_trace,
    truncation_convergence,
    truth_table_check,
    unitary_gate_fidelity,
)
from .dynamics import (
    PropagatorFactors,
    closed_form_propagator,
    evolve,
    expm_propagator,
    hamiltonian_full,
    hamiltonian_ld,
    propagator_at_tau,
    sector_propagators,
    sector_sum,
)
from .hilbert import (
    ModelParams,
    OperatorMatrix,
    QuantumState,
    ThermalSpec,
    collective_spin,
    composite_mixed,
    composite_pure,
    embed,
    fock_state,
    internal_product_state,
    ladder_operators,
    pm_product_states,
    position_sine_operator,
    standard_states,
    thermal_state,
)
from .synthesis import (
    GateSolution,
    GhzRecipe,
    ghz_recipe,
    ideal_gate_unitary,
    ideal_ghz_state,
    literal_params,
    solve_gate_params,
)

__all__ = [
    "__version__",
    "PAULI",
    "ModelParams",
    "OperatorMatrix",
    "QuantumState",
    "ThermalSpec",
    "collective_spin",
    "composite_mixed",
    "composite_pure",
    "embed",
    "fock_state",
    "internal_product_state",
    "ladder_operators",
    "pm_product_states",
    "position_sine_operator",
    "standard_states",
    "thermal_state",
    "PropagatorFactors",
    "closed_form_propagator",
    "evolve",
    "expm_propagator",
    "hamiltonian_full",
    "hamiltonian_ld",
    "propagator_at_tau",
    "sector_propagators",
    "sector_sum",
    "GateSolution",
    "GhzRecipe",
    "ghz_recipe",
    "ideal_gate_unitary",
    "ideal_ghz_state",
    "literal_params",
    "solve_gate_params",
    "ConvergenceRow",
    "GhzReport",
    "SweepPoint",
    "TruthTableReport",
    "fidelity",
    "ghz_check",
    "ghz_fidelity",
    "lamb_dicke_error_sweep",
    "leakage_population",
    "motional_independence_metric",
    "partial_trace",
    "truncation_convergence",
    "truth_table_check",
    "unitary_gate_fidelity",
]


def __getattr__(name: str):
    # PAULI is built on first use (see `hilbert`), so that importing the
    # package loads no numpy
    if name == "PAULI":
        return hilbert.PAULI
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
