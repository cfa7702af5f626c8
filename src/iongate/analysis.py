"""State metrics and study harnesses: partial traces, fidelities, motional
independence, truth-table and GHZ checks, Lamb-Dicke error sweeps, truncation
convergence.

The one-period propagator of the truth table, the sweep and the convergence
study is assembled from the N+1 J_x sector propagators (`sector_sum` of
`sector_propagators`), so these harnesses are resonant only; a detuned
truth table takes its `u` from the dense oracle of `dynamics`.

Definition used for state-level gate infidelity: for each |+/-> product input
v with motional input rho_mot, the per-input fidelity is the composite-state
fidelity F(U (|v><v| x rho_mot) U+, |Gv><Gv| x rho_mot) against the truth-table
image Gv with the motional state restored, and the gate infidelity is one
minus the mean over the 2^N inputs. The composite form is essential: these
inputs are J_x eigenstates, so their traced internal state is exactly the
input under both Hamiltonians and a purely internal fidelity would be
identically 1 regardless of parameters (see README).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import evolve, sector_propagators, sector_sum
from .hilbert import (
    ModelParams,
    OperatorMatrix,
    QuantumState,
    ThermalSpec,
    composite_mixed,
    pm_product_states,
    thermal_state,
)
from .synthesis import ghz_recipe, ideal_gate_unitary, solve_gate_params

#: leakage above this level marks a result as truncation-unreliable
LEAKAGE_THRESHOLD = 1e-6

TRUNCATION_FLAG = "truncation-unreliable"


def partial_trace(state: QuantumState, keep: str) -> QuantumState:
    """Reduced density matrix over the kept factor of a composite state."""
    if state.layout != "composite" or state.dims is None:
        raise ValueError("partial_trace requires a composite state with dims")
    if keep not in ("internal", "motion"):
        raise ValueError(f"keep must be 'internal' or 'motion', got {keep!r}")
    d_i, d_m = state.dims
    if state.kind == "pure":
        psi = state.data.reshape(d_i, d_m)
        if keep == "internal":
            reduced = psi @ psi.conj().T
        else:
            reduced = psi.T @ psi.conj()
    else:
        rho = state.data.reshape(d_i, d_m, d_i, d_m)
        if keep == "internal":
            reduced = np.einsum("anbn->ab", rho)
        else:
            reduced = np.einsum("anam->nm", rho)
    reduced = (reduced + reduced.conj().T) / 2.0
    return QuantumState("mixed", reduced, keep)


def _sqrt_psd(rho: np.ndarray) -> np.ndarray:
    # Hermitian square root with eigenvalue clamping: 1e-14-level negatives
    # from roundoff must not turn into NaNs
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """State fidelity in [0, 1].

    pure-pure |<psi|phi>|^2, pure-mixed <psi|rho|psi>, mixed-mixed Uhlmann
    (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.kind == "pure" and b.kind == "pure":
        return float(np.abs(np.vdot(a.data, b.data)) ** 2)
    if a.kind == "pure":
        val = np.vdot(a.data, b.data @ a.data).real
    elif b.kind == "pure":
        val = np.vdot(b.data, a.data @ b.data).real
    else:
        sq = _sqrt_psd(a.data)
        inner = np.clip(np.linalg.eigvalsh(sq @ b.data @ sq), 0.0, None)
        val = float(np.sqrt(inner).sum() ** 2)
    return float(min(max(val, 0.0), 1.0))


def unitary_gate_fidelity(actual: OperatorMatrix, ideal: OperatorMatrix) -> float:
    """Global-phase-invariant operator fidelity |tr(ideal+ actual)| / d."""
    if actual.dim != ideal.dim:
        raise ValueError(f"dimension mismatch: {actual.dim} vs {ideal.dim}")
    return float(np.abs(np.trace(ideal.mat.conj().T @ actual.mat)) / actual.dim)


def motional_independence_metric(u: OperatorMatrix, n_limit: int) -> float:
    """How far a composite unitary is from internal x motional-identity.

    Extracts the internal blocks <n|U|m> for Fock indices n, m <= n_limit and
    returns the largest of ||V_n - V_0||_max (diagonal blocks) and
    ||<n|U|m>||_max for n != m (off-diagonal blocks). Zero iff the restriction
    is W x I for a single internal W.
    """
    if u.layout != "composite" or u.dims is None:
        raise ValueError("metric requires a composite operator with dims")
    d_i, d_m = u.dims
    n_max = d_m - 1
    if n_limit > n_max // 2:
        raise ValueError(
            f"n_limit={n_limit} exceeds n_max/2={n_max // 2}; blocks beyond "
            "that are truncation-corrupted by construction"
        )
    blocks = u.mat.reshape(d_i, d_m, d_i, d_m)
    v0 = blocks[:, 0, :, 0]
    worst = 0.0
    for n in range(n_limit + 1):
        for m in range(n_limit + 1):
            block = blocks[:, n, :, m]
            if n == m:
                worst = max(worst, float(np.abs(block - v0).max()))
            else:
                worst = max(worst, float(np.abs(block).max()))
    return worst


def leakage_population(state: QuantumState, n_threshold: int | None = None) -> float:
    """Population with Fock index above n_threshold (default n_max/2).

    Displacements transport population toward the cutoff; anything parked in
    the upper half of the Fock ladder is a truncation artifact to monitor,
    not physics.
    """
    if state.layout == "composite" and state.dims is not None:
        d_i, d_m = state.dims
    elif state.layout == "motion":
        d_i, d_m = 1, state.dim
    else:
        raise ValueError("leakage requires a composite or motional state")
    if n_threshold is None:
        n_threshold = (d_m - 1) // 2
    if state.kind == "pure":
        probs = np.abs(state.data.reshape(d_i, d_m)) ** 2
        return float(probs[:, n_threshold + 1 :].sum())
    diag = np.real(np.diagonal(state.data)).reshape(d_i, d_m)
    return float(diag[:, n_threshold + 1 :].sum())


def _ghz_maximum(rho_gg: float, rho_ee: float, rho_eg: complex) -> tuple[float, float]:
    # (rho_GG + rho_EE + 2 |rho_EG|)/2 at phi_e - phi_g = arg(rho_EG)
    fid = (rho_gg + rho_ee + 2.0 * np.abs(rho_eg)) / 2.0
    return float(min(max(fid, 0.0), 1.0)), float(np.angle(rho_eg))


def ghz_fidelity(rho_internal: QuantumState) -> tuple[float, float]:
    """Best fidelity to any equal GHZ superposition, and the relative phase.

    Maximizing <psi|rho|psi> over the two phases of
    (e^{i phi_g}|g..g> + e^{i phi_e}|e..e>)/sqrt(2) gives
    (rho_GG + rho_EE + 2 |rho_EG|)/2, attained at phi_e - phi_g =
    arg(rho_EG), which is returned as the measured relative phase.
    """
    rho = rho_internal.density()
    g, e = 0, rho.shape[0] - 1
    return _ghz_maximum(rho[g, g].real, rho[e, e].real, rho[e, g])


def _propagator_for(params: ModelParams, model: str) -> OperatorMatrix:
    # resonant only: sector_propagators rejects detuning and unknown models
    return sector_sum(params.n_ions, sector_propagators(params, params.tau, model))


@dataclass(frozen=True)
class TruthTableReport:
    """Per-input truth-table results for one parameter point."""

    params: ModelParams
    model: str
    input_labels: tuple[str, ...]
    internal_fidelities: tuple[float, ...]
    restoration_fidelities: tuple[float, ...]
    composite_fidelities: tuple[float, ...]
    leakage: float
    flags: tuple[str, ...]

    @property
    def gate_infidelity(self) -> float:
        """One minus the mean composite fidelity over the inputs."""
        mean = float(np.mean(self.composite_fidelities))
        return max(0.0, 1.0 - mean)


def truth_table_check(
    params: ModelParams,
    motion: QuantumState,
    model: str = "ld",
    u: OperatorMatrix | None = None,
) -> TruthTableReport:
    """Evolve every |+/-> product input with the given motional state for one
    trap period and compare against the ideal truth-table images.

    Reports, per input: the internal fidelity after tracing out motion, the
    motional restoration fidelity after tracing out the ions, and the
    composite fidelity against image x restored motion (the phase-sensitive
    quantity used as the gate infidelity). `u` defaults to the resonant
    one-period propagator of the model, assembled from J_x sectors.
    """
    if motion.dim != params.dim_motion:
        raise ValueError(
            f"motional input dim {motion.dim} does not match n_max={params.n_max}"
        )
    if u is None:
        u = _propagator_for(params, model)
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
        params=params,
        model=model,
        input_labels=tuple(labels),
        internal_fidelities=tuple(f_int),
        restoration_fidelities=tuple(f_res),
        composite_fidelities=tuple(f_comp),
        leakage=leak,
        flags=flags,
    )


@dataclass(frozen=True)
class GhzReport:
    """GHZ generation results for one recipe run."""

    n_ions: int
    params: ModelParams
    model: str
    fidelity: float
    rel_phase: float
    expected_rel_phase: float | None
    phase_deviation: float | None
    leakage: float
    flags: tuple[str, ...]


def _wrap_angle(x: float) -> float:
    return float(np.angle(np.exp(1j * x)))


def ghz_check(
    n_ions: int,
    eta: float,
    motion: QuantumState,
    n_max: int = 40,
    n_pad: int = 10,
    model: str = "ld",
) -> GhzReport:
    """Run the even/odd GHZ recipe from |g...g> with the given motional input
    and measure the phase-maximized GHZ fidelity and relative phase.

    The pulse is resonant, so it acts on the J_x sectors separately. In the
    |+/-> basis |g...g> and |e...e> put weight c_k = C(N, k) / 2^N on the
    sector with k minus signs, with relative sign (-1)^k, so the three GHZ
    elements of the internal state follow from the sector overlaps
    M_ab = tr(U_a rho U_b+):

        rho_GG = sum c_a c_b M_ab,  rho_EG = sum (-1)^a c_a c_b M_ab,
        rho_EE = sum (-1)^(a+b) c_a c_b M_ab,

    and the leakage is sum_k c_k times the weight of U_k rho U_k+ above
    n_max/2. Nothing of size 2^N is built.
    """
    recipe = ghz_recipe(n_ions, eta, n_max=n_max, n_pad=n_pad)
    params = recipe.params
    if motion.dim != params.dim_motion:
        raise ValueError(
            f"motional input dim {motion.dim} does not match n_max={n_max}"
        )
    u = sector_propagators(params, params.tau, model)
    moved = u @ motion.density()
    # tr(U_a rho U_b+) = sum_ij (U_a rho)_ij conj(U_b)_ij, O(d^2) per pair
    overlaps = np.einsum("aij,bij->ab", moved, u.conj())
    weights = np.array([math.comb(n_ions, k) for k in range(n_ions + 1)]) / 2.0**n_ions
    signed = weights * (-1.0) ** np.arange(n_ions + 1)
    fid, phase = _ghz_maximum(
        (weights @ overlaps @ weights).real,
        (signed @ overlaps @ signed).real,
        signed @ overlaps @ weights,
    )
    populations = np.einsum("kij,kij->ki", moved, u.conj()).real
    leak = float(weights @ populations[:, n_max // 2 + 1 :].sum(axis=1))
    deviation = None
    if recipe.expected_rel_phase is not None:
        deviation = abs(_wrap_angle(phase - recipe.expected_rel_phase))
    flags = (TRUNCATION_FLAG,) if leak > LEAKAGE_THRESHOLD else ()
    return GhzReport(
        n_ions=n_ions,
        params=params,
        model=model,
        fidelity=fid,
        rel_phase=phase,
        expected_rel_phase=recipe.expected_rel_phase,
        phase_deviation=deviation,
        leakage=leak,
        flags=flags,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a Lamb-Dicke error sweep."""

    eta: float
    nbar: float
    n_max: int
    infidelity_gate: float | None
    infidelity_ghz: float | None
    leakage: float | None
    flags: tuple[str, ...]
    error: str | None
    runtime_s: float
    params: ModelParams | None


@dataclass(frozen=True)
class SweepResult:
    """A full sweep with its grids and per-point provenance."""

    eta_values: tuple[float, ...]
    nbar_values: tuple[float, ...]
    n_ions: int
    n_max: int
    model: str
    records: tuple[SweepPoint, ...]
    seed: int | None = None


def lamb_dicke_error_sweep(
    eta_grid,
    nbar_grid,
    n_ions: int = 2,
    n_max: int = 40,
    n_pad: int = 10,
    model: str = "full",
    seed: int | None = None,
) -> SweepResult:
    """Gate and GHZ infidelity over an (eta, nbar) grid.

    For each eta the gate parameters are solved and the one-period
    propagator under the chosen Hamiltonian is built once. At each (eta,
    nbar) point every |+/-> input is evolved with thermal(nbar) motion, and
    the composite gate infidelity is recorded together with the GHZ
    infidelity of the matching recipe, the leakage above n_max/2, and a
    truncation flag when the leakage exceeds 1e-6. Solver failures are
    recorded per point, the same for every nbar of that eta, and the sweep
    continues.

    The sweep is deterministic; the seed is recorded as provenance only.
    """
    eta_values = tuple(float(x) for x in eta_grid)
    nbar_values = tuple(float(x) for x in nbar_grid)
    if not eta_values or not nbar_values:
        raise ValueError("sweep grids must be nonempty")
    records = []
    for eta in eta_values:
        # neither the solved gate nor its propagator depends on nbar, so both
        # are built once per eta, at its first point; a failure leaves `gate`
        # unset, so every point of that eta fails the same way
        gate = None
        for nbar in nbar_values:
            t0 = time.perf_counter()
            try:
                if gate is None:
                    params = solve_gate_params(eta).model_params(
                        n_ions=n_ions, n_max=n_max, n_pad=n_pad
                    )
                    gate = params, _propagator_for(params, model)
                params, u = gate
                motion = thermal_state(ThermalSpec(nbar=nbar, n_max=n_max))
                table = truth_table_check(params, motion, model=model, u=u)
                ghz = ghz_check(
                    n_ions, eta, motion, n_max=n_max, n_pad=n_pad, model=model
                )
                leak = max(table.leakage, ghz.leakage)
                flags = (TRUNCATION_FLAG,) if leak > LEAKAGE_THRESHOLD else ()
                records.append(
                    SweepPoint(
                        eta=eta,
                        nbar=nbar,
                        n_max=n_max,
                        infidelity_gate=table.gate_infidelity,
                        infidelity_ghz=max(0.0, 1.0 - ghz.fidelity),
                        leakage=leak,
                        flags=flags,
                        error=None,
                        runtime_s=time.perf_counter() - t0,
                        params=params,
                    )
                )
            except (RuntimeError, ValueError) as exc:
                records.append(
                    SweepPoint(
                        eta=eta,
                        nbar=nbar,
                        n_max=n_max,
                        infidelity_gate=None,
                        infidelity_ghz=None,
                        leakage=None,
                        flags=(),
                        error=str(exc),
                        runtime_s=time.perf_counter() - t0,
                        params=None,
                    )
                )
    return SweepResult(
        eta_values=eta_values,
        nbar_values=nbar_values,
        n_ions=n_ions,
        n_max=n_max,
        model=model,
        records=tuple(records),
        seed=seed,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    """Gate infidelity and independence metric at one Fock cutoff."""

    n_max: int
    gate_infidelity: float
    metric: float
    diff_infidelity: float | None
    diff_metric: float | None


def truncation_convergence(
    params: ModelParams,
    n_max_list,
    nbar: float = 2.0,
    model: str = "ld",
) -> tuple[ConvergenceRow, ...]:
    """Gate infidelity and motional-independence metric per Fock cutoff,
    with successive differences. The cutoff list must be increasing."""
    n_list = [int(n) for n in n_max_list]
    if not n_list:
        raise ValueError("n_max_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_max_list must be strictly increasing, got {n_list}")
    rows: list[ConvergenceRow] = []
    for n in n_list:
        point = replace(params, n_max=n)
        u = _propagator_for(point, model)
        motion = thermal_state(ThermalSpec(nbar=nbar, n_max=n))
        table = truth_table_check(point, motion, model=model, u=u)
        metric = motional_independence_metric(u, n // 2)
        prev = rows[-1] if rows else None
        rows.append(
            ConvergenceRow(
                n_max=n,
                gate_infidelity=table.gate_infidelity,
                metric=metric,
                diff_infidelity=(
                    None if prev is None else abs(table.gate_infidelity - prev.gate_infidelity)
                ),
                diff_metric=None if prev is None else abs(metric - prev.metric),
            )
        )
    return tuple(rows)
