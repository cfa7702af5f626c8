"""Hamiltonians and time evolution.

On resonance both Hamiltonians commute with J_x, so every propagator is
sum_k P_k x U_k over the N+1 J_x sectors: P_k projects onto the |+/->
products with k minus signs (m = N - 2k), and U_k acts on the n_max + 1 Fock
states. Every resonant propagator is built from such blocks and assembled by
`sector_sum`. `sector_propagators` exponentiates the motional blocks of the
Hamiltonian. With times in units of 1/omega_a and rates as ratios to it
(see `hilbert`), `closed_form_propagator` returns the sector blocks of the
factorized form

    U(t) = exp[i Phi(t) J_x^2] * exp(-i a+a t) * f_disp(t)
           * exp(-i Omega sin(theta) t J_x)

with lambda = eta Omega cos(theta), Phi(t) = lambda^2 (t - sin t), and f_disp
a coherent displacement of amplitude beta(t) m in sector m,
beta(t) = -lambda (e^{i t} - 1). Each factor, and their ordered product, is
assembled into a composite matrix only when it is read (see
`PropagatorFactors`). At t = tau = 2 pi the rotation and the displacement
are the identity, and `propagator_at_tau` gives exp[i C J_x^2] exp[-i D J_x]
x I, with (C, D) from `pulse_period_coefficients`.

The dense `expm_propagator` of `hamiltonian_ld` or `hamiltonian_full`
diagonalizes the whole 2^N (n_max + 1) Hamiltonian. It is the independent
oracle for the tests and the closed-form cross-check, and the route for
detuned evolution, where J_x is not conserved.

Both Hamiltonians are real symmetric in the Fock x computational basis, so
numpy's eigh diagonalizes them with its real solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hilbert import (
    ModelParams,
    OperatorMatrix,
    QuantumState,
    _pm_products,
    _require_same_space,
    _sector_m,
    collective_spin,
    ladder_operators,
    position_sine_operator,
)


@dataclass(frozen=True)
class PropagatorFactors:
    """The four factors of the analytic propagator, kept separately so each
    one can be inspected, plus their ordered product.

    Each factor is held as its N+1 motional sector blocks, arrays of shape
    (N+1, n_max+1, n_max+1) indexed like `sector_propagators`. The
    composite matrices `f_twist`, `f_rot`, `f_disp`, `f_carrier` and
    `product` are assembled by `sector_sum` on first access and cached, so
    a caller that reads only `product` pays for one composite matrix.
    `product` is the ordered product taken per sector.
    """

    twist: np.ndarray
    rot: np.ndarray
    disp: np.ndarray
    carrier: np.ndarray

    def _assemble(self, blocks: np.ndarray) -> OperatorMatrix:
        return sector_sum(len(blocks) - 1, blocks)

    f_twist = cached_property(lambda self: self._assemble(self.twist))
    f_rot = cached_property(lambda self: self._assemble(self.rot))
    f_disp = cached_property(lambda self: self._assemble(self.disp))
    f_carrier = cached_property(lambda self: self._assemble(self.carrier))
    product = cached_property(
        lambda self: self._assemble(self.twist @ self.rot @ self.disp @ self.carrier)
    )


def _require_model(model: str) -> None:
    if model not in ("ld", "full"):
        raise ValueError(f"model must be 'ld' or 'full', got {model!r}")


def _coupling(params: ModelParams, model: str) -> OperatorMatrix:
    """The motional factor f of the drive Omega f J_x: eta (a + a+) cos(theta)
    + sin(theta) for the Lamb-Dicke model ("ld"), the operator sine
    sin(eta (a + a+) + theta) for the full model ("full")."""
    _require_model(model)
    if model == "ld":
        a, ad = ladder_operators(params.n_max)
        coupling = params.eta * (a.mat + ad.mat) * np.cos(params.theta) + np.sin(
            params.theta
        ) * np.eye(params.dim_motion)
        return OperatorMatrix(coupling, "motion")
    return position_sine_operator(params)


def _composite_hamiltonian(params: ModelParams, coupling: OperatorMatrix) -> OperatorMatrix:
    # a+a + (Delta/2) J_z + Omega f J_x; `collective_spin` returns complex
    # matrices, and taking the real parts of J_x and J_z keeps H real
    number = np.diag(np.arange(params.dim_motion, dtype=float))
    jx = collective_spin(params.n_ions, "x").mat.real

    h = np.kron(np.eye(params.dim_internal), number)
    h += params.omega_ratio * np.kron(jx, coupling.mat)
    if params.delta != 0.0:
        jz = collective_spin(params.n_ions, "z").mat.real
        h += (params.delta / 2.0) * np.kron(jz, np.eye(params.dim_motion))
    return OperatorMatrix(h, "composite", dims=(params.dim_internal, params.dim_motion))


def hamiltonian_ld(params: ModelParams) -> OperatorMatrix:
    """Lamb-Dicke Hamiltonian on the composite space.

    H = a+a + (Delta/2) J_z + Omega [eta (a + a+) cos(theta)
        + sin(theta)] J_x

    with every rate a ratio to omega_a: Delta = delta, Omega = omega_ratio.
    """
    return _composite_hamiltonian(params, _coupling(params, "ld"))


def hamiltonian_full(params: ModelParams) -> OperatorMatrix:
    """Full standing-wave Hamiltonian with the operator-valued sine.

    H = a+a + (Delta/2) J_z + Omega sin(eta (a + a+) + theta) J_x

    The sine operator is built at the padded cutoff (see
    `position_sine_operator`), so the Lamb-Dicke linearization is the only
    difference from `hamiltonian_ld`.
    """
    return _composite_hamiltonian(params, _coupling(params, "full"))


def expm_propagator(h: OperatorMatrix, t: float) -> OperatorMatrix:
    """U = exp(-i H t) by Hermitian eigendecomposition.

    This is the oracle route: V diag(e^{-i lambda_k t}) V+ from numpy's eigh,
    independent of any series or scaling-squaring expansion. A real symmetric
    H is diagonalized in real arithmetic, and U is assembled from two real
    products, (V cos(lambda t)) V^T - i (V sin(lambda t)) V^T.
    """
    if not h.is_hermitian(tol=1e-10):
        raise ValueError("expm_propagator requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(h.mat)
    if np.iscomplexobj(vecs):
        u = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
    else:
        u = np.empty(vecs.shape, dtype=complex)
        u.real = (vecs * np.cos(vals * t)) @ vecs.T
        u.imag = (vecs * -np.sin(vals * t)) @ vecs.T
    return OperatorMatrix(u, h.layout, h.dims)


def sector_sum(n_ions: int, blocks: np.ndarray) -> OperatorMatrix:
    """sum_k P_k x blocks[k] on the composite space, for blocks of shape
    (N+1, n_max+1, n_max+1) indexed like `sector_propagators`. The projector
    P_k is S_k S_k^T / 2^N, exact in floating point, with S_k the +/-1 columns
    of the |+/-> products in sector k from `hilbert._pm_products`.
    """
    signs, _, sector = _pm_products(n_ions)
    in_sector = sector == np.arange(n_ions + 1)[:, None]
    projectors = (signs * in_sector[:, None, :]) @ signs.T / 2.0**n_ions
    d_i, d_m = 2**n_ions, blocks.shape[-1]
    flat = blocks.reshape(n_ions + 1, d_m * d_m)
    # block (i, j) of the result is sum_k P_k[i, j] blocks[k]; filling the
    # blocks in place keeps a single composite-sized array alive
    mat = np.empty((d_i, d_m, d_i, d_m), dtype=complex)
    for i, j in np.ndindex(d_i, d_i):
        mat[i, :, j, :] = (projectors[:, i, j] @ flat).reshape(d_m, d_m)
    return OperatorMatrix(mat.reshape(d_i * d_m, d_i * d_m), "composite", (d_i, d_m))


def _require_resonance(params: ModelParams, route: str) -> None:
    # the J_x sectors, and every route built on them, need delta = 0
    if params.delta != 0.0:
        raise ValueError(
            f"{route} is only valid on resonance; got delta="
            f"{params.delta} (use expm_propagator for detuned evolution)"
        )


def closed_form_propagator(params: ModelParams, t: float) -> PropagatorFactors:
    """The factorized propagator at time t (resonant case only).

    Every factor is block diagonal over the J_x sectors, so each one, and
    their ordered product, is formed per sector on the n_max + 1 Fock states;
    no composite matrix is built here. The returned `PropagatorFactors`
    assembles a factor by `sector_sum` only when it is read. In sector m the
    blocks are
    e^{i Phi m^2} I (twist), diag(e^{-i n t}) (rotation), D(beta m)
    (displacement) and e^{-i Omega sin(theta) t m} I (carrier). Each
    D(alpha) = exp(alpha a+ - alpha* a) is the exponential of the truncated
    generator: V e^{-i lambda} V+ from one batched eigendecomposition of the
    Hermitian H_g = i (alpha a+ - alpha* a) over the N+1 sectors.
    """
    _require_resonance(params, "the closed form")
    n = params.n_ions
    lam = params.eta * params.omega_ratio * np.cos(params.theta)
    m = _sector_m(n)
    eye = np.eye(params.dim_motion)

    phi = lam**2 * t - lam**2 * np.sin(t)
    twist = np.exp(1j * phi * m**2)[:, None, None] * eye

    rot_phases = np.exp(-1j * np.arange(params.dim_motion) * t)
    rot = np.tile(np.diag(rot_phases), (n + 1, 1, 1))

    a, ad = ladder_operators(params.n_max)
    beta = -lam * (np.exp(1j * t) - 1.0)
    alpha = (beta * m)[:, None, None]
    vals, vecs = np.linalg.eigh(1j * (alpha * ad.mat - np.conj(alpha) * a.mat))
    disp = (vecs * np.exp(-1j * vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)

    carrier_phase = params.omega_ratio * np.sin(params.theta) * t
    carrier = np.exp(-1j * carrier_phase * m)[:, None, None] * eye

    return PropagatorFactors(twist=twist, rot=rot, disp=disp, carrier=carrier)


def sector_propagators(params: ModelParams, t: float, model: str) -> np.ndarray:
    """The motional propagators of the N+1 J_x sectors (resonant case only).

    On resonance both Hamiltonians are sum_m P_m x H_m with
    H_m = a+a + Omega m f, where P_m projects onto the J_x eigenspace
    of m and f is the motional coupling of the model ("ld" or "full", as in
    `hamiltonian_ld` and `hamiltonian_full`), so exp(-i H t) is
    sum_m P_m x U_m with U_m = exp(-i H_m t) (`sector_sum` assembles it).
    Each U_m comes from one real symmetric eigendecomposition of size
    n_max + 1.

    Returns an array of shape (N+1, n_max+1, n_max+1) whose entry k is U_m
    for m = N - 2k, the sector of the |+/-> products with k minus signs.
    """
    _require_resonance(params, "the J_x sector decomposition")
    coupling = _coupling(params, model).mat
    a, ad = ladder_operators(params.n_max)
    m = _sector_m(params.n_ions)
    h = ad.mat @ a.mat + params.omega_ratio * m[:, None, None] * coupling
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * t)[:, None, :]) @ vecs.transpose(0, 2, 1)


def pulse_period_coefficients(
    eta: float, omega_ratio: float, theta: float
) -> tuple[float, float]:
    """The coefficients (C, D) of U(tau) = exp[i C J_x^2] exp[-i D J_x]:
    C = 2 pi lambda^2 with the coupling lambda = eta (Omega/omega_a) cos(theta),
    and D = 2 pi (Omega/omega_a) sin(theta).

    C is formed from lambda, not from eta^2 and (Omega/omega_a)^2, whose
    squares leave the float range long before C does (eta = 1e-200 at the
    gate point has lambda = 1/4). The products are Python floats, so a C
    beyond the float range is inf, never an exception or a numpy warning.
    """
    lam = float(eta) * float(omega_ratio) * float(np.cos(theta))
    c = 2.0 * np.pi * (lam * lam)
    d = 2.0 * np.pi * float(omega_ratio) * float(np.sin(theta))
    return c, d


def propagator_at_tau(
    params: ModelParams,
) -> tuple[OperatorMatrix, float, float]:
    """Propagator after one full trap period, with its two coefficients.

    Returns (U, C, D) where U = exp[i C J_x^2] exp[-i D J_x] tensor identity
    and (C, D) come from `pulse_period_coefficients`. The rotation and
    displacement factors are exactly the identity at t = tau, so the
    motional factor is trivial: U is `sector_sum` of the blocks
    e^{i (C m^2 - D m)} I.
    """
    _require_resonance(params, "the pulse-period reduction")
    c, d = pulse_period_coefficients(params.eta, params.omega_ratio, params.theta)
    m = _sector_m(params.n_ions)
    phases = np.exp(1j * (c * m**2 - d * m))
    u = sector_sum(params.n_ions, phases[:, None, None] * np.eye(params.dim_motion))
    return u, c, d


def evolve(state: QuantumState, u: OperatorMatrix) -> QuantumState:
    """Apply a unitary of the state's space: U|psi> if pure, U rho U+ if mixed."""
    _require_same_space(state, u)
    if state.kind == "pure":
        return QuantumState("pure", u.mat @ state.data, state.layout, state.dims)
    rho = u.mat @ state.data @ u.mat.conj().T
    return QuantumState("mixed", rho, state.layout, state.dims)
