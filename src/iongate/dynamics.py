"""Hamiltonians and time evolution.

On resonance both Hamiltonians commute with J_x, so every propagator is
sum_k P_k x U_k over the N+1 J_x sectors: P_k projects onto the |+/->
products with k minus signs (m = N - 2k), and U_k acts on the n_max + 1 Fock
states. Every resonant propagator is built from such blocks and assembled by
`sector_sum`, which forms the N+1 distinct composite blocks once (P_k[i, j]
depends only on the Hamming distance of i and j). `sector_propagators`
exponentiates the motional blocks of the Hamiltonian. With times in units of
1/omega_a and rates as ratios to it (see `hilbert`), `closed_form_propagator`
returns the sector data of the factorized form

    U(t) = exp[i Phi(t) J_x^2] * exp(-i a+a t) * D(beta(t) J_x)
           * exp(-i Omega sin(theta) t J_x)

with lambda = eta Omega cos(theta), Phi(t) = lambda^2 (t - sin t), and
D(beta(t) J_x) a coherent displacement of amplitude beta(t) m in sector m,
beta(t) = -lambda (e^{i t} - 1). The twist and the carrier are phases per
sector and the rotation a phase per Fock state; the displacement blocks of
all sectors come from one eigendecomposition of the generator
i (beta a+ - beta* a). Only the ordered product is assembled into a
composite matrix, when it is read (see `PropagatorFactors`). At
t = tau = 2 pi the rotation and the displacement are the identity, and
`propagator_at_tau` gives exp[i C J_x^2] exp[-i D J_x] x I, with (C, D) from
`pulse_period_coefficients`. Every sector phase e^{i (C m^2 - D m)}, the
twist and carrier included, is written by `_period_phases`.

The dense `expm_propagator` of `hamiltonian_ld` or `hamiltonian_full`
diagonalizes the whole 2^N (n_max + 1) Hamiltonian, built from dense kron
products (a+a and (Delta/2) J_z added on the diagonal in place). It is the
independent oracle for the tests and the closed-form cross-check, and the
route for detuned evolution, where J_x is not conserved.

Both Hamiltonians are real symmetric in the Fock x computational basis, so
numpy's eigh diagonalizes them with its real solver; every exponential here
is formed by `hilbert._hermitian_function`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from ._numpy import np
from .hilbert import (
    ModelParams,
    OperatorMatrix,
    QuantumState,
    _hermitian_function,
    _require_same_space,
    _sector_coefficients,
    _sector_m,
    collective_spin,
    ladder_operators,
    position_sine_operator,
)


@dataclass(frozen=True)
class PropagatorFactors:
    """The four factors of the analytic propagator as sector data.

    Three factors are phases: `twist` and `carrier` hold one phase per J_x
    sector, shape (N+1,), indexed like `sector_propagators`, and `rot` one
    phase per Fock state, shape (n_max+1,). `disp` holds the N+1
    displacement blocks, shape (N+1, n_max+1, n_max+1). `product` assembles
    their ordered product by `sector_sum` on every read, with no matrix
    product: the block of sector k is the displacement block with row n
    scaled by the rotation phase of n, times the twist and carrier phases
    of k.
    """

    twist: np.ndarray
    rot: np.ndarray
    disp: np.ndarray
    carrier: np.ndarray

    @property
    def product(self) -> OperatorMatrix:
        blocks = (self.twist * self.carrier)[:, None, None] * (self.rot[:, None] * self.disp)
        return sector_sum(len(self.twist) - 1, blocks)


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
    # matrices, and taking the real parts of J_x and J_z keeps H real. a+a
    # and J_z are diagonal, so they are added on the diagonal in place
    jx = collective_spin(params.n_ions, "x").mat.real
    h = np.kron(jx, coupling.mat)
    h *= params.omega_ratio
    # adding 0.0 turns every -0.0 of the product into +0.0, so H has the bits
    # of the sum of the three dense kron products, signed zeros included
    h += 0.0
    diagonal = h.reshape(-1)[:: params.dim + 1]
    diagonal += np.tile(np.arange(params.dim_motion, dtype=float), params.dim_internal)
    if params.delta != 0.0:
        jz = collective_spin(params.n_ions, "z").mat.real
        diagonal += np.repeat((params.delta / 2.0) * np.diag(jz), params.dim_motion)
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

    This is the oracle route, `hilbert._hermitian_function` of H, independent
    of any series or scaling-squaring expansion.
    """
    if not h.is_hermitian(tol=1e-10):
        raise ValueError("expm_propagator requires a Hermitian matrix")
    u = _hermitian_function(h.mat, lambda vals: np.exp(-1j * vals * t))
    return OperatorMatrix(u, h.layout, h.dims)


def sector_sum(n_ions: int, blocks: np.ndarray) -> OperatorMatrix:
    """sum_k P_k x blocks[k] on the composite space, for blocks of shape
    (N+1, n_max+1, n_max+1) indexed like `sector_propagators`, with P_k the
    J_x sector projectors.

    Block (i, j) of the result is sum_k P_k[i, j] blocks[k], and P_k[i, j]
    depends on i and j only through their Hamming distance
    w = popcount(i ^ j) (`hilbert._sector_coefficients`). So the result has
    N+1 distinct blocks, one per w, each formed once and copied to every
    (i, j) at distance w.
    """
    d_i, d_m = 2**n_ions, blocks.shape[-1]
    flat = blocks.reshape(n_ions + 1, d_m * d_m)
    bits = (np.arange(d_i)[:, None] >> np.arange(n_ions)) & 1
    distance = (bits[:, None, :] != bits[None, :, :]).sum(-1)
    # filling the blocks in place keeps a single composite-sized array alive
    mat = np.empty((d_i, d_m, d_i, d_m), dtype=complex)
    for w in range(n_ions + 1):
        i, j = np.nonzero(distance == w)
        mat[i, :, j, :] = (np.array(_sector_coefficients(n_ions, w)) @ flat).reshape(d_m, d_m)
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
    no composite matrix is built here, and `PropagatorFactors.product`
    assembles the product when it is read. In sector m the twist is the
    phase e^{i Phi m^2} and the carrier the phase e^{-i Omega sin(theta) t m},
    both from `_period_phases`, the rotation diag(e^{-i n t}) and the
    displacement D(beta m). Each D(beta m) = exp[m (beta a+ - beta* a)]
    is the exponential of the truncated generator: with the one Hermitian
    H_g = i (beta a+ - beta* a) = V Lambda V+, it is V e^{-i m Lambda} V+,
    so one eigendecomposition serves all N+1 sectors.
    """
    _require_resonance(params, "the closed form")
    lam = params.eta * params.omega_ratio * np.cos(params.theta)
    phi = lam**2 * t - lam**2 * np.sin(t)
    twist = np.array(_period_phases(params.n_ions, phi, 0.0))
    rot = np.exp(-1j * np.arange(params.dim_motion) * t)

    a, ad = ladder_operators(params.n_max)
    beta = -lam * (np.exp(1j * t) - 1.0)
    generator = 1j * (beta * ad.mat - np.conj(beta) * a.mat)
    m = np.array(_sector_m(params.n_ions))
    disp = _hermitian_function(generator, lambda vals: np.exp(-1j * m[:, None] * vals))

    carrier_phase = params.omega_ratio * np.sin(params.theta) * t
    carrier = np.array(_period_phases(params.n_ions, 0.0, carrier_phase))

    return PropagatorFactors(twist=twist, rot=rot, disp=disp, carrier=carrier)


def sector_propagators(params: ModelParams, t: float, model: str) -> np.ndarray:
    """The motional propagators of the N+1 J_x sectors (resonant case only).

    On resonance both Hamiltonians are sum_m P_m x H_m with
    H_m = a+a + Omega m f, where P_m projects onto the J_x eigenspace
    of m and f is the motional coupling of the model ("ld" or "full", as in
    `hamiltonian_ld` and `hamiltonian_full`), so exp(-i H t) is
    sum_m P_m x U_m with U_m = exp(-i H_m t) (`sector_sum` assembles it).
    Each U_m comes from one real symmetric eigendecomposition of size
    n_max + 1 and two real products.

    Returns an array of shape (N+1, n_max+1, n_max+1) whose entry k is U_m
    for m = N - 2k, the sector of the |+/-> products with k minus signs.
    """
    _require_resonance(params, "the J_x sector decomposition")
    coupling = _coupling(params, model).mat
    a, ad = ladder_operators(params.n_max)
    m = np.array(_sector_m(params.n_ions))
    h = ad.mat @ a.mat + params.omega_ratio * m[:, None, None] * coupling
    return _hermitian_function(h, lambda vals: np.exp(-1j * vals * t))


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
    They use `math` alone, so the `solve` command never loads numpy.
    """
    lam = float(eta) * float(omega_ratio) * math.cos(theta)
    c = 2.0 * math.pi * (lam * lam)
    d = 2.0 * math.pi * float(omega_ratio) * math.sin(theta)
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
    phases = np.array(_period_phases(params.n_ions, c, d))
    u = sector_sum(params.n_ions, phases[:, None, None] * np.eye(params.dim_motion))
    return u, c, d


def _period_phases(n_ions: int, c: float, d: float) -> list[complex]:
    """e^{i (C m^2 - D m)} on J_x sector k (m = N - 2k), the one writer of
    the sector phases: the one-period propagator for the coefficients
    (C, D), the ideal gate at (pi/8, -pi/4), and the closed form's twist and
    carrier. In `cmath`, so that the `solve` command can check its solution
    without numpy."""
    return [cmath.exp(1j * (c * (m * m) - d * m)) for m in _sector_m(n_ions)]


def evolve(state: QuantumState, u: OperatorMatrix) -> QuantumState:
    """Apply a unitary of the state's space: U|psi> if pure, U rho U+ if mixed."""
    _require_same_space(state, u)
    if state.kind == "pure":
        return QuantumState("pure", u.mat @ state.data, state.layout, state.dims)
    rho = u.mat @ state.data @ u.mat.conj().T
    return QuantumState("mixed", rho, state.layout, state.dims)
