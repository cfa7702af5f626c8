"""Pulse-parameter synthesis for the conditional phase gate and GHZ recipes.

The gate target is the internal unitary exp[i pi/8 (J_x^2 + 2 J_x)], reached
at one trap period when the pulse-period coefficients satisfy C = pi/8 and
-D = pi/4, i.e.

    2 pi eta^2 r^2 cos^2(theta) = pi/8 + 2 pi k1
    -2 pi r sin(theta)          = pi/4 + 2 pi k2

for r = Omega/omega_a and integer winding branches (k1, k2). Every branch
with k1 >= 0 has the closed-form solution

    r cos(theta) = sqrt((pi/8 + 2 pi k1) / (2 pi)) / eta
    r sin(theta) = -(pi/4 + 2 pi k2) / (2 pi)

with cos(theta) > 0 and r > 0; the principal branch is
r = sqrt(eta^2 + 4) / (8 eta), sin(theta) = -eta / sqrt(eta^2 + 4).
`solve_gate_params` evaluates it and verifies the result.

`literal_params` evaluates an alternative published
parameter-selection prescription for the same gate and reports the
coefficients it actually achieves (pi^2/8 and pi^2/4, off the target by a
factor of pi); see the README for the derivation. It never asserts success.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _period_phases, pulse_period_coefficients
from .hilbert import ModelParams, OperatorMatrix, QuantumState, _pm_products, _sector_m

GATE_C = np.pi / 8.0
GATE_MINUS_D = np.pi / 4.0


@dataclass(frozen=True)
class GateSolution:
    """A solved (theta, Omega/omega_a) pair with its achieved coefficients."""

    eta: float
    theta: float
    omega_ratio: float
    achieved_c: float
    achieved_d: float
    residual_c: float
    residual_d: float
    branch: tuple[int, int] = (0, 0)

    def model_params(self, *, n_ions: int, n_max: int, n_pad: int) -> ModelParams:
        """The resonant model at this gate point with the given size."""
        return ModelParams(
            eta=self.eta,
            omega_ratio=self.omega_ratio,
            theta=self.theta,
            n_ions=n_ions,
            n_max=n_max,
            n_pad=n_pad,
        )


@dataclass(frozen=True)
class GhzRecipe:
    """Pulse parameters that turn |g...g> into an N-ion GHZ state at t=tau.

    expected_rel_phase carries the even-N relative phase phi_e - phi_g that
    the even recipe's twist exp[+i pi/8 J_x^2] produces on |g...g>, namely
    -(pi/2 + N pi/2) wrapped into (-pi, pi]: +pi/2 for N = 2 mod 4 and
    -pi/2 for N = 0 mod 4. The CLI reports the comparison of the measured
    phase against it. For odd N no phase is asserted and the field is None.
    """

    params: ModelParams
    expected_rel_phase: float | None


def _branch_solution(eta: float, k1: int, k2: int) -> tuple[float, float]:
    """(theta, r) of branch (k1, k2) in closed form: x = r cos(theta) from the
    C constraint, y = r sin(theta) from the D constraint. x is a Python
    float, so a subnormal eta gives x = inf rather than a numpy warning."""
    x = float(np.sqrt((GATE_C + 2.0 * np.pi * k1) / (2.0 * np.pi))) / float(eta)
    y = -(GATE_MINUS_D + 2.0 * np.pi * k2) / (2.0 * np.pi)
    return float(np.arctan2(y, x)), float(np.hypot(x, y))


def solve_gate_params(eta: float, k1: int = 0, k2: int = 0) -> GateSolution:
    """The gate parameters (theta, Omega/omega_a) of branch (k1, k2).

    Evaluates the closed form of the module docstring, which lands on the
    cos(theta) > 0, r > 0 solution (the sign-flipped pair produces the same
    propagator), checks the constraint residuals, and verifies the result in
    closed form on the J_x sectors of two ions, m = 2, 0, -2: the one-period
    phases e^{i (C m^2 - D m)} of `propagator_at_tau` against those of the
    ideal gate. Both operators are sum_k P_k x (phase_k I), and
    sum_k |P_k[i, j]| <= 1, so the largest phase distance bounds the
    distance of every entry.

    Raises ValueError for an eta that is not finite and positive or a branch
    with k1 < 0 (C = pi/8 + 2 pi k1 must be positive), and RuntimeError if
    the residual or verification check fails.
    """
    if not (np.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and > 0, got {eta}")
    if k1 < 0:
        raise ValueError(
            f"branch (k1, k2) = ({k1}, {k2}) has no real solution: "
            "C = pi/8 + 2 pi k1 must be positive, so k1 must be >= 0"
        )
    theta, r = _branch_solution(eta, k1, k2)
    c, d = pulse_period_coefficients(eta, r, theta)
    res_c = c - (GATE_C + 2.0 * np.pi * k1)
    res_d = -d - (GATE_MINUS_D + 2.0 * np.pi * k2)
    # written so that a NaN residual fails too
    if not (abs(res_c) <= 1e-12 and abs(res_d) <= 1e-12):
        raise RuntimeError(
            f"gate parameter solve failed for eta={eta}: "
            f"residuals ({res_c:.3e}, {res_d:.3e})"
        )

    solution = GateSolution(
        eta=eta,
        theta=theta,
        omega_ratio=r,
        achieved_c=c,
        achieved_d=d,
        residual_c=abs(res_c),
        residual_d=abs(res_d),
        branch=(k1, k2),
    )
    # verified for two ions; the solved pair is N-independent
    distance = np.abs(_period_phases(2, c, d) - _gate_phases(2)).max()
    if not distance <= 1e-10:
        raise RuntimeError(
            f"solved parameters fail verification for eta={eta}: "
            f"gate distance {distance:.3e}"
        )
    return solution


def literal_params(eta: float) -> GateSolution:
    """Evaluate the published closed-form parameter prescription.

    sin(theta) = -sqrt(eta^2 pi / (eta^2 pi + 4))
    omega_a / Omega = sqrt(64 eta^2 / (eta^2 pi^2 + 4 pi))

    and report the coefficients these values actually achieve through
    `pulse_period_coefficients`. No success assertion is made: direct
    substitution gives C = pi^2/8 and -D = pi^2/4 for every eta, a factor pi
    away from the gate target, and the residual fields carry that
    discrepancy.

    They are evaluated without eta^2, which loses precision below eta ~
    1.5e-154: with x = eta sqrt(pi), theta = atan2(-x, 2) (the arcsin branch,
    cos(theta) > 0) and r = sqrt(pi) hypot(x, 2) / (8 eta), in Python floats,
    so r is finite down to eta ~ 2.5e-309, and an inf r below that is
    refused by the model, never a numpy warning.
    """
    if not (np.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and > 0, got {eta}")
    x = float(eta) * math.sqrt(math.pi)
    theta = math.atan2(-x, 2.0)
    r = math.sqrt(math.pi) * math.hypot(x, 2.0) / (8.0 * float(eta))
    # rejects a non-finite r
    ModelParams(eta=eta, omega_ratio=r, theta=theta)
    c, d = pulse_period_coefficients(eta, r, theta)
    return GateSolution(
        eta=eta,
        theta=theta,
        omega_ratio=r,
        achieved_c=c,
        achieved_d=d,
        residual_c=abs(c - GATE_C),
        residual_d=abs(-d - GATE_MINUS_D),
    )


def _gate_phases(n_ions: int) -> np.ndarray:
    """g_k = e^{i pi/8 (m^2 + 2m)}, the ideal gate on J_x sector k, m = N - 2k."""
    m = _sector_m(n_ions)
    return np.exp(1j * np.pi / 8.0 * (m**2 + 2 * m))


def ideal_gate_unitary(n_ions: int = 2) -> OperatorMatrix:
    """The target internal unitary exp[i pi/8 (J_x^2 + 2 J_x)], built as
    sum_k g_k P_k with P_k = S_k S_k^T / 2^N (`hilbert._pm_products`).

    For two ions this is the conditional phase gate that is diagonal in the
    |+/-> product basis with truth table |++> -> -|++> and identity on the
    other three inputs; the phase is fixed, with no global-phase freedom,
    because the m = -2 and m = 0 sectors both acquire phase 1.
    """
    signs, _, sector = _pm_products(n_ions)
    u = (signs * _gate_phases(n_ions)[sector]) @ signs.T / 2.0**n_ions
    return OperatorMatrix(u, "internal")


def ghz_recipe(n_ions: int, eta: float, n_max: int = 40, n_pad: int = 10) -> GhzRecipe:
    """Pulse parameters generating an N-ion GHZ state from |g...g> at t=tau.

    Even N: pure twisting, theta = 0 and Omega/omega_a = 1/(4 eta), so
    U(tau) = exp[i pi/8 J_x^2]. Odd N: the solved gate parameters, so
    U(tau) = exp[i pi/8 (J_x^2 + 2 J_x)]. Both recipes share the coupling
    lambda/omega_a = 1/4 exactly.
    """
    if n_ions < 2:
        raise ValueError(f"n_ions must be >= 2, got {n_ions}")
    if n_ions % 2 == 0:
        params = ModelParams(
            eta=eta,
            omega_ratio=1.0 / (4.0 * eta),
            theta=0.0,
            n_ions=n_ions,
            n_max=n_max,
            n_pad=n_pad,
        )
        # -(pi/2 + N pi/2) mod 2 pi, the phase of exp[+i pi/8 J_x^2] |g...g>
        expected = np.pi / 2.0 if n_ions % 4 == 2 else -np.pi / 2.0
        return GhzRecipe(params=params, expected_rel_phase=expected)
    params = solve_gate_params(eta).model_params(n_ions=n_ions, n_max=n_max, n_pad=n_pad)
    return GhzRecipe(params=params, expected_rel_phase=None)


def ideal_ghz_state(n_ions: int, phi_g: float, phi_e: float) -> QuantumState:
    """(e^{i phi_g} |g...g> + e^{i phi_e} |e...e>) / sqrt(2) on the internal
    space."""
    if n_ions < 2:
        raise ValueError(f"n_ions must be >= 2, got {n_ions}")
    dim = 2 ** n_ions
    vec = np.zeros(dim, dtype=complex)
    vec[0] = np.exp(1j * phi_g) / np.sqrt(2.0)
    vec[dim - 1] = np.exp(1j * phi_e) / np.sqrt(2.0)
    return QuantumState("pure", vec, "internal")
