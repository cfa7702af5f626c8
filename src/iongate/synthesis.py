"""Pulse-parameter synthesis for the conditional phase gate and GHZ recipes.

One pulse of one trap period gives U(tau) = exp[i C J_x^2] exp[-i D J_x]
with C = 2 pi eta^2 r^2 cos^2(theta) and D = 2 pi r sin(theta), for
r = Omega/omega_a (`pulse_period_coefficients`). Every solved pulse comes
from one closed-form inverse, `_branch_solution`, for targets (C, -D) with
C > 0:

    r cos(theta) = sqrt(C / (2 pi)) / eta
    r sin(theta) = D / (2 pi)

with cos(theta) > 0 and r > 0, and every one is checked: its achieved
coefficients must meet the targets to 1e-12. The gate target
exp[i pi/8 (J_x^2 + 2 J_x)] is (C, -D) = (pi/8 + 2 pi k1, pi/4 + 2 pi k2)
on the winding branch (k1, k2), k1 >= 0; its principal branch is
r = sqrt(eta^2 + 4) / (8 eta), sin(theta) = -eta / sqrt(eta^2 + 4).
The even-N GHZ pulse, pure twisting, is (pi/8, 0): theta = 0, r = 1/(4 eta).

`literal_params` evaluates an alternative published
parameter-selection prescription for the same gate and reports the
coefficients it actually achieves (pi^2/8 and pi^2/4, off the target by a
factor of pi); see the README for the derivation. It never asserts success.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .dynamics import _period_phases, pulse_period_coefficients
from .hilbert import ModelParams, OperatorMatrix, QuantumState, _pm_products

GATE_C = math.pi / 8.0
GATE_MINUS_D = math.pi / 4.0


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


def _require_eta(eta: float) -> None:
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and > 0, got {eta}")


def _branch_solution(eta: float, c: float, minus_d: float) -> tuple[float, float]:
    """(theta, r) of the pulse with coefficients (C, -D) = (c, minus_d), c > 0:
    x = r cos(theta) from C, y = r sin(theta) from D, in Python floats, so a
    subnormal eta gives x = inf rather than a numpy warning."""
    x = math.sqrt(c / (2.0 * math.pi)) / float(eta)
    y = -minus_d / (2.0 * math.pi)
    return math.atan2(y, x), math.hypot(x, y)


def _evaluated(
    eta: float, theta: float, r: float, c: float, minus_d: float, branch=(0, 0)
) -> GateSolution:
    """The pulse (theta, r) with the coefficients it achieves and their
    distances from the targets (c, minus_d)."""
    achieved_c, achieved_d = pulse_period_coefficients(eta, r, theta)
    return GateSolution(
        eta=eta,
        theta=theta,
        omega_ratio=r,
        achieved_c=achieved_c,
        achieved_d=achieved_d,
        residual_c=abs(achieved_c - c),
        residual_d=abs(-achieved_d - minus_d),
        branch=branch,
    )


def _solved(eta: float, c: float, minus_d: float, branch=(0, 0)) -> GateSolution:
    """The pulse with one-period coefficients (c, minus_d), solved in closed
    form and checked to 1e-12; RuntimeError if a residual misses."""
    theta, r = _branch_solution(eta, c, minus_d)
    solution = _evaluated(eta, theta, r, c, minus_d, branch)
    # written so that a NaN residual fails too
    if not (solution.residual_c <= 1e-12 and solution.residual_d <= 1e-12):
        raise RuntimeError(
            f"gate parameter solve failed for eta={eta}: residuals "
            f"({solution.achieved_c - c:.3e}, {-solution.achieved_d - minus_d:.3e})"
        )
    return solution


def solve_gate_params(eta: float, k1: int = 0, k2: int = 0) -> GateSolution:
    """The gate parameters (theta, Omega/omega_a) of branch (k1, k2).

    Solves the targets (pi/8 + 2 pi k1, pi/4 + 2 pi k2) in closed form
    (`_solved`), which lands on the cos(theta) > 0, r > 0 solution (the
    sign-flipped pair produces the same propagator), and verifies the
    result in closed form on the J_x sectors of two ions, m = 2, 0, -2: the
    one-period phases e^{i (C m^2 - D m)} of `propagator_at_tau` against
    those of the ideal gate, e^{i pi/8 (m^2 + 2m)}. Both operators are
    sum_k P_k x (phase_k I), and sum_k |P_k[i, j]| <= 1, so the largest
    phase distance bounds the distance of every entry. All of it runs in
    `math` and `cmath`, without numpy.

    Raises ValueError for an eta that is not finite and positive or a branch
    with k1 < 0 (C = pi/8 + 2 pi k1 must be positive), and RuntimeError if
    the residual or verification check fails.
    """
    _require_eta(eta)
    if k1 < 0:
        raise ValueError(
            f"branch (k1, k2) = ({k1}, {k2}) has no real solution: "
            "C = pi/8 + 2 pi k1 must be positive, so k1 must be >= 0"
        )
    c, minus_d = GATE_C + 2.0 * math.pi * k1, GATE_MINUS_D + 2.0 * math.pi * k2
    solution = _solved(eta, c, minus_d, (k1, k2))
    # verified for two ions; the solved pair is N-independent
    phases = _period_phases(2, solution.achieved_c, solution.achieved_d)
    gaps = [abs(p - g) for p, g in zip(phases, _gate_phases(2))]
    # written so that a NaN gap fails too
    if not all(gap <= 1e-10 for gap in gaps):
        raise RuntimeError(
            f"solved parameters fail verification for eta={eta}: "
            f"gate distance {max(gaps):.3e}"
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
    _require_eta(eta)
    x = float(eta) * math.sqrt(math.pi)
    theta = math.atan2(-x, 2.0)
    r = math.sqrt(math.pi) * math.hypot(x, 2.0) / (8.0 * float(eta))
    # rejects a non-finite r
    ModelParams(eta=eta, omega_ratio=r, theta=theta)
    return _evaluated(eta, theta, r, GATE_C, GATE_MINUS_D)


def _gate_phases(n_ions: int) -> list[complex]:
    """g_k = e^{i pi/8 (m^2 + 2m)}, the ideal gate on J_x sector k, m = N - 2k:
    the one-period phases at (C, -D) = (pi/8, pi/4)."""
    return _period_phases(n_ions, GATE_C, -GATE_MINUS_D)


def ideal_gate_unitary(n_ions: int = 2) -> OperatorMatrix:
    """The target internal unitary exp[i pi/8 (J_x^2 + 2 J_x)], built as
    sum_k g_k P_k with P_k = S_k S_k^T / 2^N (`hilbert._pm_products`).

    For two ions this is the conditional phase gate that is diagonal in the
    |+/-> product basis with truth table |++> -> -|++> and identity on the
    other three inputs; the phase is fixed, with no global-phase freedom,
    because the m = -2 and m = 0 sectors both acquire phase 1.
    """
    signs, _, sector = _pm_products(n_ions)
    u = (signs * np.array(_gate_phases(n_ions))[sector]) @ signs.T / 2.0**n_ions
    return OperatorMatrix(u, "internal")


def ghz_recipe(n_ions: int, eta: float) -> tuple[GateSolution, float | None]:
    """The pulse generating an N-ion GHZ state from |g...g> at t=tau, and the
    relative phase phi_e - phi_g it should produce.

    Even N: pure twisting, the solved pulse of (C, -D) = (pi/8, 0): theta = 0,
    Omega/omega_a = 1/(4 eta) and U(tau) = exp[i pi/8 J_x^2], whose phase on
    |g...g> is -(pi/2 + N pi/2) wrapped into (-pi, pi]: +pi/2 for N = 2 mod 4
    and -pi/2 for N = 0 mod 4. Odd N: the gate pulse,
    U(tau) = exp[i pi/8 (J_x^2 + 2 J_x)], and no phase is asserted (None).
    Both are residual-checked and share the coupling lambda/omega_a = 1/4
    exactly.
    """
    # checked before the even recipe divides by eta
    _require_eta(eta)
    if n_ions < 2:
        raise ValueError(f"n_ions must be >= 2, got {n_ions}")
    if n_ions % 2:
        return solve_gate_params(eta), None
    phase = math.pi / 2.0 if n_ions % 4 == 2 else -math.pi / 2.0
    return _solved(eta, GATE_C, 0.0), phase


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
