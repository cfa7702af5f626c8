"""Gate parameter solving, the literal published formulas, GHZ recipes."""

import math

import numpy as np
import pytest

from helpers import gate_params, perfbench_workloads, quiet_thermal, solved
from iongate import (
    GateSolution,
    ModelParams,
    collective_spin,
    evolve,
    expm_propagator,
    fock_state,
    ghz_recipe,
    hamiltonian_ld,
    ideal_gate_unitary,
    ideal_ghz_state,
    internal_product_state,
    literal_params,
    partial_trace,
    propagator_at_tau,
    solve_gate_params,
    synthesis,
)


#: (theta, Omega/omega_a, C, D) of `solve_gate_params` and of
#: `literal_params` at every eta the benchmark draws, as the numpy
#: expressions of numpy's arctan2, hypot, cos and sin gave them before the
#: closed forms moved to `math`
SOLVED = {
    0.04: (-0.01999733397315053, 6.251249875024993, 0.39269908169872403, -0.7853981633974481),
    0.05: (-0.02499479361892016, 5.001562255935639, 0.39269908169872414, -0.7853981633974483),
    0.06: (-0.029991004856877897, 4.168541244981404, 0.3926990816987243, -0.7853981633974484),
    0.08: (-0.039978687123290044, 3.127499000799201, 0.39269908169872414, -0.7853981633974484),
    0.1: (-0.04995839572194276, 2.5031230493125984, 0.39269908169872414, -0.7853981633974483),
    0.12: (-0.05992815512120788, 2.087079964394699, 0.39269908169872414, -0.7853981633974483),
    0.15: (-0.07485984771076686, 1.6713475933442983, 0.39269908169872414, -0.7853981633974482),
    0.2: (-0.09966865249116202, 1.2562344526401112, 0.39269908169872403, -0.7853981633974483),
    0.25: (-0.12435499454676144, 1.0077822185373186, 0.39269908169872403, -0.7853981633974482),
}
LITERAL = {
    0.04: (-0.035434239329200326, 11.084794792851074, 1.2337005501361695, -2.4674011002723395),
    0.05: (-0.04428237868330793, 8.87096550035631, 1.2337005501361702, -2.4674011002723395),
    0.06: (-0.0531235854218818, 7.3956576241460645, 1.2337005501361695, -2.467401100272339),
    0.08: (-0.07077972002285815, 5.552821654481606, 1.2337005501361695, -2.4674011002723395),
    0.1: (-0.08839176612100011, 4.448501618939036, 1.23370055013617, -2.4674011002723395),
    0.12: (-0.10594901022867954, 3.7134347106112853, 1.2337005501361695, -2.467401100272339),
    0.15: (-0.13215919185500927, 2.9800769836933183, 1.2337005501361695, -2.467401100272339),
    0.2: (-0.17542349619549522, 2.2501002399895595, 1.2337005501361702, -2.4674011002723395),
    0.25: (-0.21803468293176978, 1.815435270770295, 1.23370055013617, -2.4674011002723395),
}


class TestPinnedClosedForm:
    """The solve path runs on `math` and `cmath`. At every eta the benchmark
    draws, each field it reports keeps the stored bits above. (numpy's
    arctan2 and hypot differ from math's by one ulp at a few other etas.)"""

    def test_the_tables_cover_the_benchmark_etas(self):
        workloads = perfbench_workloads()
        etas = {*workloads.CLI_ETAS, *workloads.SWEEP_ETAS, *workloads.GHZ_ETAS}
        assert set(SOLVED) == set(LITERAL) == etas

    @pytest.mark.parametrize("eta", sorted(SOLVED))
    def test_solved_fields(self, eta):
        theta, r, c, d = SOLVED[eta]
        assert solve_gate_params(eta) == GateSolution(
            eta=eta,
            theta=theta,
            omega_ratio=r,
            achieved_c=c,
            achieved_d=d,
            residual_c=abs(c - math.pi / 8.0),
            residual_d=abs(-d - math.pi / 4.0),
            branch=(0, 0),
        )

    @pytest.mark.parametrize("eta", sorted(LITERAL))
    def test_literal_fields(self, eta):
        theta, r, c, d = LITERAL[eta]
        assert literal_params(eta) == GateSolution(
            eta=eta,
            theta=theta,
            omega_ratio=r,
            achieved_c=c,
            achieved_d=d,
            residual_c=abs(c - math.pi / 8.0),
            residual_d=abs(-d - math.pi / 4.0),
        )


class TestSolveGateParams:
    def test_reference_point(self):
        s = solved(0.1)
        assert np.isclose(s.theta, -0.049959, atol=1e-6)
        assert np.isclose(np.sin(s.theta), -0.049938, atol=1e-6)
        assert np.isclose(s.omega_ratio, 2.50312, atol=1e-5)

    def test_second_reference_point(self):
        s = solved(0.2)
        assert np.isclose(np.sin(s.theta), -0.099504, atol=1e-6)
        assert np.isclose(s.omega_ratio, 1.25623, atol=1e-5)

    @pytest.mark.parametrize("eta", [0.05, 0.1, 0.15, 0.2, 0.3])
    def test_analytic_reduction(self, eta):
        # the two constraints reduce algebraically to r = sqrt(eta^2+4)/(8 eta)
        # and sin(theta) = -eta/sqrt(eta^2+4); the solver must land there
        s = solved(eta)
        assert np.isclose(s.omega_ratio, np.sqrt(eta**2 + 4) / (8 * eta), atol=1e-10)
        assert np.isclose(np.sin(s.theta), -eta / np.sqrt(eta**2 + 4), atol=1e-10)

    @pytest.mark.parametrize("eta", [0.05, 0.1, 0.2, 0.3])
    def test_achieved_coefficients(self, eta):
        s = solved(eta)
        assert abs(s.achieved_c - np.pi / 8) < 1e-12
        assert abs(-s.achieved_d - np.pi / 4) < 1e-12
        assert abs(s.residual_c) < 1e-12 and abs(s.residual_d) < 1e-12

    @pytest.mark.parametrize("eta", [0.05, 0.1, 0.2, 0.3])
    def test_displacement_rate_identity(self, eta):
        # every solution satisfies eta * r * cos(theta) = 1/4 exactly, which
        # is why truncation behavior is independent of eta at the gate point
        s = solved(eta)
        assert np.isclose(eta * s.omega_ratio * np.cos(s.theta), 0.25, atol=1e-12)

    def test_branch_normalization(self):
        for eta in (0.07, 0.12, 0.25):
            s = solved(eta)
            assert s.omega_ratio > 0
            assert np.cos(s.theta) > 0
            assert -np.pi < s.theta <= np.pi
            assert s.branch == (0, 0)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            solve_gate_params(0.0)
        with pytest.raises(ValueError):
            solve_gate_params(-0.3)

    def test_rejects_nonfinite_eta(self):
        for eta in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                solve_gate_params(eta)
            with pytest.raises(ValueError):
                literal_params(eta)

    def test_nan_solver_output_fails_the_residual_check(self, monkeypatch):
        monkeypatch.setattr(
            synthesis, "_branch_solution", lambda eta, c, minus_d: (np.nan, np.nan)
        )
        with pytest.raises(RuntimeError, match="residuals"):
            solve_gate_params(0.1)

    def test_nan_solver_output_fails_the_even_recipe_too(self, monkeypatch):
        # the even GHZ pulse goes through the same inverse and residual check
        monkeypatch.setattr(
            synthesis, "_branch_solution", lambda eta, c, minus_d: (np.nan, np.nan)
        )
        with pytest.raises(RuntimeError, match="residuals"):
            ghz_recipe(2, 0.1)

    @pytest.mark.parametrize("eta", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize("k1", [0, 1, 2])
    @pytest.mark.parametrize("k2", [-1, 0, 1])
    def test_every_branch_in_closed_form(self, eta, k1, k2):
        s = solve_gate_params(eta, k1, k2)
        assert s.branch == (k1, k2)
        assert abs(s.achieved_c - (np.pi / 8 + 2 * np.pi * k1)) < 1e-12
        assert abs(-s.achieved_d - (np.pi / 4 + 2 * np.pi * k2)) < 1e-12
        assert np.cos(s.theta) > 0
        assert s.omega_ratio > 0

    @pytest.mark.parametrize("k1", [-1, -3])
    def test_negative_k1_branch_rejected(self, k1):
        # C = pi/8 + 2 pi k1 < 0 cannot equal 2 pi eta^2 r^2 cos^2(theta)
        with pytest.raises(ValueError, match=rf"\({k1}, 0\)"):
            solve_gate_params(0.1, k1, 0)

    def test_nan_gate_distance_fails_verification(self, monkeypatch):
        # the verification compares the one-period sector phases with the
        # ideal gate's; a NaN phase in any of the three sectors must fail
        # it, not pass as distance 0 beside sectors that match. The gate's
        # phases are formed before the patch, since `_gate_phases` calls
        # `_period_phases` too
        gate = synthesis._gate_phases(2)
        monkeypatch.setattr(synthesis, "_gate_phases", lambda n_ions: list(gate))
        for sector in range(3):

            def nan_phases(n_ions, c, d):
                phases = list(gate)
                phases[sector] = complex(np.nan, np.nan)
                return phases

            monkeypatch.setattr(synthesis, "_period_phases", nan_phases)
            with pytest.raises(RuntimeError, match="verification"):
                solve_gate_params(0.1)

    def test_solution_realizes_gate_on_composite_space(self):
        p = gate_params(0.1, 5)
        u, _, _ = propagator_at_tau(p)
        ideal = np.kron(ideal_gate_unitary(2).mat, np.eye(6))
        assert np.abs(u.mat - ideal).max() < 1e-10

    @pytest.mark.parametrize("k1, k2", [(0, 0), (2, -1)])
    def test_achieved_coefficients_are_the_propagators(self, k1, k2):
        # one formula owns C and D: the solve reports exactly what the
        # one-period propagator of the model at the gate point uses
        s = solve_gate_params(0.13, k1, k2)
        p = s.model_params(n_ions=2, n_max=1, n_pad=0)
        assert (s.achieved_c, s.achieved_d) == propagator_at_tau(p)[1:]

    def test_model_params_copies_the_gate_point(self):
        s = solved(0.1)
        p = s.model_params(n_ions=3, n_max=7, n_pad=2)
        assert (p.eta, p.theta, p.omega_ratio) == (s.eta, s.theta, s.omega_ratio)
        assert (p.n_ions, p.n_max, p.n_pad) == (3, 7, 2)
        assert p.delta == 0.0
        with pytest.raises(TypeError):
            s.model_params(3, 7, 2)


class TestLiteralParams:
    def test_formula_values(self):
        lit = literal_params(0.1)
        expected_sin = -np.sqrt(0.01 * np.pi / (0.01 * np.pi + 4))
        assert np.isclose(np.sin(lit.theta), expected_sin, atol=1e-12)
        assert np.isclose(np.sin(lit.theta), -0.0882767, atol=1e-7)
        expected_r = 1.0 / np.sqrt(64 * 0.01 / (0.01 * np.pi**2 + 4 * np.pi))
        assert np.isclose(lit.omega_ratio, expected_r, atol=1e-12)
        assert np.isclose(lit.omega_ratio, 4.4485016, atol=1e-7)

    @pytest.mark.parametrize("eta", [0.05, 0.1, 0.15, 0.2, 0.3])
    def test_achieved_coefficients_are_pi_squared_over_8_and_4(self, eta):
        # the literal formulas overshoot the target by a factor of pi in both
        # coefficients, for every eta; this discrepancy is a stable, reported
        # output (see README)
        lit = literal_params(eta)
        assert abs(lit.achieved_c - np.pi**2 / 8) < 1e-12
        assert abs(-lit.achieved_d - np.pi**2 / 4) < 1e-12

    def test_residuals_reported_not_asserted(self):
        lit = literal_params(0.1)
        assert np.isclose(lit.residual_c, np.pi**2 / 8 - np.pi / 8, atol=1e-12)
        assert np.isclose(lit.residual_d, np.pi**2 / 4 - np.pi / 4, atol=1e-12)

    def test_infinite_rate_is_rejected(self):
        # r = sqrt(pi) hypot(eta sqrt(pi), 2) / (8 eta) leaves the float range
        # below eta of about 2.5e-309, and the model refuses the infinite rate
        with pytest.raises(ValueError, match="omega_ratio"):
            literal_params(1e-309)

    def test_coefficients_over_the_eta_range(self):
        # eta^2 is subnormal below about 1.5e-154 and 0 below about 2e-162;
        # the literal expressions never form it, so C and -D stay on
        # pi^2/8 and pi^2/4 down to eta = 1e-300. Above eta ~ 1e3, theta is
        # within 1e-3 of -pi/2 and cos(theta) is roundoff-limited (1.7e-12
        # at eta = 1e4), as for the solved parameters
        for eta in np.logspace(-300, 3, 400):
            lit = literal_params(float(eta))
            assert abs(lit.achieved_c - np.pi**2 / 8) < 1e-12, eta
            assert abs(-lit.achieved_d - np.pi**2 / 4) < 1e-12, eta
            assert np.cos(lit.theta) > 0

    def test_large_eta_limit(self):
        lit = literal_params(1e6)
        assert np.isclose(np.sin(lit.theta), -1.0, atol=1e-9)


class TestIdealGateUnitary:
    def test_eigenvalues(self):
        u = ideal_gate_unitary(2).mat
        vals = np.linalg.eigvals(u)
        assert np.allclose(np.sort_complex(vals), np.sort_complex([-1, 1, 1, 1]))

    def test_truth_table_in_pm_basis(self):
        u = ideal_gate_unitary(2).mat
        for label, sign in (("++", -1), ("+-", 1), ("-+", 1), ("--", 1)):
            psi = internal_product_state(label).data
            assert np.abs(u @ psi - sign * psi).max() < 1e-12

    @pytest.mark.parametrize("n_ions", range(1, 7))
    def test_matches_generator_exponential(self, n_ions):
        # the closed form sum_k g_k P_k against an eigh of the generator
        jx = collective_spin(n_ions, "x").mat
        gen = jx @ jx + 2 * jx
        w, v = np.linalg.eigh(gen)
        expected = (v * np.exp(1j * np.pi / 8 * w)) @ v.conj().T
        assert np.abs(ideal_gate_unitary(n_ions).mat - expected).max() < 1e-12

    def test_rejects_no_ions(self):
        with pytest.raises(ValueError, match="n_ions"):
            ideal_gate_unitary(0)

    def test_no_global_phase_freedom(self):
        # the m = -2 and m = 0 spin-x sectors both acquire phase exactly 1
        u = ideal_gate_unitary(2).mat
        mm = internal_product_state("--").data
        assert np.abs(u @ mm - mm).max() < 1e-12


class TestGhzRecipe:
    def test_even_recipe_parameters(self):
        # the solved pulse of (pi/8, 0) has r = sqrt(1/16) / eta, which keeps
        # the bits of 1 / (4 eta) at every eta the benchmark draws
        assert ghz_recipe(2, 0.1, n_max=12).params.omega_ratio == 2.5
        for eta in perfbench_workloads().GHZ_ETAS:
            for n_ions in (2, 4):
                params = ghz_recipe(n_ions, eta, n_max=12).params
                assert params.omega_ratio == 1.0 / (4.0 * eta)
                assert params.theta == 0.0

    def test_even_documented_phase(self):
        # the twist exp[+i pi/8 Jx^2] gives -(pi/2 + N pi/2) mod 2pi,
        # stored wrapped into (-pi, pi]
        rec = ghz_recipe(2, 0.1, n_max=12)
        assert np.isclose(rec.expected_rel_phase, np.pi / 2, atol=1e-12)
        rec4 = ghz_recipe(4, 0.1, n_max=12)
        assert np.isclose(rec4.expected_rel_phase, -np.pi / 2, atol=1e-12)

    @pytest.mark.parametrize("n_ions", [2, 4, 6, 8])
    def test_even_phase_is_the_ideal_twist_phase(self, n_ions):
        # the stored phase is the one exp[+i pi/8 Jx^2] |g...g> carries,
        # and that state is a GHZ state
        jx = collective_spin(n_ions, "x").mat
        w, v = np.linalg.eigh(jx)
        twist = (v * np.exp(1j * np.pi / 8 * w**2)) @ v.conj().T
        out = twist @ internal_product_state("g" * n_ions).data
        assert abs(abs(out[0]) ** 2 + abs(out[-1]) ** 2 - 1.0) < 1e-12
        rel = np.angle(out[-1] / out[0])
        expected = ghz_recipe(n_ions, 0.1, n_max=4).expected_rel_phase
        assert abs(np.angle(np.exp(1j * (rel - expected)))) < 1e-12

    def test_odd_recipe_delegates_to_solver(self):
        rec = ghz_recipe(3, 0.1, n_max=12)
        assert np.isclose(rec.params.theta, -0.049959, atol=1e-6)
        assert rec.expected_rel_phase is None

    def test_rejects_single_ion(self):
        with pytest.raises(ValueError):
            ghz_recipe(1, 0.1)

    @pytest.mark.parametrize("eta", [0.0, -0.0, -0.1, math.inf, math.nan])
    def test_rejects_eta_before_the_even_recipe_divides(self, eta):
        # the even recipe's inverse divides by eta, so eta = 0 would raise
        # ZeroDivisionError instead of the solver's ValueError
        with pytest.raises(ValueError, match="eta must be finite and > 0"):
            ghz_recipe(2, eta)

    def test_measured_even_phase_convention(self):
        # Direct 4-dimensional computation: with the twist exp[+i pi/8 Jx^2],
        # |gg> evolves to ((1+i)|gg> + (i-1)|ee>)/2, so the relative phase
        # phi_e - phi_g is arg(i-1) - arg(1+i) = +pi/2, the value -(pi/2 +
        # N pi/2) mod 2pi that ghz_recipe stores for N=2. The value
        # pi/2 + N pi/2 belongs to the conjugate twist exp[-i pi/8 Jx^2].
        jx = collective_spin(2, "x").mat
        w, v = np.linalg.eigh(jx @ jx)
        twist = (v * np.exp(1j * np.pi / 8 * w)) @ v.conj().T
        out = twist @ internal_product_state("gg").data
        amp_gg, amp_ee = out[0], out[3]
        assert np.abs(amp_gg - (1 + 1j) / 2) < 1e-12
        assert np.abs(amp_ee - (1j - 1) / 2) < 1e-12
        rel = np.angle(amp_ee) - np.angle(amp_gg)
        assert np.isclose(rel, np.pi / 2, atol=1e-12)

    def test_even_recipe_end_to_end_phase(self):
        # full pipeline check at N=2: evolve |gg> x |0> under H_LD for one
        # period with the even recipe and read the relative phase off the
        # reduced internal state
        rec = ghz_recipe(2, 0.1, n_max=16)
        u = expm_propagator(hamiltonian_ld(rec.params), rec.params.tau)
        from iongate import composite_pure

        psi = composite_pure(internal_product_state("gg"), fock_state(0, 16))
        rho = partial_trace(evolve(psi, u), "internal")
        coh = rho.data[3, 0]
        assert np.isclose(np.angle(coh), np.pi / 2, atol=1e-9)


class TestIdealGhzState:
    def test_plain_pair(self):
        s = ideal_ghz_state(2, 0.0, 0.0)
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        assert np.abs(s.data - expected).max() < 1e-15

    def test_normalized_any_phase(self):
        s = ideal_ghz_state(3, 0.7, -2.2)
        assert abs(np.linalg.norm(s.data) - 1.0) < 1e-12

    def test_overlap_with_sign_flipped_partner(self):
        phi_g, phi_e = 0.4, 1.9
        s = ideal_ghz_state(2, phi_g, phi_e)
        other = np.zeros(4, dtype=complex)
        other[0], other[3] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        overlap = abs(np.vdot(other, s.data))
        assert np.isclose(overlap, abs(np.sin((phi_e - phi_g) / 2)), atol=1e-12)
