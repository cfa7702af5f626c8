"""Hamiltonians and the two propagator routes (closed form vs oracle)."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import gate_params, quiet_thermal, sector_projectors
from iongate import dynamics
from iongate import (
    ModelParams,
    OperatorMatrix,
    QuantumState,
    closed_form_propagator,
    collective_spin,
    embed,
    evolve,
    expm_propagator,
    fock_state,
    hamiltonian_full,
    hamiltonian_ld,
    internal_product_state,
    ladder_operators,
    motional_independence_metric,
    pm_product_states,
    position_sine_operator,
    propagator_at_tau,
    sector_propagators,
    sector_sum,
)


def _restricted_max_diff(a: np.ndarray, b: np.ndarray, params: ModelParams, n_keep: int) -> float:
    """Max-entry difference over rows/columns with Fock index <= n_keep."""
    keep = np.arange(params.dim_motion) <= n_keep
    mask = np.kron(np.ones(params.dim_internal, dtype=bool), keep)
    d = (a - b)[np.ix_(mask, mask)]
    return float(np.abs(d).max())


def _unitarity_defect(u: np.ndarray) -> float:
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


class TestHamiltonianLD:
    def test_decoupled_when_drive_off(self):
        # omega_ratio ~ 0 leaves only the trap term
        p = ModelParams(eta=0.1, omega_ratio=1e-300, theta=0.3, n_ions=2, n_max=5)
        h = hamiltonian_ld(p).mat
        assert np.abs(h - np.diag(np.diag(h))).max() < 1e-12

    def test_detuning_term(self):
        p0 = ModelParams(eta=0.1, omega_ratio=1.0, theta=0.2, n_ions=2, n_max=4)
        p1 = ModelParams(
            eta=0.1, omega_ratio=1.0, theta=0.2, delta=0.8, n_ions=2, n_max=4
        )
        jz = collective_spin(2, "z")
        eye_m = OperatorMatrix(np.eye(5, dtype=complex), "motion")
        diff = hamiltonian_ld(p1).mat - hamiltonian_ld(p0).mat
        assert np.abs(diff - 0.4 * embed(jz, eye_m).mat).max() < 1e-14

    def test_spin_motion_decouple_at_right_angle(self):
        p = ModelParams(eta=0.1, omega_ratio=0.7, theta=np.pi / 2, n_ions=1, n_max=6)
        a, adag = ladder_operators(6)
        eye_i = OperatorMatrix(np.eye(2, dtype=complex), "internal")
        eye_m = OperatorMatrix(np.eye(7, dtype=complex), "motion")
        expected = embed(eye_i, OperatorMatrix(adag.mat @ a.mat, "motion")).mat
        expected += 0.7 * embed(collective_spin(1, "x"), eye_m).mat
        assert np.abs(hamiltonian_ld(p).mat - expected).max() < 1e-13

    def test_hand_assembled_single_ion(self):
        # basis |g0>, |g1>, |e0>, |e1>: trap diag (0,1,0,1) plus eta*Omega
        # couplings on the flip-and-shift positions
        p = ModelParams(eta=0.1, omega_ratio=1.0, theta=0.0, n_ions=1, n_max=1)
        h = hamiltonian_ld(p).mat
        expected = np.array(
            [
                [0.0, 0.0, 0.0, 0.1],
                [0.0, 1.0, 0.1, 0.0],
                [0.0, 0.1, 0.0, 0.0],
                [0.1, 0.0, 0.0, 1.0],
            ],
            dtype=complex,
        )
        assert np.abs(h - expected).max() < 1e-14

    def test_commutes_with_collective_spin_x(self):
        p = ModelParams(eta=0.2, omega_ratio=1.3, theta=-0.4, n_ions=2, n_max=8)
        h = hamiltonian_ld(p).mat
        eye_m = OperatorMatrix(np.eye(9, dtype=complex), "motion")
        jx = embed(collective_spin(2, "x"), eye_m).mat
        assert np.abs(h @ jx - jx @ h).max() < 1e-12

    def test_hermitian(self):
        p = ModelParams(eta=0.17, omega_ratio=2.1, theta=0.9, delta=0.3, n_ions=3, n_max=6)
        assert hamiltonian_ld(p).is_hermitian()


class TestDenseKronConstruction:
    @staticmethod
    def dense_kron(p: ModelParams, coupling: np.ndarray) -> np.ndarray:
        # a+a + Omega f J_x + (Delta/2) J_z as the sum of three dense krons
        number = np.diag(np.arange(p.dim_motion, dtype=float))
        h = np.kron(np.eye(p.dim_internal), number)
        h += p.omega_ratio * np.kron(collective_spin(p.n_ions, "x").mat.real, coupling)
        if p.delta != 0.0:
            jz = collective_spin(p.n_ions, "z").mat.real
            h += (p.delta / 2.0) * np.kron(jz, np.eye(p.dim_motion))
        return h

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.01, 0.5),
        st.floats(0.05, 3.0),
        st.floats(-np.pi, np.pi),
        st.sampled_from([0.0, 0.8, -1.3]),
        st.integers(1, 4),
        st.integers(1, 12),
    )
    def test_hamiltonians_equal_the_dense_kron_sum_bit_for_bit(
        self, eta, ratio, theta, delta, n_ions, n_max
    ):
        # signed zeros included: theta past pi/2 gives the coupling -0.0 entries
        p = ModelParams(
            eta=eta, omega_ratio=ratio, theta=theta, delta=delta, n_ions=n_ions, n_max=n_max
        )
        a, ad = ladder_operators(n_max)
        ld = eta * (a.mat + ad.mat) * np.cos(theta) + np.sin(theta) * np.eye(n_max + 1)
        full = position_sine_operator(p).mat
        for build, coupling in ((hamiltonian_ld, ld), (hamiltonian_full, full)):
            h = build(p).mat
            assert h.dtype == np.float64
            assert h.tobytes() == self.dense_kron(p, coupling).tobytes()


class TestHamiltonianFull:
    def test_small_eta_matches_ld(self):
        p = ModelParams(eta=1e-9, omega_ratio=1.0, theta=0.4, n_ions=2, n_max=8)
        diff = hamiltonian_full(p).mat - hamiltonian_ld(p).mat
        assert np.abs(diff).max() < 1e-8

    def test_quadratic_deviation_scaling(self):
        # ||H_full - H_LD|| / ||H_LD|| should drop ~4x when eta halves; theta
        # large enough that the quadratic correction dominates the cubic one
        def rel_dev(eta):
            p = ModelParams(eta=eta, omega_ratio=1.0, theta=0.9, n_ions=1, n_max=10)
            d = hamiltonian_full(p).mat - hamiltonian_ld(p).mat
            return np.linalg.norm(d) / np.linalg.norm(hamiltonian_ld(p).mat)

        ratio = rel_dev(0.1) / rel_dev(0.05)
        assert 3.5 < ratio < 4.5

    def test_hermitian_and_conserves_spin_x(self):
        p = ModelParams(eta=0.25, omega_ratio=0.9, theta=0.7, n_ions=2, n_max=10)
        h = hamiltonian_full(p)
        assert h.is_hermitian()
        eye_m = OperatorMatrix(np.eye(11, dtype=complex), "motion")
        jx = embed(collective_spin(2, "x"), eye_m).mat
        assert np.abs(h.mat @ jx - jx @ h.mat).max() < 1e-12


class TestExpmPropagator:
    def test_zero_time_is_identity(self):
        p = ModelParams(eta=0.1, omega_ratio=1.0, theta=0.0, n_ions=1, n_max=4)
        u = expm_propagator(hamiltonian_ld(p), 0.0)
        assert np.abs(u.mat - np.eye(10)).max() < 1e-14

    def test_diagonal_generator(self):
        h = OperatorMatrix(np.diag([0.0, 2.0]).astype(complex), "motion")
        u = expm_propagator(h, 0.7)
        assert np.allclose(np.diag(u.mat), [1.0, np.exp(-1.4j)])

    def test_rejects_non_hermitian(self):
        h = OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), "motion")
        with pytest.raises(ValueError):
            expm_propagator(h, 1.0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
    def test_property_group_law_and_unitarity(self, seed, t1, t2):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = OperatorMatrix(0.5 * (g + g.conj().T), "motion")
        u1 = expm_propagator(h, t1).mat
        u2 = expm_propagator(h, t2).mat
        u12 = expm_propagator(h, t1 + t2).mat
        assert _unitarity_defect(u1) < 1e-10
        assert np.abs(u1 @ u2 - u12).max() < 1e-10


def _complex_eigh_propagator(h: np.ndarray, t: float) -> np.ndarray:
    # exp(-i H t) from the complex Hermitian solver, whatever H holds
    vals, vecs = np.linalg.eigh(h.astype(complex))
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


class TestRealArithmetic:
    """The precondition of the real eigensolver path: every Hamiltonian the
    package builds is real symmetric, and only a J_y term would break that."""

    @pytest.mark.parametrize("builder", [hamiltonian_ld, hamiltonian_full])
    @pytest.mark.parametrize("delta", [0.0, 0.4])
    @pytest.mark.parametrize("n_ions", [1, 2, 3])
    def test_hamiltonians_have_zero_imaginary_part(self, builder, delta, n_ions):
        p = ModelParams(
            eta=0.2, omega_ratio=0.9, theta=0.6, delta=delta, n_ions=n_ions, n_max=8
        )
        h = builder(p).mat
        assert h.dtype == np.float64

    @pytest.mark.parametrize("model", ["ld", "full"])
    @pytest.mark.parametrize("delta", [0.0, 0.4])
    @pytest.mark.parametrize("n_ions", [1, 2, 3])
    def test_hamiltonians_match_embedded_sum(self, model, delta, n_ions):
        # the reference: embed(I, a+a) + Omega embed(J_x, f)
        # + (Delta/2) embed(J_z, I), in units of omega_a
        p = ModelParams(
            eta=0.2, omega_ratio=0.9, theta=0.6, delta=delta, n_ions=n_ions, n_max=8
        )
        a, ad = ladder_operators(p.n_max)
        if model == "ld":
            f = p.eta * (a.mat + ad.mat) * np.cos(p.theta) + np.sin(p.theta) * np.eye(
                p.dim_motion
            )
        else:
            f = position_sine_operator(p).mat
        eye_i = OperatorMatrix(np.eye(p.dim_internal), "internal")
        eye_m = OperatorMatrix(np.eye(p.dim_motion), "motion")
        expected = (
            embed(eye_i, OperatorMatrix(ad.mat @ a.mat, "motion")).mat
            + p.omega_ratio
            * embed(collective_spin(n_ions, "x"), OperatorMatrix(f, "motion")).mat
            + (p.delta / 2.0) * embed(collective_spin(n_ions, "z"), eye_m).mat
        )
        builder = hamiltonian_ld if model == "ld" else hamiltonian_full
        assert np.abs(builder(p).mat - expected).max() < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(0.01, 0.4),
        st.floats(0.0, 2.0),
        st.floats(-np.pi, np.pi),
        st.sampled_from([0.0, 0.3, -1.1]),
        st.integers(1, 3),
        st.floats(0.0, 2.0),
        st.sampled_from([hamiltonian_ld, hamiltonian_full]),
    )
    def test_property_matches_complex_decomposition(
        self, eta, ratio, theta, delta, n_ions, t_frac, builder
    ):
        p = ModelParams(
            eta=eta, omega_ratio=ratio, theta=theta, delta=delta, n_ions=n_ions, n_max=10
        )
        h = builder(p)
        t = t_frac * p.tau
        u = expm_propagator(h, t).mat
        assert u.dtype == np.complex128
        assert np.abs(u - _complex_eigh_propagator(h.mat, t)).max() < 1e-12

    def test_complex_hermitian_input_still_exact(self):
        # a J_y drive makes H genuinely complex, so the complex solver runs
        p = ModelParams(eta=0.15, omega_ratio=0.8, theta=0.4, n_ions=2, n_max=8)
        eye_m = OperatorMatrix(np.eye(p.dim_motion), "motion")
        jy = embed(collective_spin(2, "y"), eye_m)
        h = OperatorMatrix(
            hamiltonian_full(p).mat + 0.35 * jy.mat,
            "composite",
            (p.dim_internal, p.dim_motion),
        )
        assert h.mat.imag.any() and h.is_hermitian()
        t = 0.8 * p.tau
        u = expm_propagator(h, t).mat
        assert np.abs(u - scipy.linalg.expm(-1j * t * h.mat)).max() < 1e-12

    def test_oracle_assembly_at_crosscheck_size(self):
        # a contained draw of the crosscheck workload: N=3, n_max=60 and
        # lambda = eta Omega cos(theta) = 0.12 <= 1/(2N)
        eta, lam, theta = 0.17, 0.12, 0.5
        p = ModelParams(
            eta=eta,
            omega_ratio=lam / (eta * np.cos(theta)),
            theta=theta,
            n_ions=3,
            n_max=60,
        )
        t = 0.43 * p.tau
        h = hamiltonian_ld(p)
        u = expm_propagator(h, t).mat
        # V e^{-i Lambda t} V^T, one product in complex arithmetic
        vals, vecs = np.linalg.eigh(h.mat.real)
        vecs = vecs.astype(complex)
        expected = (vecs * np.exp(-1j * vals * t)) @ vecs.T
        assert np.abs(u - expected).max() < 1e-13
        # a real symmetric H gives a complex-symmetric U
        assert np.abs(u - u.T).max() < 1e-13
        assert _unitarity_defect(u) < 1e-12

    def test_solver_follows_the_input(self, monkeypatch):
        seen = []
        eigh = np.linalg.eigh

        def recording_eigh(mat):
            seen.append(mat.dtype)
            return eigh(mat)

        p = ModelParams(eta=0.1, omega_ratio=0.5, theta=0.2, n_ions=2, n_max=6)
        h = hamiltonian_ld(p)
        g = OperatorMatrix(np.array([[1.0, 0.5j], [-0.5j, 2.0]]), "motion")
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        expm_propagator(h, 1.0)
        sector_propagators(p, 1.0, "ld")
        expm_propagator(g, 1.0)
        assert seen == [np.float64, np.float64, np.complex128]


class TestClosedForm:
    def test_factors_unitary_and_product_ordered(self):
        p = gate_params(0.1, 20)
        f = closed_form_propagator(p, 0.37 * p.tau)
        for block in f.disp:
            assert _unitarity_defect(block) < 1e-10
        assert _unitarity_defect(f.product.mat) < 1e-10
        # the product is taken per sector without matrix products, so it
        # matches the ordered product twist carrier diag(rot) disp of each
        # sector up to rounding
        ordered = np.array([np.diag(f.rot) @ block for block in f.disp])
        ordered *= (f.twist * f.carrier)[:, None, None]
        assert np.abs(f.product.mat - sector_sum(p.n_ions, ordered).mat).max() < 1e-13

    def test_factors_assembled_on_demand(self, monkeypatch):
        # the closed form builds no composite matrix; `product` assembles
        # one on every read
        calls = []
        assemble = dynamics.sector_sum

        def counting_sector_sum(n_ions, blocks):
            calls.append(n_ions)
            return assemble(n_ions, blocks)

        monkeypatch.setattr(dynamics, "sector_sum", counting_sector_sum)
        p = gate_params(0.1, 12)
        f = closed_form_propagator(p, 0.37 * p.tau)
        assert calls == []
        first = f.product
        assert calls == [p.n_ions]
        assert np.array_equal(f.product.mat, first.mat)
        assert calls == [p.n_ions] * 2

    def test_phase_factors_are_stored_as_phases(self):
        p = gate_params(0.1, 12)
        f = closed_form_propagator(p, 0.37 * p.tau)
        sectors, fock = p.n_ions + 1, p.n_max + 1
        assert f.twist.shape == f.carrier.shape == (sectors,)
        assert f.rot.shape == (fock,)
        assert f.disp.shape == (sectors, fock, fock)
        for phases in (f.twist, f.rot, f.carrier):
            assert np.abs(np.abs(phases) - 1.0).max() < 1e-15

    def test_right_angle_disables_twist_and_displacement(self):
        p = ModelParams(eta=0.1, omega_ratio=0.8, theta=np.pi / 2, n_ions=2, n_max=8)
        f = closed_form_propagator(p, 1.3)
        assert np.abs(f.twist - 1.0).max() < 1e-12
        assert np.abs(f.disp - np.eye(p.dim_motion)).max() < 1e-12
        recomposed = f.carrier[:, None, None] * np.diag(f.rot)
        assert np.abs(f.product.mat - sector_sum(p.n_ions, recomposed).mat).max() < 1e-12

    def test_rotation_and_displacement_close_at_tau(self):
        p = gate_params(0.1, 16)
        f = closed_form_propagator(p, p.tau)
        assert np.abs(f.rot - 1.0).max() < 1e-10
        assert np.abs(f.disp - np.eye(p.dim_motion)).max() < 1e-10

    @pytest.mark.parametrize("n_ions", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "eta, ratio, theta",
        [
            (0.1, 2.5031230493125977, -0.049958395721942756),
            (0.2, 0.8, 0.3),
            (0.05, 1.0, -0.7),
        ],
    )
    def test_general_time_reduces_to_one_period_phases(
        self, n_ions, eta, ratio, theta
    ):
        # at t = tau the twist times the carrier is the one-period phase of
        # each sector, and the rotation and every displacement block close
        p = ModelParams(eta=eta, omega_ratio=ratio, theta=theta, n_ions=n_ions, n_max=16)
        f = closed_form_propagator(p, p.tau)
        c, d = dynamics.pulse_period_coefficients(eta, ratio, theta)
        period = np.array(dynamics._period_phases(n_ions, c, d))
        assert np.abs(f.twist * f.carrier - period).max() < 1e-12
        assert np.abs(f.rot - 1.0).max() < 1e-10
        for block in f.disp:
            assert np.abs(block - np.eye(p.dim_motion)).max() < 1e-10

    def test_vacuum_survival_of_displacement_block(self):
        # lambda/omega_a = 0.05 and omega_a*t = pi give |beta*m| = 0.2 for the
        # m = 2 spin sector; vacuum survival must match exp(-|beta*m|^2/2)
        p = ModelParams(eta=0.1, omega_ratio=0.5, theta=0.0, n_ions=2, n_max=25)
        f = closed_form_propagator(p, np.pi)
        # |++> is sector k = 0 (m = 2), so <++, 0| D |++, 0> = disp[0][0, 0]
        amp = f.disp[0][0, 0]
        assert np.isclose(abs(amp), np.exp(-0.02), atol=1e-9)
        assert np.isclose(abs(amp), 0.98020, atol=1e-5)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 4),
        st.floats(0.01, 0.3),
        st.floats(0.1, 2.0),
        st.floats(-np.pi / 2, np.pi / 2),
        st.floats(0.0, 2.0),
    )
    # |beta m| reaches 2.4 at n_max=16 here
    @example(n_ions=3, eta=0.2, ratio=2.0, theta=0.1, t_frac=0.5)
    def test_displacement_is_exponential_of_truncated_generator(
        self, n_ions, eta, ratio, theta, t_frac
    ):
        # up to |beta N| = 2.4 at n_max=16 the top Fock rows differ from the
        # exact D(beta m); every entry must still equal the exponential of
        # the truncated generator, with scipy's expm as the reference
        p = ModelParams(eta=eta, omega_ratio=ratio, theta=theta, n_ions=n_ions, n_max=16)
        t = t_frac * p.tau
        lam = p.eta * p.omega_ratio * np.cos(p.theta)
        beta = -lam * (np.exp(1j * t) - 1.0)
        assume(abs(beta) * n_ions <= 2.4)
        a, ad = ladder_operators(p.n_max)
        disp = closed_form_propagator(p, t).disp
        for k, block in enumerate(disp):
            alpha = beta * (n_ions - 2 * k)
            expected = scipy.linalg.expm(alpha * ad.mat - np.conj(alpha) * a.mat)
            assert np.abs(block - expected).max() < 1e-12

    def test_rejects_detuning(self):
        p = ModelParams(eta=0.1, omega_ratio=1.0, theta=0.0, delta=0.5, n_max=6)
        with pytest.raises(ValueError):
            closed_form_propagator(p, 1.0)


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "eta, ratio, theta, n_ions, t_frac",
        [
            (0.1, 2.5031230493125977, -0.049958395721942756, 2, 0.7),
            (0.2, 0.8, 0.3, 1, 1.3),
            (0.05, 1.0, -0.7, 3, 0.25),
        ],
    )
    def test_routes_agree_on_contained_blocks(self, eta, ratio, theta, n_ions, t_frac):
        p = ModelParams(
            eta=eta, omega_ratio=ratio, theta=theta, n_ions=n_ions, n_max=40
        )
        t = t_frac * p.tau
        closed = closed_form_propagator(p, t).product.mat
        oracle = expm_propagator(hamiltonian_ld(p), t).mat
        assert _restricted_max_diff(closed, oracle, p, 10) < 1e-10

    def test_gate_point_tight_agreement(self):
        p = gate_params(0.1, 60)
        closed = closed_form_propagator(p, p.tau).product.mat
        oracle = expm_propagator(hamiltonian_ld(p), p.tau).mat
        assert _restricted_max_diff(closed, oracle, p, 30) < 1e-10


class TestSectorPropagators:
    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(0.05, 0.3),
        st.floats(0.1, 1.0),
        st.floats(-np.pi / 2, np.pi / 2),
        st.integers(1, 3),
        st.floats(0.0, 2.0),
        st.sampled_from(["ld", "full"]),
    )
    def test_property_dense_propagator_is_sector_sum(
        self, eta, ratio, theta, n_ions, t_frac, model
    ):
        # lambda <= 0.3 and N <= 3 keep the conditional displacement below
        # 1.8, contained at n_max = 24
        p = ModelParams(eta=eta, omega_ratio=ratio, theta=theta, n_ions=n_ions, n_max=24)
        t = t_frac * p.tau
        h = hamiltonian_ld(p) if model == "ld" else hamiltonian_full(p)
        dense = expm_propagator(h, t).mat
        sectors = sector_propagators(p, t, model)
        # rotate into the J_x eigenbasis of |+/-> products; the product with
        # k minus signs lies in sector k
        products = pm_product_states(n_ions)
        labels = sorted(products)
        basis = np.stack([products[label].data for label in labels], axis=1)
        frame = np.kron(basis, np.eye(p.dim_motion))
        rotated = (frame.conj().T @ dense @ frame).reshape(
            p.dim_internal, p.dim_motion, p.dim_internal, p.dim_motion
        )
        expected = np.zeros_like(rotated)
        for s, label in enumerate(labels):
            expected[s, :, s, :] = sectors[label.count("-")]
        assert np.abs(rotated - expected).max() < 1e-12
        # the production route: the same blocks assembled on the composite space
        assert np.abs(sector_sum(n_ions, sectors).mat - dense).max() < 1e-12

    def test_rejects_detuning(self):
        p = ModelParams(eta=0.1, omega_ratio=1.0, theta=0.0, delta=0.5, n_max=6)
        with pytest.raises(ValueError):
            sector_propagators(p, 1.0, "ld")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_sector_sum_is_the_per_block_formula_bit_for_bit(self, n_ions, n_max, seed):
        rng = np.random.default_rng(seed)
        shape = (n_ions + 1, n_max + 1, n_max + 1)
        blocks = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        projectors = sector_projectors(n_ions)
        d_i, d_m = 2**n_ions, n_max + 1
        flat = blocks.reshape(n_ions + 1, d_m * d_m)
        expected = np.empty((d_i, d_m, d_i, d_m), dtype=complex)
        for i, j in np.ndindex(d_i, d_i):
            # P_k[i, j] is a function of the Hamming distance of i and j
            distance = bin(i ^ j).count("1")
            assert np.array_equal(projectors[:, i, j], projectors[:, 0, 2**distance - 1])
            expected[i, :, j, :] = (projectors[:, i, j] @ flat).reshape(d_m, d_m)
        u = sector_sum(n_ions, blocks)
        assert u.dims == (d_i, d_m)
        assert u.mat.tobytes() == expected.reshape(d_i * d_m, -1).tobytes()

    def test_rejects_unknown_model(self):
        p = ModelParams(eta=0.1, omega_ratio=1.0, theta=0.0, n_max=6)
        with pytest.raises(ValueError):
            sector_propagators(p, 1.0, "quadratic")


class TestPropagatorAtTau:
    def test_headline_coefficient(self):
        # theta = 0 with omega_ratio = 1/(4 eta) gives the pure twist C = pi/8
        p = ModelParams(eta=0.1, omega_ratio=2.5, theta=0.0, n_ions=2, n_max=6)
        _, c, d = propagator_at_tau(p)
        assert np.isclose(c, np.pi / 8, atol=1e-14)
        assert np.isclose(d, 0.0, atol=1e-14)

    def test_drive_off_gives_identity(self):
        p = ModelParams(eta=0.1, omega_ratio=1e-300, theta=0.3, n_ions=2, n_max=6)
        u, c, d = propagator_at_tau(p)
        assert np.abs(u.mat - np.eye(p.dim)).max() < 1e-12

    def test_pure_rotation_case(self):
        p = ModelParams(eta=0.1, omega_ratio=0.25, theta=np.pi / 2, n_ions=2, n_max=6)
        _, c, d = propagator_at_tau(p)
        assert np.isclose(c, 0.0, atol=1e-14)
        assert np.isclose(d, np.pi / 2, atol=1e-14)

    def test_consistent_with_closed_form_at_tau(self):
        p = gate_params(0.1, 24)
        u, _, _ = propagator_at_tau(p)
        f = closed_form_propagator(p, p.tau)
        assert np.abs(u.mat - f.product.mat).max() < 1e-12

    def test_motional_identity_structure(self):
        p = gate_params(0.2, 18)
        u, _, _ = propagator_at_tau(p)
        assert motional_independence_metric(u, 9) < 1e-14

    def test_rejects_detuning(self):
        p = ModelParams(eta=0.1, omega_ratio=1.0, theta=0.0, delta=0.5, n_max=6)
        with pytest.raises(ValueError, match="resonance"):
            propagator_at_tau(p)

    @given(
        eta=st.floats(min_value=1e-300, max_value=1e300),
        omega_ratio=st.floats(min_value=0.0, max_value=1e300),
        theta=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_coefficients_match_the_numpy_form(self, eta, omega_ratio, theta):
        # the coefficients are formed in math, so that solve loads no numpy;
        # numpy's cos and sin may round differently from math's, so the
        # numpy form is matched to a few ulps, not bit for bit
        lam = float(eta) * float(omega_ratio) * float(np.cos(theta))
        c = 2.0 * np.pi * (lam * lam)
        d = 2.0 * np.pi * float(omega_ratio) * float(np.sin(theta))
        got_c, got_d = dynamics.pulse_period_coefficients(eta, omega_ratio, theta)
        # (abs_tol covers subnormal products, which carry fewer bits)
        assert math.isclose(got_c, c, rel_tol=1e-14, abs_tol=1e-300)
        assert math.isclose(got_d, d, rel_tol=1e-14, abs_tol=1e-300)


class TestMotionalIndependence:
    def test_oracle_at_tau_factorizes(self):
        p = gate_params(0.1, 40)
        u = expm_propagator(hamiltonian_ld(p), p.tau)
        assert motional_independence_metric(u, 20) < 1e-8

    def test_entangled_mid_pulse(self):
        p = gate_params(0.1, 40)
        u = expm_propagator(hamiltonian_ld(p), 0.5 * p.tau)
        assert motional_independence_metric(u, 20) > 1e-3


class TestEvolve:
    def test_identity_leaves_state(self):
        state = fock_state(2, 5)
        eye = OperatorMatrix(np.eye(6, dtype=complex), "motion")
        out = evolve(state, eye)
        assert np.abs(out.data - state.data).max() == 0.0

    def test_norm_preserved(self):
        p = gate_params(0.1, 10)
        u = expm_propagator(hamiltonian_ld(p), 0.9)
        psi = np.kron(internal_product_state("+-").data, fock_state(1, 10).data)
        from iongate import QuantumState

        state = QuantumState("pure", psi, "composite", dims=(4, 11))
        out = evolve(state, u)
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-12

    def test_mixed_spectrum_invariant(self):
        p = gate_params(0.1, 8)
        u = expm_propagator(hamiltonian_ld(p), 1.7)
        from iongate import composite_mixed, internal_product_state as ips

        rho = composite_mixed(ips("gg"), quiet_thermal(1.0, 8))
        out = evolve(rho, u)
        before = np.sort(np.linalg.eigvalsh(rho.data))
        after = np.sort(np.linalg.eigvalsh(out.data))
        assert np.abs(before - after).max() < 1e-10

    def test_dimension_mismatch_rejected(self):
        state = fock_state(0, 4)
        eye = OperatorMatrix(np.eye(6, dtype=complex), "motion")
        with pytest.raises(ValueError):
            evolve(state, eye)

    def test_composite_dims_mismatch_rejected(self):
        # same dimension and layout, swapped factors
        rho = np.eye(24, dtype=complex) / 24
        state = QuantumState("mixed", rho, "composite", dims=(4, 6))
        u = OperatorMatrix(np.eye(24, dtype=complex), "composite", dims=(6, 4))
        with pytest.raises(ValueError, match="dims"):
            evolve(state, u)
