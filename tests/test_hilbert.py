"""Space construction: operators, layout convention, states, thermal specs."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gate_params
from iongate import (
    PAULI,
    ModelParams,
    OperatorMatrix,
    QuantumState,
    ThermalSpec,
    collective_spin,
    composite_mixed,
    composite_pure,
    embed,
    evolve,
    expm_propagator,
    fock_state,
    hamiltonian_full,
    internal_product_state,
    ladder_operators,
    pm_product_states,
    position_sine_operator,
    standard_states,
    thermal_state,
)
from iongate.hilbert import _hermitian_function, _pm_products, _sector_m


class TestModelParams:
    def test_composite_dimension(self):
        p = ModelParams(eta=0.1, omega_ratio=1.0, theta=0.0, n_ions=3, n_max=12)
        assert p.dim == 2**3 * 13
        assert p.dim_internal == 8
        assert p.dim_motion == 13

    def test_tau_is_trap_period(self):
        # the trap frequency is the unit, so one period is 2 pi
        p = ModelParams(eta=0.1, omega_ratio=1.0, theta=0.0)
        assert p.tau == 2.0 * np.pi

    def test_trap_frequency_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            ModelParams(eta=0.1, omega_ratio=1.0, theta=0.0, omega_a=2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eta=0.0),
            dict(eta=-0.1),
            dict(n_ions=0),
            dict(n_max=0),
            dict(n_pad=-1),
            dict(eta=float("inf")),
            dict(eta=float("nan")),
            dict(omega_ratio=float("inf")),
            dict(omega_ratio=float("nan")),
            dict(theta=float("inf")),
            dict(theta=float("nan")),
            dict(omega_ratio=-0.1),
            dict(delta=float("nan")),
            dict(delta=float("-inf")),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        base = dict(eta=0.1, omega_ratio=1.0, theta=0.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ModelParams(**base)


class TestLadder:
    def test_two_level_matrix(self):
        a, adag = ladder_operators(1)
        assert np.array_equal(a.mat, np.array([[0, 1], [0, 0]]))
        assert np.array_equal(adag.mat, a.mat.T)

    def test_real(self):
        a, adag = ladder_operators(6)
        assert a.mat.dtype == adag.mat.dtype == np.float64

    def test_sqrt_weights(self):
        a, _ = ladder_operators(2)
        assert np.isclose(a.mat[1, 2], np.sqrt(2))

    def test_commutator_below_cutoff(self):
        n_max = 9
        a, adag = ladder_operators(n_max)
        comm = a.mat @ adag.mat - adag.mat @ a.mat
        # canonical [a, a+] = 1 holds exactly except on the cutoff row
        assert np.abs(comm[:n_max, :n_max] - np.eye(n_max)).max() < 1e-13
        assert np.isclose(comm[n_max, n_max], -n_max)

    def test_number_operator(self):
        a, adag = ladder_operators(5)
        num = adag.mat @ a.mat
        assert np.allclose(num, np.diag(np.arange(6)))

    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError):
            ladder_operators(0)


class TestCollectiveSpin:
    def test_single_ion_x(self):
        jx = collective_spin(1, "x")
        assert np.array_equal(jx.mat, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_single_ion_z_ge_ordering(self):
        jz = collective_spin(1, "z")
        # sigma_z = |e><e| - |g><g| with basis order (g, e)
        assert np.array_equal(jz.mat, np.diag([-1, 1]).astype(complex))

    def test_two_ion_x_spectrum(self):
        jx = collective_spin(2, "x")
        assert np.allclose(np.sort(np.linalg.eigvalsh(jx.mat)), [-2, 0, 0, 2])

    @pytest.mark.parametrize("n_ions", [1, 2, 3])
    def test_su2_commutators(self, n_ions):
        jx = collective_spin(n_ions, "x").mat
        jy = collective_spin(n_ions, "y").mat
        jz = collective_spin(n_ions, "z").mat
        assert np.abs(jx @ jy - jy @ jx - 2j * jz).max() < 1e-12
        assert np.abs(jy @ jz - jz @ jy - 2j * jx).max() < 1e-12
        assert np.abs(jz @ jx - jx @ jz - 2j * jy).max() < 1e-12

    def test_matches_pauli_table(self):
        for axis in "xyz":
            assert np.array_equal(collective_spin(1, axis).mat, PAULI[axis])


class TestEmbed:
    def test_identity_embeds_to_identity(self):
        eye_i = OperatorMatrix(np.eye(4, dtype=complex), "internal")
        eye_m = OperatorMatrix(np.eye(7, dtype=complex), "motion")
        assert np.array_equal(embed(eye_i, eye_m).mat, np.eye(28))

    def test_single_ion_ladder_blocks(self):
        a, _ = ladder_operators(1)
        eye_i = OperatorMatrix(np.eye(2, dtype=complex), "internal")
        comp = embed(eye_i, a).mat
        assert comp.shape == (4, 4)
        assert np.array_equal(comp[:2, :2], a.mat)
        assert np.array_equal(comp[2:, 2:], a.mat)
        assert np.abs(comp[:2, 2:]).max() == 0

    def test_normative_index_layout(self):
        # index = s * (n_max + 1) + n with ion 1 the most significant bit
        rng = np.random.default_rng(5)
        a_i = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b_m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        comp = embed(
            OperatorMatrix(a_i, "internal"), OperatorMatrix(b_m, "motion")
        ).mat
        for s in range(4):
            for sp in range(4):
                block = comp[s * 3 : (s + 1) * 3, sp * 3 : (sp + 1) * 3]
                assert np.allclose(block, a_i[s, sp] * b_m)

    def test_disjoint_factors_commute(self):
        a, _ = ladder_operators(4)
        sx = collective_spin(1, "x")
        eye_i = OperatorMatrix(np.eye(2, dtype=complex), "internal")
        eye_m = OperatorMatrix(np.eye(5, dtype=complex), "motion")
        left = embed(sx, eye_m).mat @ embed(eye_i, a).mat
        right = embed(eye_i, a).mat @ embed(sx, eye_m).mat
        assert np.abs(left - right).max() < 1e-14

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(6)
        a_i = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b_m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        comp = embed(OperatorMatrix(a_i, "internal"), OperatorMatrix(b_m, "motion"))
        assert np.isclose(np.trace(comp.mat), np.trace(a_i) * np.trace(b_m))


class TestPositionSine:
    def test_scalar_limit(self):
        p = ModelParams(eta=1e-9, omega_ratio=1.0, theta=np.pi / 6, n_max=8)
        s = position_sine_operator(p)
        assert np.abs(np.diag(s.mat) - 0.5).max() < 1e-8
        assert np.abs(s.mat - np.diag(np.diag(s.mat))).max() < 1e-8

    def test_odd_parity_at_zero_offset(self):
        p = ModelParams(eta=0.2, omega_ratio=1.0, theta=0.0, n_max=12)
        s = position_sine_operator(p).mat
        n = np.arange(13)
        even_mask = (n[:, None] - n[None, :]) % 2 == 0
        assert np.abs(s[even_mask]).max() < 1e-13

    def test_hermitian(self):
        p = ModelParams(eta=0.3, omega_ratio=1.0, theta=-0.4, n_max=15)
        assert position_sine_operator(p).is_hermitian()

    @pytest.mark.parametrize("eta, theta", [(0.05, 0.0), (0.3, -0.4), (1.2, 2.5)])
    def test_real_symmetric(self, eta, theta):
        p = ModelParams(eta=eta, omega_ratio=1.0, theta=theta, n_max=12)
        s = position_sine_operator(p).mat
        assert s.dtype == np.float64
        assert np.array_equal(s, s.T)

    @pytest.mark.parametrize("eta", [0.05, 0.1, 0.2, 0.3])
    def test_norm_bounded_and_pad_stable(self, eta):
        p10 = ModelParams(eta=eta, omega_ratio=1.0, theta=0.0, n_max=10, n_pad=10)
        p40 = ModelParams(eta=eta, omega_ratio=1.0, theta=0.0, n_max=10, n_pad=40)
        s10 = position_sine_operator(p10).mat
        s40 = position_sine_operator(p40).mat
        assert np.linalg.norm(s10, 2) <= 1 + 1e-6
        assert np.abs(s10 - s40).max() < 1e-12

    def test_norm_regression_anchor(self):
        p = ModelParams(eta=0.1, omega_ratio=1.0, theta=0.0, n_max=10, n_pad=10)
        s = position_sine_operator(p).mat
        assert np.isclose(np.linalg.norm(s, 2), 0.494211261761, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(
        eta=st.floats(0.01, 0.3),
        theta=st.floats(-np.pi / 2, np.pi / 2),
    )
    def test_property_hermitian_bounded(self, eta, theta):
        p = ModelParams(eta=eta, omega_ratio=1.0, theta=theta, n_max=8)
        s = position_sine_operator(p)
        assert s.is_hermitian()
        assert np.linalg.norm(s.mat, 2) <= 1 + 1e-6


class TestHermitianFunction:
    FUNCTIONS = {
        "sin": np.sin,
        "exp": lambda vals: np.exp(-1j * vals * 0.7),
        "sqrt": lambda vals: np.sqrt(np.clip(vals, 0.0, None)),
    }

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 12),
        batch=st.sampled_from([(), (1,), (3,)]),
        is_complex=st.booleans(),
        name=st.sampled_from(sorted(FUNCTIONS)),
    )
    def test_property_matches_direct_form(self, seed, dim, batch, is_complex, name):
        # real-symmetric or complex-Hermitian, with or without a batch axis
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(*batch, dim, dim))
        if is_complex:
            z = z + 1j * rng.normal(size=z.shape)
        mat = (z + z.conj().swapaxes(-1, -2)) / 2.0
        f = self.FUNCTIONS[name]
        result = _hermitian_function(mat, f)
        vals, vecs = np.linalg.eigh(mat)
        direct = np.einsum("...ik,...k,...jk->...ij", vecs, f(vals), vecs.conj())
        assert result.shape == mat.shape
        assert np.abs(result - direct).max() <= 1e-13
        if name == "exp":
            expm = np.array([scipy.linalg.expm(-0.7j * h) for h in mat.reshape(-1, dim, dim)])
            assert np.abs(result - expm.reshape(mat.shape)).max() <= 1e-12

    def test_leading_axes_of_f_broadcast(self):
        # one eigendecomposition serves several functions, as for the
        # closed form's displacement blocks
        mat = np.array([[0.0, 1j], [-1j, 0.5]])
        ms = np.array([2.0, 0.0, -2.0])
        stack = _hermitian_function(mat, lambda vals: np.exp(-1j * ms[:, None] * vals))
        assert stack.shape == (3, 2, 2)
        for block, m in zip(stack, ms):
            one = _hermitian_function(mat, lambda vals: np.exp(-1j * m * vals))
            assert np.abs(block - one).max() <= 1e-15


class TestThermal:
    @pytest.mark.parametrize("n_max", [1, 6, 40, 400])
    def test_vacuum_from_the_geometric_formula(self, n_max):
        # q = 0 at nbar = 0, so the formula itself gives the vacuum exactly
        spec = ThermalSpec(nbar=0.0, n_max=n_max)
        assert np.array_equal(spec.populations, np.eye(n_max + 1)[0])
        assert spec.tail_weight == 0.0

    def test_vacuum_limit(self):
        state = thermal_state(ThermalSpec(nbar=0.0, n_max=6))
        expected = np.zeros((7, 7))
        expected[0, 0] = 1.0
        assert state.kind == "mixed"
        assert np.allclose(state.data, expected)

    def test_geometric_ratio(self):
        spec = ThermalSpec(nbar=2.0, n_max=60)
        pops = spec.populations
        assert np.isclose(pops[1] / pops[0], 2.0 / 3.0)

    def test_tail_weight_value(self):
        spec = ThermalSpec(nbar=2.0, n_max=30)
        assert np.isclose(spec.tail_weight, (2.0 / 3.0) ** 31, rtol=1e-12)
        assert abs(spec.tail_weight - 3.5e-6) < 5e-8

    def test_trace_one_and_monotone(self):
        state = thermal_state(ThermalSpec(nbar=3.0, n_max=60))
        pops = np.diag(state.data).real
        assert abs(pops.sum() - 1.0) < 1e-12
        assert np.all(np.diff(pops) < 0)

    def test_warns_on_heavy_tail(self):
        with pytest.warns(UserWarning, match="tail"):
            thermal_state(ThermalSpec(nbar=2.0, n_max=10))

    def test_silent_when_converged(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            thermal_state(ThermalSpec(nbar=2.0, n_max=60))

    @pytest.mark.parametrize("nbar", [float("nan"), float("inf"), -1.0])
    def test_rejects_invalid_nbar(self, nbar):
        with pytest.raises(ValueError, match="nbar"):
            ThermalSpec(nbar=nbar, n_max=10)

    @pytest.mark.parametrize("nbar", [1e16, 1e300])
    def test_huge_nbar_gives_uniform_limit(self, nbar):
        # q = nbar / (1 + nbar) rounds to 1 here; the geometric formula
        # would be 0/0, while its q -> 1 limit is uniform
        spec = ThermalSpec(nbar=nbar, n_max=10)
        assert spec.nbar / (1.0 + spec.nbar) == 1.0
        assert np.array_equal(spec.populations, np.full(11, 1.0 / 11))
        assert spec.tail_weight == 1.0
        # just below that point the formula still runs and reaches the limit
        near = ThermalSpec(nbar=9e15, n_max=10).populations
        assert np.abs(near - 1.0 / 11).max() < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(nbar=st.floats(0.0, 8.0), n_max=st.integers(5, 40))
    def test_property_valid_distribution(self, nbar, n_max):
        pops = ThermalSpec(nbar=nbar, n_max=n_max).populations
        assert abs(pops.sum() - 1.0) < 1e-12
        assert np.all(pops >= 0)
        assert np.all(np.diff(pops) <= 1e-15)


class TestStates:
    def test_plus_minus_orthogonal(self):
        plus = internal_product_state("+")
        minus = internal_product_state("-")
        assert abs(np.vdot(plus.data, minus.data)) < 1e-15

    def test_plus_product_is_jx_eigenstate(self):
        jx = collective_spin(2, "x").mat
        pp = internal_product_state("++").data
        assert np.abs(jx @ pp - 2 * pp).max() < 1e-14

    def test_ground_overlap_with_plus_plus(self):
        gg = internal_product_state("gg").data
        pp = internal_product_state("++").data
        assert np.isclose(np.vdot(pp, gg), 0.5)

    def test_standard_state_catalog(self):
        states = standard_states(2)
        assert set(states) == {"ground", "excited", "++", "+-", "-+", "--"}
        assert np.array_equal(states["ground"].data, [1, 0, 0, 0])
        assert np.array_equal(states["excited"].data, [0, 0, 0, 1])
        assert set(pm_product_states(2)) == {"++", "+-", "-+", "--"}

    @pytest.mark.parametrize("build", [pm_product_states, standard_states])
    def test_rejects_no_ions(self, build):
        with pytest.raises(ValueError, match="n_ions"):
            build(0)

    @pytest.mark.parametrize("n_ions", [1, 2, 3, 4])
    def test_sector_basis_owner(self, n_ions):
        # the +/-1 columns are the unnormalized |+/-> products, in sorted label
        # order, and the column with k minus signs has J_x eigenvalue N - 2k
        signs, labels, sector = _pm_products(n_ions)
        dim = 2**n_ions
        assert np.array_equal(signs @ signs.T, dim * np.eye(dim))
        assert list(labels) == sorted(labels) == list(pm_product_states(n_ions))
        jx = collective_spin(n_ions, "x").mat.real
        m = _sector_m(n_ions)
        for column, label, k in zip(signs.T, labels, sector):
            assert k == label.count("-") and m[k] == n_ions - 2 * k
            assert np.abs(column / np.sqrt(dim) - internal_product_state(label).data).max() < 1e-15
            assert np.array_equal(jx @ column, m[k] * column)
        # the first product of sector k has its k lowest bits set
        firsts = [list(sector).index(k) for k in range(n_ions + 1)]
        assert firsts == list(2 ** np.arange(n_ions + 1) - 1)

    def test_fock_state(self):
        f = fock_state(3, 6)
        assert f.data[3] == 1.0 and np.abs(np.delete(f.data, 3)).max() == 0
        with pytest.raises(ValueError):
            fock_state(7, 6)

    def test_composite_builders(self):
        internal = internal_product_state("ge")
        motion = fock_state(1, 3)
        pure = composite_pure(internal, motion)
        assert pure.layout == "composite" and pure.dims == (4, 4)
        # |ge> has internal index 0b01 = 1, so the composite index is 1*4+1
        assert pure.data[5] == 1.0
        mixed = composite_mixed(internal, motion)
        assert np.isclose(np.trace(mixed.data).real, 1.0)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            QuantumState("pure", np.array([1.0, 1.0]), "internal")
        with pytest.raises(ValueError):
            QuantumState("mixed", np.array([[0.5, 0.2], [0.3, 0.5]]), "internal")
        with pytest.raises(ValueError):
            QuantumState(
                "mixed", np.array([[1.5, 0.0], [0.0, -0.5]]), "internal"
            )

    @pytest.mark.parametrize(
        "kind, data",
        [
            ("pure", [np.nan, 0.0]),
            ("pure", [1.0, np.inf]),
            ("mixed", [[np.nan, 0.0], [0.0, 1.0]]),
            ("mixed", [[0.5, complex(0.0, np.nan)], [complex(0.0, np.nan), 0.5]]),
            ("mixed", [[np.inf, 0.0], [0.0, 1.0]]),
        ],
    )
    def test_rejects_nonfinite_data(self, kind, data):
        with pytest.raises(ValueError, match="finite"):
            QuantumState(kind, np.array(data, dtype=complex), "internal")

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 96),
        st.sampled_from(
            [(-1e-10, False), (-3e-12, False), (-5e-13, True), (-1e-14, True), (0.0, True)]
        ),
    )
    def test_property_psd_verdict(self, seed, dim, case):
        # a Hermitian trace-one matrix whose smallest eigenvalue is `lowest`:
        # rejected exactly when that lies below -1e-12, outside rounding
        lowest, accepted = case
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(z)
        rest = rng.uniform(0.1, 1.0, size=dim - 1)
        vals = np.concatenate(([lowest], rest * (1.0 - lowest) / rest.sum()))
        rho = (q * vals) @ q.conj().T
        rho = (rho + rho.conj().T) / 2.0
        assert (np.linalg.eigvalsh(rho).min() >= -1e-12) == accepted
        if accepted:
            state = QuantumState("mixed", rho.copy(), "motion")
            assert np.array_equal(state.data, rho)
        else:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                QuantumState("mixed", rho, "motion")

    def test_rank_deficient_composite_state_accepted(self):
        # a truth-table output: a |+/-> input with thermal motion after one
        # gate period, rank n_max + 1 in dimension 2^N (n_max + 1)
        params = gate_params(0.1, 40, n_ions=3)
        u = expm_propagator(hamiltonian_full(params), params.tau)
        state_in = composite_mixed(
            internal_product_state("+-+"),
            thermal_state(ThermalSpec(nbar=2.0, n_max=40)),
        )
        out = evolve(state_in, u)
        vals = np.linalg.eigvalsh(out.data)
        assert out.dim == 8 * 41
        assert np.count_nonzero(vals > 1e-12) == 41
        assert vals.min() >= -1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_property_normalized_states_accepted(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        state = QuantumState("pure", v / np.linalg.norm(v), "motion")
        assert abs(np.linalg.norm(state.data) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: OperatorMatrix(np.zeros((2, 3)), "internal"),
            "operator must be square, got shape (2, 3)",
            id="operator-not-square",
        ),
        pytest.param(
            lambda: OperatorMatrix(np.eye(4), "composite"),
            "composite operators must declare dims",
            id="operator-composite-no-dims",
        ),
        pytest.param(
            lambda: OperatorMatrix(np.eye(4), "composite", dims=(2, 3)),
            "dims (2, 3) inconsistent with matrix dim 4",
            id="operator-dims-inconsistent",
        ),
        pytest.param(
            lambda: QuantumState("pure", np.eye(2), "internal"),
            "pure state data must be a vector",
            id="pure-not-vector",
        ),
        pytest.param(
            lambda: QuantumState("mixed", np.array([1.0, 0.0]), "internal"),
            "mixed state data must be a square matrix",
            id="mixed-not-square",
        ),
        pytest.param(
            lambda: QuantumState("mixed", np.eye(2), "internal"),
            "density matrix trace 2.0 deviates from 1",
            id="mixed-trace",
        ),
        pytest.param(
            lambda: QuantumState("pure", np.eye(4)[0], "composite"),
            "composite states must declare dims",
            id="state-composite-no-dims",
        ),
        pytest.param(
            lambda: QuantumState("pure", np.eye(4)[0], "composite", dims=(2, 3)),
            "dims (2, 3) inconsistent with state dim 4",
            id="state-dims-inconsistent",
        ),
        pytest.param(
            lambda: ThermalSpec(nbar=0.5, n_max=0),
            "n_max must be >= 1, got 0",
            id="thermal-n-max",
        ),
        pytest.param(
            lambda: collective_spin(0, "x"),
            "n_ions must be >= 1, got 0",
            id="spin-n-ions",
        ),
        pytest.param(
            lambda: collective_spin(2, "w"),
            "axis must be one of x, y, z, got 'w'",
            id="spin-axis",
        ),
        pytest.param(
            lambda: embed(
                OperatorMatrix(np.eye(3), "motion"), OperatorMatrix(np.eye(3), "motion")
            ),
            "first factor must be internal, got motion",
            id="embed-first",
        ),
        pytest.param(
            lambda: embed(
                OperatorMatrix(np.eye(2), "internal"), OperatorMatrix(np.eye(2), "internal")
            ),
            "second factor must be motion, got internal",
            id="embed-second",
        ),
        pytest.param(
            lambda: internal_product_state("gx"),
            "unknown ion state symbol 'x'",
            id="unknown-symbol",
        ),
        pytest.param(
            lambda: internal_product_state(""),
            "need at least one ion symbol",
            id="no-symbol",
        ),
        pytest.param(
            lambda: composite_pure(
                internal_product_state("g"), QuantumState("mixed", np.eye(3) / 3, "motion")
            ),
            "composite_pure requires two pure states",
            id="composite-pure-of-mixed",
        ),
    ],
)
def test_refuses_outside_input(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
