"""Metrics and the study harness: traces, fidelities, sweeps, convergence."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_ghz,
    dense_truth_table,
    gate_params,
    quiet_thermal,
    random_density,
    random_pure,
    solved,
)
from iongate import analysis, dynamics
from iongate import (
    ModelParams,
    OperatorMatrix,
    QuantumState,
    composite_mixed,
    composite_pure,
    expm_propagator,
    fidelity,
    fock_state,
    ghz_check,
    ghz_fidelity,
    hamiltonian_full,
    hamiltonian_ld,
    ideal_ghz_state,
    internal_product_state,
    lamb_dicke_error_sweep,
    leakage_population,
    motional_independence_metric,
    partial_trace,
    sector_propagators,
    sector_sum,
    thermal_state,
    ThermalSpec,
    TruthTableReport,
    truncation_convergence,
    truth_table_check,
    unitary_gate_fidelity,
)

#: largest truth-table vs dense-evolution differences over 1600 random draws
#: of the strategy below were 2.2e-8 (restoration) and 1.3e-7 (composite): the
#: Uhlmann fidelity of rank-deficient states has a sqrt(roundoff) noise floor
RESTORATION_TOL = 1e-7
COMPOSITE_TOL = 5e-7


class TestPartialTrace:
    def test_product_state_factors(self):
        internal = internal_product_state("ge")
        motion = fock_state(2, 5)
        comp = composite_pure(internal, motion)
        red_i = partial_trace(comp, "internal")
        red_m = partial_trace(comp, "motion")
        assert np.abs(red_i.data - np.outer(internal.data, internal.data.conj())).max() < 1e-14
        assert np.abs(red_m.data - np.outer(motion.data, motion.data.conj())).max() < 1e-14

    def test_maximally_entangled_purity(self):
        # pair a 4-dim internal register with the first 4 Fock levels
        vec = np.zeros(4 * 6, dtype=complex)
        for k in range(4):
            vec[k * 6 + k] = 0.5
        comp = QuantumState("pure", vec, "composite", dims=(4, 6))
        red = partial_trace(comp, "internal")
        purity = np.trace(red.data @ red.data).real
        assert np.isclose(purity, 0.25, atol=1e-12)

    def test_trace_preserved_for_mixed(self):
        rho = composite_mixed(internal_product_state("gg"), quiet_thermal(1.5, 8))
        for keep in ("internal", "motion"):
            red = partial_trace(rho, keep)
            assert abs(np.trace(red.data).real - 1.0) < 1e-12

    def test_mixed_marginals_match_kron_factors(self):
        rng = np.random.default_rng(11)
        rho_i = random_density(rng, 4)
        rho_m = random_density(rng, 5)
        comp = QuantumState(
            "mixed", np.kron(rho_i.data, rho_m.data), "composite", dims=(4, 5)
        )
        assert np.abs(partial_trace(comp, "internal").data - rho_i.data).max() < 1e-12
        assert np.abs(partial_trace(comp, "motion").data - rho_m.data).max() < 1e-12

    def test_rejects_noncomposite(self):
        with pytest.raises(ValueError):
            partial_trace(fock_state(0, 3), "motion")


class TestFidelity:
    def test_identical_pure(self):
        rng = np.random.default_rng(0)
        psi = random_pure(rng, 6)
        assert np.isclose(fidelity(psi, psi), 1.0, atol=1e-13)

    def test_orthogonal_pure(self):
        a = fock_state(0, 4)
        b = fock_state(3, 4)
        assert fidelity(a, b) == 0.0

    def test_maximally_mixed_vs_pure(self):
        rho = QuantumState("mixed", np.eye(2) / 2, "internal")
        psi = internal_product_state("g")
        assert np.isclose(fidelity(rho, psi), 0.5, atol=1e-12)
        assert np.isclose(fidelity(psi, rho), 0.5, atol=1e-12)

    def test_self_fidelity_mixed(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 5)
        assert np.isclose(fidelity(rho, rho), 1.0, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_property_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a = random_density(rng, 4)
        b = random_density(rng, 4)
        f_ab = fidelity(a, b)
        f_ba = fidelity(b, a)
        assert abs(f_ab - f_ba) < 1e-10
        assert 0.0 <= f_ab <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(fock_state(0, 3), fock_state(0, 4))

    def test_layout_mismatch(self):
        # same dimension, different spaces: motional |0> against internal |gg>
        with pytest.raises(ValueError, match="layout"):
            fidelity(fock_state(0, 3), internal_product_state("gg"))
        a = composite_mixed(internal_product_state("gg"), quiet_thermal(1.0, 5))
        b = QuantumState("mixed", a.data, "composite", dims=(6, 4))
        with pytest.raises(ValueError, match="dims"):
            fidelity(a, b)


class TestUnitaryGateFidelity:
    def test_equal_and_phase_invariant(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(g)
        u = OperatorMatrix(q, "internal")
        assert np.isclose(unitary_gate_fidelity(u, u), 1.0, atol=1e-12)
        shifted = OperatorMatrix(np.exp(0.9j) * q, "internal")
        assert np.isclose(unitary_gate_fidelity(shifted, u), 1.0, atol=1e-12)

    def test_traceless_pair(self):
        eye = OperatorMatrix(np.eye(2, dtype=complex), "internal")
        sx = OperatorMatrix(np.array([[0, 1], [1, 0]], dtype=complex), "internal")
        assert unitary_gate_fidelity(sx, eye) == 0.0

    def test_layout_mismatch(self):
        # same dimension, different spaces
        with pytest.raises(ValueError, match="layout"):
            unitary_gate_fidelity(
                OperatorMatrix(np.eye(4), "motion"), OperatorMatrix(np.eye(4), "internal")
            )
        a = OperatorMatrix(np.eye(24), "composite", dims=(4, 6))
        b = OperatorMatrix(np.eye(24), "composite", dims=(6, 4))
        with pytest.raises(ValueError, match="dims"):
            unitary_gate_fidelity(a, b)


class TestMotionalIndependenceMetric:
    def test_factorized_operator_scores_zero(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        w, _ = np.linalg.qr(g)
        u = OperatorMatrix(np.kron(w, np.eye(9)), "composite", dims=(4, 9))
        assert motional_independence_metric(u, 4) == 0.0

    def test_limit_guard(self):
        u = OperatorMatrix(np.eye(4 * 9, dtype=complex), "composite", dims=(4, 9))
        with pytest.raises(ValueError):
            motional_independence_metric(u, 5)
        with pytest.raises(ValueError, match="n_limit"):
            motional_independence_metric(u, -1)

    def test_matches_block_loop(self):
        d_i, d_m, n_limit = 4, 11, 3
        rng = np.random.default_rng(13)
        g = rng.normal(size=(d_i * d_m,) * 2) + 1j * rng.normal(size=(d_i * d_m,) * 2)
        q, _ = np.linalg.qr(g)

        def loop(mat):
            blocks = mat.reshape(d_i, d_m, d_i, d_m)
            worst = 0.0
            for n in range(n_limit + 1):
                for m in range(n_limit + 1):
                    block = blocks[:, n, :, m]
                    if n == m:
                        block = block - blocks[:, 0, :, 0]
                    worst = max(worst, float(np.abs(block).max()))
            return worst

        def metric(mat):
            op = OperatorMatrix(mat, "composite", dims=(d_i, d_m))
            return motional_independence_metric(op, n_limit)

        assert metric(q) == loop(q)
        # one entry of the last kept block, then of the first block outside
        for n, m, counts in ((n_limit, n_limit, True), (n_limit + 1, 0, False)):
            bumped = q.copy()
            bumped[d_m + n, 2 * d_m + m] += 50.0
            assert metric(bumped) == loop(bumped)
            assert (metric(bumped) > 49.0) == counts


class TestLeakage:
    def test_low_fock_state_has_none(self):
        assert leakage_population(fock_state(0, 10)) == 0.0

    def test_top_fock_state_is_all_leakage(self):
        assert np.isclose(leakage_population(fock_state(10, 10)), 1.0)

    def test_negative_threshold_is_rejected(self):
        with pytest.raises(ValueError, match="n_threshold"):
            leakage_population(fock_state(7, 10), -5)

    def test_threshold_at_the_cutoff_leaves_nothing(self):
        for n_threshold in (10, 15):
            assert leakage_population(fock_state(10, 10), n_threshold) == 0.0

    def test_thermal_tail_matches_geometric_sum(self):
        state = quiet_thermal(2.0, 20)
        pops = np.diag(state.data).real
        expected = pops[11:].sum()
        assert np.isclose(leakage_population(state, 10), expected, atol=1e-15)


class TestGhzFidelity:
    def test_ideal_state_recovers_phase(self):
        for rel in (-2.0, 0.3, np.pi / 2):
            psi = ideal_ghz_state(3, 0.0, rel)
            rho = QuantumState(
                "mixed", np.outer(psi.data, psi.data.conj()), "internal"
            )
            fid, phase = ghz_fidelity(rho)
            assert np.isclose(fid, 1.0, atol=1e-12)
            assert np.isclose(phase, rel, atol=1e-12)

    def test_dephased_mixture_scores_half(self):
        psi = ideal_ghz_state(2, 0.0, 0.0)
        rho = np.diag(np.abs(psi.data) ** 2).astype(complex)
        fid, _ = ghz_fidelity(QuantumState("mixed", rho, "internal"))
        assert np.isclose(fid, 0.5, atol=1e-12)

    def test_rejects_a_motional_state(self):
        # a motional state has no GHZ components
        with pytest.raises(ValueError, match="internal"):
            ghz_fidelity(quiet_thermal(1.0, 3))


class TestTruthTable:
    def test_ld_gate_at_converged_cutoff(self):
        p = gate_params(0.1, 70)
        report = truth_table_check(p, quiet_thermal(2.0, 70))
        assert report.input_labels == ("++", "+-", "-+", "--")
        assert min(report.internal_fidelities) > 1 - 1e-12
        assert min(report.restoration_fidelities) > 1 - 1e-8
        assert min(report.composite_fidelities) > 1 - 1e-8
        assert report.gate_infidelity < 1e-8
        assert report.flags == ()

    def test_vacuum_and_thermal_agree_at_converged_cutoff(self):
        p = gate_params(0.1, 70)
        rep0 = truth_table_check(p, fock_state(0, 70))
        rep2 = truth_table_check(p, quiet_thermal(2.0, 70))
        assert abs(rep0.gate_infidelity - rep2.gate_infidelity) < 1e-8

    def test_undertruncated_run_is_flagged(self):
        p = gate_params(0.1, 40)
        report = truth_table_check(p, quiet_thermal(2.0, 40))
        # the nbar=2 thermal tail above Fock 20 is (2/3)^21 ~ 2e-4
        assert "truncation-unreliable" in report.flags
        assert np.isclose(report.leakage, (2.0 / 3.0) ** 21, rtol=0.05)

    def test_full_model_thermal_ordering(self):
        # measured behavior, stable across cutoffs: under the full Hamiltonian
        # the defined gate infidelity is LARGER for vacuum input than for a
        # hot thermal state, because the error is a residual motional
        # displacement and Uhlmann fidelity between a thermal state and its
        # displaced copy rises with temperature (states become harder to
        # distinguish). So no monotone-in-nbar assumption holds.
        p = gate_params(0.1, 50)
        infid_vac = truth_table_check(p, fock_state(0, 50), model="full").gate_infidelity
        infid_hot = truth_table_check(
            p, quiet_thermal(5.0, 50), model="full"
        ).gate_infidelity
        assert np.isclose(infid_vac, 1.4276e-4, rtol=0.01)
        assert infid_vac > infid_hot

    def test_motional_input_dimension_guard(self):
        p = gate_params(0.1, 20)
        with pytest.raises(ValueError):
            truth_table_check(p, fock_state(0, 30))

    def test_motional_input_layout_guard(self):
        # |gg> has the dimension of a Fock space at n_max = 3, but no motion
        p = gate_params(0.1, 3)
        with pytest.raises(ValueError, match="motional state"):
            truth_table_check(p, internal_product_state("gg"))

    def test_propagator_guards(self):
        p = gate_params(0.1, 8)
        u = sector_sum(2, sector_propagators(p, p.tau, "ld")).mat.copy()
        motion = fock_state(0, 8)
        with pytest.raises(ValueError, match="dim"):
            small = OperatorMatrix(u[:-4, :-4], "composite", dims=(4, 8))
            truth_table_check(p, motion, u=small)
        # the right size with the factors swapped
        with pytest.raises(ValueError, match="dims"):
            truth_table_check(p, motion, u=OperatorMatrix(u, "composite", dims=(9, 4)))
        # finite but not unitary: sqrt(W rho W+) = W sqrt(rho) W+ would not hold
        with pytest.raises(ValueError, match="unitary"):
            truth_table_check(p, motion, u=OperatorMatrix(0.5 * u, "composite", dims=(4, 9)))
        u[3, 5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            truth_table_check(p, motion, u=OperatorMatrix(u, "composite", dims=(4, 9)))

    def test_unknown_model_rejected_with_u(self):
        # with u given no coupling is built, so the model is checked on its own
        p = gate_params(0.1, 8)
        u = sector_sum(2, sector_propagators(p, p.tau, "ld"))
        with pytest.raises(ValueError, match="model"):
            truth_table_check(p, fock_state(0, 8), model="bogus", u=u)

    def test_nan_fidelity_is_not_a_perfect_gate(self):
        def report(fid):
            return TruthTableReport("ld", ("++",), (1.0,), (1.0,), (fid,), 0.0, ())

        assert math.isnan(report(float("nan")).gate_infidelity)
        assert report(1.0).gate_infidelity == 0.0
        assert report(0.75).gate_infidelity == 0.25

    def test_no_composite_state_is_built_or_evolved(self, monkeypatch):
        p = gate_params(0.1, 40, n_ions=3)
        u = sector_sum(3, sector_propagators(p, p.tau, "full"))
        dims = []
        validate = QuantumState.__post_init__

        def recording(state):
            validate(state)
            dims.append(state.dim)

        def forbidden(*args, **kwargs):
            raise AssertionError("the truth table evolved a composite state")

        shapes = {"eigh": [], "eigvalsh": []}
        # per d-sized eigvalsh: the traced peak since the previous one, and
        # the traced memory held while it runs, its argument included
        windows = []

        def shape_recording(name):
            solver = getattr(np.linalg, name)

            def solve(a, *args, **kwargs):
                shapes[name].append(np.shape(a))
                if p.dim in np.shape(a):
                    current, peak = tracemalloc.get_traced_memory()
                    windows.append((peak, current))
                    tracemalloc.reset_peak()
                return solver(a, *args, **kwargs)

            return solve

        kron_shapes = []
        kron = np.kron

        def kron_recording(a, b):
            out = kron(a, b)
            kron_shapes.append(out.shape)
            return out

        motion = quiet_thermal(0.5, 40)
        monkeypatch.setattr(QuantumState, "__post_init__", recording)
        monkeypatch.setattr(dynamics, "evolve", forbidden)
        monkeypatch.setattr(analysis, "evolve", forbidden, raising=False)
        monkeypatch.setattr(np, "kron", kron_recording)
        for name in shapes:
            monkeypatch.setattr(np.linalg, name, shape_recording(name))
        # u is allocated before tracing starts, so only the arrays that the
        # truth table makes are counted
        tracemalloc.start()
        try:
            report = truth_table_check(p, motion, model="full", u=u)
        finally:
            tracemalloc.stop()
        assert len(report.composite_fidelities) == 8
        assert dims and p.dim not in dims
        # the square root of each output state comes from sqrt(rho): no
        # d-sized eigh, and one d-sized eigvalsh per input, of a d x d array
        assert shapes["eigh"] and all(p.dim not in s for s in shapes["eigh"])
        assert [s for s in shapes["eigvalsh"] if p.dim in s] == [(p.dim, p.dim)] * 8
        # exactly one d x d array per input, the argument of that eigvalsh: it
        # is alive when the eigvalsh runs, and up to it no second d x d array
        # was ever alive at once; the output state W rho W+ is never formed
        square = p.dim**2 * 16
        assert len(windows) == 8
        assert all(square <= current and peak < 2 * square for peak, current in windows)
        # np.kron builds the 2^N-sized |+/-> sign matrix only; W comes from u
        assert kron_shapes and max(max(s) for s in kron_shapes) <= p.dim_internal
        # unhooked, the whole call peaks below two d x d complex arrays: the
        # one Z Z+ and the d x (n_max+1) arrays
        monkeypatch.undo()
        tracemalloc.start()
        try:
            truth_table_check(p, motion, model="full", u=u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * square


class TestTruthTableAgainstDense:
    @settings(max_examples=25, deadline=None)
    @given(
        n_ions=st.integers(1, 3),
        model=st.sampled_from(["ld", "full"]),
        eta=st.floats(0.03, 0.3),
        n_max=st.integers(6, 16),
        motion=st.one_of(
            st.tuples(st.just("thermal"), st.sampled_from([0.0, 0.5, 2.0])),
            st.tuples(st.just("fock"), st.integers(0, 3)),
        ),
        delta=st.one_of(st.none(), st.floats(-0.5, 0.5)),
    )
    def test_matches_dense_evolution(self, n_ions, model, eta, n_max, motion, delta):
        p = gate_params(eta, n_max, n_ions=n_ions)
        if delta is None:
            u = sector_sum(n_ions, sector_propagators(p, p.tau, model))
        else:
            p = dataclasses.replace(p, delta=delta)
            h = hamiltonian_ld(p) if model == "ld" else hamiltonian_full(p)
            u = expm_propagator(h, p.tau)
        kind, value = motion
        state = quiet_thermal(value, n_max) if kind == "thermal" else fock_state(value, n_max)
        report = truth_table_check(p, state, model=model, u=u)
        dense = dense_truth_table(p, state, u, model)
        assert report.input_labels == dense.input_labels
        assert report.flags == dense.flags
        assert abs(report.leakage - dense.leakage) < 1e-12
        for got, want, tol in (
            (report.internal_fidelities, dense.internal_fidelities, 1e-12),
            (report.restoration_fidelities, dense.restoration_fidelities, RESTORATION_TOL),
            (report.composite_fidelities, dense.composite_fidelities, COMPOSITE_TOL),
        ):
            assert np.abs(np.subtract(got, want)).max() < tol


class TestResonantRoute:
    def test_harnesses_never_call_the_dense_oracle(self, monkeypatch):
        p = gate_params(0.1, 12)
        detuned = dataclasses.replace(p, delta=0.3)
        oracle = expm_propagator(hamiltonian_ld(detuned), detuned.tau)

        def forbidden(*args, **kwargs):
            raise AssertionError("a resonant harness called the dense oracle")

        # AssertionError is not one of the errors the sweep records per point
        monkeypatch.setattr(dynamics, "expm_propagator", forbidden)
        monkeypatch.setattr(analysis, "expm_propagator", forbidden, raising=False)
        motion = fock_state(0, 12)
        for model in ("ld", "full"):
            assert truth_table_check(p, motion, model=model).gate_infidelity < 1e-3
            truncation_convergence(p, [8, 12], nbar=0.0, model=model)
            sweep = lamb_dicke_error_sweep((0.1,), (0.0,), n_max=12, model=model)
            assert sweep.records[0].error is None
        # detuning breaks the J_x sectors: the default propagator refuses it,
        # and a propagator from the oracle still goes through
        with pytest.raises(ValueError):
            truth_table_check(detuned, motion)
        report = truth_table_check(detuned, motion, u=oracle)
        assert 0.0 <= report.gate_infidelity <= 1.0


class TestGhzCheck:
    def test_odd_recipe_vacuum(self):
        report = ghz_check(3, 0.1, fock_state(0, 16), n_max=16)
        assert report.fidelity > 1 - 1e-9
        assert np.isclose(report.rel_phase, -np.pi / 2, atol=1e-8)
        assert report.expected_rel_phase is None

    def test_even_recipe_vacuum_measured_phase(self):
        report = ghz_check(2, 0.1, fock_state(0, 16), n_max=16)
        assert report.fidelity > 1 - 1e-9
        assert np.isclose(report.rel_phase, np.pi / 2, atol=1e-8)
        # the recipe's expectation -(pi/2 + 2 pi/2) mod 2pi is +pi/2
        assert np.isclose(report.expected_rel_phase, np.pi / 2, atol=1e-12)
        assert np.isclose(report.phase_deviation, 0.0, atol=1e-8)

    def test_thermal_input(self):
        report = ghz_check(2, 0.1, quiet_thermal(0.5, 30), n_max=30)
        assert report.fidelity > 1 - 1e-8

    def test_motional_input_guards(self):
        with pytest.raises(ValueError, match="motional state"):
            ghz_check(2, 0.1, fock_state(0, 30), n_max=20)
        # |gg> has the dimension of a Fock space at n_max = 3, but no motion
        with pytest.raises(ValueError, match="motional state"):
            ghz_check(2, 0.1, internal_product_state("gg"), n_max=3)

    @pytest.mark.parametrize(
        "n_ions, model, motion",
        [
            (2, "ld", quiet_thermal(0.5, 16)),
            (3, "full", quiet_thermal(0.5, 16)),
            (3, "ld", fock_state(2, 16)),
            (4, "ld", quiet_thermal(2.0, 16)),
            (5, "full", quiet_thermal(0.5, 16)),
            (6, "full", quiet_thermal(0.5, 16)),
        ],
        ids=[
            "2-ld-nbar0.5",
            "3-full-nbar0.5",
            "3-ld-fock2",
            "4-ld-nbar2",
            "5-full-nbar0.5",
            "6-full-nbar0.5",
        ],
    )
    def test_matches_dense_evolution(self, n_ions, model, motion):
        report = ghz_check(n_ions, 0.1, motion, n_max=16, model=model)
        fid, phase, leak = dense_ghz(n_ions, 0.1, motion, 16, model)
        assert abs(report.fidelity - fid) < 1e-12
        assert abs(np.angle(np.exp(1j * (report.rel_phase - phase)))) < 1e-12
        assert abs(report.leakage - leak) < 1e-12


class TestSweep:
    def test_grid_shape_and_validity(self):
        result = lamb_dicke_error_sweep(
            (0.1, 0.2), (0.0, 0.5), n_max=12, model="ld"
        )
        assert result.eta_values == (0.1, 0.2)
        assert result.nbar_values == (0.0, 0.5)
        assert len(result.records) == 4
        for rec in result.records:
            assert rec.error is None
            assert 0.0 <= rec.infidelity_gate <= 1 + 1e-9
            assert 0.0 <= rec.infidelity_ghz <= 1 + 1e-9

    def test_ld_control_is_exact(self):
        result = lamb_dicke_error_sweep((0.1,), (0.5,), n_max=40, model="ld")
        rec = result.records[0]
        assert rec.infidelity_gate < 1e-8
        assert rec.infidelity_ghz < 1e-8

    def test_deterministic_records(self):
        kwargs = dict(n_max=12, model="ld", seed=123)
        a = lamb_dicke_error_sweep((0.1,), (0.5,), **kwargs)
        b = lamb_dicke_error_sweep((0.1,), (0.5,), **kwargs)
        ra = dataclasses.replace(a.records[0], runtime_s=0.0)
        rb = dataclasses.replace(b.records[0], runtime_s=0.0)
        assert ra == rb
        assert a.seed == 123

    def test_solver_failure_recorded_for_every_nbar(self):
        # the closed form misses its 1e-12 residual at eta = 1e9
        result = lamb_dicke_error_sweep((1e9, 0.1), (0.0, 0.5), n_max=12, model="ld")
        failed, good = result.records[:2], result.records[2:]
        assert failed[0].error and failed[0].error == failed[1].error
        for rec in failed:
            assert rec.infidelity_gate is None
        assert all(rec.error is None for rec in good)

    def test_propagator_built_once_per_eta(self, monkeypatch):
        calls = []
        build = analysis._propagator_for

        def counted(params, model):
            calls.append(params.eta)
            return build(params, model)

        monkeypatch.setattr(analysis, "_propagator_for", counted)
        result = lamb_dicke_error_sweep((0.1, 0.2), (0.0, 0.25, 0.5), n_max=12, model="ld")
        assert calls == [0.1, 0.2]
        singles = [
            lamb_dicke_error_sweep((rec.eta,), (rec.nbar,), n_max=12, model="ld").records[0]
            for rec in result.records
        ]
        for rec, single in zip(result.records, singles):
            assert rec.infidelity_gate == single.infidelity_gate
            assert rec.leakage == single.leakage

    def test_ghz_blocks_built_once_per_eta(self, monkeypatch):
        calls = []
        build = analysis.sector_propagators

        def counted(params, t, model):
            calls.append(params.eta)
            return build(params, t, model)

        monkeypatch.setattr(analysis, "sector_propagators", counted)
        result = lamb_dicke_error_sweep((0.1, 0.2), (0.0, 0.5), n_ions=3, n_max=12)
        # per eta, one set of blocks for the gate and one for the GHZ recipe
        assert calls == [0.1, 0.1, 0.2, 0.2]
        monkeypatch.undo()
        for rec in result.records:
            motion = thermal_state(ThermalSpec(nbar=rec.nbar, n_max=12))
            ghz = ghz_check(3, rec.eta, motion, n_max=12, model="full")
            assert rec.infidelity_ghz == 1.0 - ghz.fidelity

    def test_nan_ghz_fidelity_is_not_a_perfect_gate(self, monkeypatch):
        # the sweep evaluates the GHZ recipe without calling ghz_check, so
        # the NaN goes in where both take the phase-maximized fidelity
        maximum = analysis._ghz_maximum

        def nan_fidelity(*args):
            return float("nan"), maximum(*args)[1]

        monkeypatch.setattr(analysis, "_ghz_maximum", nan_fidelity)
        result = lamb_dicke_error_sweep((0.1,), (0.0,), n_max=12, model="ld")
        assert math.isnan(result.records[0].infidelity_ghz)

    def test_records_carry_provenance(self):
        result = lamb_dicke_error_sweep((0.1,), (0.0,), n_max=12, n_pad=7, model="ld")
        rec = result.records[0]
        assert (result.n_max, result.n_pad, rec.n_max) == (12, 7, 12)
        assert rec.runtime_s >= 0.0


@pytest.mark.filterwarnings("ignore:thermal tail weight")
class TestTruncationConvergence:
    def test_rows_and_differences(self):
        p = gate_params(0.1, 40)
        rows = truncation_convergence(p, [10, 20, 40], nbar=2.0)
        assert [r.n_max for r in rows] == [10, 20, 40]
        assert rows[0].diff_infidelity is None and rows[0].diff_metric is None
        assert rows[1].diff_metric is not None
        # the independence metric must collapse as the cutoff doubles
        assert rows[2].metric < rows[1].metric < rows[0].metric

    def test_converged_metric_stable_between_60_and_80(self):
        p = gate_params(0.1, 80)
        rows = truncation_convergence(p, [60, 80], nbar=2.0)
        assert rows[1].diff_metric < 1e-9
        assert rows[1].diff_infidelity < 1e-9

    def test_vacuum_converged_by_ten(self):
        p = gate_params(0.1, 20)
        rows = truncation_convergence(p, [10, 20], nbar=0.0)
        assert rows[1].diff_infidelity < 1e-9

    def test_single_row(self):
        p = gate_params(0.1, 30)
        rows = truncation_convergence(p, [30], nbar=2.0)
        assert len(rows) == 1
        assert rows[0].diff_infidelity is None

    def test_rejects_nonincreasing_list(self):
        p = gate_params(0.1, 30)
        with pytest.raises(ValueError):
            truncation_convergence(p, [30, 20], nbar=2.0)
        with pytest.raises(ValueError):
            truncation_convergence(p, [20, 20], nbar=2.0)
