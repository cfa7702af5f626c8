"""Metrics and the study harness: traces, fidelities, sweeps, convergence."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    ROOT,
    dense_ghz,
    dense_truth_table,
    exact_composite_fidelity,
    gate_params,
    quiet_thermal,
    random_density,
    random_pure,
    solved,
)
from iongate import analysis, dynamics, hilbert
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
    ideal_gate_unitary,
    ideal_ghz_state,
    internal_product_state,
    lamb_dicke_error_sweep,
    leakage_population,
    motional_independence_metric,
    partial_trace,
    pm_product_states,
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


def drawn_motion(kind: str, value, n_max: int) -> QuantumState:
    """A motion drawn by a test: ("thermal", nbar), ("fock", n), or
    ("diagonal", seed), random populations normalized on the diagonal."""
    if kind == "thermal":
        return quiet_thermal(value, n_max)
    if kind == "fock":
        return fock_state(value, n_max)
    pops = np.random.default_rng(value).uniform(size=n_max + 1)
    return QuantumState("mixed", np.diag(pops / pops.sum()), "motion")


def record_solvers(monkeypatch, dim: int) -> tuple[dict, list]:
    """Record the shape of every `eigh` and `eigvalsh` argument and, at each
    call on a dim-sized array, the traced peak since the previous such call
    and the traced memory held while it runs, its argument included."""
    shapes = {"eigh": [], "eigvalsh": []}
    windows = []

    def shape_recording(name):
        solver = getattr(np.linalg, name)

        def solve(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            if dim in np.shape(a):
                current, peak = tracemalloc.get_traced_memory()
                windows.append((peak, current))
                tracemalloc.reset_peak()
            return solver(a, *args, **kwargs)

        return solve

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, shape_recording(name))
    return shapes, windows


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

    @pytest.mark.parametrize("n_ions, n_limit", [(2, 0), (2, 5), (3, 3)])
    def test_sector_blocks_match_the_composite_operator(self, n_ions, n_limit):
        # the convergence metric reads the sector blocks; the composite route
        # sums the same terms in another order, so a few ulp may differ
        rng = np.random.default_rng(17)
        shape = (n_ions + 1, 11, 11)
        blocks = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for n, m in ((None, None), (n_limit, n_limit), (n_limit + 1, 0)):
            bumped = blocks.copy()
            if n is not None:
                bumped[1, n, m] += 50.0
            composite = motional_independence_metric(sector_sum(n_ions, bumped), n_limit)
            sectors = analysis._sector_independence_metric(n_ions, bumped, n_limit)
            assert abs(sectors - composite) <= 1e-14 * composite

    def test_sector_metric_builds_nothing_of_size_4_to_the_n(self):
        # one kept block per Hamming distance, N+1 = 10 of them, instead of
        # one per pair of the 2^N = 512 internal states (a 100 MB tensor)
        n_ions, n_limit = 9, 2
        rng = np.random.default_rng(23)
        shape = (n_ions + 1, 5, 5)
        blocks = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        tracemalloc.start()
        try:
            sectors = analysis._sector_independence_metric(n_ions, blocks, n_limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        composite = motional_independence_metric(sector_sum(n_ions, blocks), n_limit)
        assert abs(sectors - composite) <= 1e-14 * composite


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
        shapes, windows = record_solvers(monkeypatch, p.dim)
        # u is allocated before tracing starts, so only the arrays that the
        # truth table makes are counted
        tracemalloc.start()
        try:
            report = truth_table_check(p, motion, model="full", u=u)
        finally:
            tracemalloc.stop()
        assert len(report.composite_fidelities) == 8
        # the inputs are read from the sign matrix, so no state is built
        assert dims == []
        # the square root of each output state comes from sqrt(p) of the
        # motional populations: no eigh at all, and one d-sized eigvalsh per
        # input, of a d x d array
        assert shapes["eigh"] == []
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

    def test_sector_route_builds_no_composite_propagator(self, monkeypatch):
        p = gate_params(0.1, 40, n_ions=3)
        motion = quiet_thermal(0.5, 40)

        def forbidden(*args, **kwargs):
            raise AssertionError("the truth table built or evolved a composite object")

        monkeypatch.setattr(analysis, "sector_sum", forbidden, raising=False)
        monkeypatch.setattr(dynamics, "sector_sum", forbidden)
        monkeypatch.setattr(dynamics, "evolve", forbidden)
        monkeypatch.setattr(analysis, "evolve", forbidden, raising=False)
        shapes, windows = record_solvers(monkeypatch, p.dim)
        tracemalloc.start()
        try:
            report = truth_table_check(p, motion, model="full")
        finally:
            tracemalloc.stop()
        assert len(report.composite_fidelities) == 8
        # every square root and propagator is (n_max+1)-sized; the only d x d
        # arrays are the arguments of one eigvalsh per sector, N+1 = 4 for
        # the 2^N = 8 inputs
        assert shapes["eigh"] and all(p.dim not in s for s in shapes["eigh"])
        assert [s for s in shapes["eigvalsh"] if p.dim in s] == [(p.dim, p.dim)] * 4
        # each is alive when its eigvalsh runs, and up to it no second d x d
        # array was ever alive at once
        square = p.dim**2 * 16
        assert len(windows) == 4
        assert all(square <= current and peak < 2 * square for peak, current in windows)

    def test_a_nan_leakage_in_a_later_sector_is_reported_and_flagged(self, monkeypatch):
        # max() would keep the first sector's finite leakage
        evolution = analysis._evolution
        calls = []

        def nan_in_second_sector(*args):
            populations, *rest = evolution(*args)
            calls.append(populations)
            if len(calls) == 2:
                populations = np.full_like(populations, np.nan)
            return (populations, *rest)

        monkeypatch.setattr(analysis, "_evolution", nan_in_second_sector)
        report = truth_table_check(gate_params(0.1, 20), quiet_thermal(0.5, 20), model="full")
        assert len(calls) == 3
        assert math.isnan(report.leakage)
        assert report.flags == (analysis.TRUNCATION_FLAG,)

    def test_inputs_of_one_sector_report_equal_fidelities(self):
        p = gate_params(0.1, 40, n_ions=3)
        report = truth_table_check(p, quiet_thermal(0.5, 40), model="full")
        for fids in (
            report.internal_fidelities,
            report.restoration_fidelities,
            report.composite_fidelities,
        ):
            by_sector = {}
            for label, fid in zip(report.input_labels, fids):
                by_sector.setdefault(label.count("-"), set()).add(fid)
            assert sorted(by_sector) == [0, 1, 2, 3]
            assert all(len(values) == 1 for values in by_sector.values())

    @settings(max_examples=20, deadline=None)
    @given(
        n_ions=st.integers(2, 4),
        model=st.sampled_from(["ld", "full"]),
        eta=st.floats(0.03, 0.3),
        n_max=st.integers(6, 14),
        motion=st.one_of(
            st.tuples(st.just("thermal"), st.sampled_from([0.0, 0.5, 2.0])),
            st.tuples(st.just("fock"), st.integers(0, 3)),
        ),
    )
    # draws in which a member's own spectrum differs from the reported value,
    # by 3.4e-8 and 2.7e-9
    @example(n_ions=4, model="full", eta=0.25, n_max=6, motion=("fock", 2))
    @example(n_ions=3, model="full", eta=0.3, n_max=7, motion=("fock", 3))
    def test_one_spectrum_per_sector_is_every_input_spectrum(
        self, n_ions, model, eta, n_max, motion
    ):
        # the composite matrices of two inputs of one sector differ by a
        # diagonal +/-1 similarity, so they have the same spectrum. The
        # reported value is the spectrum of the sector's first input bit for
        # bit; eigvalsh of another member's matrix need not give the same
        # bits, and comes within the composite tolerance
        p = gate_params(eta, n_max, n_ions=n_ions)
        state = drawn_motion(*motion, n_max)
        report = truth_table_check(p, state, model=model)
        sqrt_p = np.sqrt(analysis._populations(state, p))
        blocks = sector_propagators(p, p.tau, model)
        signs, labels, sectors = hilbert._pm_products(n_ions)
        assert report.input_labels == labels
        seen = set()
        for column, k, reported in zip(signs.T, sectors, report.composite_fidelities):
            z = analysis._evolution(blocks[k], np.ones(1), sqrt_p)[3]
            outer = np.outer(column, column) / 2.0**n_ions
            member = analysis._unit(
                analysis._trace_sqrt_squared(np.kron(outer, z @ z.conj().T))
            )
            if k in seen:
                assert abs(member - reported) < COMPOSITE_TOL
            else:
                assert member == reported
                seen.add(k)


#: runs the sweep's fan-out (`analysis._fanned_out`) in a fresh process with
#: BLAS pinned to one thread, the only setting in which it forks, and prints
#: its findings as one JSON line. Every fork, in this process or in a child,
#: is logged to one file, so a nested fork shows. The affinity reads two
#: CPUs, or one where a case says so, whatever the host has
FAN_OUT_SCRIPT = """
import dataclasses, errno, json, math, os, signal, sys, tempfile, threading, warnings
import numpy as np
from helpers import gate_params, quiet_thermal, solved
from iongate import analysis, lamb_dicke_error_sweep, truncation_convergence, truth_table_check

log = tempfile.NamedTemporaryFile("r", delete=False).name
refused = []
fork = os.fork
def counted_fork():
    # a call whose number since the last reset is in `refused` fails
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    if len(forks()) in refused:
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    return fork()
def forks():
    with open(log) as fh:
        return fh.read().split()
def reset():
    open(log, "w").close()
os.fork = counted_fork
cpus = {0, 1}
os.sched_getaffinity = lambda pid: cpus
parent, floor = os.getpid(), analysis._FORK_MIN_DIM
out = {"floor": floor}

def forked(run):
    # run() forking and in-process, the forks of each, and whether a fork
    # was made by another process than this one
    analysis._FORK_MIN_DIM = floor
    reset()
    fanned = run()
    fanned_forks = forks()
    analysis._FORK_MIN_DIM = math.inf
    reset()
    local = run()
    analysis._FORK_MIN_DIM = floor
    nested = any(int(pid) != parent for pid in fanned_forks)
    return fanned == local, len(fanned_forks), len(forks()), nested

def sweep(etas, nbars, n_ions=3, n_max=25):
    # the rows of a sweep, N = 3 and n_max = 25 unless given, runtime aside
    records = lamb_dicke_error_sweep(etas, nbars, n_ions=n_ions, n_max=n_max, model="full")
    return [dataclasses.replace(rec, runtime_s=0.0) for rec in records]

n_max = 25  # d = 208 at N = 3
p = gate_params(0.1, n_max, n_ions=3)
out["dim"] = p.dim
# a lone truth table and a convergence study at d >= the floor compute their
# spectra in this process
lone = {}
for model in ("ld", "full"):
    reset()
    truth_table_check(p, quiet_thermal(0.5, n_max), model)
    lone[f"table-{model}"] = len(forks())
    reset()
    truncation_convergence(solved(0.1), [25, 30], nbar=2.0, n_ions=3, model=model)
    lone[f"convergence-{model}"] = len(forks())
out["lone"] = lone
out["sweep"] = forked(lambda: sweep((0.05, 0.1, 0.2), (0.0, 0.5)))
# the process of each truth table of one forked sweep: a share the child
# delivers is not computed again here
tables = tempfile.NamedTemporaryFile("r", delete=False).name
check = analysis.truth_table_check
def logged_check(*args):
    with open(tables, "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    return check(*args)
analysis.truth_table_check = logged_check
sweep((0.05, 0.1, 0.2), (0.0, 0.5))
analysis.truth_table_check = check
with open(tables) as fh:
    pids = [int(pid) for pid in fh.read().split()]
out["sweep-tables"] = [pids.count(parent), len(pids) - pids.count(parent)]
os.remove(tables)
# the solver fails at eta = 1e9, the second point, which the child computes
out["sweep-failure"] = forked(lambda: sweep((0.1, 1e9), (0.0,)))
out["sweep-failure-row"] = sweep((0.1, 1e9), (0.0,))[1].error

def shown(run):
    # the warnings run() shows, forking and in-process
    def caught():
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("default")
            run()
        return sorted((str(w.message), w.category.__name__, w.lineno) for w in shown)
    analysis._FORK_MIN_DIM = floor
    fanned = caught()
    analysis._FORK_MIN_DIM = math.inf
    local = caught()
    analysis._FORK_MIN_DIM = floor
    return fanned == local, len(fanned)
# nbar 2 leaves a tail weight above 1e-6 at n_max 25: in both processes, and
# in the child's share only
out["warnings-both"] = shown(lambda: sweep((0.1, 0.2), (2.0,)))
out["warnings-child"] = shown(lambda: sweep((0.1,), (0.0, 2.0)))

def unreaped():
    try:
        os.waitpid(-1, os.WNOHANG)
        return True
    except ChildProcessError:
        return False

def with_spectrum(spectrum, run):
    # forked(run) with `analysis._trace_sqrt_squared` replaced, then whether
    # a child is unreaped and the fds it left open
    fds = len(os.listdir("/proc/self/fd"))
    analysis._trace_sqrt_squared = spectrum
    try:
        result = forked(run)
    finally:
        analysis._trace_sqrt_squared = trace_sqrt_squared
    return [*result, unreaped(), len(os.listdir("/proc/self/fd")) - fds]

trace_sqrt_squared = analysis._trace_sqrt_squared
def raising(m):
    if os.getpid() != parent:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return trace_sqrt_squared(m)
def killed(m):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return trace_sqrt_squared(m)
two_points = lambda: sweep((0.05, 0.1), (0.0, 0.5))
out["sweep-child-raises"] = with_spectrum(raising, two_points)
out["sweep-child-killed"] = with_spectrum(killed, two_points)
refused[:] = [1]
out["sweep-refused"] = with_spectrum(trace_sqrt_squared, two_points)
refused[:] = []

# an invalid nbar at the second point, in the child's share, and then one
# more at the third, in this process's share: the library's error of the
# first, raised here, and the next sweep forks again
for nbars in ((0.0, -1.0), (0.0, -1.0, -2.0)):
    reset()
    try:
        sweep((0.1,), nbars)
        out[f"invalid-nbar-{len(nbars)}"] = None
    except ValueError as exc:
        out[f"invalid-nbar-{len(nbars)}"] = [str(exc), len(forks())]
reset()
sweep((0.1,), (0.0, 0.5))
out["after-invalid"] = [len(forks()), unreaped()]

reset()
out["values"] = analysis._fanned_out(lambda i: float(i * i), list(range(5)), floor)
out["forks"] = len(forks())
out["unreaped"] = unreaped()
# 20 000 floats a row, some 180 KiB pickled in the child's share, each row
# with the process that computed it
reset()
big = analysis._fanned_out(lambda i: (os.getpid(), [float(i)] * 20000), list(range(5)), floor)
out["large"] = [
    [rows == [float(i)] * 20000 for i, (_, rows) in enumerate(big)],
    [pid != parent for pid, _ in big],
    len(forks()),
]

reset()
sweep((0.1,), (0.0, 0.5), n_ions=2, n_max=40)
out["below_floor"] = [gate_params(0.1, 40).dim, len(forks())]  # d = 164
stop = threading.Event()
worker = threading.Thread(target=stop.wait)
worker.start()
sweep((0.1,), (0.0, 0.5))
stop.set()
worker.join(timeout=60)
out["second_thread"] = [len(forks()), worker.is_alive()]
cpus = {0}
sweep((0.1,), (0.0, 0.5))
out["one_cpu"] = len(forks())
os.remove(log)
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def fan_out():
    blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    proc = subprocess.run(
        [sys.executable, "-c", FAN_OUT_SCRIPT],
        env=dict(os.environ, PYTHONPATH=path, **blas),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestSweepFanOut:
    """The sweep's points split with one forked child, with BLAS pinned,
    against the same calls in-process (`fan_out` above)."""

    @pytest.mark.parametrize(
        "case", [f"{kind}-{model}" for kind in ("table", "convergence") for model in ("ld", "full")]
    )
    def test_a_lone_table_or_convergence_does_not_fork(self, fan_out, case):
        # d = 208 is above the floor and BLAS is pinned, so only the fork's
        # caller, the sweep, could fork here
        assert fan_out["dim"] >= fan_out["floor"]
        assert fan_out["lone"][case] == 0

    @pytest.mark.parametrize("case", ["sweep", "sweep-failure"])
    def test_a_sweep_forks_once_for_its_points(self, fan_out, case):
        # six points, or a solver failure in the child's share; the child's
        # truth tables fork no more
        equal, fanned_forks, local_forks, nested = fan_out[case]
        assert equal
        assert fanned_forks == 1 and local_forks == 0 and not nested

    def test_the_child_share_is_not_computed_again(self, fan_out):
        # three of the six points' truth tables ran in the child
        assert fan_out["sweep-tables"] == [3, 3]

    def test_a_solver_failure_row_comes_back_from_the_child(self, fan_out):
        row = fan_out["sweep-failure-row"]
        assert row.startswith("gate parameter solve failed for eta=1000000000.0")

    @pytest.mark.parametrize("case", ["warnings-both", "warnings-child"])
    def test_the_child_warnings_are_shown_once(self, fan_out, case):
        # the thermal-tail warning of nbar 2, met in both processes or only in
        # the child, is shown as in-process: once
        equal, count = fan_out[case]
        assert equal and count == 1

    @pytest.mark.parametrize("how", ["child-raises", "child-killed", "refused"])
    def test_a_sweep_share_the_child_does_not_deliver_is_computed_here(self, fan_out, how):
        # the child's spectra raise LinAlgError or SIGKILL it, or os.fork
        # raises EAGAIN; this process's own points succeed, so its
        # recomputed share completes the sweep
        equal, fanned_forks, local_forks, nested, unreaped, new_fds = fan_out[f"sweep-{how}"]
        assert equal
        assert fanned_forks == 1 and local_forks == 0 and not nested
        assert unreaped is False and new_fds == 0

    @pytest.mark.parametrize("points", [2, 3])
    def test_an_invalid_point_in_the_child_share_raises_here(self, fan_out, points):
        # the first error of the grid, as in-process, also when a later
        # point of this process's share fails too
        message = "nbar must be finite and >= 0, got -1.0"
        assert fan_out[f"invalid-nbar-{points}"] == [message, 1]
        # the failed sweep left no child behind, and the next one forks
        assert fan_out["after-invalid"] == [1, False]

    def test_values_come_back_in_order(self, fan_out):
        assert fan_out["values"] == [float(i * i) for i in range(5)]
        assert fan_out["forks"] == 1

    def test_a_payload_past_the_pipe_buffer_comes_back_whole(self, fan_out):
        # in order, and the odd rows from the child, not computed again here
        rows, from_child, forks = fan_out["large"]
        assert rows == [True] * 5
        assert from_child == [False, True, False, True, False]
        assert forks == 1

    def test_every_child_is_reaped(self, fan_out):
        assert fan_out["unreaped"] is False

    def test_no_fork_below_the_floor(self, fan_out):
        dim, forks = fan_out["below_floor"]
        assert dim < fan_out["floor"] and forks == 0

    def test_no_fork_beside_a_second_thread(self, fan_out):
        assert fan_out["second_thread"] == [0, False]

    def test_no_fork_with_one_cpu(self, fan_out):
        assert fan_out["one_cpu"] == 0


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
            st.tuples(st.just("diagonal"), st.integers(0, 2**32 - 1)),
        ),
        delta=st.one_of(st.none(), st.floats(-0.5, 0.5)),
        route=st.sampled_from(["blocks", "sum"]),
    )
    def test_matches_dense_evolution(self, n_ions, model, eta, n_max, motion, delta, route):
        # resonant draws run either on the sector blocks (no u) or on their
        # assembled sum as u; detuned draws take u from the dense oracle
        p = gate_params(eta, n_max, n_ions=n_ions)
        if delta is None:
            u = sector_sum(n_ions, sector_propagators(p, p.tau, model))
        else:
            p = dataclasses.replace(p, delta=delta)
            h = hamiltonian_ld(p) if model == "ld" else hamiltonian_full(p)
            u = expm_propagator(h, p.tau)
        state = drawn_motion(*motion, n_max)
        given_u = None if delta is None and route == "blocks" else u
        report = truth_table_check(p, state, model=model, u=given_u)
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


    @settings(max_examples=25, deadline=None)
    @given(
        n_ions=st.integers(1, 3),
        model=st.sampled_from(["ld", "full"]),
        eta=st.floats(0.03, 0.3),
        n_max=st.integers(6, 24),
        motion=st.one_of(
            st.tuples(st.just("thermal"), st.sampled_from([0.0, 0.5, 2.0])),
            st.tuples(st.just("fock"), st.integers(0, 3)),
        ),
    )
    def test_restoration_is_the_exact_composite_fidelity(self, n_ions, model, eta, n_max, motion):
        # on the sector route an input leaves as |v><v| x U_k rho U_k+, so its
        # composite fidelity is its restoration fidelity: the exact composite
        # value of the dense oracle's u is the reported restoration value to
        # roundoff. The reported composite value carries
        # the pinned d-sized spectra's roundoff, up to 6.7e-7 over 300 seeded
        # draws of this strategy, and is not read
        p = gate_params(eta, n_max, n_ions=n_ions)
        state = drawn_motion(*motion, n_max)
        report = truth_table_check(p, state, model=model)
        h = hamiltonian_ld(p) if model == "ld" else hamiltonian_full(p)
        u = expm_propagator(h, p.tau)
        pops = analysis._populations(state, p)
        ideal = ideal_gate_unitary(n_ions).mat
        inputs = pm_product_states(n_ions)
        assert list(inputs) == list(report.input_labels)
        for label, restoration in zip(report.input_labels, report.restoration_fidelities):
            vec = inputs[label].data
            exact = exact_composite_fidelity(u, vec, ideal @ vec, pops)
            assert abs(exact - restoration) < 1e-12


def coherent_motion(kind: str, n_max: int) -> QuantumState:
    """A motional state with a coherence between |0> and |1>: the pure
    (|0> + |1>)/sqrt(2), or thermal nbar 0.5 with one off-diagonal pair."""
    if kind == "pure":
        v = np.zeros(n_max + 1, dtype=complex)
        v[:2] = 1.0 / np.sqrt(2.0)
        return QuantumState("pure", v, "motion")
    rho = quiet_thermal(0.5, n_max).density().copy()
    # |0.1|^2 is below p_0 p_1 = 4/27, so the state stays positive
    rho[0, 1] = rho[1, 0] = 0.1
    return QuantumState("mixed", rho, "motion")


def record_hermitian_functions(monkeypatch) -> list:
    """Record the shape of the matrix of every `hilbert._hermitian_function`
    call, wherever it is bound."""
    shapes = []
    function = hilbert._hermitian_function

    def recording(mat, f):
        shapes.append(np.shape(mat))
        return function(mat, f)

    for module in (hilbert, dynamics, analysis):
        monkeypatch.setattr(module, "_hermitian_function", recording)
    return shapes


class TestMotionAsPopulations:
    """The truth table and `ghz_check` read the motion as its Fock
    populations p, and refuse a coherence between Fock states."""

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_coherent_motion_is_refused_with_one_message(self, kind):
        n_max = 12
        p = gate_params(0.1, n_max, n_ions=3)
        motion = coherent_motion(kind, n_max)
        u = sector_sum(3, sector_propagators(p, p.tau, "ld"))
        for check in (
            lambda: truth_table_check(p, motion, "ld"),
            lambda: truth_table_check(p, motion, "ld", u=u),
            lambda: ghz_check(3, 0.1, motion),
        ):
            with pytest.raises(ValueError) as exc:
                check()
            assert str(exc.value) == "motion must be diagonal in the Fock basis"
        # the dense oracle still takes any state
        dense = dense_truth_table(p, motion, u, "ld")
        assert all(0.0 <= f <= 1.0 for f in dense.composite_fidelities)

    @pytest.mark.parametrize("model", ["ld", "full"])
    def test_a_diagonal_motion_that_is_not_thermal_matches_dense(self, model):
        n_max = 10
        p = gate_params(0.1, n_max, n_ions=2)
        motion = drawn_motion("diagonal", 7, n_max)
        u = sector_sum(2, sector_propagators(p, p.tau, model))
        dense = dense_truth_table(p, motion, u, model)
        for given_u in (None, u):
            report = truth_table_check(p, motion, model, u=given_u)
            assert abs(report.leakage - dense.leakage) < 1e-12
            for got, want, tol in (
                (report.internal_fidelities, dense.internal_fidelities, 1e-12),
                (report.restoration_fidelities, dense.restoration_fidelities, RESTORATION_TOL),
                (report.composite_fidelities, dense.composite_fidelities, COMPOSITE_TOL),
            ):
                assert np.abs(np.subtract(got, want)).max() < tol

    @pytest.mark.parametrize("model", ["ld", "full"])
    @pytest.mark.parametrize("kind", ["thermal", "fock"])
    def test_no_motional_state_is_diagonalized(self, monkeypatch, model, kind):
        n_max = 12
        p = gate_params(0.1, n_max, n_ions=3)
        motion = quiet_thermal(0.5, n_max) if kind == "thermal" else fock_state(2, n_max)
        u = sector_sum(3, sector_propagators(p, p.tau, model))
        shapes = record_hermitian_functions(monkeypatch)
        truth_table_check(p, motion, model, u=u)
        assert shapes == []
        # each build of the sector blocks diagonalizes the padded sine
        # operator (full model) and the stacked sector Hamiltonians, and
        # nothing else is diagonalized
        def build(n):
            sine = [(n + p.n_pad + 1,) * 2] if model == "full" else []
            return sine + [(p.n_ions + 1, n + 1, n + 1)]

        truth_table_check(p, motion, model)
        assert shapes == build(n_max)
        del shapes[:]
        ghz_check(3, 0.1, motion, n_pad=p.n_pad, model=model)
        assert shapes == build(n_max)
        del shapes[:]
        truncation_convergence(solved(0.1), [8, n_max], nbar=0.0, n_ions=3, model=model)
        assert shapes == build(8) + build(n_max)


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
            truncation_convergence(solved(0.1), [8, 12], nbar=0.0, model=model)
            (rec,) = lamb_dicke_error_sweep((0.1,), (0.0,), n_max=12, model=model)
            assert rec.error is None
        # detuning breaks the J_x sectors: the default propagator refuses it,
        # and a propagator from the oracle still goes through
        with pytest.raises(ValueError):
            truth_table_check(detuned, motion)
        report = truth_table_check(detuned, motion, u=oracle)
        assert 0.0 <= report.gate_infidelity <= 1.0


class TestGhzCheck:
    def test_odd_recipe_vacuum(self):
        report = ghz_check(3, 0.1, fock_state(0, 16))
        assert report.fidelity > 1 - 1e-9
        assert np.isclose(report.rel_phase, -np.pi / 2, atol=1e-8)
        assert report.expected_rel_phase is None

    def test_even_recipe_vacuum_measured_phase(self):
        report = ghz_check(2, 0.1, fock_state(0, 16))
        assert report.fidelity > 1 - 1e-9
        assert np.isclose(report.rel_phase, np.pi / 2, atol=1e-8)
        # the recipe's expectation -(pi/2 + 2 pi/2) mod 2pi is +pi/2
        assert np.isclose(report.expected_rel_phase, np.pi / 2, atol=1e-12)
        assert np.isclose(report.phase_deviation, 0.0, atol=1e-8)

    def test_thermal_input(self):
        report = ghz_check(2, 0.1, quiet_thermal(0.5, 30))
        assert report.fidelity > 1 - 1e-8

    def test_motional_input_guards(self):
        # |gg> has the dimension of a Fock space at n_max = 3, but no motion:
        # it is refused before its dimension is read as the cutoff
        with pytest.raises(ValueError, match="motional state"):
            ghz_check(2, 0.1, internal_product_state("gg"))

    @pytest.mark.parametrize(
        "n_ions, model, motion",
        [
            (2, "ld", quiet_thermal(0.5, 16)),
            (3, "full", quiet_thermal(0.5, 16)),
            (3, "ld", fock_state(2, 16)),
            (4, "ld", quiet_thermal(2.0, 16)),
            (5, "full", quiet_thermal(0.5, 16)),
            (6, "full", quiet_thermal(0.5, 16)),
            (3, "full", drawn_motion("diagonal", 7, 16)),
            (4, "ld", drawn_motion("diagonal", 11, 16)),
        ],
        ids=[
            "2-ld-nbar0.5",
            "3-full-nbar0.5",
            "3-ld-fock2",
            "4-ld-nbar2",
            "5-full-nbar0.5",
            "6-full-nbar0.5",
            "3-full-diagonal7",
            "4-ld-diagonal11",
        ],
    )
    def test_matches_dense_evolution(self, n_ions, model, motion):
        report = ghz_check(n_ions, 0.1, motion, model=model)
        fid, phase, leak = dense_ghz(n_ions, 0.1, motion, model)
        assert abs(report.fidelity - fid) < 1e-12
        assert abs(np.angle(np.exp(1j * (report.rel_phase - phase)))) < 1e-12
        assert abs(report.leakage - leak) < 1e-12


class TestSweep:
    def test_grid_shape_and_validity(self):
        records = lamb_dicke_error_sweep(
            (0.1, 0.2), (0.0, 0.5), n_max=12, model="ld"
        )
        # one row per point, eta-major
        assert [(rec.eta, rec.nbar) for rec in records] == [
            (0.1, 0.0),
            (0.1, 0.5),
            (0.2, 0.0),
            (0.2, 0.5),
        ]
        for rec in records:
            assert rec.error is None
            assert 0.0 <= rec.infidelity_gate <= 1 + 1e-9
            assert 0.0 <= rec.infidelity_ghz <= 1 + 1e-9

    def test_ld_control_is_exact(self):
        (rec,) = lamb_dicke_error_sweep((0.1,), (0.5,), n_max=40, model="ld")
        assert rec.infidelity_gate < 1e-8
        assert rec.infidelity_ghz < 1e-8

    def test_deterministic_records(self):
        (a,) = lamb_dicke_error_sweep((0.1,), (0.5,), n_max=12, model="ld")
        (b,) = lamb_dicke_error_sweep((0.1,), (0.5,), n_max=12, model="ld")
        assert dataclasses.replace(a, runtime_s=0.0) == dataclasses.replace(b, runtime_s=0.0)

    def test_solver_failure_recorded_for_every_nbar(self):
        # the closed form misses its 1e-12 residual at eta = 1e9
        records = lamb_dicke_error_sweep((1e9, 0.1), (0.0, 0.5), n_max=12, model="ld")
        failed, good = records[:2], records[2:]
        assert failed[0].error and failed[0].error == failed[1].error
        for rec in failed:
            assert rec.infidelity_gate is None
        assert all(rec.error is None for rec in good)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"model": "Full"}, "model must be 'ld' or 'full', got 'Full'"),
            ({"n_ions": 1}, "n_ions must be >= 2, got 1"),
            ({"n_max": 0}, "n_max must be >= 1, got 0"),
            ({"n_pad": -1}, "n_pad must be >= 0, got -1"),
            ({"nbar_grid": (-1.0,)}, "nbar must be finite and >= 0, got -1.0"),
            ({"eta_grid": (math.nan,)}, "eta must be finite and > 0, got nan"),
        ],
        ids=["model", "n_ions", "n_max", "n_pad", "nbar", "eta"],
    )
    def test_invalid_argument_raises(self, kwargs, message):
        # only a solver failure becomes a row; bad input is the caller's error
        args = {"eta_grid": (0.1,), "nbar_grid": (0.0,), "n_max": 8, "model": "ld"}
        with pytest.raises(ValueError) as exc:
            lamb_dicke_error_sweep(**{**args, **kwargs})
        assert str(exc.value) == message

    @pytest.mark.parametrize("n_ions, model", [(2, "ld"), (3, "full")])
    def test_every_point_calls_the_public_checks(self, monkeypatch, n_ions, model):
        # the calls are counted through the module attributes, the bindings
        # that a tracer patches
        tables, ghzs = [], []
        check_table, check_ghz = analysis.truth_table_check, analysis.ghz_check

        def counted_table(*args, **kwargs):
            tables.append(check_table(*args, **kwargs))
            return tables[-1]

        def counted_ghz(*args, **kwargs):
            ghzs.append(check_ghz(*args, **kwargs))
            return ghzs[-1]

        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep assembled a composite propagator")

        monkeypatch.setattr(analysis, "truth_table_check", counted_table)
        monkeypatch.setattr(analysis, "ghz_check", counted_ghz)
        monkeypatch.setattr(analysis, "sector_sum", forbidden, raising=False)
        monkeypatch.setattr(dynamics, "sector_sum", forbidden)
        records = lamb_dicke_error_sweep(
            (0.1, 0.2), (0.0, 0.5), n_ions=n_ions, n_max=12, model=model
        )
        assert len(tables) == len(ghzs) == len(records) == 4
        monkeypatch.undo()
        for rec, table, ghz in zip(records, tables, ghzs):
            assert rec.error is None
            assert rec.infidelity_gate == table.gate_infidelity
            assert rec.infidelity_ghz == 1.0 - ghz.fidelity
            assert rec.leakage == max(table.leakage, ghz.leakage)
            # and each call was the one of its grid point
            motion = thermal_state(ThermalSpec(nbar=rec.nbar, n_max=12))
            params = gate_params(rec.eta, 12, n_ions=n_ions)
            assert table == truth_table_check(params, motion, model=model)
            assert ghz == ghz_check(n_ions, rec.eta, motion, model=model)

    def test_nan_ghz_fidelity_is_not_a_perfect_gate(self, monkeypatch):
        # the NaN goes in where ghz_check takes the phase-maximized fidelity
        maximum = analysis._ghz_maximum

        def nan_fidelity(*args):
            return float("nan"), maximum(*args)[1]

        monkeypatch.setattr(analysis, "_ghz_maximum", nan_fidelity)
        (rec,) = lamb_dicke_error_sweep((0.1,), (0.0,), n_max=12, model="ld")
        assert math.isnan(rec.infidelity_ghz)

    def test_nan_ghz_leakage_is_reported_and_flagged(self, monkeypatch):
        # the GHZ leakage is the second of the two: max() would keep the
        # truth table's finite one; the NaN goes in through the binding that
        # the sweep calls
        check = analysis.ghz_check

        def nan_leakage(*args, **kwargs):
            return dataclasses.replace(check(*args, **kwargs), leakage=math.nan)

        monkeypatch.setattr(analysis, "ghz_check", nan_leakage)
        (rec,) = lamb_dicke_error_sweep((0.1,), (0.0,), n_max=12, model="ld")
        assert math.isnan(rec.leakage)
        assert rec.flags == (analysis.TRUNCATION_FLAG,)

    def test_records_carry_provenance(self):
        (rec,) = lamb_dicke_error_sweep((0.1,), (0.0,), n_max=12, n_pad=7, model="ld")
        assert rec.n_max == 12
        assert rec.runtime_s >= 0.0


@pytest.mark.filterwarnings("ignore:thermal tail weight")
class TestTruncationConvergence:
    def test_rows_and_differences(self):
        rows = truncation_convergence(solved(0.1), [10, 20, 40], nbar=2.0)
        assert [r.n_max for r in rows] == [10, 20, 40]
        assert rows[0].diff_infidelity is None and rows[0].diff_metric is None
        assert rows[1].diff_metric is not None
        # the independence metric must collapse as the cutoff doubles
        assert rows[2].metric < rows[1].metric < rows[0].metric

    def test_converged_metric_stable_between_60_and_80(self):
        rows = truncation_convergence(solved(0.1), [60, 80], nbar=2.0)
        assert rows[1].diff_metric < 1e-9
        assert rows[1].diff_infidelity < 1e-9

    def test_vacuum_converged_by_ten(self):
        rows = truncation_convergence(solved(0.1), [10, 20], nbar=0.0)
        assert rows[1].diff_infidelity < 1e-9

    def test_single_row(self):
        rows = truncation_convergence(solved(0.1), [30], nbar=2.0)
        assert len(rows) == 1
        assert rows[0].diff_infidelity is None

    @pytest.mark.parametrize("model", ["ld", "full"])
    def test_one_block_build_per_cutoff(self, monkeypatch, model):
        # counted through the module attribute, the binding a tracer patches
        built = []
        build = analysis.sector_propagators

        def counted(params, t, model):
            built.append(params.n_max)
            return build(params, t, model)

        monkeypatch.setattr(analysis, "sector_propagators", counted)
        p = gate_params(0.1, 20)
        rows = truncation_convergence(solved(0.1), [8, 12, 20], nbar=0.5, model=model)
        assert built == [8, 12, 20]
        monkeypatch.undo()
        # the rows are those of the public truth table and the sector metric
        for row in rows:
            point = dataclasses.replace(p, n_max=row.n_max)
            motion = thermal_state(ThermalSpec(nbar=0.5, n_max=row.n_max))
            table = truth_table_check(point, motion, model)
            assert row.gate_infidelity == table.gate_infidelity
            blocks = sector_propagators(point, point.tau, model)
            metric = analysis._sector_independence_metric(2, blocks, row.n_max // 2)
            assert row.metric == metric

    def test_rejects_nonincreasing_list(self):
        with pytest.raises(ValueError):
            truncation_convergence(solved(0.1), [30, 20], nbar=2.0)
        with pytest.raises(ValueError):
            truncation_convergence(solved(0.1), [20, 20], nbar=2.0)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: partial_trace(
                composite_pure(internal_product_state("g"), fock_state(0, 2)), "ions"
            ),
            "keep must be 'internal' or 'motion', got 'ions'",
            id="partial-trace-keep",
        ),
        pytest.param(
            lambda: motional_independence_metric(OperatorMatrix(np.eye(2), "internal"), 0),
            "metric requires a composite operator with dims",
            id="metric-not-composite",
        ),
        pytest.param(
            lambda: leakage_population(internal_product_state("g")),
            "leakage requires a composite or motional state",
            id="leakage-internal",
        ),
        pytest.param(
            lambda: lamb_dicke_error_sweep((), (0.0,), n_max=8),
            "sweep grids must be nonempty",
            id="sweep-empty-grid",
        ),
        pytest.param(
            lambda: truncation_convergence(solved(0.1), []),
            "n_max_list must be nonempty",
            id="convergence-empty-list",
        ),
    ],
)
def test_refuses_outside_input(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
