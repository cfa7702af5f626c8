"""End-to-end acceptance gate.

One test per criterion, each printing a single `[criterion N] ... PASS/FAIL`
line to the live terminal before asserting. The README's acceptance-status
section carries the numbers and the analysis behind two of them:

- Criterion 1 compares the two propagator routes on the Fock <= 15 blocks.
  Its drawn drives reach a conditional displacement 2|lambda|N ~ 3.1, which
  carries the kept columns well past Fock 30, so each drawn set runs at the
  cutoff that the README's truncation policy asks for. That cutoff follows
  from the drawn parameters alone (`contained_n_max`), never from the
  measured distance.
- Criterion 6 checks the even-N relative phase against -(pi/2 + N pi/2)
  mod 2pi, the phase that the even recipe's twist exp[+i pi/8 Jx^2] gives
  |g...g>; the test writes that value out itself instead of only reading
  it back from the program.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from helpers import gate_params, quiet_thermal, solved
from iongate import (
    ModelParams,
    closed_form_propagator,
    expm_propagator,
    fock_state,
    ghz_check,
    hamiltonian_ld,
    ideal_gate_unitary,
    lamb_dicke_error_sweep,
    literal_params,
    motional_independence_metric,
    propagator_at_tau,
    thermal_state,
    ThermalSpec,
    truth_table_check,
)
from iongate.cli import main as cli_main

SEED = 20260814


def report(capsys, num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num}] {label}: {status} ({detail})")


def restricted_max_diff(a, b, params, n_keep):
    keep = np.arange(params.dim_motion) <= n_keep
    mask = np.kron(np.ones(params.dim_internal, dtype=bool), keep)
    d = (a - b)[np.ix_(mask, mask)]
    return float(np.abs(d).max())


def displaced_fock_tail(k, alpha, n_keep):
    """Weight of D(alpha)|k> above Fock n_keep, from the Laguerre form

    |<n|D(alpha)|k>|^2 = (lo!/hi!) x^(hi-lo) e^-x [L_lo^(hi-lo)(x)]^2,
    x = |alpha|^2, lo = min(n, k), hi = max(n, k).
    """
    x = abs(alpha) ** 2
    n = np.arange(n_keep + 1)
    lo, hi = np.minimum(n, k), np.maximum(n, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_scale = gammaln(lo + 1) - gammaln(hi + 1) - x
        log_scale = log_scale + np.where(hi > lo, (hi - lo) * np.log(x), 0.0)
    kept = np.exp(log_scale) * eval_genlaguerre(lo, hi - lo, x) ** 2
    return 1.0 - float(kept.sum())


def contained_n_max(params, t):
    """Smallest even cutoff >= 30 at which the README truncation policy
    holds on [0, t]: every kept column k <= 15, displaced by the largest
    conditional displacement |beta(t')| N, t' in [0, t], has less than
    1e-6 weight above n_max/2.

    |beta(t')| = |lambda/omega_a| |e^{i omega_a t'} - 1| peaks at
    2|lambda/omega_a| once omega_a t' reaches pi; omega_a is the unit.
    """
    lam = params.eta * params.omega_ratio * np.cos(params.theta)
    phase = min(t, np.pi)
    alpha = abs(lam) * abs(np.exp(1j * phase) - 1.0) * params.n_ions
    n_max = 30
    while max(displaced_fock_tail(k, alpha, n_max // 2) for k in range(16)) >= 1e-6:
        n_max += 2
    return n_max


def test_criterion_1_oracle_equivalence(capsys):
    tol = 1e-8
    rng = np.random.default_rng(SEED)
    worst = 0.0
    worst_set = None
    cutoffs = []
    for _ in range(20):
        eta = rng.uniform(0.05, 0.3)
        ratio = rng.uniform(0.1, 3.0)
        theta = rng.uniform(-np.pi / 2, np.pi / 2)
        n_ions = int(rng.integers(1, 4))
        drawn = ModelParams(eta=eta, omega_ratio=ratio, theta=theta, n_ions=n_ions)
        t = rng.uniform(0.0, 2.0 * drawn.tau)
        n_max = contained_n_max(drawn, t)
        cutoffs.append(n_max)
        p = dataclasses.replace(drawn, n_max=n_max)
        closed = closed_form_propagator(p, t).product.mat
        oracle = expm_propagator(hamiltonian_ld(p), t).mat
        diff = restricted_max_diff(closed, oracle, p, 15)
        if diff > worst:
            worst = diff
            worst_set = (eta, ratio, theta, n_ions, t, n_max)
    ok = worst < tol
    report(
        capsys,
        1,
        "oracle equivalence, 20 seeded sets, Fock<=15 blocks, contained cutoffs",
        ok,
        f"seed {SEED}, n_max {min(cutoffs)}-{max(cutoffs)}, "
        f"max diff {worst:.3e}, tolerance {tol:.0e}",
    )
    assert ok, (
        f"closed-form vs oracle propagator max-entry distance {worst:.3e} "
        f"exceeds {tol:.0e} on the retained Fock<=15 blocks (seed {SEED}, "
        f"worst parameter set eta={worst_set[0]:.4f}, "
        f"Omega/omega_a={worst_set[1]:.4f}, theta={worst_set[2]:.4f}, "
        f"N={worst_set[3]}, t={worst_set[4]:.4f}, n_max={worst_set[5]}). "
        f"Each cutoff (chosen: {min(cutoffs)}-{max(cutoffs)}) keeps the "
        "displaced Fock<=15 columns below 1e-6 weight above n_max/2, so a "
        "distance this large is a disagreement between the two routes, not "
        "truncation."
    )


def test_criterion_2_pulse_period_reduction(capsys):
    p = gate_params(0.1, 40)
    u = expm_propagator(hamiltonian_ld(p), p.tau)
    metric = motional_independence_metric(u, 20)
    ok = metric < 1e-8
    report(
        capsys,
        2,
        "propagator factorizes at t=tau (internal x motional identity)",
        ok,
        f"independence metric {metric:.3e} at n_max=40, tolerance 1e-08",
    )
    assert ok


def test_criterion_3_gate_synthesis(capsys):
    worst_closed = 0.0
    worst_oracle = 0.0
    for eta in (0.05, 0.1, 0.2, 0.3):
        p_small = gate_params(eta, 12)
        u, _, _ = propagator_at_tau(p_small)
        ideal = np.kron(ideal_gate_unitary(2).mat, np.eye(13))
        worst_closed = max(worst_closed, float(np.abs(u.mat - ideal).max()))
        p_big = gate_params(eta, 60)
        oracle = expm_propagator(hamiltonian_ld(p_big), p_big.tau).mat
        ideal_big = np.kron(ideal_gate_unitary(2).mat, np.eye(61))
        worst_oracle = max(
            worst_oracle, restricted_max_diff(oracle, ideal_big, p_big, 30)
        )
    ok = worst_closed < 1e-10 and worst_oracle < 1e-10
    report(
        capsys,
        3,
        "solved parameters realize exp[i pi/8 (Jx^2+2Jx)] x I",
        ok,
        f"reduced-form route max {worst_closed:.3e}, oracle route "
        f"(n_max=60, Fock<=30 blocks) max {worst_oracle:.3e}, tolerance 1e-10",
    )
    assert ok


def test_criterion_4_truth_table(capsys):
    p = gate_params(0.1, 70)
    rep = truth_table_check(p, thermal_state(ThermalSpec(nbar=2.0, n_max=70)))
    min_internal = min(rep.internal_fidelities)
    min_restore = min(rep.restoration_fidelities)
    ok = min_internal >= 1 - 1e-8 and min_restore >= 1 - 1e-8
    report(
        capsys,
        4,
        "truth table with thermal nbar=2 motion under H_LD",
        ok,
        f"min internal fidelity 1-{1-min_internal:.1e}, "
        f"min motional restoration 1-{1-min_restore:.1e}, tolerance 1e-08",
    )
    assert ok


def test_criterion_5_motional_independence(capsys):
    p = gate_params(0.1, 70)
    u = expm_propagator(hamiltonian_ld(p), p.tau)
    infidelities = []
    for motion in (
        fock_state(0, 70),
        fock_state(5, 70),
        thermal_state(ThermalSpec(nbar=0.5, n_max=70)),
        thermal_state(ThermalSpec(nbar=2.0, n_max=70)),
    ):
        infidelities.append(truth_table_check(p, motion, u=u).gate_infidelity)
    spread = max(infidelities) - min(infidelities)
    ok = spread < 1e-8
    report(
        capsys,
        5,
        "gate fidelity agrees across |0>, |5>, thermal 0.5 and 2",
        ok,
        f"pairwise spread {spread:.3e}, tolerance 1e-08",
    )
    assert ok


def test_criterion_6_ghz_generation(capsys):
    fidelity_fail = []
    phase_fail = []
    expected_fail = []
    measured = []
    for n_ions in (2, 3, 4, 5):
        rep = ghz_check(n_ions, 0.1, fock_state(0, 30), n_max=30)
        measured.append((n_ions, rep.fidelity, rep.rel_phase, rep.expected_rel_phase))
        if rep.fidelity < 1 - 1e-8:
            fidelity_fail.append(n_ions)
        if n_ions % 2 == 0:
            # exp[+i pi/8 Jx^2] |g...g>: phi_e - phi_g = -(pi/2 + N pi/2) mod 2pi
            written = np.angle(np.exp(-1j * (np.pi / 2 + n_ions * np.pi / 2)))
            if abs(rep.expected_rel_phase - written) > 1e-12:
                expected_fail.append((n_ions, rep.expected_rel_phase, written))
            if rep.phase_deviation > 1e-6:
                phase_fail.append((n_ions, rep.rel_phase, rep.expected_rel_phase))
    ok = not fidelity_fail and not phase_fail and not expected_fail
    phases = ", ".join(
        f"N={n}: F=1-{max(0.0, 1-f):.1e}, phase {r/np.pi:+.3f}pi"
        + ("" if e is None else f" (expected {e/np.pi:+.3f}pi)")
        for n, f, r, e in measured
    )
    report(
        capsys,
        6,
        "GHZ fidelity for N in {2,3,4,5} and even-N relative phase",
        ok,
        phases,
    )
    assert not fidelity_fail, f"GHZ fidelity below 1-1e-8 for N in {fidelity_fail}"
    assert not expected_fail, (
        "ghz_recipe stores an even-N phase other than -(pi/2 + N pi/2) mod 2pi, "
        "the phase of exp[+i pi/8 Jx^2] |g...g>: "
        f"{[(n, f'stored {s/np.pi:+.3f}pi', f'written {w/np.pi:+.3f}pi') for n, s, w in expected_fail]}"
    )
    assert not phase_fail, (
        "even-N relative phase deviates from -(pi/2 + N pi/2) mod 2pi by more "
        f"than 1e-6: {[(n, f'measured {r/np.pi:+.6f}pi', f'expected {e/np.pi:+.6f}pi') for n, r, e in phase_fail]}"
    )


def test_criterion_7_literal_formula_crosscheck(capsys):
    worst_c = 0.0
    worst_d = 0.0
    for eta in (0.05, 0.1, 0.15, 0.2, 0.3):
        lit = literal_params(eta)
        worst_c = max(worst_c, abs(lit.achieved_c - np.pi**2 / 8))
        worst_d = max(worst_d, abs(-lit.achieved_d - np.pi**2 / 4))
    ok = worst_c < 1e-10 and worst_d < 1e-10
    report(
        capsys,
        7,
        "literal parameter formulas give (pi^2/8, pi^2/4) for all eta",
        ok,
        f"max |C - pi^2/8| = {worst_c:.2e}, max |-D - pi^2/4| = {worst_d:.2e}, "
        "tolerance 1e-10",
    )
    assert ok


def test_criterion_8_lamb_dicke_degradation(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        full = lamb_dicke_error_sweep((0.05, 0.3), (2.0,), n_max=70, model="full")
        control = lamb_dicke_error_sweep((0.05, 0.3), (2.0,), n_max=70, model="ld")
    by_eta = {rec.eta: rec for rec in full}
    infid_small = by_eta[0.05].infidelity_gate
    infid_large = by_eta[0.3].infidelity_gate
    ordering_ok = infid_large > infid_small
    control_worst = max(
        max(rec.infidelity_gate, rec.infidelity_ghz) for rec in control
    )
    control_ok = control_worst < 1e-8 and all(
        rec.error is None for rec in control
    )
    ok = ordering_ok and control_ok
    report(
        capsys,
        8,
        "full-model infidelity grows with eta; LD control row clean",
        ok,
        f"infidelity(0.3)={infid_large:.3e} > infidelity(0.05)={infid_small:.3e}; "
        f"LD control max {control_worst:.3e} < 1e-08",
    )
    assert ok


def test_criterion_9_determinism(capsys, tmp_path):
    config = {
        "model": {"n_ions": 2, "n_max": 12, "n_pad": 10, "hamiltonian": "ld", "seed": 7},
        "grids": {"eta": [0.1, 0.2], "nbar": [0.0]},
        "output": {},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outputs = {}
    for tag in ("first", "second"):
        sweep_csv = tmp_path / f"{tag}.csv"
        sweep_json = tmp_path / f"{tag}_sweep.json"
        solve_json = tmp_path / f"{tag}_solve.json"
        ghz_json = tmp_path / f"{tag}_ghz.json"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(sweep_csv), "--format", "csv"]) == 0
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(sweep_json)]) == 0
        assert cli_main(["solve", "--eta", "0.1", "--seed", "11", "--out", str(solve_json)]) == 0
        assert cli_main(["ghz", "--n-ions", "2", "--nbar", "0", "--n-max", "12", "--out", str(ghz_json)]) == 0
        outputs[tag] = tuple(
            path.read_bytes() for path in (sweep_csv, sweep_json, solve_json, ghz_json)
        )
    ok = outputs["first"] == outputs["second"]
    report(
        capsys,
        9,
        "reruns with identical config produce byte-identical JSON/CSV",
        ok,
        "sweep CSV+JSON, solve JSON, ghz JSON compared",
    )
    assert ok
