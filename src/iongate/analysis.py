"""State metrics and study harnesses: partial traces, fidelities, motional
independence, truth-table and GHZ checks, Lamb-Dicke error sweeps, truncation
convergence.

The truth table reads the N+1 J_x sector propagators U_k
(`sector_propagators`) directly, so without a given `u` it is resonant only; a
detuned truth table takes its `u` from the dense oracle of `dynamics`. The
sweep calls `truth_table_check` and `ghz_check` at every point. The
convergence study builds each cutoff's sector blocks once and hands them to
`_sector_table`, the body of the truth table's sector route, and to its
metric, so each check still has one code path and no harness assembles a
composite propagator. The truth table and `ghz_check` read the motion as
its Fock populations p (`_populations`), refusing a coherence between Fock
states, so sqrt(rho) = diag(sqrt(p)) scales columns or rows.

Definition used for state-level gate infidelity: for each |+/-> product input
v with motional input rho_mot, the per-input fidelity is the composite-state
fidelity F(U (|v><v| x rho_mot) U+, |Gv><Gv| x rho_mot) against the truth-table
image Gv with the motional state restored, and the gate infidelity is one
minus the mean over the 2^N inputs. G is diagonal in the |+/-> products:
the image of an input v in J_x sector k is g_k v, and the phase g_k drops out
of |Gv><Gv|, so neither route reads it and no gate matrix is built.
The composite form is essential: these inputs are J_x eigenstates, so their
traced internal state is exactly the input under both Hamiltonians and a
purely internal fidelity would be identically 1 regardless of parameters
(see README).

Both truth-table routes evaluate each evolution with one kernel,
`_evolution`, from the blocks w[i] = (<i| x I) U (|v> x I) of the isometry
W = U (|v> x I_m) and the image coefficients <i|Gv>. The output state is X X+
with X = W sqrt(rho): the populations and the restoration fidelity
F(rho, M M+) = (sum of the singular values of sqrt(rho) M)^2, for the
restored motion M M+, come from X, and the internal fidelity is the squared
norm of Y sqrt(rho), Y = (<Gv| x I) W. Since sqrt(W rho W+) = X W+, the
composite fidelity is the spectrum of Z Z+ with Z = X Y+ sqrt(rho). On
sectors the one block of an input in sector k is U_k, with coefficient 1,
and the composite matrices |v><v| x Z_k Z_k+ of two inputs v, v' of one
sector differ by the similarity D x I, D = diag(s'/s) with +/-1 entries:
all is computed once per sector, from its first input, N+1 spectra for 2^N
inputs. `eigvalsh` need not give such matrices the same bits: with Fock
motion, another input's own spectrum has come out 3.4e-8 off, also with
its signed zeros cleared. With a given `u`, an input's 2^N blocks are read
from u's column blocks and its Z Z+ is formed. No `QuantumState` is built,
and each d x d matrix (d = 2^N (n_max+1)) only for its
`eigvalsh`: perfbench/refs.json pins the roundoff of its d - (n_max+1) null
eigenvalues; once the references are re-derived, eigvalsh of the
(n_max+1)-sized S = B+B of `_evolution` replaces it.

The sweep's (eta, nbar) points are independent. From d = `_FORK_MIN_DIM`
on (measured; the N=3, n_max=40 sweep has d = 328) `_fanned_out` hands
every other point to one `os.fork()` child, which sends its rows back
pickled through a pipe; a share it does not deliver is computed in the
calling process. A sweep forks once, for its points, and nothing else
forks: a truth table or a convergence study computes its spectra
in-process. It forks only while the process has one OS thread
(OPENBLAS_NUM_THREADS=1) and its affinity two CPUs: fork() copies the
calling thread alone, so a lock that another thread holds, OpenBLAS's
pool's among them, stays held in the child. The child runs the same code
on the same one-threaded BLAS, so the outputs are byte-identical either
way, and every public call returns in the calling process.
"""

from __future__ import annotations

import gc
import os
import time
import warnings
from dataclasses import dataclass

from ._numpy import np
from .dynamics import _require_model, sector_propagators
from .hilbert import (
    ModelParams,
    OperatorMatrix,
    QuantumState,
    ThermalSpec,
    _hermitian_function,
    _pm_products,
    _require_same_space,
    _sector_coefficients,
    thermal_state,
)
from .synthesis import GateSolution, ghz_recipe, solve_gate_params

#: leakage above this level marks a result as truncation-unreliable
LEAKAGE_THRESHOLD = 1e-6

TRUNCATION_FLAG = "truncation-unreliable"

#: `_fanned_out` forks one child for the sweep's points from this
#: d = 2^N (n_max+1) on. On a 2-vCPU Linux VM with one BLAS thread
#: (OpenBLAS 0.3.31, numpy 2.4.6), a truth table's N+1 composite spectra
#: split over two processes took 1.14-1.23 times their in-process time at
#: d = 124, 0.93-1.06 at 164, 0.79-0.82 at 204 and 0.53-0.62 at 328
#: (medians of 15, two rounds); one fork and reap took 2.4 ms. A single
#: spectrum costs less than a whole sweep point, which adds the solve, the
#: sector blocks and `ghz_check`, so the floor is conservative for points:
#: d = 164 (N=2, n_max=40) stays in-process and the N=3, n_max=40 sweep
#: (d = 328) forks
_FORK_MIN_DIM = 200


def partial_trace(state: QuantumState, keep: str) -> QuantumState:
    """Reduced density matrix over the kept factor of a composite state."""
    if state.layout != "composite" or state.dims is None:
        raise ValueError("partial_trace requires a composite state with dims")
    if keep not in ("internal", "motion"):
        raise ValueError(f"keep must be 'internal' or 'motion', got {keep!r}")
    if state.kind == "pure":
        m = _kept_factor(state.data, state.dims, keep)
        return QuantumState("mixed", _hermitian_part(m @ m.conj().T), keep)
    subscripts = "anbn->ab" if keep == "internal" else "anam->nm"
    rho = state.data.reshape(*state.dims, *state.dims)
    return QuantumState("mixed", _hermitian_part(np.einsum(subscripts, rho)), keep)


def _kept_factor(x: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    # M with M M+ the partial trace of X X+ (X is d x r; r = 1 for a state
    # vector): X with the traced factor moved into the columns
    axis = 0 if keep == "internal" else 1
    return np.moveaxis(x.reshape(*dims, -1), axis, 0).reshape(dims[axis], -1)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """State fidelity in [0, 1].

    pure-pure |<psi|phi>|^2, pure-mixed <psi|rho|psi>, mixed-mixed Uhlmann
    (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2. Both states must have the same
    layout and, if composite, the same dims.
    """
    _require_same_space(a, b)
    a, b = a.data, b.data
    if a.ndim == 1 and b.ndim == 1:
        return float(np.abs(np.vdot(a, b)) ** 2)
    if a.ndim == 1:
        val = np.vdot(a, b @ a).real
    elif b.ndim == 1:
        val = np.vdot(b, a @ b).real
    else:
        # eigenvalues clamped: roundoff negatives must not turn into NaNs
        sqrt_a = _hermitian_function(a, lambda vals: np.sqrt(np.clip(vals, 0.0, None)))
        val = _trace_sqrt_squared(sqrt_a @ b @ sqrt_a)
    return _unit(val)


def _trace_sqrt_squared(m: np.ndarray) -> float:
    # (tr sqrt(m))^2 of a Hermitian PSD m; roundoff negatives count as 0
    inner = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    return float(np.sqrt(inner).sum() ** 2)


def _trace_norm_squared(m: np.ndarray) -> np.ndarray:
    # (sum of singular values)^2 per matrix in m: F(rho, M M+) for
    # m = sqrt(rho) M, with no square root of rho's tiny eigenvalues
    return np.linalg.svd(m, compute_uv=False).sum(-1) ** 2


def _unit(val: float) -> float:
    # clamp a roundoff-level excursion into [0, 1]; NaN stays NaN
    return float(min(max(val, 0.0), 1.0))


def _infidelity(fid: float) -> float:
    # 1 - fid floored at 0; written so that NaN stays NaN, where
    # max(0.0, nan) would report a perfect gate
    val = 1.0 - fid
    return 0.0 if val < 0.0 else val


def unitary_gate_fidelity(actual: OperatorMatrix, ideal: OperatorMatrix) -> float:
    """Global-phase-invariant fidelity |tr(ideal+ actual)| / d of two
    operators with the same dimension, layout and, if composite, dims."""
    _require_same_space(actual, ideal)
    return float(np.abs(np.trace(ideal.mat.conj().T @ actual.mat)) / actual.dim)


def motional_independence_metric(u: OperatorMatrix, n_limit: int) -> float:
    """How far a composite unitary is from internal x motional-identity.

    Extracts the internal blocks <n|U|m> for Fock indices n, m <= n_limit and
    returns the largest of ||V_n - V_0||_max (diagonal blocks) and
    ||<n|U|m>||_max for n != m (off-diagonal blocks). Zero iff the restriction
    is W x I for a single internal W.
    """
    if u.layout != "composite" or u.dims is None:
        raise ValueError("metric requires a composite operator with dims")
    d_i, d_m = u.dims
    n_max = d_m - 1
    if not 0 <= n_limit <= n_max // 2:
        raise ValueError(
            f"n_limit={n_limit} is outside [0, n_max/2={n_max // 2}]; blocks "
            "beyond n_max/2 are truncation-corrupted by construction"
        )
    blocks = u.mat.reshape(d_i, d_m, d_i, d_m)
    kept = blocks[:, : n_limit + 1, :, : n_limit + 1].copy()
    diagonal = np.arange(n_limit + 1)
    kept[:, diagonal, :, diagonal] -= blocks[:, 0, :, 0]
    return float(np.abs(kept).max())


def _sector_independence_metric(n_ions: int, blocks: np.ndarray, n_limit: int) -> float:
    """`motional_independence_metric(sector_sum(n_ions, blocks), n_limit)`
    without the composite operator: its kept block (i, j) is
    sum_k P_k[i, j] (U_k[n, m] - delta_nm U_k[0, 0]) for n, m <= n_limit, one
    block per Hamming distance of (i, j) (`hilbert._sector_coefficients`)."""
    kept = blocks[:, : n_limit + 1, : n_limit + 1].copy()
    diagonal = np.arange(n_limit + 1)
    kept[:, diagonal, diagonal] -= blocks[:, :1, 0]
    table = np.array([_sector_coefficients(n_ions, w) for w in range(n_ions + 1)])
    return float(np.abs(np.tensordot(table, kept, (1, 0))).max())


def leakage_population(state: QuantumState, n_threshold: int | None = None) -> float:
    """Population with Fock index above n_threshold (default n_max/2).

    Displacements transport population toward the cutoff; anything parked in
    the upper half of the Fock ladder is a truncation artifact to monitor,
    not physics.
    """
    if state.layout == "composite" and state.dims is not None:
        d_i, d_m = state.dims
    elif state.layout == "motion":
        d_i, d_m = 1, state.dim
    else:
        raise ValueError("leakage requires a composite or motional state")
    if n_threshold is None:
        n_threshold = (d_m - 1) // 2
    if n_threshold < 0:
        raise ValueError(f"n_threshold must be >= 0, got {n_threshold}")
    if state.kind == "pure":
        probs = np.abs(state.data.reshape(d_i, d_m)) ** 2
    else:
        probs = np.real(np.diagonal(state.data)).reshape(d_i, d_m)
    return float(_weight_above(probs, n_threshold).sum())


def _weight_above(populations: np.ndarray, n_threshold: int) -> np.ndarray:
    # population above Fock index n_threshold, summed over the last axis
    return populations[..., n_threshold + 1 :].sum(-1)


def _flags(leak: float) -> tuple[str, ...]:
    # a NaN leakage is flagged too: nothing says the cutoff holds
    return () if leak <= LEAKAGE_THRESHOLD else (TRUNCATION_FLAG,)


def _worst(values) -> float:
    # the largest value, NaN if any is NaN, where max() keeps the first of
    # two values it cannot compare
    return float(np.max(values))


def _ghz_maximum(rho_gg: float, rho_ee: float, rho_eg: complex) -> tuple[float, float]:
    # (rho_GG + rho_EE + 2 |rho_EG|)/2 at phi_e - phi_g = arg(rho_EG)
    fid = (rho_gg + rho_ee + 2.0 * np.abs(rho_eg)) / 2.0
    return _unit(fid), float(np.angle(rho_eg))


def ghz_fidelity(rho_internal: QuantumState) -> tuple[float, float]:
    """Best fidelity of an internal state to any equal GHZ superposition,
    and the relative phase.

    Maximizing <psi|rho|psi> over the two phases of
    (e^{i phi_g}|g..g> + e^{i phi_e}|e..e>)/sqrt(2) gives
    (rho_GG + rho_EE + 2 |rho_EG|)/2, attained at phi_e - phi_g =
    arg(rho_EG), which is returned as the measured relative phase.
    """
    if rho_internal.layout != "internal":
        raise ValueError("ghz_fidelity needs an internal state")
    rho = rho_internal.density()
    g, e = 0, rho.shape[0] - 1
    return _ghz_maximum(rho[g, g].real, rho[e, e].real, rho[e, g])


def _populations(motion: QuantumState, params: ModelParams) -> np.ndarray:
    # the populations of a motion diagonal in the Fock basis, the only motion
    # the truth table and `ghz_check` read; roundoff negatives count as 0
    if motion.layout != "motion" or motion.dim != params.dim_motion:
        raise ValueError(f"motion must be a motional state of n_max={params.n_max}")
    rho = motion.density()
    if np.count_nonzero(rho) != np.count_nonzero(rho.diagonal()):
        raise ValueError("motion must be diagonal in the Fock basis")
    return np.clip(rho.diagonal().real, 0.0, None)


@dataclass(frozen=True)
class TruthTableReport:
    """Per-input truth-table results for one parameter point."""

    model: str
    input_labels: tuple[str, ...]
    internal_fidelities: tuple[float, ...]
    restoration_fidelities: tuple[float, ...]
    composite_fidelities: tuple[float, ...]
    leakage: float
    flags: tuple[str, ...]

    @property
    def gate_infidelity(self) -> float:
        """One minus the mean composite fidelity over the inputs."""
        return _infidelity(float(np.mean(self.composite_fidelities)))


def truth_table_check(
    params: ModelParams,
    motion: QuantumState,
    model: str = "ld",
    u: OperatorMatrix | None = None,
) -> TruthTableReport:
    """Evolve every |+/-> product input with the given motional state for one
    trap period and compare against the ideal truth-table images.

    Reports, per input: the internal fidelity after tracing out motion, the
    motional restoration fidelity after tracing out the ions, and the
    composite fidelity against image x restored motion (the phase-sensitive
    quantity used as the gate infidelity). Without `u`, the resonant
    one-period sector propagators U_k of the model are built for this call
    and read directly: an input in sector k leaves as |v><v| x U_k rho U_k+,
    so every quantity, its composite spectrum included (module docstring),
    is computed once per sector, and no composite propagator is built.

    Any finite unitary composite `u` with the model's dims is accepted
    instead, a detuned one from the dense oracle included. Unitarity is then
    checked per input as W+W = I to 1e-10, on the (n_max+1)-sized block that
    the composite fidelity relies on; a `u` that fails it raises
    `ValueError`, and so do an unknown `model` and a `motion` that is not a
    motional state diagonal in the Fock basis, also with `u` given. Both
    routes evaluate every quantity with one kernel (`_evolution`) and
    differ only in the blocks they hand it and in the d x d matrices whose
    spectra give the composite fidelities, one per sector or one per input.
    """
    _require_model(model)
    p = _populations(motion, params)
    if u is None:
        return _sector_table(params, sector_propagators(params, params.tau, model), p, model)
    dims = params.dim_internal, params.dim_motion
    if u.dims != dims:
        raise ValueError(f"propagator dims {u.dims} do not match the model dims {dims}")
    # the only finiteness check: every quantity below is built from u and motion
    if not np.isfinite(u.mat).all():
        raise ValueError("propagator must be finite")
    sqrt_p = np.sqrt(p)
    signs, labels, _ = _pm_products(params.n_ions)
    # column block i of u is U (|i> x I_m); the reshape is a view, not a copy
    columns = u.mat.reshape(params.dim, *dims)
    evaluations = []
    for column in signs.T:
        vec = column / np.sqrt(2.0**params.n_ions)
        # U (|v><v| x rho) U+ = W rho W+ with the isometry W = U (|v> x I_m)
        w = np.einsum("xim,i->xm", columns, vec)
        # W+W = I_m holds for a unitary u, and sqrt(W rho W+) = X W+ needs
        # it; checking u+u would cost d^3
        if not np.abs(w.conj().T @ w - np.eye(dims[1])).max() <= 1e-10:
            raise ValueError("propagator must be unitary")
        # g_k drops out of |Gv><Gv|, so v's coefficients stand for Gv's
        *evolution, z = _evolution(w, vec, sqrt_p)
        evaluations.append((*evolution, _trace_sqrt_squared(z @ z.conj().T)))
    return _report(params, model, labels, evaluations)


def _sector_table(
    params: ModelParams, blocks: np.ndarray, p: np.ndarray, model: str
) -> TruthTableReport:
    # the truth table from the one-period sector propagators U_k: an input v
    # in sector k leaves as |v><v| x U_k rho U_k+, so its one block is U_k,
    # with coefficient 1 (g_k drops out of |Gv><Gv|), and the sector's first
    # input gives the spectrum of all, to roundoff (module docstring)
    sqrt_p = np.sqrt(p)
    signs, labels, sectors = _pm_products(params.n_ions)
    firsts = signs.T[2 ** np.arange(params.n_ions + 1) - 1]
    per_sector = []
    for block, column in zip(blocks, firsts):
        *evolution, z = _evolution(block, np.ones(1), sqrt_p)
        # |v><v| = s s^T / 2^N is exact; the kron is built per sector, so
        # that one d x d matrix is alive at a time
        outer = np.outer(column, column) / 2.0**params.n_ions
        per_sector.append((*evolution, _trace_sqrt_squared(np.kron(outer, z @ z.conj().T))))
    return _report(params, model, labels, [per_sector[k] for k in sectors])


def _fanned_out(fn, items: list, dim: int) -> list:
    # [fn(item) for item in items], with the odd items in one forked child
    # from d = `_FORK_MIN_DIM` on, while this process has one OS thread and
    # its affinity two CPUs. The child sends its results as one pickled list
    # (floats keep their bits) and the warnings it would have shown, which
    # are shown here; it runs the same code on the same single-threaded BLAS,
    # so the results are bitwise the same. A share the child does not
    # deliver (a refused fork, an exception, a kill) is computed here, so a
    # deterministic error is raised by this process's own call. fork()
    # copies only the calling thread, so a lock that another thread holds
    # (an OpenBLAS pool's among them) stays held in the child: forking
    # beside OpenBLAS's pool made a 0.74 s N=3 sweep take 14.9 s
    try:
        forks = (
            len(items) > 1
            and dim >= _FORK_MIN_DIM
            and len(os.listdir("/proc/self/task")) == 1
            and len(os.sched_getaffinity(0)) > 1
        )
    except (OSError, AttributeError):
        # no /proc or no sched_getaffinity: not Linux
        forks = False
    if not forks:
        return [fn(item) for item in items]
    try:
        read, write = os.pipe()
    except OSError:
        # a refused pipe (EMFILE, ENFILE)
        return [fn(item) for item in items]
    # loaded with numpy already
    import pickle

    try:
        pid = os.fork()
    except OSError:
        # a refused fork (EAGAIN, ENOMEM): no one writes to the pipe
        pid = None
    if pid == 0:
        try:
            # the collector stays off, so it does not touch, and copy, the
            # parent's pages; _exit runs none of the parent's exit handlers
            # and flushes none of its buffers
            gc.disable()
            with warnings.catch_warnings(record=True) as shown:
                rows = [fn(item) for item in items[1::2]]
            shown = [(w.message, w.category, w.filename, w.lineno) for w in shown]
            # the file object writes the whole payload, past the pipe's
            # buffer too
            with os.fdopen(write, "wb") as pipe:
                pipe.write(pickle.dumps((rows, shown)))
        finally:
            os._exit(0)
    os.close(write)
    try:
        # closed before the child is reaped, so a child still writing fails
        # instead of blocking
        with os.fdopen(read, "rb") as pipe:
            try:
                mine = [fn(item) for item in items[::2]]
            except Exception:
                mine = None
            payload = pipe.read()
    finally:
        if pid is not None:
            os.waitpid(pid, 0)
    if mine is None:
        # all again, in order: the error raised is the first one an
        # in-process run meets, in the child's share or in this one
        return [fn(item) for item in items]
    try:
        theirs, shown = pickle.loads(payload)
    except Exception:
        # no payload or a cut one
        theirs, shown = None, []
    if theirs is None:
        theirs = [fn(item) for item in items[1::2]]
    # shown once, as in-process: this module's registry is the one a warning
    # raised for a call from here is recorded in
    registry = globals().setdefault("__warningregistry__", {})
    for warning in shown:
        warnings.warn_explicit(*warning, registry=registry)
    out = [None] * len(items)
    out[::2], out[1::2] = mine, theirs
    return out


def _report(
    params: ModelParams, model: str, labels: tuple[str, ...], evaluations: list
) -> TruthTableReport:
    # the report of per-input (populations, internal, restoration,
    # composite) evaluations, with the leakage of the worst input
    populations, internal, restoration, composite = zip(*evaluations)
    leak = _worst([_weight_above(pops, params.n_max // 2) for pops in populations])
    return TruthTableReport(
        model=model,
        input_labels=labels,
        internal_fidelities=tuple(map(_unit, internal)),
        restoration_fidelities=tuple(map(_unit, restoration)),
        composite_fidelities=tuple(map(_unit, composite)),
        leakage=leak,
        flags=_flags(leak),
    )


def _evolution(
    w: np.ndarray, image: np.ndarray, sqrt_p: np.ndarray
) -> tuple[np.ndarray, float, float, np.ndarray]:
    # one truth-table evolution from W = U (|v> x I_m), whose row blocks are
    # w[i] = (<i| x I) U (|v> x I), the image coefficients <i|Gv> (to a
    # phase, which drops out of every quantity) and sqrt(rho) = diag(sqrt_p);
    # W rho W+ is X X+ with X = W sqrt(rho). Returns the motional populations
    # of the output, the internal fidelity, the restoration fidelity and the
    # factor Z of the composite Uhlmann matrix
    dims = len(image), len(sqrt_p)
    x = w * sqrt_p
    # the restored motion is M M+, so F(rho, M M+) needs no square root of
    # it, and its diagonal is the row norms of M
    m = _kept_factor(x, dims, "motion")
    restoration = _trace_norm_squared(sqrt_p[:, None] * m)
    # Y = (<Gv| x I) W; the internal fidelity <Gv| tr_m(X X+) |Gv> is the
    # squared norm of Y sqrt(rho)
    y = (image.conj() @ w.reshape(dims[0], -1)).reshape(dims[1], dims[1])
    internal = _row_norms(y * sqrt_p).sum()
    # composite fidelity against |Gv><Gv| x rho: sqrt(W rho W+) is X W+, so
    # the Uhlmann matrix is W S W+ with S = B+B, B = sqrt(rho) Y sqrt(rho);
    # then W S W+ = Z Z+ with Z = W B+ = X Y+ sqrt(rho)
    z = x @ (y.conj().T * sqrt_p)
    return _row_norms(m), internal, restoration, z


def _row_norms(m: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", m, m.conj()).real


@dataclass(frozen=True)
class GhzReport:
    """GHZ generation results for one recipe run."""

    model: str
    fidelity: float
    rel_phase: float
    expected_rel_phase: float | None
    phase_deviation: float | None
    leakage: float
    flags: tuple[str, ...]


def ghz_check(
    n_ions: int, eta: float, motion: QuantumState, n_pad: int = 10, model: str = "ld"
) -> GhzReport:
    """Run the even/odd GHZ recipe from |g...g> with the given motional input
    and measure the phase-maximized GHZ fidelity and relative phase.

    The pulse is resonant, so it acts on the J_x sectors separately. In the
    |+/-> basis |g...g> and |e...e> put weight c_k = C(N, k) / 2^N on the
    sector with k minus signs, with relative sign (-1)^k (the w = 0 and
    w = N columns of `hilbert._sector_coefficients`), so the three GHZ
    elements of the internal state follow from the sector overlaps
    M_ab = tr(U_a rho U_b+):

        rho_GG = sum c_a c_b M_ab,  rho_EG = sum (-1)^a c_a c_b M_ab,
        rho_EE = sum (-1)^(a+b) c_a c_b M_ab,

    and the leakage is sum_k c_k times the weight of U_k rho U_k+ above
    n_max/2, for rho = diag(p). Nothing of size 2^N is built. The Fock
    cutoff n_max is the motion's; a `motion` that is not a motional state
    diagonal in the Fock basis raises.
    """
    solution, expected = ghz_recipe(n_ions, eta)
    # refused before its dimension is read as the cutoff
    if motion.layout != "motion":
        raise ValueError("motion must be a motional state")
    params = solution.model_params(n_ions=n_ions, n_max=motion.dim - 1, n_pad=n_pad)
    p = _populations(motion, params)
    u = sector_propagators(params, params.tau, model)
    moved, u_conj = u * p, u.conj()
    # tr(U_a rho U_b+) = sum_ij (U_a rho)_ij conj(U_b)_ij, all pairs in one product
    overlaps = moved.reshape(n_ions + 1, -1) @ u_conj.reshape(n_ions + 1, -1).T
    weights = np.array(_sector_coefficients(n_ions, 0))
    signed = np.array(_sector_coefficients(n_ions, n_ions))
    fid, phase = _ghz_maximum(
        (weights @ overlaps @ weights).real,
        (signed @ overlaps @ signed).real,
        signed @ overlaps @ weights,
    )
    populations = np.einsum("kij,kij->ki", moved, u_conj).real
    leak = float(weights @ _weight_above(populations, params.n_max // 2))
    deviation = None
    if expected is not None:
        # wrapped into [0, pi]
        deviation = abs(float(np.angle(np.exp(1j * (phase - expected)))))
    return GhzReport(
        model=model,
        fidelity=fid,
        rel_phase=phase,
        expected_rel_phase=expected,
        phase_deviation=deviation,
        leakage=leak,
        flags=_flags(leak),
    )


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a Lamb-Dicke error sweep."""

    eta: float
    nbar: float
    n_max: int
    infidelity_gate: float | None
    infidelity_ghz: float | None
    leakage: float | None
    flags: tuple[str, ...]
    error: str | None
    runtime_s: float


def lamb_dicke_error_sweep(
    eta_grid,
    nbar_grid,
    n_ions: int = 2,
    n_max: int = 40,
    n_pad: int = 10,
    model: str = "full",
) -> tuple[SweepPoint, ...]:
    """Gate and GHZ infidelity over an (eta, nbar) grid.

    At each (eta, nbar) point the gate parameters are solved and
    `truth_table_check` and `ghz_check` run with thermal(nbar) motion, each
    building its own one-period sector propagators. The composite gate
    infidelity is recorded together with the GHZ infidelity of the recipe,
    the larger leakage above n_max/2 of the two, and a truncation flag when
    that leakage exceeds 1e-6. A solver failure (`RuntimeError`) is recorded
    as the row's error, the same for every nbar of that eta, and the sweep
    continues; an invalid argument raises `ValueError` at its first use.

    Returns one row per point, eta-major, as `truncation_convergence`
    returns its rows; the caller holds the grids and settings it passed.
    The sweep is deterministic: reruns differ only in `runtime_s`. When
    d = 2^N (n_max+1) >= `_FORK_MIN_DIM`, the process has one OS thread and
    its affinity two CPUs, every other point of a grid of two or more runs
    in one forked child (`_fanned_out`, module docstring), with the same
    rows, errors and warnings as in-process, the child's warnings shown
    after the others. Nothing else forks.
    """
    eta_values = tuple(float(x) for x in eta_grid)
    nbar_values = tuple(float(x) for x in nbar_grid)
    if not eta_values or not nbar_values:
        raise ValueError("sweep grids must be nonempty")

    def row(point: tuple[float, float]) -> SweepPoint:
        eta, nbar = point
        t0 = time.perf_counter()
        try:
            # solved at every point, so a solver failure fails every nbar of
            # its eta with the same message
            params = solve_gate_params(eta).model_params(
                n_ions=n_ions, n_max=n_max, n_pad=n_pad
            )
            motion = thermal_state(ThermalSpec(nbar=nbar, n_max=n_max))
            table = truth_table_check(params, motion, model)
            ghz = ghz_check(n_ions, eta, motion, n_pad=n_pad, model=model)
            leak = _worst([table.leakage, ghz.leakage])
            outcome = dict(
                infidelity_gate=table.gate_infidelity,
                infidelity_ghz=_infidelity(ghz.fidelity),
                leakage=leak,
                flags=_flags(leak),
                error=None,
            )
        except RuntimeError as exc:
            outcome = dict(
                infidelity_gate=None,
                infidelity_ghz=None,
                leakage=None,
                flags=(),
                error=str(exc),
            )
        return SweepPoint(
            eta=eta, nbar=nbar, n_max=n_max, **outcome, runtime_s=time.perf_counter() - t0
        )

    points = [(eta, nbar) for eta in eta_values for nbar in nbar_values]
    return tuple(_fanned_out(row, points, 2**n_ions * (n_max + 1)))


@dataclass(frozen=True)
class ConvergenceRow:
    """Gate infidelity and independence metric at one Fock cutoff."""

    n_max: int
    gate_infidelity: float
    metric: float
    diff_infidelity: float | None
    diff_metric: float | None


def truncation_convergence(
    solution: GateSolution,
    n_max_list,
    nbar: float = 2.0,
    n_ions: int = 2,
    n_pad: int = 10,
    model: str = "ld",
) -> tuple[ConvergenceRow, ...]:
    """Gate infidelity and motional-independence metric of the pulse
    `solution` per Fock cutoff, with successive differences. The cutoff list
    must be strictly increasing."""
    n_list = [int(n) for n in n_max_list]
    if not n_list:
        raise ValueError("n_max_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_max_list must be strictly increasing, got {n_list}")
    rows: list[ConvergenceRow] = []
    for n in n_list:
        point = solution.model_params(n_ions=n_ions, n_max=n, n_pad=n_pad)
        motion = thermal_state(ThermalSpec(nbar=nbar, n_max=n))
        # one build of the sector blocks serves the table and the metric
        blocks = sector_propagators(point, point.tau, model)
        table = _sector_table(point, blocks, _populations(motion, point), model)
        metric = _sector_independence_metric(point.n_ions, blocks, n // 2)
        prev = rows[-1] if rows else None
        rows.append(
            ConvergenceRow(
                n_max=n,
                gate_infidelity=table.gate_infidelity,
                metric=metric,
                diff_infidelity=(
                    None if prev is None else abs(table.gate_infidelity - prev.gate_infidelity)
                ),
                diff_metric=None if prev is None else abs(metric - prev.metric),
            )
        )
    return tuple(rows)
