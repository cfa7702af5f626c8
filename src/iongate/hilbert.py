"""Composite Hilbert space for N two-level ions and one truncated oscillator mode.

Conventions (normative for every module in this package):

- Composite basis index: ``index = s * (n_max + 1) + n`` where ``s`` is the
  internal index over ion states (ion 1 is the most significant bit, bit value
  0 is |g>, bit value 1 is |e>) and ``n`` is the Fock index of the motional
  mode. Equivalently, composite operators are ``kron(internal, motion)``.
- Pauli operators have eigenvalues +/-1 with sigma_z = |e><e| - |g><g| and
  sigma_x = |e><g| + |g><e|, so in the per-ion (g, e) ordering sigma_z is
  diag(-1, +1).
- The trap frequency omega_a is the unit: times are in units of 1/omega_a,
  so one trap period is 2 pi, and every other rate is stored as a ratio to
  omega_a.
- The J_x sector basis is owned here: `_pm_products` gives the 2^N |+/->
  products as +/-1 columns with their sector k, `_sector_m` the J_x
  eigenvalue m = N - 2k of each sector, `_sector_coefficients` the entries
  of the sector projectors P_k in closed form, and every sector-resolved
  quantity reads them.
- Every function of a Hermitian matrix (sine, exponential, square root) is
  formed by `_hermitian_function`, the package's one call of numpy's eigh.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Literal

from ._numpy import np

Layout = Literal["internal", "motion", "composite"]


@functools.cache
def _pauli() -> dict[str, np.ndarray]:
    """The single-ion Pauli matrices in (g, e) ordering, eigenvalues +/-1,
    exported as `PAULI`."""
    return {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, 1j], [-1j, 0]], dtype=complex),
        "z": np.array([[-1, 0], [0, 1]], dtype=complex),
    }


def __getattr__(name: str):
    # PAULI is built on first use, so that importing this module loads no numpy
    if name == "PAULI":
        return _pauli()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _pm_columns() -> np.ndarray:
    """Columns |+> = (1, 1) and |-> = (-1, 1) in (g, e) ordering, unnormalized."""
    return np.array([[1.0, -1.0], [1.0, 1.0]])


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of a single standing-wave pulse.

    Parameters
    ----------
    eta : float
        Lamb-Dicke parameter, > 0.
    omega_ratio : float
        Rabi frequency over trap frequency, Omega / omega_a, >= 0.
    theta : float
        Standing-wave offset angle in radians.
    delta : float
        Carrier detuning in units of omega_a (0 means resonance).
    n_ions : int
        Number of ions N >= 1.
    n_max : int
        Fock truncation; the motional space is span{|0>, ..., |n_max>}.
    n_pad : int
        Extra Fock levels used while constructing nonlinear operators.
    """

    eta: float
    omega_ratio: float
    theta: float
    delta: float = 0.0
    n_ions: int = 2
    n_max: int = 40
    n_pad: int = 10

    def __post_init__(self):
        for name in ("eta", "omega_ratio", "theta", "delta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.omega_ratio < 0:
            raise ValueError(f"omega_ratio must be >= 0, got {self.omega_ratio}")
        if self.n_ions < 1:
            raise ValueError(f"n_ions must be >= 1, got {self.n_ions}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.n_pad < 0:
            raise ValueError(f"n_pad must be >= 0, got {self.n_pad}")

    @property
    def tau(self) -> float:
        """One trap period, 2 pi / omega_a = 2 pi."""
        return 2.0 * math.pi

    @property
    def dim_internal(self) -> int:
        return 2 ** self.n_ions

    @property
    def dim_motion(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return self.dim_internal * self.dim_motion


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense square matrix tagged with its Hilbert-space layout.

    The matrix is float64 when its data are real and complex128 otherwise.

    ``dims = (dim_internal, dim_motion)`` is set for composite layout so that
    consumers can undo the tensor structure without carrying ModelParams
    around.
    """

    mat: np.ndarray
    layout: Layout
    dims: tuple[int, int] | None = None

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex if np.iscomplexobj(self.mat) else float)
        object.__setattr__(self, "mat", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be square, got shape {m.shape}")
        if self.layout == "composite":
            if self.dims is None:
                raise ValueError("composite operators must declare dims")
            if self.dims[0] * self.dims[1] != m.shape[0]:
                raise ValueError(
                    f"dims {self.dims} inconsistent with matrix dim {m.shape[0]}"
                )

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return np.abs(self.mat - self.mat.conj().T).max() <= tol


@dataclass(frozen=True)
class QuantumState:
    """Pure state vector or density matrix with a layout tag.

    Every construction checks that the data are finite, that a vector has
    unit norm, and that a matrix is Hermitian with unit trace and no
    eigenvalue below -1e-12, each within 1e-12.
    """

    kind: Literal["pure", "mixed"]
    data: np.ndarray
    layout: Layout
    dims: tuple[int, int] | None = None

    def __post_init__(self):
        d = np.asarray(self.data, dtype=complex)
        object.__setattr__(self, "data", d)
        # the comparisons below are written `not (x <= tol)` so that NaN fails
        if not np.isfinite(d).all():
            raise ValueError("state data must be finite")
        if self.kind == "pure":
            if d.ndim != 1:
                raise ValueError("pure state data must be a vector")
            norm = np.linalg.norm(d)
            if not abs(norm - 1.0) <= 1e-12:
                raise ValueError(f"pure state norm {norm} deviates from 1")
        else:
            if d.ndim != 2 or d.shape[0] != d.shape[1]:
                raise ValueError("mixed state data must be a square matrix")
            if not np.abs(d - d.conj().T).max() <= 1e-12:
                raise ValueError("density matrix must be Hermitian")
            tr = np.trace(d).real
            if not abs(tr - 1.0) <= 1e-12:
                raise ValueError(f"density matrix trace {tr} deviates from 1")
            # no eigenvalue below -1e-12 iff d + 1e-12 I is positive definite,
            # which a Cholesky factorisation decides without an eigensolve;
            # it returns NaNs instead of failing on non-finite data, which
            # the check above rules out. The shift goes in place onto one
            # copy, so the caller's array is untouched.
            shifted = d.copy()
            shifted.flat[:: d.shape[0] + 1] += 1e-12
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                raise ValueError("density matrix has a negative eigenvalue") from None
        if self.layout == "composite":
            if self.dims is None:
                raise ValueError("composite states must declare dims")
            if self.dims[0] * self.dims[1] != d.shape[0]:
                raise ValueError(
                    f"dims {self.dims} inconsistent with state dim {d.shape[0]}"
                )

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def density(self) -> np.ndarray:
        """Density-matrix form regardless of kind."""
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return self.data


def _require_same_space(a, b) -> None:
    # states and operators of one space share dimension, layout and dims
    for attr in ("dim", "layout", "dims"):
        x, y = getattr(a, attr), getattr(b, attr)
        if x != y:
            raise ValueError(f"{attr} mismatch: {x} vs {y}")


@dataclass(frozen=True)
class ThermalSpec:
    """Thermal motional state specification at mean occupation nbar.

    Populations follow p_n = nbar^n / (1 + nbar)^(n+1), a geometric
    distribution with ratio q = nbar / (1 + nbar); on the truncated basis they
    are renormalized and the discarded tail weight q^(n_max+1) is reported.
    """

    nbar: float
    n_max: int

    def __post_init__(self):
        if not (np.isfinite(self.nbar) and self.nbar >= 0):
            raise ValueError(f"nbar must be finite and >= 0, got {self.nbar}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def populations(self) -> np.ndarray:
        """Renormalized populations on |0>..|n_max>."""
        q = self.nbar / (1.0 + self.nbar)
        if 1.0 - q == 0.0:
            # from nbar ~ 1e16 on, q rounds to 1 and the formula below is 0/0;
            # the truncated distribution tends to uniform as q -> 1
            return np.full(self.n_max + 1, 1.0 / (self.n_max + 1))
        p = (1.0 - q) * q ** np.arange(self.n_max + 1)
        return p / p.sum()

    @property
    def tail_weight(self) -> float:
        """Probability mass above the cutoff before renormalization."""
        q = self.nbar / (1.0 + self.nbar)
        return float(q ** (self.n_max + 1))


def ladder_operators(n_max: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Annihilation and creation operators on the truncated Fock space.

    Returns (a, a_dagger) with a[n-1, n] = sqrt(n). The canonical commutator
    [a, a+] = 1 holds exactly on rows 0..n_max-1 and is necessarily violated
    on the cutoff row.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    dim = n_max + 1
    a = np.zeros((dim, dim))
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return OperatorMatrix(a, "motion"), OperatorMatrix(a.T, "motion")


def collective_spin(n_ions: int, axis: Literal["x", "y", "z"]) -> OperatorMatrix:
    """Collective spin operator J_axis, the sum of single-ion Paulis.

    Eigenvalues run over {-N, -N+2, ..., N} for axis x and z by the +/-1
    single-ion convention.
    """
    if n_ions < 1:
        raise ValueError(f"n_ions must be >= 1, got {n_ions}")
    if axis not in _pauli():
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    sigma = _pauli()[axis]
    dim = 2 ** n_ions
    total = np.zeros((dim, dim), dtype=complex)
    for i in range(n_ions):
        op = np.eye(1, dtype=complex)
        for k in range(n_ions):
            op = np.kron(op, sigma if k == i else np.eye(2, dtype=complex))
        total += op
    return OperatorMatrix(total, "internal")


def embed(internal_op: OperatorMatrix, motion_op: OperatorMatrix) -> OperatorMatrix:
    """Tensor two factor operators into the composite layout."""
    if internal_op.layout != "internal":
        raise ValueError(f"first factor must be internal, got {internal_op.layout}")
    if motion_op.layout != "motion":
        raise ValueError(f"second factor must be motion, got {motion_op.layout}")
    mat = np.kron(internal_op.mat, motion_op.mat)
    return OperatorMatrix(mat, "composite", dims=(internal_op.dim, motion_op.dim))


def _hermitian_function(mat: np.ndarray, f) -> np.ndarray:
    """V f(Lambda) V+ from one eigh of a Hermitian matrix or a stack of them;
    f(Lambda) may add leading axes. A real V (whose conj() is V itself) with a
    complex f(Lambda) gives two real products, with no complex copy of V."""
    vals, vecs = np.linalg.eigh(mat)
    fvals = f(vals)[..., None, :]
    vecs_h = vecs.conj().swapaxes(-1, -2)
    if np.iscomplexobj(vecs) or not np.iscomplexobj(fvals):
        return (vecs * fvals) @ vecs_h
    out = ((vecs * fvals.real) @ vecs_h).astype(complex)
    out.imag = (vecs * fvals.imag) @ vecs_h
    return out


def position_sine_operator(params: ModelParams) -> OperatorMatrix:
    """Operator sine of the ion position phase, sin(eta (a + a+) + theta).

    The argument mixes Fock levels, so the operator is built at the padded
    cutoff n_max + n_pad as a function of a Hermitian matrix
    (`_hermitian_function`), and truncated back to n_max + 1 dimensions.
    Padding keeps the truncated block accurate; the n_pad-doubling check in
    the tests bounds the residual.
    The operator is real symmetric in the Fock basis.
    """
    a, ad = ladder_operators(params.n_max + params.n_pad)
    x = params.eta * (a.mat + ad.mat) + params.theta * np.eye(a.dim)
    s = _hermitian_function(x, np.sin)[: params.n_max + 1, : params.n_max + 1]
    # symmetrize away the 1e-16 asymmetry left by the matrix products
    s = (s + s.T) / 2.0
    return OperatorMatrix(s, "motion")


def thermal_state(spec: ThermalSpec) -> QuantumState:
    """Thermal motional density matrix; warns when the cutoff discards
    more than 1e-6 probability (the state is still renormalized and valid)."""
    if spec.tail_weight > 1e-6:
        warnings.warn(
            f"thermal tail weight {spec.tail_weight:.3e} above the cutoff "
            f"n_max={spec.n_max} exceeds 1e-6; results may be truncation-limited",
            stacklevel=2,
        )
    return QuantumState("mixed", np.diag(spec.populations).astype(complex), "motion")


def fock_state(n: int, n_max: int) -> QuantumState:
    """Motional number state |n> on the truncated space."""
    if not 0 <= n <= n_max:
        raise ValueError(f"need 0 <= n <= n_max, got n={n}, n_max={n_max}")
    v = np.zeros(n_max + 1, dtype=complex)
    v[n] = 1.0
    return QuantumState("pure", v, "motion")


def _single_ion_vector(symbol: str) -> np.ndarray:
    # (g, e) ordering: the columns |g>, |e>, then |+-> = (|e> +- |g>)/sqrt(2)
    if len(symbol) != 1 or symbol not in "ge+-":
        raise ValueError(f"unknown ion state symbol {symbol!r}")
    columns = np.hstack([np.eye(2), _pm_columns() / np.sqrt(2)])
    return columns[:, "ge+-".index(symbol)].astype(complex)


def _sector_m(n_ions: int) -> range:
    """J_x eigenvalue m = N - 2k of each sector k = 0..N, the one owner of
    the sector order; a `range`, so that it needs no numpy."""
    return range(n_ions, -n_ions - 1, -2)


def _pm_products(n_ions: int) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """The 2^N |+/-> products as the +/-1 columns of S (S S^T = 2^N I), in
    kron order with ion 1 first, with their sign strings (so in sorted order)
    and their sector k, the number of minus signs."""
    if n_ions < 1:
        raise ValueError(f"n_ions must be >= 1, got {n_ions}")
    columns, signs, labels = _pm_columns(), np.ones((1, 1)), [""]
    for _ in range(n_ions):
        signs = np.kron(signs, columns)
        labels = [label + sign for label in labels for sign in "+-"]
    return signs, tuple(labels), np.array([label.count("-") for label in labels])


def _sector_coefficients(n_ions: int, distance: int) -> list[float]:
    """P_k[i, j] for k = 0..N at Hamming distance w = popcount(i ^ j), for the
    J_x sector projectors P_k = S_k S_k^T / 2^N (S_k the +/-1 columns of
    `_pm_products` in sector k): the Krawtchouk value K_k(w) = sum_l (-1)^l
    C(w, l) C(N - w, k - l), an exact integer, over 2^N, rounded once (also
    past int64 and the float range); one term per k at w = 0 and w = N."""
    return [
        sum(
            (-1) ** l * math.comb(distance, l) * math.comb(n_ions - distance, k - l)
            for l in range(max(0, k - n_ions + distance), min(k, distance) + 1)
        ) / 2**n_ions
        for k in range(n_ions + 1)
    ]


def internal_product_state(symbols: str) -> QuantumState:
    """Product state of per-ion symbols from {g, e, +, -}, ion 1 first."""
    if not symbols:
        raise ValueError("need at least one ion symbol")
    vec = np.eye(1, dtype=complex)[0]
    for sym in symbols:
        vec = np.kron(vec, _single_ion_vector(sym))
    return QuantumState("pure", vec, "internal")


def standard_states(n_ions: int) -> dict[str, QuantumState]:
    """The reference internal states: all-ground, all-excited, and every
    |+/-> product, keyed by their symbol strings (e.g. 'ground', '+-')."""
    products = pm_product_states(n_ions)
    ends = {"ground": "g" * n_ions, "excited": "e" * n_ions}
    return {key: internal_product_state(sym) for key, sym in ends.items()} | products


def pm_product_states(n_ions: int) -> dict[str, QuantumState]:
    """Just the 2^N |+/-> product states, keyed by sign strings in the
    sorted order of `_pm_products`."""
    signs, labels, _ = _pm_products(n_ions)
    vecs = signs.T.astype(complex) / np.sqrt(2.0**n_ions)
    return {label: QuantumState("pure", v, "internal") for label, v in zip(labels, vecs)}


def composite_pure(internal: QuantumState, motion: QuantumState) -> QuantumState:
    """Tensor a pure internal state with a pure motional state."""
    if internal.kind != "pure" or motion.kind != "pure":
        raise ValueError("composite_pure requires two pure states")
    vec = np.kron(internal.data, motion.data)
    return QuantumState("pure", vec, "composite", dims=(internal.dim, motion.dim))


def composite_mixed(internal: QuantumState, motion: QuantumState) -> QuantumState:
    """Tensor internal and motional states into a composite density matrix."""
    rho = np.kron(internal.density(), motion.density())
    return QuantumState("mixed", rho, "composite", dims=(internal.dim, motion.dim))
