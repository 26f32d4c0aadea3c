"""Sparse operators on the truncated joint Hilbert space and the vectorized
Liouvillian.

Basis convention (fixed; all emitted data depend on it): atom levels ordered
(g, f, e) = (0, 1, 2), photon-major joint index = 3*photon + atom, joint
dimension D = 3*(n_max+1).

Rotating frame: the frame generated by
omega_d*a^dag a + omega_p|e><e| + (omega_p - omega_d)|f><f| removes the time
dependence of probe and pump simultaneously, leaving

    H = dd*a^dag a + De|e><e| + Df|f><f| + eta(sigma_ef a + h.c.)
        + epsilon(sigma_eg + sigma_ge) + Omega(a^dag + a)

with dd = omega_c - omega_d (the pump detuning), De = Delta - delta/2 and
Df = De + delta - dd; Delta is the probe detuning from the mean of the
vacuum dressed doublet, so at delta = 0, dd = 0: De = Df = Delta. Collapse
operators only pick up global phases in this frame, so the dissipators are
unchanged.

Rate convention: the cavity dissipator with amplitude decay kappa is the
jump operator sqrt(2*kappa)*a, i.e. <a> decays at kappa and the photon
number at 2*kappa. Atomic rates gamma_ij map to jump operators
sqrt(gamma_ij)*sigma_ji. Getting this factor of 2 wrong is the classic bug;
the closed-form/numeric equivalence tests pin it.

Vectorization is column-stacking: vec(rho)[i + D*j] = rho[i, j], so
vec(A rho B) = (B^T kron A) vec(rho).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, ParameterError
from .model import LEVELS, SystemParams, validate_params

_LEVEL_INDEX = {level: i for i, level in enumerate(LEVELS)}


@dataclass(frozen=True)
class HilbertSpec:
    """Truncated joint space: photons 0..n_max times the three atom levels."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ParameterError(f"n_max = {self.n_max} must be >= 1")

    @property
    def dim(self) -> int:
        return 3 * (self.n_max + 1)

    def index(self, n: int, level: str) -> int:
        """Joint basis index of |n, level>."""
        if not 0 <= n <= self.n_max:
            raise ParameterError(f"photon number {n} outside 0..{self.n_max}")
        return 3 * n + _LEVEL_INDEX[level]


@dataclass(frozen=True)
class Operators:
    """Sparse operator set on a HilbertSpec.

    sigma[(i, j)] = |i><j| acting on the atom (identity on photons);
    a, a_dag, n_op act on the cavity mode (identity on the atom).
    """

    spec: HilbertSpec
    a: sp.csr_matrix
    a_dag: sp.csr_matrix
    n_op: sp.csr_matrix
    sigma: dict[tuple[str, str], sp.csr_matrix]


def build_operators(spec: HilbertSpec) -> Operators:
    """Sparse a, a_dag, n_op, sigma_ij on the joint space."""
    dim = spec.dim
    photons = np.arange(spec.n_max + 1)

    def joint(values, rows, cols) -> sp.csr_matrix:
        return sp.csr_matrix((np.asarray(values, dtype=complex), (rows, cols)),
                             shape=(dim, dim))

    # a|n, x> = sqrt(n)|n-1, x>: row 3(n-1) + x, column 3n + x
    lower = (3 * photons[:-1, None] + np.arange(3)).ravel()
    a = joint(np.repeat(np.sqrt(photons[1:]), 3), lower, lower + 3)
    sigma = {(i, j): joint(np.ones(photons.size), 3 * photons + _LEVEL_INDEX[i],
                           3 * photons + _LEVEL_INDEX[j])
             for i in LEVELS for j in LEVELS}
    return Operators(spec=spec, a=a, a_dag=a.conj().T.tocsr(),
                     n_op=(a.conj().T @ a).tocsr(), sigma=sigma)


def build_hamiltonian_rotating(params: SystemParams, Delta: float,
                               spec: HilbertSpec, *,
                               epsilon: float | None = None) -> sp.csr_matrix:
    """Static rotating-frame Hamiltonian at probe detuning Delta.

    epsilon overrides params.epsilon (0 gives the probe-free generator used
    by the linear-response solver). Hermiticity is asserted at build time.
    """
    return _hamiltonian(validate_params(params), Delta, build_operators(spec),
                        epsilon)


def _hamiltonian(params: SystemParams, Delta: float, ops: Operators,
                 epsilon: float | None) -> sp.csr_matrix:
    """build_hamiltonian_rotating for validated params on prebuilt operators."""
    eps = params.epsilon if epsilon is None else float(epsilon)
    dd = params.pump_detuning
    de = Delta - params.delta / 2.0
    df = de + params.delta - dd
    h = (dd * ops.n_op
         + de * ops.sigma[("e", "e")]
         + df * ops.sigma[("f", "f")]
         + params.eta * (ops.sigma[("e", "f")] @ ops.a
                         + ops.a_dag @ ops.sigma[("f", "e")])
         + eps * (ops.sigma[("e", "g")] + ops.sigma[("g", "e")])
         + params.Omega * (ops.a_dag + ops.a))
    h = h.tocsr()
    defect = h - h.conj().T
    if defect.nnz and np.abs(defect.data).max() > 1e-12:
        raise DimensionMismatch("Hamiltonian lost hermiticity during assembly")
    return h


def collapse_set(params: SystemParams, spec: HilbertSpec) -> list[sp.csr_matrix]:
    """Jump operators for the validated params (zero-rate channels elided).

    Cavity: sqrt(2*kappa*(n_th+1))*a and sqrt(2*kappa*n_th)*a_dag.
    Atom: sqrt(gamma_ij)*sigma_ji for each pair with gamma_ij > 0 (diagonal
    pairs give dephasing projectors sigma_ii).
    """
    return _collapses(validate_params(params), build_operators(spec))


def _collapses(params: SystemParams, ops: Operators) -> list[sp.csr_matrix]:
    """collapse_set for validated params on prebuilt operators."""
    n_th = params.n_th
    out: list[sp.csr_matrix] = []
    down = 2.0 * params.kappa * (n_th + 1.0)
    up = 2.0 * params.kappa * n_th
    if down > 0.0:
        out.append(np.sqrt(down) * ops.a)
    if up > 0.0:
        out.append(np.sqrt(up) * ops.a_dag)
    for (i, j), rate in sorted(params.gamma.items()):
        if rate > 0.0:
            out.append(np.sqrt(rate) * ops.sigma[(j, i)])
    return out


@dataclass(frozen=True)
class SuperOperator:
    """D^2 x D^2 generator of d vec(rho)/dt = L vec(rho) (column stacking)."""

    matrix: sp.csr_matrix
    spec: HilbertSpec


def _kron_entries(left: sp.spmatrix, right: sp.spmatrix):
    """(rows, cols, values) of the stored entries of kron(left, right)."""
    lft, rgt = left.tocoo(), right.tocoo()
    height, width = rgt.shape
    return ((lft.row[:, None] * height + rgt.row).ravel(),
            (lft.col[:, None] * width + rgt.col).ravel(),
            (lft.data[:, None] * rgt.data).ravel())


def assemble_liouvillian(hamiltonian: sp.spmatrix,
                         collapses: list[sp.spmatrix],
                         spec: HilbertSpec) -> SuperOperator:
    """Vectorized Lindblad generator for the given Hamiltonian and jumps.

    L = -i(I kron H - H^T kron I)
        + sum_c [ conj(c) kron c - (I kron c^dag c + (c^dag c)^T kron I)/2 ]

    assembled as I kron (-iH - K/2) + (iH - K/2)^T kron I
    + sum_c conj(c) kron c with K = sum_c c^dag c.
    """
    dim = spec.dim
    if hamiltonian.shape != (dim, dim):
        raise DimensionMismatch(
            f"Hamiltonian shape {hamiltonian.shape} != ({dim}, {dim})")
    eye = sp.identity(dim, format="csr", dtype=complex)
    h = hamiltonian.tocsr()
    decay = sp.csr_matrix((dim, dim), dtype=complex)
    terms = []
    for c in collapses:
        if c.shape != (dim, dim):
            raise DimensionMismatch(f"collapse shape {c.shape} != ({dim}, {dim})")
        c = c.tocsr()
        decay = decay + c.conj().T @ c
        terms.append(_kron_entries(c.conj(), c))
    terms += [_kron_entries(eye, -1j * h - 0.5 * decay),
              _kron_entries((1j * h - 0.5 * decay).T, eye)]
    rows, cols, vals = (np.concatenate(part) for part in zip(*terms))
    # duplicate entries are summed
    lind = sp.csr_matrix((vals, (rows, cols)), shape=(dim * dim, dim * dim))
    lind.eliminate_zeros()
    return SuperOperator(matrix=lind, spec=spec)


def liouvillian_at(params: SystemParams, Delta: float, spec: HilbertSpec, *,
                   epsilon: float | None = None) -> SuperOperator:
    """Full Liouvillian of the system at probe detuning Delta."""
    params = validate_params(params)
    ops = build_operators(spec)
    return assemble_liouvillian(_hamiltonian(params, Delta, ops, epsilon),
                                _collapses(params, ops), spec)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a density matrix."""
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of vec."""
    return np.asarray(v).reshape((dim, dim), order="F")


def trace_indices(dim: int) -> np.ndarray:
    """vec indices of the diagonal entries (the trace functional support)."""
    return np.arange(dim) * (dim + 1)
