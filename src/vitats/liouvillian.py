"""Operators on the truncated joint Hilbert space and the vectorized
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

Assembly: the Hamiltonian and the jump operators are dense D x D arrays
built straight from the joint index 3*photon + atom. LindbladFactors holds
the D x D factors of L = I kron M + N^T kron I + sum_c conj(c) kron c
(M = -iH - K/2, N = iH - K/2, K = sum_c c^dag c) and assembles L on any
product block {i + D*j : i in R, j in C} from the restricted factors,
gathering the entries from their nonzeros and making the block sparse
exactly once, as one CSR matrix. The full D^2 x D^2 Liouvillian
(assemble_liouvillian, liouvillian_at) is the block R = C = all, built by
the same code; only the oracles build it, and the solver builds only the
small blocks it needs. build_operators is the sparse operator set for
callers that want a, a_dag, n_op and sigma_ij themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, ParameterError
from .model import LEVELS, SystemParams

_LEVEL_INDEX = {level: i for i, level in enumerate(LEVELS)}


@dataclass(frozen=True)
class HilbertSpec:
    """Truncated joint space: photons 0..n_max times the three atom levels.
    n_max is a Python or numpy integer >= 1, never a bool."""

    n_max: int

    def __post_init__(self):
        n_max = self.n_max
        if not isinstance(n_max, (int, np.integer)) or isinstance(n_max, bool) or n_max < 1:
            raise ParameterError(f"n_max must be an integer >= 1, got {n_max!r}")

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


def _lowering(spec: HilbertSpec) -> tuple[np.ndarray, np.ndarray]:
    """(rows, values) of a: <n, x|a|n+1, x> = sqrt(n+1) sits at row 3n + x,
    column 3n + x + 3."""
    rows = (3 * np.arange(spec.n_max)[:, None] + np.arange(3)).ravel()
    return rows, np.repeat(np.sqrt(np.arange(1, spec.n_max + 1)), 3)


def build_operators(spec: HilbertSpec) -> Operators:
    """Sparse a, a_dag, n_op, sigma_ij on the joint space."""
    dim = spec.dim
    photons = np.arange(spec.n_max + 1)

    def joint(values, rows, cols) -> sp.csr_matrix:
        return sp.csr_matrix((np.asarray(values, dtype=complex), (rows, cols)),
                             shape=(dim, dim))

    lower, root = _lowering(spec)
    a = joint(root, lower, lower + 3)
    sigma = {(i, j): joint(np.ones(photons.size), 3 * photons + _LEVEL_INDEX[i],
                           3 * photons + _LEVEL_INDEX[j])
             for i in LEVELS for j in LEVELS}
    return Operators(spec=spec, a=a, a_dag=a.conj().T.tocsr(),
                     n_op=(a.conj().T @ a).tocsr(), sigma=sigma)


def _dense_hamiltonian(params: SystemParams, Delta: float, spec: HilbertSpec,
                       epsilon: float | None) -> np.ndarray:
    """Static rotating-frame Hamiltonian at probe detuning Delta.

    epsilon overrides params.epsilon (0 gives the probe-free generator used
    by the linear-response solver). Hermiticity is asserted at build time.
    """
    eps = params.epsilon if epsilon is None else float(epsilon)
    dd = params.pump_detuning
    de = Delta - params.delta / 2.0
    df = de + params.delta - dd
    n = np.arange(spec.n_max + 1)
    g, f, e = 3 * n, 3 * n + 1, 3 * n + 2
    lower, root = _lowering(spec)
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    h[g, g] = dd * n
    h[f, f] = dd * n + df
    h[e, e] = dd * n + de
    h[e[:-1], f[1:]] = h[f[1:], e[:-1]] = params.eta * np.sqrt(n[1:])
    h[e, g] = h[g, e] = eps
    h[lower, lower + 3] = h[lower + 3, lower] = params.Omega * root
    if np.abs(h - h.conj().T).max() > 1e-12:
        raise DimensionMismatch("Hamiltonian lost hermiticity during assembly")
    return h


def _dense_jumps(params: SystemParams, spec: HilbertSpec) -> list[np.ndarray]:
    """Dense jump operators (zero-rate channels elided).

    Cavity: sqrt(2*kappa*(n_th+1))*a and sqrt(2*kappa*n_th)*a_dag.
    Atom: sqrt(gamma_ij)*sigma_ji for each pair with gamma_ij > 0 (diagonal
    pairs give dephasing projectors sigma_ii).
    """
    dim, photons = spec.dim, np.arange(spec.n_max + 1)
    lower, root = _lowering(spec)
    a = np.zeros((dim, dim))
    a[lower, lower + 3] = root
    n_th = params.n_th
    out: list[np.ndarray] = []
    down = 2.0 * params.kappa * (n_th + 1.0)
    up = 2.0 * params.kappa * n_th
    if down > 0.0:
        out.append(np.sqrt(down) * a)
    if up > 0.0:
        out.append(np.sqrt(up) * a.T)
    for (i, j), rate in sorted(params.gamma.items()):
        if rate > 0.0:
            sigma = np.zeros((dim, dim))
            sigma[3 * photons + _LEVEL_INDEX[j], 3 * photons + _LEVEL_INDEX[i]] = 1.0
            out.append(np.sqrt(rate) * sigma)
    return out


@dataclass(frozen=True)
class SuperOperator:
    """D^2 x D^2 generator of d vec(rho)/dt = L vec(rho) (column stacking)."""

    matrix: sp.csr_matrix
    spec: HilbertSpec


def _dense(op, shape: tuple[int, int], what: str) -> np.ndarray:
    """op (dense or sparse) as an array, after checking its shape."""
    if op.shape != shape:
        raise DimensionMismatch(f"{what} shape {op.shape} != {shape}")
    return op.toarray() if sp.issparse(op) else np.asarray(op)


def _entries(op: np.ndarray):
    """(indices..., values) of the nonzero entries of op, row-major, with the
    int32 indices of the CSR build."""
    where = np.nonzero(op)
    return (*(w.astype(np.int32) for w in where), op[where])


@dataclass(frozen=True)
class LindbladFactors:
    """A Lindblad generator by its dense D x D Hilbert-space factors:
    M = -iH - K/2, N = iH - K/2 and the jumps c (stacked along the first
    axis), with K = sum_c c^dag c taken over the full space, so that
    L = I kron M + N^T kron I + sum_c conj(c) kron c."""

    spec: HilbertSpec
    m: np.ndarray
    n: np.ndarray
    jumps: np.ndarray

    def entries(self, rows: np.ndarray, cols: np.ndarray):
        """(rows, cols, values) of L on the product block {i + D*j : i in
        rows, j in cols} (rows and cols sorted joint indices), in increasing
        vec order: rho[rows[a], cols[b]] sits at a + len(rows)*b. Every entry
        of L there involves only M[R,R], N[C,C], c[R,R] and c[C,C], so the
        block is

            I kron M[R,R] + N[C,C]^T kron I + sum_c conj(c[C,C]) kron c[R,R]

        exactly, invariant or not. The entries of each Kronecker term are
        gathered from the nonzeros of its factors by index arithmetic, in
        this term order (jump by jump); duplicates are left to be summed.
        """
        inner, outer = rows.size, cols.size
        # conj(c[C,C]) kron c[R,R], jump by jump: entry o of c[C,C] pairs
        # with every entry i of c[R,R] of the same jump
        jo, ro, ko, vo = _entries(self.jumps[:, cols[:, None], cols])
        ji, ri, ki, vi = _entries(self.jumps[:, rows[:, None], rows])
        o, i = np.nonzero(jo[:, None] == ji)
        out_rows = [inner * ro[o] + ri[i]]
        out_cols = [inner * ko[o] + ki[i]]
        vals = [vo.conj()[o] * vi[i]]
        left = np.arange(outer, dtype=np.int32)[:, None]
        right = np.arange(inner, dtype=np.int32)
        r, k, v = _entries(self.m[rows[:, None], rows])  # I kron M[R,R]
        out_rows.append(inner * left + r)
        out_cols.append(inner * left + k)
        vals.append(np.broadcast_to(v, (outer, v.size)))
        r, k, v = _entries(self.n[cols[:, None], cols])  # N[C,C]^T kron I
        out_rows.append(inner * k[:, None] + right)
        out_cols.append(inner * r[:, None] + right)
        vals.append(np.broadcast_to(v[:, None], (v.size, inner)))
        return tuple(np.concatenate([x.ravel() for x in part])
                     for part in (out_rows, out_cols, vals))

    def block(self, rows: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
        """L on the product block rows x cols (see entries) as CSR, duplicates
        summed in their given order and zeros dropped."""
        r, c, v = self.entries(rows, cols)
        matrix = sp.csr_matrix((v, (r, c)), shape=(rows.size * cols.size,) * 2)
        matrix.eliminate_zeros()
        return matrix

    def superoperator(self) -> SuperOperator:
        """The full D^2 x D^2 L: the block R = C = all."""
        full = np.arange(self.spec.dim)
        return SuperOperator(matrix=self.block(full, full), spec=self.spec)


def lindblad_factors(hamiltonian, collapses: list,
                     spec: HilbertSpec) -> LindbladFactors:
    """LindbladFactors of the given Hamiltonian and jumps (dense arrays or
    sparse matrices on the D x D joint space)."""
    shape = (spec.dim, spec.dim)
    h = _dense(hamiltonian, shape, "Hamiltonian")
    jumps = [_dense(c, shape, "collapse") for c in collapses]
    decay = sum((c.conj().T @ c for c in jumps), np.zeros(shape, dtype=complex))
    # (0 - 1j), unlike -1j = complex(-0.0, -1.0), keeps +0.0 imaginary parts
    # where H vanishes
    return LindbladFactors(spec=spec, m=(0 - 1j) * h - 0.5 * decay,
                           n=1j * h - 0.5 * decay,
                           jumps=np.array(jumps) if jumps else np.zeros((0, *shape)))


def assemble_liouvillian(hamiltonian, collapses: list,
                         spec: HilbertSpec) -> SuperOperator:
    """Vectorized Lindblad generator for the given Hamiltonian and jumps
    (dense arrays or sparse matrices on the D x D joint space).

    L = -i(I kron H - H^T kron I)
        + sum_c [ conj(c) kron c - (I kron c^dag c + (c^dag c)^T kron I)/2 ]

    built as LindbladFactors.superoperator, the block spanning the whole
    space.
    """
    return lindblad_factors(hamiltonian, collapses, spec).superoperator()


def factors_at(params: SystemParams, Delta: float, spec: HilbertSpec, *,
               epsilon: float | None = None) -> LindbladFactors:
    """LindbladFactors of the system at probe detuning Delta."""
    return lindblad_factors(_dense_hamiltonian(params, Delta, spec, epsilon),
                            _dense_jumps(params, spec), spec)


def liouvillian_at(params: SystemParams, Delta: float, spec: HilbertSpec, *,
                   epsilon: float | None = None) -> SuperOperator:
    """Full Liouvillian of the system at probe detuning Delta."""
    return factors_at(params, Delta, spec, epsilon=epsilon).superoperator()


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a density matrix."""
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of vec."""
    return np.asarray(v).reshape((dim, dim), order="F")


def trace_indices(dim: int) -> np.ndarray:
    """vec indices of the diagonal entries (the trace functional support)."""
    return np.arange(dim) * (dim + 1)
