"""Steady states, populations, probe spectra, and peak analysis.

Spectra are reported in normalized units chi/beta (dimensionless since all
rates are multiples of gamma_ref). Three routes to the same quantity:

- analytic: the closed-form vacuum susceptibility (no pumping).
- linear_response: probe-free steady state rho0, then the first-order
  coherence correction on the small invariant block that holds the read-out
  (_readout_system), dense on its m <= 2(n_max+1) kept positions after one
  check on L0's factors (_readout_block). It is banded and meets Delta only
  as +i Delta, so the grid is one block-diagonal band and one banded LU with
  partial pivoting (LAPACK gbsv), O(m) per point; the probe amplitude is
  eliminated analytically. Any pump.
- finite_epsilon: full steady state including the probe term at amplitude
  epsilon, chi = rho_ge/epsilon; carries an automatic linearity check.

A steady-state solve replaces row 0 of a trace-preserving generator L, that
of the first diagonal element, with the trace functional and solves
M x = e_0 with one LU. M is nonsingular iff the kernel of L is
one-dimensional, so uniqueness is checked on the same factor: one more
solve M y = b with a seeded random b bounds the smallest singular value
of M by |b|/|y|. steady_state solves the full D^2 space with a sparse LU
(SuperLU), refusing a structurally singular M before it is factored;
finite_epsilon, the time-domain cross-check and the tests use it as the
independent oracle. In vec order the full L0 has no narrow band, so it
never takes the band path below.

The probe-free state is rho0 = |g><g| (x) rho_cav, with rho_cav the steady
state of the (n_max+1)^2 |g,m><g,n| block of L0. Only that block is
assembled, from L0's D x D Hilbert-space factors
(liouvillian.LindbladFactors), and its invariance is checked on those
factors. For a thermal pump or the vacuum the block is a thermally damped
oscillator whose truncation keeps detailed balance, so rho_cav is the
truncated Bose state in closed form, unique for kappa > 0; no LU runs.
Under a coherent pump the spectrum's read-out needs no lab-frame state: in
the frame displaced by the cavity amplitude alpha the drive cancels, the
probe-free state is exactly |g,0><g,0|, and its photon statistics are
Poisson in |alpha|^2 (_displaced_probe_free_state). That state is gated by
its residual in the displaced L0, computed from column 0 of the factors,
and its truncation is reported as the Poisson tail; no cavity block is
assembled and no LU runs. populations, check_truncation_convergence and
finite_epsilon keep the lab-frame probe_free_state, whose coherent
rho_cav takes a solve: the normalized truncated coherent state is not the
truncated model's steady state (at Omega = 1.5, n_max = 20 it leaves a
residual of 2.2e-6, above the 4e-8 tolerance, with a tail of only 2.5e-9).
With the entries |m><n| ordered by diagonal offset n - m, then by
min(m, n), the trace-completed block is banded with (kl, ku) = (k, k),
k = n_max + 1: the drive, decay and detuning move |m><n| by one photon at
most, and the diagonal entries of the trace row are contiguous. It takes
one LAPACK band LU (zgbsv), with the uniqueness probe as a second
right-hand side. The band holds (3k + 1) k^2 complex numbers (0.45 MB at
n_max = 20, 11 MB at 60, 50 MB at 100) and costs O(k^4) time: 2-3x faster
than SuperLU on this block at n_max = 20, on par near 60, and from 1.2x
faster to 1.25x slower at 100, depending on the host. Either way,
||L_GG vec(rho_cav)|| is rho0's full-L0 residual and must pass the same
tolerance. kappa = 0 is refused up front in either frame: the block is
then Hamiltonian and has no unique steady state.
Unless f and e both drain to g, L0's {f, e} block is assembled from the
factors as well, and the same singular-value bound on it rules out a steady
state there; both frames share this check (_probe_free_factors). So
outside the oracles the full D^2 x D^2 L0 is never built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import zgbsv
from scipy.sparse.csgraph import structural_rank

from . import analytic
from .errors import (
    AnalyticInvalidHere,
    IntegrationFailure,
    LinearityWarning,
    NonUniqueSteadyState,
    ParameterError,
    ResolutionWarning,
    SolverFailure,
    TruncationNotConverged,
)
from .liouvillian import (
    HilbertSpec,
    LindbladFactors,
    SuperOperator,
    _lowering,
    assemble_liouvillian,
    factors_at,
    liouvillian_at,
    trace_indices,
    unvec,
    vec,
)
from .model import LEVELS, SystemParams, half_widths, validate_params

_TAIL_TOL = 1e-8


@dataclass(frozen=True)
class SteadyState:
    """Steady-state density matrix with solve diagnostics."""

    rho: np.ndarray
    residual_norm: float
    n_max: int
    converged: bool

    @property
    def spec(self) -> HilbertSpec:
        return HilbertSpec(self.n_max)


@dataclass(frozen=True)
class PopulationTable:
    """Joint populations {(n, level): p} and the ground-row column
    p_n[n] = <n,g|rho|n,g> (the photon-resolved populations the pumped
    spectra resolve)."""

    joint: dict[tuple[int, str], float]
    p_n: np.ndarray


@dataclass(frozen=True)
class TruncationReport:
    n_max: int
    tail_mass: float
    converged: bool

    @property
    def message(self) -> str:
        return (f"steady-state tail mass {self.tail_mass:.3e} above photon number "
                f"{max(0, self.n_max - 5)} exceeds {_TAIL_TOL}; increase n_max")


@dataclass(frozen=True)
class SpectrumSeries:
    """Probe spectrum on a detuning grid, in normalized units chi/beta.

    For analytic runs at delta = 0 with distinct poles, im_r1/im_r2 hold the
    two resonance components (same normalization). residuals are per-point
    linear-system residual norms for the numeric methods.
    """

    grid: np.ndarray
    im_chi: np.ndarray
    re_chi: np.ndarray
    method: str
    params: SystemParams
    n_max: int | None = None
    residuals: np.ndarray | None = None
    warnings: tuple[str, ...] = ()
    im_r1: np.ndarray | None = None
    im_r2: np.ndarray | None = None

    @property
    def chi(self) -> np.ndarray:
        return self.re_chi + 1j * self.im_chi


@dataclass(frozen=True)
class PeakSet:
    """Detected spectrum peaks, sorted by position."""

    positions: np.ndarray
    heights: np.ndarray
    min_prominence: float


def _factor(matrix: sp.spmatrix, what: str) -> spla.SuperLU:
    """Sparse LU of matrix. A structurally singular matrix (no perfect
    matching of rows to stored entries) is singular for every value of its
    entries; it is refused before SuperLU sees it, which would otherwise
    report it from C."""
    matrix = matrix.tocsc()
    rank = structural_rank(matrix)
    if rank < matrix.shape[0]:
        raise NonUniqueSteadyState(
            f"steady state not unique: {what} is structurally singular "
            f"(structural rank {rank} of {matrix.shape[0]})")
    try:
        return spla.splu(matrix)
    except RuntimeError as exc:  # SuperLU: singular factor
        raise SolverFailure(f"sparse LU solve failed: {exc}") from exc


def _uniqueness_probe(size: int) -> np.ndarray:
    """The seeded random right-hand side b of _require_nonsingular."""
    return np.random.default_rng(0).standard_normal(size)


def _require_nonsingular(probe: np.ndarray, solution: np.ndarray, tol: float,
                         what: str) -> None:
    """Raise NonUniqueSteadyState unless the factored matrix M is clearly
    nonsingular: for b = probe and solution = M^-1 b, one inverse-iteration
    step bounds sigma_min(M) <= |b|/|M^-1 b|, and a bound within tol means
    M has a kernel vector to that tolerance."""
    bound = np.linalg.norm(probe) / np.linalg.norm(solution)
    if not bound > tol:  # also catches a non-finite solve
        raise NonUniqueSteadyState(
            f"steady state not unique: {what} has a singular value <= {bound:.3e}")


def _trace_completed(lmat: sp.csr_matrix, dim: int) -> sp.csr_matrix:
    """lmat with row 0, that of the first diagonal element, replaced by the
    trace functional. M x = e_0 gives the trace-one kernel vector of the
    trace-preserving lmat, and M is nonsingular iff that kernel is
    one-dimensional."""
    start = lmat.indptr[1]
    return sp.csr_matrix(
        (np.concatenate([np.ones(dim, dtype=complex), lmat.data[start:]]),
         np.concatenate([trace_indices(dim), lmat.indices[start:]]),
         np.concatenate([[0], lmat.indptr[1:] + (dim - start)])), shape=lmat.shape)


def _density_matrix(x: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian, trace-one dim x dim density matrix of the solution x."""
    if not np.all(np.isfinite(x)):
        raise SolverFailure("steady-state solve produced non-finite values")
    rho = unvec(x, dim)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _trace_completed_solve(lmat: sp.csr_matrix, dim: int, *,
                           check_uniqueness: bool) -> np.ndarray:
    """Trace-one density matrix in the kernel of the trace-preserving
    generator lmat acting on dim x dim matrices.

    Solves the trace-completed system (_trace_completed) with one sparse
    LU; when check_uniqueness, _require_nonsingular checks on the same
    factor that it is nonsingular, against lmat's residual tolerance.
    """
    completed = _trace_completed(lmat, dim)
    what = "the trace-completed generator"
    lu = _factor(completed, what)
    if check_uniqueness:
        probe = _uniqueness_probe(dim * dim)
        _require_nonsingular(probe, lu.solve(probe), _residual_tol(lmat), what)
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    return _density_matrix(lu.solve(rhs), dim)


def _band_storage(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                  size: int) -> tuple[int, int, np.ndarray]:
    """(kl, ku, band): the size x size matrix with the given entries
    (distinct positions) in LAPACK gbsv band storage, Fortran-contiguous.
    Entry (i, j) sits at band[kl + ku + i - j, j]; the kl rows above the
    matrix's band hold the fill of partial pivoting. The bandwidths are read
    from the entries, so a wider band only costs time and memory:
    (2 kl + ku + 1) size complex numbers."""
    kl = int((rows - cols).max(initial=0))
    ku = int((cols - rows).max(initial=0))
    band = np.zeros((2 * kl + ku + 1, size), dtype=complex, order="F")
    band[kl + ku + rows - cols, cols] = vals
    return kl, ku, band


def _offset_order(dim: int) -> np.ndarray:
    """vec indices m + dim n of a dim x dim matrix, sorted by diagonal
    offset n - m, then by min(m, n). The diagonal entries, the support of
    the trace functional, are then contiguous, and a generator that moves
    |m><n| by at most one photon on either side (a, a^dag and functions of
    a^dag a) couples only entries within about dim positions of each other."""
    n, m = np.divmod(np.arange(dim * dim), dim)
    return np.lexsort((np.minimum(m, n), n - m))


def _banded_cavity_solve(cavity: sp.csr_matrix, dim: int) -> np.ndarray:
    """_trace_completed_solve of the dim^2 x dim^2 cavity block by one
    LAPACK band LU (zgbsv, partial pivoting), in _offset_order.

    The trace-completed block is factored once for two right-hand sides:
    e_0, and the seeded probe of _require_nonsingular, whose sigma_min bound
    is checked against the block's residual tolerance. An exactly singular
    factor raises NonUniqueSteadyState. For the cavity block of a coherent
    pump (kl, ku) = (k, k) with k = dim = n_max + 1, so the band holds
    (3k + 1) k^2 complex numbers and factoring it costs O(k^4) (see the
    module docstring for the crossover with SuperLU).
    """
    coo = _trace_completed(cavity, dim).tocoo()
    order = _offset_order(dim)
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    kl, ku, band = _band_storage(position[coo.row], position[coo.col], coo.data,
                                 order.size)
    probe = _uniqueness_probe(order.size)
    rhs = np.zeros((order.size, 2), dtype=complex, order="F")
    rhs[position[0], 0] = 1.0
    rhs[:, 1] = probe[order]
    _, _, x, info = zgbsv(kl, ku, band, rhs, overwrite_ab=1, overwrite_b=1)
    what = "the trace-completed cavity block"
    if info > 0:
        raise NonUniqueSteadyState(f"steady state not unique: {what} is singular")
    _require_nonsingular(probe, x[:, 1], _residual_tol(cavity), what)
    return _density_matrix(x[position, 0], dim)


def _residual_tol(lmat: sp.csr_matrix) -> float:
    """1e-9 of the largest generator entry (or of 1): the residual a steady
    state of lmat may leave."""
    scale = float(np.abs(lmat.data).max()) if lmat.nnz else 1.0
    return 1e-9 * max(1.0, scale)


def steady_state(sop: SuperOperator, *, check_uniqueness: bool = True) -> SteadyState:
    """Unique trace-one kernel vector of the Liouvillian, solved on the full
    space (see _trace_completed_solve for the uniqueness check), with its
    residual ||L vec(rho)|| and whether that is within _residual_tol."""
    rho = _trace_completed_solve(sop.matrix, sop.spec.dim,
                                 check_uniqueness=check_uniqueness)
    residual = float(np.linalg.norm(sop.matrix @ vec(rho)))
    return SteadyState(rho=rho, residual_norm=residual, n_max=sop.spec.n_max,
                       converged=residual <= _residual_tol(sop.matrix))


def populations(state: SteadyState) -> PopulationTable:
    """Diagonal populations of a steady state, tiny negatives clipped to 0."""
    spec = state.spec
    diag = np.diag(state.rho).real
    joint: dict[tuple[int, str], float] = {}
    for n in range(spec.n_max + 1):
        for level in LEVELS:
            value = float(diag[spec.index(n, level)])
            joint[(n, level)] = 0.0 if -1e-8 < value < 0.0 else value
    p_n = np.array([joint[(n, "g")] for n in range(spec.n_max + 1)])
    return PopulationTable(joint=joint, p_n=p_n)


def truncation_report(state: SteadyState) -> TruncationReport:
    """Population above photon number n_max - 5 of an already-computed
    steady state; converged iff < 1e-8."""
    spec, diag = state.spec, np.diag(state.rho).real
    tail = 0.0
    for n in range(max(0, spec.n_max - 5) + 1, spec.n_max + 1):
        for level in LEVELS:
            tail += max(diag[spec.index(n, level)], 0.0)
    return TruncationReport(n_max=state.n_max, tail_mass=tail,
                            converged=tail < _TAIL_TOL)


def _require_invariant(factors: LindbladFactors, rows: np.ndarray, cols: np.ndarray,
                       what: str) -> None:
    """SolverFailure unless L maps no element of the product block
    rows x cols out of it, checked on the D x D factors: for rho supported
    on R x C, M rho stays there iff M[R^c, R] = 0 and rho N iff
    N[C, C^c] = 0; c rho c^dag leaves it iff c[R^c, R] and c[:, C] are both
    nonzero, or c[:, R] and c[C^c, C] are.
    """
    dim = factors.spec.dim
    out_rows = np.ones(dim, dtype=bool)
    out_rows[rows] = False
    out_cols = np.ones(dim, dtype=bool)
    out_cols[cols] = False
    support = factors.jumps != 0
    from_rows = support[:, :, rows].any(axis=2)  # where each c takes R
    from_cols = support[:, :, cols].any(axis=2)
    if factors.m[out_rows][:, rows].any() or factors.n[cols][:, out_cols].any() \
            or (from_rows[:, out_rows].any(axis=1) & from_cols.any(axis=1)).any() \
            or (from_rows.any(axis=1) & from_cols[:, out_cols].any(axis=1)).any():
        raise SolverFailure(f"probe-free Liouvillian leaks out of {what}")


def _l0_scale(factors: LindbladFactors) -> float:
    """max|M| + max|N| + sum_c max|c|^2: an upper bound on the largest entry
    of L0 = I kron M + N^T kron I + sum_c conj(c) kron c, from the factors."""
    return float(np.abs(factors.m).max() + np.abs(factors.n).max()
                 + (np.abs(factors.jumps) ** 2).max(axis=(1, 2)).sum())


def _check_excited_sector_decays(factors: LindbladFactors) -> None:
    """Raise NonUniqueSteadyState if a steady state keeps the atom in {f, e}.

    L0 is block triangular: the |x,m><y,n| block with x, y in {f, e} feeds
    only itself and the |g><g| block, and coherences with g feed only
    themselves. So a steady state besides |g><g| (x) rho_cav exists iff the
    {f, e} block E of L0 is singular, which _require_nonsingular checks
    against the residual tolerance of the full L0, scaled by _l0_scale
    (never below max|L0|); only E is assembled.
    """
    fe = np.flatnonzero(np.arange(factors.spec.dim) % 3)
    what = "the {f, e} block of L0 (the atom can stay out of |g>)"
    try:
        lu = _factor(factors.block(fe, fe), what)
    except SolverFailure:
        raise NonUniqueSteadyState(f"steady state not unique: {what} is singular") from None
    probe = _uniqueness_probe(fe.size ** 2)
    tol = 1e-9 * max(1.0, _l0_scale(factors))  # the scaling of _residual_tol
    _require_nonsingular(probe, lu.solve(probe), tol, what)


def _bose_state(n_th: float, n_max: int) -> np.ndarray:
    """Truncated Bose state diag(q^m) / sum q^m, q = n_th/(n_th + 1), m <= n_max
    (|0><0| for n_th = 0). Its populations satisfy detailed balance,
    P_m+1 / P_m = n_th/(n_th + 1), across every link m <-> m+1 of the
    truncated thermal damping, so it is that generator's exact steady state."""
    weights = (n_th / (n_th + 1.0)) ** np.arange(n_max + 1)
    return np.diag(weights / weights.sum()).astype(complex)


def _probe_free_factors(params: SystemParams, n_max: int) -> LindbladFactors:
    """The lab-frame LindbladFactors of L0 after the uniqueness checks that
    both frames of the probe-free state share.

    kappa = 0 leaves the |g><g| block Hamiltonian, so every function of the
    cavity Hamiltonian is steady: NonUniqueSteadyState before anything is
    built. A steady state that keeps the atom in {f, e} is ruled out when f
    and e both drain to g (gamma_fg > 0 and gamma_eg + gamma_ef > 0), and
    checked on L0's {f, e} block otherwise (_check_excited_sector_decays).
    """
    spec = HilbertSpec(n_max)
    if params.kappa == 0.0:
        raise NonUniqueSteadyState(
            "steady state not unique: kappa = 0 leaves the cavity undamped, so "
            "every function of its Hamiltonian is steady on the |g><g| block")
    factors = factors_at(params, 0.0, spec, epsilon=0.0)
    gamma = params.gamma
    if not (gamma[("f", "g")] > 0 and gamma[("e", "g")] + gamma[("e", "f")] > 0):
        _check_excited_sector_decays(factors)
    return factors


def _warn_unless_converged(report: TruncationReport) -> None:
    """TruncationNotConverged unless the report's tail converged, attributed
    to the caller of the public function that made the report."""
    if not report.converged:
        warnings.warn(report.message, TruncationNotConverged, stacklevel=4)


def probe_free_state(params: SystemParams, n_max: int):
    """(LindbladFactors of L0, steady state, TruncationReport) without the
    probe, in the lab frame.

    Without the probe nothing leaves |g>, so rho0 = |g><g| (x) rho_cav with
    rho_cav the steady state of L0 on its invariant |g,m><g,n| block, which
    is assembled on its own from L0's Hilbert-space factors (the full
    D^2 x D^2 L0 is never built). _probe_free_factors refuses kappa = 0 and
    any steady state that keeps the atom in {f, e}, so rho0 is unique iff
    rho_cav is.
    For a thermal pump or the vacuum (Omega = 0), rho_cav is the truncated
    Bose state (_bose_state), unique for kappa > 0 because the truncated a
    generates the whole matrix algebra; no LU runs. A coherent pump solves
    the block with one LAPACK band LU (_banded_cavity_solve, with its
    uniqueness check), in the order of diagonal offset n - m, then
    min(m, n), where (kl, ku) = (n_max + 1, n_max + 1): the normalized
    truncated coherent state is not the truncated model's steady state
    (residual 2.2e-6 at Omega = 1.5, n_max = 20, above the 4e-8 tolerance,
    with a tail of only 2.5e-9). That rho_cav is unique for kappa > 0 by the
    same argument, so a failed sigma_min bound or a zero pivot of the band
    LU means the block is ill-conditioned at this drive (the tolerance
    grows with max|L_GG|, so with Omega): SolverFailure, naming the bound
    and the tolerance, not NonUniqueSteadyState.
    So under a coherent pump the populations P_n come from the truncated
    master equation in the lab frame, while a linear-response spectrum
    never calls this function: it reads out in the displaced frame, from
    the displaced vacuum (_displaced_probe_free_state). The largest
    relative gap between P_0..P_3 and the normalized truncated coherent
    state (eta 80, kappa 1, gamma_e 5, gamma_f 1) is below 5e-15 over fig.
    8a's sweep (Omega <= 0.8, n_max = 20), 7.7e-12 at Omega = 1.5, and
    3.3e-8 at Omega = 1.5, n_max = 16, where the tail of 4.5e-6 already
    warns.
    rho0 vanishes outside the invariant block, so its full-L0 residual is
    the block's ||L_GG vec(rho_cav)||; SolverFailure unless that is within
    steady_state's tolerance for the block, whichever way rho_cav was
    obtained. Warns (TruncationNotConverged) unless the tail mass
    converged.
    """
    params = validate_params(params)
    factors = _probe_free_factors(params, n_max)
    ground = 3 * np.arange(n_max + 1)
    _require_invariant(factors, ground, ground, "the |g><g| block")
    cavity = factors.block(ground, ground)
    if params.Omega > 0.0:
        try:
            rho_cav = _banded_cavity_solve(cavity, n_max + 1)
        except NonUniqueSteadyState as exc:
            # kappa > 0 makes rho_cav unique (see above), so a failed bound or
            # a zero pivot means the block is ill-conditioned at this drive
            reason = str(exc).removeprefix("steady state not unique: ")
            raise SolverFailure(
                f"lab-frame steady state ill-conditioned at this drive: {reason} "
                f"(tolerance {_residual_tol(cavity):.3e}; kappa > 0 makes the "
                f"state unique)") from None
    else:
        rho_cav = _bose_state(params.n_th, n_max)
    residual = float(np.linalg.norm(cavity @ vec(rho_cav)))
    if not residual <= _residual_tol(cavity):  # also catches a non-finite value
        raise SolverFailure(f"factorized probe-free state leaves residual "
                            f"{residual:.3e} in the full L0")
    ground_atom = np.zeros((3, 3))
    ground_atom[0, 0] = 1.0
    state = SteadyState(rho=np.kron(rho_cav, ground_atom), residual_norm=residual,
                        n_max=n_max, converged=True)
    report = truncation_report(state)
    _warn_unless_converged(report)
    return factors, state, report


def check_truncation_convergence(params: SystemParams, n_max: int) -> TruncationReport:
    """Steady-state tail mass near the Fock cutoff; converged iff < 1e-8.
    NonUniqueSteadyState if the probe-free state is not unique."""
    return probe_free_state(params, n_max)[2]


# --- spectrum methods ---------------------------------------------------------

def _ge_vec_indices(spec: HilbertSpec) -> np.ndarray:
    """vec indices of rho[(n,g), (n,e)], summed for the probe coherence."""
    dim = spec.dim
    rows = np.array([spec.index(n, "g") for n in range(spec.n_max + 1)])
    cols = np.array([spec.index(n, "e") for n in range(spec.n_max + 1)])
    return rows + dim * cols


def _delta_derivative_superop(spec: HilbertSpec) -> sp.csr_matrix:
    """dL/dDelta: L is affine in Delta through H += Delta*(sigma_ee+sigma_ff),
    so the slope is the Hamiltonian part of L for that projector."""
    proj = np.diag(np.tile([0.0, 1.0, 1.0], spec.n_max + 1))
    return assemble_liouvillian(proj, [], spec).matrix


def _displaced_generator(params: SystemParams,
                         factors: LindbladFactors) -> LindbladFactors:
    """The lab-frame factors of a coherently pumped probe-free L0 moved to the
    frame displaced by the cavity amplitude alpha = -i Omega/(kappa + i dd):
    the drive cancels, and H gains dH = eta(alpha sigma_ef + h.c.) -
    Omega(a + a^dag), so M and N shift by -i dH and +i dH; jumps and K stay."""
    f = 3 * np.arange(factors.spec.n_max + 1) + 1
    lower, root = _lowering(factors.spec)
    alpha = -1j * params.Omega / (params.kappa + 1j * params.pump_detuning)
    shift = np.zeros_like(factors.m)
    shift[f + 1, f], shift[f, f + 1] = params.eta * alpha, np.conj(params.eta * alpha)
    shift[lower, lower + 3] = shift[lower + 3, lower] = -params.Omega * root
    return replace(factors, m=factors.m + (0 - 1j) * shift, n=factors.n + 1j * shift)


def _displaced_vacuum_residual(factors: LindbladFactors) -> float:
    """||L vec(|g,0><g,0|)|| of the generator with these factors, from their
    column 0 alone: L |0><0| = M[:, 0] <0| + |0> N[0, :] + sum_c c[:, 0]
    c[:, 0]^dag."""
    column = factors.jumps[:, :, 0]
    residual = (column.T @ column.conj()).astype(complex)  # the jumps may be real
    residual[:, 0] += factors.m[:, 0]
    residual[0, :] += factors.n[0, :]
    return float(np.linalg.norm(residual))


def _poisson_tail(log_mean: float, n_max: int) -> float:
    """The weight above photon number n_max - 5 of the Poisson distribution
    of mean exp(log_mean), truncated at n_max and normalized there. The
    weights are formed as logarithms, so no mean under- or overflows."""
    n = np.arange(n_max + 1)
    log_weights = n * log_mean - np.cumsum(np.log(np.maximum(n, 1)))
    weights = np.exp(log_weights - log_weights.max())
    return float(weights[max(0, n_max - 5) + 1:].sum() / weights.sum())


def _displaced_probe_free_state(params: SystemParams, n_max: int):
    """(displaced LindbladFactors, steady state, TruncationReport) of a
    coherently pumped L0 without the probe, in the frame displaced by
    alpha = -i Omega/(kappa + i dd) (_displaced_generator), where the drive
    cancels and the probe-free state is exactly rho0' = |g,0><g,0|.

    No cavity block is assembled and no LU runs. The uniqueness checks are
    probe_free_state's (_probe_free_factors, on the lab factors): kappa > 0
    then makes |0><0| the unique steady state of the undriven, damped
    cavity, as for the thermal closed form, since the truncated a generates
    the whole matrix algebra. On the displaced factors, _require_invariant
    checks that the |g><g| block is invariant, and rho0' must leave a
    residual ||L' vec(rho0')|| (_displaced_vacuum_residual) within
    1e-9 max(1, _l0_scale) or SolverFailure; the exact state leaves zero up
    to rounding, so a wrong alpha fails here. The truncation report is the
    tail of the lab-frame state |alpha><alpha|: the normalized truncated
    Poisson weights of |alpha|^2 = Omega^2/(kappa^2 + dd^2) above n_max - 5
    (_poisson_tail). Warns (TruncationNotConverged) unless it converged.
    """
    params = validate_params(params)
    factors = _displaced_generator(params, _probe_free_factors(params, n_max))
    ground = 3 * np.arange(n_max + 1)
    _require_invariant(factors, ground, ground, "the |g><g| block")
    residual = _displaced_vacuum_residual(factors)
    tol = 1e-9 * max(1.0, _l0_scale(factors))
    if not residual <= tol:  # also catches a non-finite value
        raise SolverFailure(f"displaced probe-free state leaves residual "
                            f"{residual:.3e} in the displaced L0, above {tol:.3e}")
    rho = np.zeros((factors.spec.dim, factors.spec.dim), dtype=complex)
    rho[0, 0] = 1.0
    # |alpha|^2 = Omega^2/(kappa^2 + dd^2), by its logarithm
    tail = _poisson_tail(
        2.0 * (math.log(params.Omega) - math.log(math.hypot(params.kappa,
                                                            params.pump_detuning))),
        n_max)
    report = TruncationReport(n_max=n_max, tail_mass=tail, converged=tail < _TAIL_TOL)
    _warn_unless_converged(report)
    return factors, SteadyState(rho=rho, residual_norm=residual, n_max=n_max,
                                converged=True), report


def _readout_block(factors: LindbladFactors, rows: np.ndarray,
                   cols: np.ndarray) -> np.ndarray:
    """L, dense, on the positions |r_k><c_k| = |rows[k]><cols[k]| in vec order:
    A[k, l] = M[r_k, r_l] d(c_k, c_l) + N[c_l, c_k] d(r_k, r_l) + sum_c
    c[r_k, r_l] conj(c[c_k, c_l]), summed as LindbladFactors.entries sums L.
    SolverFailure unless one pass on the factors finds every target of each
    term from each kept |r_l><c_l| kept: the rows of M[:, r_l], the columns
    of N[c_l, :] and the same-jump nonzero pairs of c[:, r_l] and c[:, c_l]."""
    jumps = factors.jumps[(factors.jumps[:, :, np.unique(rows)] != 0).any(axis=(1, 2))]
    per_col = (jumps != 0).sum(1)  # the nonzeros in each column of each jump
    cr, cc = jumps[:, rows[:, None], rows], jumps[:, cols[:, None], cols]
    m = np.where(cols[:, None] == cols, factors.m[np.ix_(rows, rows)], 0)
    n = factors.n[np.ix_(cols, cols)].T
    n[rows[:, None] != rows] = 0  # in place: one K^2 copy fewer at the peak
    if ((m != 0).sum(0) < (factors.m != 0).sum(0)[rows]).any() \
            or ((n != 0).sum(0) < (factors.n != 0).sum(1)[cols]).any() \
            or (((cr != 0) & (cc != 0)).sum(1) < per_col[:, rows] * per_col[:, cols]).any():
        raise SolverFailure("probe-free Liouvillian leaks out of the read-out block")
    return np.add(np.add((cc.conj() * cr).sum(0), m, out=m), n, out=m)


def _readout_system(params: SystemParams, factors: LindbladFactors, rho0: np.ndarray):
    """(A, b, out): L0 at Delta = 0, dense on the kept positions of the
    invariant block of |g,m><x,n| coherences (x in {f, e}) holding the
    read-out (_readout_block), where dL/dDelta = +i; the source b = i[V, rho0]
    on it, -i rho0[g_m, g_m] on each read-out position |g,m><e,m|; the
    read-out positions. factors and rho0 are L0's and its probe-free state
    in the frame the block lives in, taken as given.
    Thermal pump or vacuum, lab frame: |g,m><e,m| and |g,m><f,m+1| in vec
    order, with b = -i P_m on |g,m><e,m|. Coherent pump, the displaced frame
    of _displaced_probe_free_state: rho0 = |g,0><g,0|, the block is
    |g,0><{f, e}|, and chi is its |g,0><e,0| element (b = -i): the
    displacement keeps the trace."""
    m = np.arange(factors.spec.n_max + 1)
    if params.Omega > 0.0:
        rows, cols = np.zeros(2 * m.size, dtype=int), (3 * m[:, None] + [1, 2]).ravel()
        out = np.array([1])
    else:  # by column: e_0, f_1, e_1, f_2, ..., e_n_max
        rows, cols = np.repeat(3 * m, 2)[:-1], (3 * m[:, None] + [2, 4]).ravel()[:-1]
        out = 2 * m
    rhs = np.zeros(rows.size, dtype=complex)
    rhs[out] = -1j * np.diag(rho0)[rows[out]].real
    return _readout_block(factors, rows, cols), rhs, out


def _readout_response(a: np.ndarray, rhs: np.ndarray, out: np.ndarray,
                      grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """chi/beta and residual norm at each Delta from (A + i Delta I) x = b.

    The grid is one block-diagonal system, block k being A + i Delta_k I, in
    one band from the dense A's nonzeros that one zgbsv call factors and
    solves; its bandwidths are A's: (2, 2) thermal, (1, 2) vacuum, (1, 1)
    coherent. Pivoting never leaves a block, so no point's bits depend on the
    others. A singular point (the first zero pivot's block), or a residual
    ||A x + i Delta x - b|| above 1e-9 |b| max(1, max|A_ij| + |Delta|)
    raises SolverFailure. A x is summed diagonal by diagonal, elementwise, so
    each point's residual is independent of the grid as well."""
    kl, ku, block = _band_storage(*np.nonzero(a != 0), a[a != 0], rhs.size)
    band = np.tile(block.T, (grid.size, 1)).T  # A's band per point, Fortran order
    band[kl + ku] += 1j * np.repeat(grid, rhs.size)  # the diagonal's row
    _, _, x, info = zgbsv(kl, ku, band, np.tile(rhs, grid.size), overwrite_ab=1)
    if info > 0:
        raise SolverFailure("read-out matrix is singular at "
                            f"Delta={grid[(info - 1) // rhs.size]:g}")
    del band  # the factored band, freed before the residual's arrays
    x = x.reshape(grid.size, rhs.size)
    ax = np.zeros_like(x)  # A x, a row per point, diagonal by diagonal
    for offset in range(-kl, ku + 1):
        lo, hi = max(0, -offset), min(rhs.size, rhs.size - offset)
        ax[:, lo:hi] += np.diagonal(a, offset) * x[:, lo + offset:hi + offset]
    resid = np.linalg.norm(ax + 1j * grid[:, None] * x - rhs, axis=1)
    # take keeps the rows C-contiguous, so each point is summed alone (numpy's
    # pairwise sum, as row.sum() would); x[:, out] comes out Fortran-ordered
    # and would be summed column by column, its bits depending on grid.size
    chi = x.take(out, axis=1).sum(axis=1)
    tol = 1e-9 * np.linalg.norm(rhs) * np.maximum(1.0, np.abs(a).max() + np.abs(grid))
    bad = np.flatnonzero(~(resid <= tol))  # also catches non-finite values
    if bad.size:
        k = bad[0]
        raise SolverFailure(f"read-out residual {resid[k]:.3e} at Delta={grid[k]:g} "
                            f"exceeds {tol[k]:.3e}")
    return chi, resid


def _finite_epsilon_chunk(params: SystemParams, n_max: int, deltas: np.ndarray,
                          epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """chi/beta and residual norm at each Delta from the full steady state."""
    spec = HilbertSpec(n_max)
    base = liouvillian_at(params, 0.0, spec, epsilon=epsilon)
    slope = _delta_derivative_superop(spec)
    out_idx = _ge_vec_indices(spec)

    chi = np.empty(len(deltas), dtype=complex)
    resid = np.empty(len(deltas))
    for k, delta_p in enumerate(deltas):
        matrix = (base.matrix + float(delta_p) * slope).tocsr()
        sop = SuperOperator(matrix=matrix, spec=spec)
        state = steady_state(sop, check_uniqueness=(k == 0))
        chi[k] = vec(state.rho)[out_idx].sum() / epsilon
        resid[k] = state.residual_norm
    return chi, resid


def _validate_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ParameterError("grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(g)):
        raise ParameterError("grid contains non-finite values")
    if g.size > 1 and not np.all(np.diff(g) > 0):
        raise ParameterError("grid must be strictly increasing")
    return g


def probe_spectrum(params: SystemParams, grid, *, method: str = "linear_response",
                   n_max: int = 60, workers: int = 1) -> SpectrumSeries:
    """Probe absorption/dispersion spectrum over a detuning grid.

    method is one of analytic / linear_response / finite_epsilon. Numeric
    methods truncate the cavity at n_max and warn (TruncationNotConverged)
    when the probe-free steady state leaves > 1e-8 population near the
    cutoff. workers is accepted and ignored: every solve runs in this
    process. linear_response reads out in the lab frame from
    probe_free_state's rho0 for a thermal pump or the vacuum, and under a
    coherent pump in the displaced frame from the displaced vacuum
    (_displaced_probe_free_state), whose tail is the Poisson tail of
    |alpha|^2; no lab-frame cavity solve runs there. finite_epsilon checks
    uniqueness and the tail on probe_free_state, in the lab frame.
    """
    params = validate_params(params)
    grid = _validate_grid(grid)
    notes: list[str] = []

    if method == "analytic":
        if params.n_th > 0.0 or params.Omega > 0.0:
            raise AnalyticInvalidHere(
                "closed form is vacuum-only; use linear_response or finite_epsilon")
        chi = np.atleast_1d(analytic.chi_vacuum(grid, params)) / params.beta
        im_r1 = im_r2 = None
        if params.delta == 0.0:
            pair = analytic.poles(params)
            if pair.discriminant != 0.0:
                r_1, r_2 = analytic.decompose_resonances(params)
                im_r1 = np.imag(r_1.evaluate(grid)) / params.beta
                im_r2 = np.imag(r_2.evaluate(grid)) / params.beta
        return SpectrumSeries(grid=grid, im_chi=chi.imag, re_chi=chi.real,
                              method=method, params=params, im_r1=im_r1, im_r2=im_r2)

    if method not in ("linear_response", "finite_epsilon"):
        raise ParameterError(f"unknown method {method!r}")

    displaced = method == "linear_response" and params.Omega > 0.0
    factors, state, report = (_displaced_probe_free_state if displaced
                              else probe_free_state)(params, n_max)
    if not report.converged:
        notes.append(f"TruncationNotConverged: {report.message}")

    if method == "linear_response":
        chi, resid = _readout_response(*_readout_system(params, factors, state.rho),
                                       grid)
    else:
        chi, resid = _finite_epsilon_chunk(params, n_max, grid, params.epsilon)

    if method == "finite_epsilon":
        # saturation check at the most absorbing point: halving epsilon must
        # leave chi unchanged to 0.1% if the response is linear
        peak = int(np.argmax(np.abs(chi.imag)))
        half, _ = _finite_epsilon_chunk(params, n_max, grid[peak:peak + 1],
                                        params.epsilon / 2.0)
        drift = abs(half[0] - chi[peak]) / max(abs(chi[peak]), 1e-300)
        if drift > 1e-3:
            message = (f"chi at Delta={grid[peak]:g} moved by {drift:.2%} when "
                       f"epsilon was halved; reduce epsilon")
            warnings.warn(message, LinearityWarning, stacklevel=2)
            notes.append(f"LinearityWarning: {message}")

    return SpectrumSeries(grid=grid, im_chi=chi.imag, re_chi=chi.real,
                          method=method, params=params, n_max=n_max,
                          residuals=resid, warnings=tuple(notes))


def find_peaks(series: SpectrumSeries,
               min_prominence: float | None = None) -> PeakSet:
    """Local maxima of Im chi with prominence filtering and quadratic
    position refinement.

    min_prominence defaults to 2% of the global maximum (absolute units of
    the series). Warns (ResolutionWarning) when the grid is coarser than
    gamma_e/4.
    """
    grid, y = series.grid, series.im_chi
    gamma_e = half_widths(series.params)[0]
    if grid.size > 1 and gamma_e > 0 and np.diff(grid).max() > gamma_e / 4.0:
        warnings.warn(
            f"grid spacing {np.diff(grid).max():g} coarser than gamma_e/4 = "
            f"{gamma_e / 4.0:g}", ResolutionWarning, stacklevel=2)
    top = float(y.max()) if y.size else 0.0
    prominence = 0.02 * top if min_prominence is None else float(min_prominence)
    if prominence <= 0.0:
        return PeakSet(positions=np.empty(0), heights=np.empty(0),
                       min_prominence=prominence)
    # imported here: scipy.signal (which loads scipy.stats) roughly doubles
    # the start-up of a CLI that never finds peaks
    from scipy.signal import find_peaks as _scipy_find_peaks

    idx, _ = _scipy_find_peaks(y, prominence=prominence)
    positions, heights = [], []
    for i in idx:
        if 0 < i < y.size - 1:
            quad = np.polyfit(grid[i - 1:i + 2], y[i - 1:i + 2], 2)
            if quad[0] < 0:
                x_ref = -quad[1] / (2.0 * quad[0])
                positions.append(x_ref)
                heights.append(float(np.polyval(quad, x_ref)))
                continue
        positions.append(float(grid[i]))
        heights.append(float(y[i]))
    order = np.argsort(positions)
    return PeakSet(positions=np.asarray(positions)[order],
                   heights=np.asarray(heights)[order],
                   min_prominence=prominence)


def _probe_superops(spec: HilbertSpec) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The Hamiltonian parts of L for H = sigma_eg and H = sigma_ge, which the
    probe drives with opposite phases."""
    g = 3 * np.arange(spec.n_max + 1)
    sigma_eg = np.zeros((spec.dim, spec.dim))
    sigma_eg[g + 2, g] = 1.0
    return (assemble_liouvillian(sigma_eg, [], spec).matrix,
            assemble_liouvillian(sigma_eg.T, [], spec).matrix)


def time_domain_crosscheck(params: SystemParams, Delta: float, *,
                           n_max: int = 3) -> complex:
    """chi/beta at one detuning from explicit time integration.

    Integrates the master equation in the frame where the probe term keeps
    its explicit e^{+-i(Delta - delta/2)t} phases (everything else static),
    starting from the probe-free steady state, until the extracted probe
    Fourier component of rho_ge is stationary. Validates the rotating-frame
    construction end to end; small systems only (n_max <= 5), zero
    temperature.
    """
    from scipy.integrate import solve_ivp  # imported here: slow, and the CLI never needs it

    params = validate_params(params)
    if n_max > 5:
        raise ParameterError("time-domain cross-check is limited to n_max <= 5")
    if params.n_th > 0.0:
        raise ParameterError("time-domain cross-check requires n_th = 0")
    spec = HilbertSpec(n_max)
    gamma_e, gamma_f = half_widths(params)
    rates = [r for r in (gamma_e, gamma_f + params.kappa) if r > 0]
    if not rates:
        raise IntegrationFailure("no dissipation: no steady state to relax to")
    rate = min(rates)

    # Delta = delta/2 zeroes the e level, leaving the probe-free static part
    l_static = liouvillian_at(params, params.delta / 2.0, spec, epsilon=0.0).matrix
    k_plus, k_minus = _probe_superops(spec)

    eps = params.epsilon
    w_probe = Delta - params.delta / 2.0  # probe phase rate in this frame

    def rhs(t, v):
        drive = np.exp(1j * w_probe * t) * (k_plus @ v) \
            + np.exp(-1j * w_probe * t) * (k_minus @ v)
        return l_static @ v + eps * drive

    state = vec(steady_state(liouvillian_at(params, 0.0, spec, epsilon=0.0),
                             check_uniqueness=False).rho).astype(complex)
    out_idx = _ge_vec_indices(spec)

    period = 2.0 * math.pi / abs(w_probe) if w_probe != 0.0 else 5.0 / rate
    cycles = max(1, math.ceil((5.0 / rate) / period))
    window = cycles * period
    t_now = 0.0

    def advance(v, t0, t1, samples=None):
        sol = solve_ivp(rhs, (t0, t1), v, method="DOP853", rtol=1e-10,
                        atol=1e-14, t_eval=samples, dense_output=False)
        if not sol.success:
            raise IntegrationFailure(f"integrator stopped: {sol.message}")
        return sol

    sol = advance(state, t_now, t_now + 10.0 / rate)
    state, t_now = sol.y[:, -1], sol.t[-1]

    amplitude = None
    for _ in range(40):
        samples = np.linspace(t_now, t_now + window, max(201, 61 * cycles))
        sol = advance(state, t_now, t_now + window, samples)
        rho_ge = sol.y[out_idx, :].sum(axis=0)
        kernel = np.exp(1j * w_probe * samples)
        current = np.trapezoid(rho_ge * kernel, samples) / window
        state, t_now = sol.y[:, -1], sol.t[-1]
        if amplitude is not None and \
                abs(current - amplitude) <= 2e-3 * abs(current) + 1e-13 * eps:
            return complex(current / eps)
        amplitude = current
    raise IntegrationFailure("probe Fourier component did not settle")
