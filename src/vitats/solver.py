"""Steady states, populations, probe spectra, and peak analysis.

Spectra are reported in normalized units chi/beta (dimensionless since all
rates are multiples of gamma_ref). Three routes to the same quantity:

- analytic: the closed-form vacuum susceptibility (no pumping).
- linear_response: probe-free steady state rho0, then the first-order
  coherence correction solved exactly on the read-out block of the sparse
  Liouvillian; the probe amplitude is eliminated analytically. Any pump.
- finite_epsilon: full steady state including the probe term at amplitude
  epsilon, chi = rho_ge/epsilon; carries an automatic linearity check.

The steady-state solve replaces one redundant row of L with the trace
functional and solves L~ x = e_r (sparse LU). Uniqueness is asserted by a
second solve with a different replaced row agreeing within 1e-8.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp
from scipy.sparse.csgraph import connected_components
from scipy.signal import find_peaks as _scipy_find_peaks

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
    SuperOperator,
    assemble_liouvillian,
    build_operators,
    collapse_set,
    liouvillian_at,
    trace_indices,
    unvec,
    vec,
)
from .model import LEVELS, SystemParams, half_widths, validate_params

_TAIL_TOL = 1e-8
_UNIQUENESS_TOL = 1e-8


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


def _replace_row(matrix: sp.csr_matrix, row: int, cols: np.ndarray,
                 vals: np.ndarray) -> sp.csr_matrix:
    """Return a copy of matrix with one row replaced by the given entries."""
    out = matrix.tolil(copy=True)
    out.rows[row] = [int(c) for c in cols]
    out.data[row] = [complex(v) for v in vals]
    return out.tocsr()


def _sparse_solve(matrix: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    try:
        lu = spla.splu(matrix.tocsc())
        x = lu.solve(rhs)
    except RuntimeError as exc:  # SuperLU: singular factor
        raise SolverFailure(f"sparse LU solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolverFailure("sparse solve produced non-finite values")
    return x


def steady_state(sop: SuperOperator, *, check_uniqueness: bool = True) -> SteadyState:
    """Unique trace-one kernel vector of the Liouvillian.

    Replaces the row of the first diagonal element with the trace functional
    and solves; when check_uniqueness, repeats with a different diagonal row
    replaced and requires agreement within 1e-8 elementwise.
    """
    dim = sop.spec.dim
    lmat = sop.matrix
    diag_idx = trace_indices(dim)
    ones = np.ones(dim)

    def solve_with_row(row: int) -> np.ndarray:
        constrained = _replace_row(lmat, row, diag_idx, ones)
        rhs = np.zeros(dim * dim, dtype=complex)
        rhs[row] = 1.0
        return _sparse_solve(constrained, rhs)

    x = solve_with_row(int(diag_idx[0]))
    if check_uniqueness:
        other = int(diag_idx[np.random.default_rng(0).integers(1, dim)])
        x2 = solve_with_row(other)
        gap = np.abs(x - x2).max()
        if gap > _UNIQUENESS_TOL:
            raise NonUniqueSteadyState(
                f"two trace-completed solves differ by {gap:.3e} (> {_UNIQUENESS_TOL})")

    rho = unvec(x, dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    residual = float(np.linalg.norm(lmat @ vec(rho)))
    scale = float(np.abs(lmat.data).max()) if lmat.nnz else 1.0
    return SteadyState(rho=rho, residual_norm=residual, n_max=sop.spec.n_max,
                       converged=residual <= 1e-9 * max(1.0, scale))


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


def probe_free_state(params: SystemParams, n_max: int, *,
                     check_uniqueness: bool = True):
    """(L0, steady state, TruncationReport) without the probe; warns
    (TruncationNotConverged) unless the tail mass converged."""
    sop = liouvillian_at(params, 0.0, HilbertSpec(n_max), epsilon=0.0)
    state = steady_state(sop, check_uniqueness=check_uniqueness)
    report = truncation_report(state)
    if not report.converged:
        warnings.warn(report.message, TruncationNotConverged, stacklevel=3)
    return sop, state, report


def check_truncation_convergence(params: SystemParams, n_max: int) -> TruncationReport:
    """Steady-state tail mass near the Fock cutoff; converged iff < 1e-8."""
    return probe_free_state(params, n_max, check_uniqueness=False)[2]


# --- spectrum methods ---------------------------------------------------------

def _probe_commutator_rhs(rho0: np.ndarray, spec: HilbertSpec) -> np.ndarray:
    """i * vec([V, rho0]) with V = sigma_eg + sigma_ge (probe per unit eps)."""
    ops = build_operators(spec)
    v = (ops.sigma[("e", "g")] + ops.sigma[("g", "e")]).toarray()
    return 1j * vec(v @ rho0 - rho0 @ v)


def _ge_vec_indices(spec: HilbertSpec) -> np.ndarray:
    """vec indices of rho[(n,g), (n,e)], summed for the probe coherence."""
    dim = spec.dim
    rows = np.array([spec.index(n, "g") for n in range(spec.n_max + 1)])
    cols = np.array([spec.index(n, "e") for n in range(spec.n_max + 1)])
    return rows + dim * cols


def _delta_derivative_superop(spec: HilbertSpec) -> sp.csr_matrix:
    """dL/dDelta: L is affine in Delta through H += Delta*(sigma_ee+sigma_ff)."""
    ops = build_operators(spec)
    proj = (ops.sigma[("e", "e")] + ops.sigma[("f", "f")]).tocsr()
    eye = sp.identity(spec.dim, format="csr", dtype=complex)
    return (-1j * (sp.kron(eye, proj, format="csr")
                   - sp.kron(proj.T, eye, format="csr"))).tocsr()


def _readout_block(l0: sp.csr_matrix, rho0: np.ndarray, spec: HilbertSpec):
    """(L0, rhs, read-out positions) on the weakly connected components of
    L0's graph that hold the read-out. L0 is block diagonal across them and
    every block element is a |g,m><x,n| coherence with x in {e, f}, on which
    dL/dDelta is exactly +1j, so the restriction is exact."""
    graph = abs(l0)  # real: csgraph would cast a complex matrix with a warning
    graph.eliminate_zeros()
    _, labels = connected_components(graph, directed=True, connection="weak")
    out_idx = _ge_vec_indices(spec)
    block = np.flatnonzero(np.isin(labels, labels[out_idx]))
    return (l0[block][:, block], _probe_commutator_rhs(rho0, spec)[block],
            np.searchsorted(block, out_idx))


def _linear_response_chunk(base: sp.csr_matrix, rhs: np.ndarray, out: np.ndarray,
                           deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """chi/beta and residual norm at each Delta from the block solve."""
    eye = sp.identity(base.shape[0], dtype=complex, format="csr")
    chi = np.empty(len(deltas), dtype=complex)
    resid = np.empty(len(deltas))
    for k, delta_p in enumerate(deltas):
        matrix = (base + 1j * float(delta_p) * eye).tocsr()
        x = _sparse_solve(matrix, rhs)
        chi[k] = x[out].sum()
        resid[k] = float(np.linalg.norm(matrix @ x - rhs))
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
        sop = SuperOperator(matrix=matrix, spec=spec,
                            probe_detuning=float(delta_p),
                            pump_detuning=base.pump_detuning)
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
    cutoff. workers > 1 distributes grid chunks of the per-point solve over
    at most os.cpu_count() processes; output is assembled in grid order
    regardless of scheduling.
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

    sop, state, report = probe_free_state(params, n_max)
    if not report.converged:
        notes.append(f"TruncationNotConverged: {report.message}")

    if method == "linear_response":
        solve = partial(_linear_response_chunk,
                        *_readout_block(sop.matrix, state.rho, sop.spec))
    else:
        solve = partial(_finite_epsilon_chunk, params, n_max,
                        epsilon=params.epsilon)
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and grid.size > 1:
        pieces = np.array_split(grid, min(workers, grid.size))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(solve, pieces))
    else:
        results = [solve(grid)]
    chi = np.concatenate([r[0] for r in results])
    resid = np.concatenate([r[1] for r in results])

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

    ops = build_operators(spec)
    dd = params.pump_detuning
    h_static = (dd * ops.n_op
                + (params.delta - dd) * ops.sigma[("f", "f")]
                + params.eta * (ops.sigma[("e", "f")] @ ops.a
                                + ops.a_dag @ ops.sigma[("f", "e")])
                + params.Omega * (ops.a_dag + ops.a)).tocsr()
    l_static = assemble_liouvillian(h_static, collapse_set(params, spec), spec).matrix
    plus = ops.sigma[("e", "g")].tocsr()
    minus = ops.sigma[("g", "e")].tocsr()
    eye = sp.identity(spec.dim, format="csr", dtype=complex)
    k_plus = (-1j * (sp.kron(eye, plus) - sp.kron(plus.T, eye))).tocsr()
    k_minus = (-1j * (sp.kron(eye, minus) - sp.kron(minus.T, eye))).tocsr()

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
