"""Steady-state, spectrum, peak-detection, and cross-check solver tests.

Numeric oracles: the probe-free steady state factorizes exactly into
(cavity state) x |g><g| because nothing pumps the atom without the probe, so
thermal pumping must reproduce the geometric photon distribution and coherent
pumping the displaced vacuum with alpha = -i*Omega/kappa. The probe spectrum
routes are cross-checked against the closed form where it is valid, and the
read-out block solve against a lab-frame solve with one sparse LU per point.
"""

import json
import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from vitats import (
    AnalyticInvalidHere,
    CoherentPump,
    HilbertSpec,
    IntegrationFailure,
    LinearityWarning,
    NonUniqueSteadyState,
    ParameterError,
    PreconditionError,
    ResolutionWarning,
    SolverFailure,
    SuperOperator,
    SystemParams,
    ThermalPump,
    TruncationNotConverged,
    chi_vacuum,
    check_truncation_convergence,
    find_peaks,
    liouvillian_at,
    populations,
    probe_spectrum,
    steady_state,
    time_domain_crosscheck,
    truncation_report,
)
from vitats import cli, liouvillian, solver
from vitats.liouvillian import build_operators, factors_at, lindblad_factors, vec

FIG5B = SystemParams.from_effective(10.0, 1.0, eta=3.9, kappa=1.0)


def _probe_free_state(params, n_max, **kw):
    sop = liouvillian_at(params, 0.0, HilbertSpec(n_max), epsilon=0.0)
    return steady_state(sop, **kw)


def _coherent_vector(alpha: complex, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n_max + 1)))))
    amps = np.exp(-0.5 * abs(alpha) ** 2) * alpha ** n / np.exp(0.5 * log_fact)
    return amps


def _trace_distance(rho, sigma):
    return 0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum()


def _joint_cavity_times_g(cavity_rho):
    g = np.zeros((3, 3))
    g[0, 0] = 1.0
    return np.kron(cavity_rho, g)


def test_vacuum_steady_state_exact():
    state = _probe_free_state(SystemParams.from_effective(5, 1, eta=4, kappa=1), 4)
    expected = np.zeros_like(state.rho)
    expected[0, 0] = 1.0
    assert np.abs(state.rho - expected).max() < 1e-12
    assert state.converged
    assert state.n_max == 4 and state.spec.dim == 15


def test_steady_state_physicality_invariants():
    cases = [
        SystemParams.from_effective(5, 1, eta=4, kappa=1),
        SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                    pump=ThermalPump(n_th=0.3)),
        SystemParams.from_effective(5, 1, eta=4, kappa=1, delta=1.7,
                                    pump=CoherentPump(Omega=0.6,
                                                      pump_detuning=0.4)),
    ]
    for p in cases:
        state = _probe_free_state(p, 12)
        rho = state.rho
        assert abs(np.trace(rho) - 1) < 1e-10
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-8
        assert state.converged and state.residual_norm < 1e-8


def test_thermal_steady_state_is_geometric():
    n_th = 0.05
    p = SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                    pump=ThermalPump(n_th=n_th))
    state = _probe_free_state(p, 30)
    q = n_th / (1 + n_th)
    weights = q ** np.arange(31)
    cavity = np.diag(weights / weights.sum()).astype(complex)
    assert _trace_distance(state.rho, _joint_cavity_times_g(cavity)) < 1e-8


def test_thermal_populations_halve_at_nth_one():
    p = SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                    pump=ThermalPump(n_th=1.0))
    state = _probe_free_state(p, 45)
    table = populations(state)
    # n_th = 1 gives p_n = 2^-(n+1); truncation bias at n_max = 45 is 2^-46
    for n in range(21):
        assert table.p_n[n] == pytest.approx(2.0 ** -(n + 1), abs=1e-8)
    assert abs(sum(table.joint.values()) - 1) < 1e-9
    assert table.joint[(0, "e")] == 0.0 and table.joint[(3, "f")] == 0.0


def test_coherent_steady_state_is_displaced_vacuum():
    p = SystemParams.from_effective(5, 1, eta=80, kappa=1,
                                    pump=CoherentPump(Omega=0.4))
    state = _probe_free_state(p, 30)
    amps = _coherent_vector(-0.4j, 30)
    cavity = np.outer(amps, amps.conj())
    assert _trace_distance(state.rho, _joint_cavity_times_g(cavity)) < 1e-6
    table = populations(state)
    assert table.p_n[0] == pytest.approx(math.exp(-0.16), abs=1e-8)
    assert table.p_n[1] == pytest.approx(0.16 * math.exp(-0.16), abs=1e-8)


def test_dissipationless_system_has_no_unique_steady_state():
    p = SystemParams(gamma={}, eta=2.0, kappa=0.0)
    with pytest.raises((NonUniqueSteadyState, SolverFailure)):
        _probe_free_state(p, 3)


def test_uniqueness_check_can_be_skipped():
    p = SystemParams.from_effective(5, 1, eta=4, kappa=1)
    state = _probe_free_state(p, 3, check_uniqueness=False)
    assert state.converged


def test_probe_free_factors_take_params_as_built():
    # construction completes the gamma map: a private helper reads
    # gamma[(e, f)] without anything validating the params first
    p = SystemParams.from_effective(5, 1, eta=4, kappa=1)
    factors = solver._probe_free_factors(p, 4)
    want = factors_at(p, 0.0, HilbertSpec(4), epsilon=0.0)
    for name in ("m", "n", "jumps"):
        assert np.array_equal(getattr(factors, name), getattr(want, name))


_ORACLE_SYSTEMS = [
    SystemParams.from_effective(5, 1, eta=4, kappa=1),
    SystemParams.from_effective(5, 1, eta=2, kappa=0.2, pump=ThermalPump(n_th=0.3)),
    SystemParams.from_effective(5, 1, eta=80, kappa=1, pump=CoherentPump(Omega=0.8)),
    SystemParams.from_effective(5, 1, eta=4, kappa=1, delta=1.3,
                                pump=CoherentPump(Omega=0.7, pump_detuning=0.9)),
    SystemParams(gamma={("e", "g"): 6.0, ("e", "f"): 1.5, ("e", "e"): 0.8,
                        ("f", "g"): 1.2, ("f", "f"): 0.4},
                 eta=4.0, kappa=1.0, delta=-0.4, pump=ThermalPump(n_th=0.4)),
]


def _assert_factorized_matches_full_space(params, n_max):
    full = _probe_free_state(params, n_max)
    _, state, _ = solver.probe_free_state(params, n_max)
    assert np.abs(state.rho - full.rho).max() <= 1e-12
    assert state.converged and state.n_max == n_max
    return state


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("params", _ORACLE_SYSTEMS,
                         ids=["vacuum", "thermal", "coherent", "coherent-detuned",
                              "full-gamma-map"])
def test_factorized_probe_free_state_matches_full_space(params):
    state = _assert_factorized_matches_full_space(params, 12)
    # |g><g| (x) rho_cav: nothing outside the ground rows and columns
    off_ground = np.ones(state.rho.shape, dtype=bool)
    off_ground[::3, ::3] = False
    assert not state.rho[off_ground].any()


def _unique_by_svd(params, n_max):
    """Whether the dense L0 has a one-dimensional kernel: its second-smallest
    singular value, relative to the largest entry, is above 1e-10. The
    inputs below keep that value clear of the threshold."""
    lmat = liouvillian_at(params, 0.0, HilbertSpec(n_max), epsilon=0.0).matrix
    if lmat.nnz == 0:
        return False  # L0 = 0: every state is steady
    second = np.linalg.svd(lmat.toarray(), compute_uv=False)[-2] / abs(lmat).max()
    assert not 1e-13 < second < 1e-7, "ill-conditioned example"
    return second > 1e-10


# each parameter is either exactly zero (a structural degeneracy) or of order
# one, so every example is either clearly unique or clearly not
def _zero_or(lo, hi):
    return st.one_of(st.just(0.0), st.floats(lo, hi))


def _zero_or_signed(lo, hi):
    return st.one_of(_zero_or(lo, hi), st.floats(-hi, -lo))


_PUMP = st.one_of(
    st.builds(ThermalPump, _zero_or(0.05, 0.5)),
    st.builds(CoherentPump, _zero_or(0.1, 0.8), _zero_or_signed(0.2, 2.0)))


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gamma=st.fixed_dictionaries({pair: _zero_or(0.2, 10.0) for pair in (
           ("e", "g"), ("e", "f"), ("e", "e"), ("f", "g"), ("f", "f"))}),
       eta=_zero_or(0.5, 5.0), kappa=_zero_or(0.5, 3.0),
       delta=_zero_or_signed(0.2, 3.0), pump=_PUMP)
def test_factorized_probe_free_state_matches_full_space_randomized(
        gamma, eta, kappa, delta, pump):
    params = SystemParams(gamma=gamma, eta=eta, kappa=kappa, delta=delta, pump=pump)
    if _unique_by_svd(params, 4):
        _assert_factorized_matches_full_space(params, 4)
    else:
        with pytest.raises((NonUniqueSteadyState, SolverFailure)):
            solver.probe_free_state(params, 4)
        with pytest.raises((NonUniqueSteadyState, SolverFailure)):
            _probe_free_state(params, 4)


# kappa starts at 0.01, not at 0: the full-space oracle's own error grows
# like 1/kappa (4e-14 at kappa = 1e-5, 6e-12 at 1e-7), and near 1e-9 its
# sigma_min bound refuses the cavity as not unique
_DRAINING_GAMMA = st.fixed_dictionaries({
    ("e", "g"): st.floats(0.5, 10.0), ("f", "g"): st.floats(0.2, 5.0),
    ("e", "e"): _zero_or(0.2, 3.0), ("f", "f"): _zero_or(0.2, 3.0)})


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_th=st.floats(0.0, 3.0), kappa=st.floats(0.01, 5.0),
       delta=st.floats(-3.0, 3.0), pump_detuning=_zero_or_signed(0.2, 3.0),
       thermal=st.booleans(), eta=st.floats(0.0, 5.0), gamma=_DRAINING_GAMMA,
       n_max=st.integers(1, 8))
def test_closed_form_cavity_state_matches_full_space(n_th, kappa, delta, pump_detuning,
                                                     thermal, eta, gamma, n_max):
    # the Omega = 0 closed form (a thermal bath, or a detuned drive of zero
    # amplitude: the vacuum) against steady_state on the full D^2 x D^2 L0
    pump = ThermalPump(n_th) if thermal else CoherentPump(0.0, pump_detuning)
    params = SystemParams(gamma=gamma, eta=eta, kappa=kappa, delta=delta, pump=pump)
    full = _probe_free_state(params, n_max)
    _, state, _ = solver.probe_free_state(params, n_max)
    assert _trace_distance(state.rho, full.rho) <= 1e-12


# kappa starts at 0.01 for the reason given above; e and f drain to g (the
# {f, e} sector check has its own tests), with e -> f and dephasing on or off
@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gamma=st.fixed_dictionaries({
           ("e", "g"): st.floats(0.5, 10.0), ("e", "f"): _zero_or(0.2, 5.0),
           ("e", "e"): _zero_or(0.2, 3.0), ("f", "g"): st.floats(0.2, 5.0),
           ("f", "f"): _zero_or(0.2, 3.0)}),
       pump=st.one_of(st.builds(ThermalPump, _zero_or(0.05, 3.0)),
                      st.builds(CoherentPump, st.just(0.0), _zero_or_signed(0.2, 3.0))),
       eta=_zero_or(0.5, 5.0), kappa=st.floats(0.01, 5.0),
       delta=_zero_or_signed(0.2, 3.0), n_max=st.integers(1, 12))
def test_probe_free_state_shares_the_readout_frame(gamma, pump, eta, kappa, delta,
                                                   n_max):
    # a thermal pump or the vacuum (Omega = 0): probe_free_state's P and
    # joint populations are the read-out frame's weights, bit for bit, with
    # its tail and residual, and the state still matches steady_state on
    # the full D^2 x D^2 L0
    params = SystemParams(gamma=gamma, eta=eta, kappa=kappa, delta=delta, pump=pump)
    _, weights, report, residual, _, _ = solver._readout_frame(params, n_max)
    _, state, lab_report = solver.probe_free_state(params, n_max)
    table = populations(state)
    assert np.array_equal(table.p_n, weights)
    assert table.joint == {(n, level): float(weights[n]) if level == "g" else 0.0
                           for n in range(n_max + 1) for level in ("g", "f", "e")}
    assert lab_report == report and state.residual_norm == residual
    assert _trace_distance(state.rho, _probe_free_state(params, n_max).rho) <= 1e-12


# kappa starts at 0.01 for the reason given above
@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(omega=st.floats(0.0, 2.0, exclude_min=True), kappa=st.floats(0.01, 5.0),
       delta=st.floats(-3.0, 3.0), pump_detuning=_zero_or_signed(0.2, 3.0),
       eta=st.floats(0.0, 5.0), gamma=_DRAINING_GAMMA, n_max=st.integers(1, 8))
def test_banded_cavity_state_matches_full_space(omega, kappa, delta, pump_detuning,
                                                eta, gamma, n_max):
    # the coherent pump's band LU on the cavity block against steady_state
    # (SuperLU) on the full D^2 x D^2 L0
    params = SystemParams(gamma=gamma, eta=eta, kappa=kappa, delta=delta,
                          pump=CoherentPump(omega, pump_detuning))
    full = _probe_free_state(params, n_max)
    _, state, _ = solver.probe_free_state(params, n_max)
    assert _trace_distance(state.rho, full.rho) <= 1e-12


def _cavity_block(params, n_max):
    ground = 3 * np.arange(n_max + 1)
    factors = factors_at(params, 0.0, HilbertSpec(n_max), epsilon=0.0)
    solver._ground_block(factors)
    return factors.block(ground, ground)


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("n_max", [1, 2, 7, 16, 30])
@pytest.mark.parametrize("params", [
    SystemParams.from_effective(5, 1, eta=80, kappa=1, pump=CoherentPump(Omega=0.8)),
    SystemParams.from_effective(5, 1, eta=4, kappa=0.3, delta=1.3,
                                pump=CoherentPump(Omega=1.5, pump_detuning=-0.9)),
], ids=["on-resonance", "detuned"])
def test_banded_cavity_solve_matches_sparse_lu(monkeypatch, params, n_max):
    # the same trace-completed block, by band LU in _offset_order and by
    # SuperLU in vec order; the order keeps (kl, ku) at (n_max+1, n_max+1)
    cavity = _cavity_block(params, n_max)
    sparse = solver._trace_completed_solve(cavity, n_max + 1, check_uniqueness=True)
    widths, zgbsv = [], solver.zgbsv

    def recording(kl, ku, *args, **kwargs):
        widths.append((kl, ku))
        return zgbsv(kl, ku, *args, **kwargs)

    monkeypatch.setattr(solver, "zgbsv", recording)
    banded = solver._banded_cavity_solve(cavity, n_max + 1)
    assert np.abs(banded - sparse).max() <= 1e-14
    assert widths == [(n_max + 1, n_max + 1)]


def _lil_trace_completed(lmat, dim):
    """lmat with row 0 replaced by the trace functional, by LIL row surgery."""
    ref = lmat.tolil()
    ref.rows[0] = list(range(0, dim * dim, dim + 1))
    ref.data[0] = [1.0] * dim
    return ref.tocsr()


@pytest.mark.parametrize("lmat, dim", [
    (liouvillian_at(SystemParams.from_effective(5, 1, eta=2, kappa=0.2,
                                                pump=ThermalPump(n_th=0.3)),
                    0.0, HilbertSpec(3), epsilon=0.0).matrix, 12),
    (liouvillian_at(SystemParams.from_effective(
        5, 1, eta=4, kappa=1, delta=1.3, pump=CoherentPump(Omega=0.7, pump_detuning=0.9)),
        0.0, HilbertSpec(3), epsilon=0.0).matrix, 12),
    (_cavity_block(SystemParams.from_effective(
        5, 1, eta=4, kappa=0.3, pump=CoherentPump(Omega=1.5, pump_detuning=-0.9)), 8), 9),
], ids=["thermal-l0", "coherent-l0", "coherent-cavity"])
def test_trace_completed_is_lil_row_replacement(lmat, dim):
    completed = solver._trace_completed(lmat, dim)
    reference = _lil_trace_completed(lmat, dim)
    assert completed.shape == reference.shape
    assert np.array_equal(completed.toarray(), reference.toarray())
    # only row 0 differs from lmat, and it is the trace functional
    assert np.array_equal(completed[1:].toarray(), lmat[1:].toarray())
    assert np.array_equal(completed[0].toarray().ravel(),
                          np.eye(dim).reshape(-1, order="F"))
    assert not np.array_equal(completed[0].toarray(), lmat[0].toarray())


def _decay_generator(rate: float, dim: int) -> sp.csr_matrix:
    """vec-order generator of an oscillator truncated at dim levels that
    decays at the given rate: c = sqrt(rate) a, no Hamiltonian."""
    c = np.sqrt(rate) * np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    cdc, eye = c.T @ c, np.eye(dim)
    return sp.csr_matrix(np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc)
                         - 0.5 * np.kron(cdc.T, eye))


def test_banded_cavity_solve_refuses_a_singular_block(capfd):
    # L = 0: every state is steady, the trace-completed block has rank 1;
    # zgbsv meets a zero pivot, which is reported without LAPACK's words
    with pytest.raises(NonUniqueSteadyState, match="not unique") as raised:
        solver._banded_cavity_solve(sp.csr_matrix((9, 9), dtype=complex), 3)
    assert "zgbsv" not in str(raised.value) and "info" not in str(raised.value)
    assert capfd.readouterr() == ("", "")


def test_banded_cavity_solve_refuses_a_nearly_singular_block(capfd):
    # a decay rate of 1e-12 leaves sigma_min far below the 1e-9 tolerance,
    # though every pivot is nonzero; at rate 1 the same block is accepted
    dim = 3
    rho = solver._banded_cavity_solve(_decay_generator(1.0, dim), dim)
    assert np.abs(rho - np.diag([1.0, 0.0, 0.0])).max() <= 1e-15
    weak = _decay_generator(1e-12, dim)
    with pytest.raises(NonUniqueSteadyState, match="has a singular value") as raised:
        solver._banded_cavity_solve(weak, dim)
    assert "zgbsv" not in str(raised.value) and "info" not in str(raised.value)
    assert capfd.readouterr() == ("", "")


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("pump", [ThermalPump(n_th=0.3), CoherentPump(Omega=0.5)],
                         ids=["thermal", "coherent"])
def test_factorized_state_accepts_undrained_f_under_a_pump(pump):
    # gamma_fg = 0, yet the pumped cavity feeds |f,0> back to g through
    # |e,1>, so the full-space state is unique
    params = SystemParams(gamma={("e", "g"): 10.0}, eta=2.0, kappa=1.0, pump=pump)
    _assert_factorized_matches_full_space(params, 8)


def test_factorized_state_rejects_dark_f_in_the_vacuum():
    # gamma_fg = 0 and no photons: |f,0><f,0| is a second steady state
    params = SystemParams(gamma={("e", "g"): 10.0}, eta=2.0, kappa=1.0,
                          pump=ThermalPump(n_th=0.0))
    with pytest.raises((NonUniqueSteadyState, SolverFailure)):
        _probe_free_state(params, 8)
    with pytest.raises((NonUniqueSteadyState, SolverFailure)):
        solver.probe_free_state(params, 8)


@pytest.mark.parametrize("call", [
    lambda p: solver.probe_free_state(p, 4),
    lambda p: check_truncation_convergence(p, 4),
    lambda p: probe_spectrum(p, np.linspace(-1, 1, 3), n_max=4),
    lambda p: probe_spectrum(p, np.linspace(-1, 1, 3), n_max=4, method="finite_epsilon"),
], ids=["probe_free_state", "check_truncation_convergence", "linear_response",
        "finite_epsilon"])
@pytest.mark.parametrize("pump", [ThermalPump(n_th=0.3), CoherentPump(Omega=1.5)],
                         ids=["thermal", "coherent"])
def test_truncation_warning_names_the_caller(call, pump):
    # however deep in the solver the tail report is made (the read-out
    # frame, or the lab-frame band solve), its warning points at the line
    # that called into the library
    params = SystemParams.from_effective(5, 1, eta=4, kappa=1, pump=pump)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(params)
    tails = [w for w in caught if w.category is TruncationNotConverged]
    assert len(tails) == 1 and tails[0].filename == __file__


_ONE_TAIL_SYSTEMS = [
    SystemParams.from_effective(5, 1, eta=4, kappa=1),
    SystemParams.from_effective(5, 1, eta=4, kappa=1, pump=ThermalPump(n_th=0.3)),
    SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                pump=CoherentPump(Omega=1.5, pump_detuning=-0.3)),
    SystemParams(gamma={("e", "g"): 10.0}, eta=2.0, kappa=1.0, pump=ThermalPump(n_th=0.3)),
    SystemParams(gamma={("e", "g"): 10.0}, eta=2.0, kappa=1.0,
                 pump=CoherentPump(Omega=0.5, pump_detuning=0.7)),
]


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("params", _ONE_TAIL_SYSTEMS,
                         ids=["vacuum", "thermal", "coherent-detuned", "undrained-f-thermal",
                              "undrained-f-coherent"])
def test_every_numeric_route_reports_the_readout_frame_tail(params):
    # linear_response, finite_epsilon and check_truncation_convergence take
    # one report from the read-out frame: under a coherent pump the Poisson
    # tail of |alpha|^2 (1.544e-01 for the detuned system at n_max 8), not
    # the lab-frame band solve's (1.522e-01)
    n_max, grid = 8, np.linspace(-5, 5, 3)
    report = solver._readout_frame(params, n_max)[2]
    assert check_truncation_convergence(params, n_max) == report
    want = () if report.converged else (f"TruncationNotConverged: {report.message}",)
    for method in ("linear_response", "finite_epsilon"):
        assert probe_spectrum(params, grid, method=method, n_max=n_max).warnings == want
    if params.Omega == 1.5:
        assert f"{report.tail_mass:.3e}" == "1.544e-01"


def test_truncation_check_refuses_a_non_unique_state():
    # the dark-f vacuum above: no tail mass is reported for a state that is
    # not unique
    params = SystemParams(gamma={("e", "g"): 10.0}, eta=2.0, kappa=1.0,
                          pump=ThermalPump(n_th=0.0))
    with pytest.raises(NonUniqueSteadyState, match="the {f, e} block"):
        check_truncation_convergence(params, 8)


def _large_drive(omega):
    return SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                       pump=CoherentPump(Omega=omega, pump_detuning=0.5))


def test_large_drive_is_ill_conditioned_not_non_unique(tmp_path, capsys):
    # kappa > 0 makes the coherent cavity state unique at any drive; at
    # Omega 1e12 the band LU's sigma_min bound fails against a tolerance that
    # grows with max|L_GG|, so with Omega: the lab-frame block is
    # ill-conditioned, while the read-out frame reports the Poisson tail
    with pytest.warns(TruncationNotConverged, match="tail mass 1.000e"):
        report = check_truncation_convergence(_large_drive(1e12), 6)
    assert report.tail_mass == 1.0 and not report.converged
    with pytest.raises(SolverFailure, match="ill-conditioned") as raised:
        solver.probe_free_state(_large_drive(1e12), 6)
    assert "singular value <= 3.718e+00" in str(raised.value)
    assert "tolerance" in str(raised.value)
    with pytest.warns(TruncationNotConverged):
        _, _, report = solver.probe_free_state(_large_drive(1e6), 6)
    assert report.tail_mass == pytest.approx(0.714, abs=5e-4)

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"gamma_e": 5, "gamma_f": 1, "eta": 4, "kappa": 1,
                               "Omega": 1e12, "pump_detuning": 0.5, "n_max": 6,
                               "output": str(tmp_path / "p.csv")}), encoding="utf-8")
    assert cli.main(["populations", "--config", str(cfg)]) == 4
    assert "ill-conditioned" in capsys.readouterr().err


@pytest.mark.parametrize("pump", [None, ThermalPump(n_th=0.3), CoherentPump(Omega=0.5)],
                         ids=["vacuum", "thermal", "coherent"])
def test_factorized_state_rejects_lossless_cavity(pump):
    params = SystemParams.from_effective(5, 1, eta=2, kappa=0.0, pump=pump)
    with pytest.raises((NonUniqueSteadyState, SolverFailure)):
        solver.probe_free_state(params, 6)


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
def test_one_lu_per_steady_state(monkeypatch):
    # the uniqueness check reuses the factor of the solve
    calls = _count_assemblies_and_lus(monkeypatch)
    params = SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                         pump=ThermalPump(n_th=0.3))
    assert params.gamma[("f", "g")] > 0 and params.gamma[("e", "g")] > 0
    _probe_free_state(params, 4)
    assert calls["splu"] == {225: 1} and calls["band_lu"] == {}
    calls.update(splu=Counter(), band_lu=Counter())
    solver.probe_free_state(params, 4)  # f and e drain: closed-form Bose state
    assert calls["splu"] == {} and calls["band_lu"] == {}
    solver.probe_free_state(replace(params, pump=CoherentPump(Omega=0.5)), 4)
    # a coherent pump: one band LU of the 25-dim cavity block, no SuperLU
    assert calls["splu"] == {} and calls["band_lu"] == {25: 1}
    assert calls["tridiagonal_lu"] == {}  # the cavity block is no chain


def test_full_space_steady_state_keeps_one_sparse_lu(monkeypatch):
    # the full-space oracle must not share the band path it checks: in vec
    # order its D^2 x D^2 L0 has no narrow band
    params = SystemParams.from_effective(5, 1, eta=80, kappa=1,
                                         pump=CoherentPump(Omega=0.8))
    sop = liouvillian_at(params, 0.0, HilbertSpec(20), epsilon=0.0)
    calls = _count_assemblies_and_lus(monkeypatch)
    steady_state(sop)
    assert calls == {"blocks": [], "splu": {3969: 1}, "band_lu": {}, "tridiagonal_lu": {}}


@pytest.mark.parametrize("delta_p, epsilon", [(0.0, 0.0), (3.0, 1e-3)],
                         ids=["l0", "probed"])
def test_sparse_lu_fills_less_than_colamd(delta_p, epsilon):
    # _factor's minimum-degree ordering of A^T + A with weak diagonal
    # pivoting, against SuperLU's default COLAMD with partial pivoting, on
    # the same trace-completed full-space matrix: the coherent L0 at
    # n_max = 20 and finite_epsilon's probed L at one detuning
    params = SystemParams.from_effective(5, 1, eta=80, kappa=1,
                                         pump=CoherentPump(Omega=0.4))
    spec = HilbertSpec(20)
    sop = liouvillian_at(params, delta_p, spec, epsilon=epsilon)
    matrix = solver._trace_completed(sop.matrix, spec.dim).tocsc()
    colamd = spla.splu(matrix)
    lu = solver._factor(matrix, "L")
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz
    rhs = np.zeros(matrix.shape[0], dtype=complex)
    rhs[0] = 1.0
    assert np.linalg.norm(matrix @ lu.solve(rhs) - rhs) <= 1e-14


def test_probe_free_state_raises_when_residual_not_converged(monkeypatch):
    solve = solver._banded_cavity_solve

    def perturbed(*args, **kwargs):
        rho = solve(*args, **kwargs)
        return rho + 1e-4 * np.eye(rho.shape[0])

    monkeypatch.setattr(solver, "_banded_cavity_solve", perturbed)
    params = SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                         pump=CoherentPump(Omega=0.5))
    with pytest.raises(SolverFailure, match="residual"):
        solver.probe_free_state(params, 8)


_GATE_SYSTEMS = [
    ("_bose_weights", SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                                  pump=ThermalPump(n_th=0.3))),
    ("_banded_cavity_solve", SystemParams.from_effective(
        5, 1, eta=4, kappa=1, pump=CoherentPump(Omega=0.5, pump_detuning=0.7))),
]


def _recording_ground_gate(monkeypatch) -> list:
    """The tolerances solver._ground_gate returns, in order; the gate itself
    still runs."""
    tols, gate = [], solver._ground_gate

    def recording(*args):
        residual, tol = gate(*args)
        tols.append(tol)
        return residual, tol

    monkeypatch.setattr(solver, "_ground_gate", recording)
    return tols


def _assembled_ground_residual(factors, weights):
    """||L_GG vec(diag(weights))|| on the assembled |g><g| block of factors."""
    ground = 3 * np.arange(weights.size)
    return np.linalg.norm(factors.block(ground, ground) @ vec(np.diag(weights)))


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("source, params", _GATE_SYSTEMS, ids=["thermal", "coherent"])
@pytest.mark.parametrize("multiple, fails", [(2.0, True), (0.5, False)],
                         ids=["2x-raises", "half-passes"])
def test_probe_free_residual_gate_sits_at_the_tolerance(monkeypatch, source, params,
                                                        multiple, fails):
    # a thermal pump is gated in the read-out frame: P + t (e_0 - e_1),
    # scaled so that its residual in the assembled lab-frame L_GG is the
    # given multiple of that gate's tolerance. A coherent pump is gated on
    # the assembled block: rho_cav + t X, X = |0><1| + |1><0| traceless,
    # scaled so that ||L_GG vec(rho_cav + t X)|| is the given multiple of
    # _residual_tol. Either state's own residual is ~1e-16, far below
    n_max = 6
    if source == "_bose_weights":
        tols = _recording_ground_gate(monkeypatch)
        factors = solver.probe_free_state(params, n_max)[0]
        tol = tols[0]
        bump = np.zeros(n_max + 1)
        bump[:2] = 1.0, -1.0
        scale = multiple * tol / _assembled_ground_residual(factors, bump)
    else:
        cavity = _cavity_block(params, n_max)
        tol = solver._residual_tol(cavity)
        bump = np.zeros((n_max + 1, n_max + 1))
        bump[0, 1] = bump[1, 0] = 1.0
        scale = multiple * tol / np.linalg.norm(cavity @ vec(bump))
    produce = getattr(solver, source)
    monkeypatch.setattr(solver, source,
                        lambda *args, **kwargs: produce(*args, **kwargs) + scale * bump)
    if fails:
        with pytest.raises(SolverFailure, match="residual"):
            solver.probe_free_state(params, n_max)
    else:
        _, state, _ = solver.probe_free_state(params, n_max)
        assert state.residual_norm == pytest.approx(multiple * tol, rel=1e-3)


def _with_jump(factors, jump):
    """factors with one more jump operator (M, N left as they are)."""
    return replace(factors, jumps=np.concatenate([factors.jumps, jump[None]]))


def test_cavity_block_rejects_a_leaking_generator(monkeypatch):
    # an extra jump |f><g| takes |g,m><g,n| to |f,m><f,n|, out of the block
    spec = HilbertSpec(3)
    ground = 3 * np.arange(spec.n_max + 1)
    factors = factors_at(FIG5B, 0.0, spec, epsilon=0.0)
    solver._ground_block(factors)
    assert factors.block(ground, ground).shape == (16, 16)
    excite = np.zeros((spec.dim, spec.dim))
    excite[ground + 1, ground] = 1.0
    with pytest.raises(SolverFailure, match="leaks"):
        solver._ground_block(_with_jump(factors, excite))

    jumps = liouvillian._dense_jumps
    monkeypatch.setattr(liouvillian, "_dense_jumps",
                        lambda params, spec: [*jumps(params, spec), excite])
    with pytest.raises(SolverFailure, match=r"leaks out of the \|g><g\| block"):
        solver.probe_free_state(FIG5B, 3)


@pytest.mark.parametrize("pump", [ThermalPump(n_th=0.0), ThermalPump(n_th=0.3),
                                  CoherentPump(Omega=0.0, pump_detuning=0.5)],
                         ids=["vacuum", "thermal", "zero-drive"])
def test_frame_populations_reject_a_stray_excitation(monkeypatch, pump):
    # an extra jump |f><g| takes |g,m><g,n| to |f,m><f,n|: probe_free_state
    # checks the |g><g| block on the read-out frame's factors, before any
    # block is assembled or any LU runs
    spec = HilbertSpec(3)
    ground = 3 * np.arange(spec.n_max + 1)
    excite = np.zeros((spec.dim, spec.dim))
    excite[ground + 1, ground] = 1.0
    jumps = liouvillian._dense_jumps
    monkeypatch.setattr(liouvillian, "_dense_jumps",
                        lambda params, spec: [*jumps(params, spec), excite])
    calls = _count_assemblies_and_lus(monkeypatch)
    params = SystemParams.from_effective(5, 1, eta=4, kappa=1, pump=pump)
    with pytest.raises(SolverFailure, match=r"leaks out of the \|g><g\| block"):
        solver.probe_free_state(params, spec.n_max)
    assert calls == {"blocks": [], "splu": {}, "band_lu": {}, "tridiagonal_lu": {}}


def test_linear_response_matches_closed_form():
    grid = np.linspace(-20, 20, 101)
    series = probe_spectrum(FIG5B, grid, method="linear_response", n_max=2)
    exact = chi_vacuum(grid, FIG5B) / FIG5B.beta
    assert np.abs(series.chi - exact).max() < 1e-8
    assert series.method == "linear_response"
    assert series.n_max == 2
    assert series.residuals is not None and series.residuals.max() < 1e-8
    assert series.warnings == ()


def test_finite_epsilon_matches_closed_form():
    grid = np.linspace(-20, 20, 41)
    series = probe_spectrum(FIG5B, grid, method="finite_epsilon", n_max=2)
    exact = chi_vacuum(grid, FIG5B) / FIG5B.beta
    # default epsilon = 1e-3 leaves only a quadratic saturation bias
    assert np.abs(series.chi - exact).max() < 1e-6


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("params", [
    SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                pump=ThermalPump(n_th=0.3)),
    SystemParams.from_effective(5, 1, eta=4, kappa=1, delta=1.3,
                                pump=CoherentPump(Omega=0.7, pump_detuning=0.9)),
    SystemParams(gamma={("e", "g"): 6.0, ("e", "f"): 1.5, ("e", "e"): 0.8,
                        ("f", "g"): 1.2, ("f", "f"): 0.4},
                 eta=4.0, kappa=1.0, delta=-0.4, pump=ThermalPump(n_th=0.4)),
], ids=["thermal", "coherent-detuned", "full-gamma-map"])
def test_linear_response_block_matches_finite_epsilon_when_pumped(params):
    # the read-out block solve against the independent full-space oracle
    grid = np.linspace(-10, 10, 21)
    block = probe_spectrum(params, grid, method="linear_response", n_max=10)
    full = probe_spectrum(params, grid, method="finite_epsilon", n_max=10)
    gap = np.abs(block.chi - full.chi).max()
    assert gap <= 1e-5 * np.abs(full.chi).max()


def _lab_frame_reference(params, grid, n_max):
    """chi/beta from the lab-frame linear response, solved independently of
    the solver's read-out block: rho0 from the full-space steady state, the
    block as the weakly connected components of L0's graph that hold the
    |g,n><e,n| read-out, the source i[V, rho0] on it, and one sparse LU per
    detuning."""
    spec = HilbertSpec(n_max)
    l0 = liouvillian_at(params, 0.0, spec, epsilon=0.0).matrix
    rho0 = steady_state(SuperOperator(matrix=l0, spec=spec)).rho
    graph = abs(l0)
    graph.eliminate_zeros()
    _, labels = connected_components(graph, directed=True, connection="weak")
    n = np.arange(n_max + 1)
    readout = 3 * n + spec.dim * (3 * n + 2)
    block = np.flatnonzero(np.isin(labels, labels[readout]))
    ops = build_operators(spec)
    v = (ops.sigma[("e", "g")] + ops.sigma[("g", "e")]).toarray()
    rhs = (1j * vec(v @ rho0 - rho0 @ v))[block]
    base = l0[block][:, block]
    eye = sp.identity(block.size, dtype=complex, format="csc")
    out = np.searchsorted(block, readout)
    return np.array([spla.splu((base + 1j * d * eye).tocsc()).solve(rhs)[out].sum()
                     for d in grid])


def _assert_matches_lab_frame(params, n_max=10, grid=np.linspace(-12, 12, 49)):
    series = probe_spectrum(params, grid, method="linear_response", n_max=n_max)
    np.testing.assert_allclose(series.chi, _lab_frame_reference(params, grid, n_max),
                               rtol=1e-9, atol=0)


_FULL_GAMMA = {("e", "g"): 6.0, ("e", "f"): 1.5, ("e", "e"): 0.8,
               ("f", "g"): 1.2, ("f", "f"): 0.4}


_LAB_FRAME_SYSTEMS = [
    SystemParams.from_effective(5, 1, eta=4, kappa=1),
    SystemParams.from_effective(5, 1, eta=4, kappa=1, delta=1.3,
                                pump=CoherentPump(Omega=0.7, pump_detuning=0.9)),
    SystemParams(gamma=_FULL_GAMMA, eta=4.0, kappa=1.0, delta=-0.4,
                 pump=ThermalPump(n_th=0.4)),
    SystemParams(gamma=_FULL_GAMMA, eta=4.0, kappa=1.0, delta=-0.4,
                 pump=CoherentPump(Omega=0.5, pump_detuning=-0.6)),
]
_LAB_FRAME_IDS = ["vacuum", "coherent-detuned", "full-gamma-map-thermal",
                  "full-gamma-map-coherent"]

# every example drains e and f to g and damps the cavity, so the probe-free
# state is unique; |alpha| <= 0.4 keeps the lab-frame cutoff n_max = 10 exact
# to well below the tolerance
_RANDOM_SYSTEMS = dict(
    gamma=st.fixed_dictionaries({
        ("e", "g"): st.floats(0.5, 10.0), ("e", "f"): _zero_or(0.2, 5.0),
        ("e", "e"): _zero_or(0.2, 3.0), ("f", "g"): st.floats(0.2, 5.0),
        ("f", "f"): _zero_or(0.2, 3.0)}),
    eta=_zero_or(0.5, 5.0), kappa=st.floats(0.5, 3.0),
    delta=_zero_or_signed(0.2, 3.0),
    pump=st.one_of(st.builds(ThermalPump, _zero_or(0.05, 0.5)),
                   st.builds(CoherentPump, st.floats(0.05, 0.2),
                             _zero_or_signed(0.2, 2.0))))


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("params", _LAB_FRAME_SYSTEMS, ids=_LAB_FRAME_IDS)
def test_readout_block_matches_lab_frame_reference(params):
    _assert_matches_lab_frame(params)


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**_RANDOM_SYSTEMS)
def test_readout_block_matches_lab_frame_reference_randomized(
        gamma, eta, kappa, delta, pump):
    params = SystemParams(gamma=gamma, eta=eta, kappa=kappa, delta=delta, pump=pump)
    _assert_matches_lab_frame(params, grid=np.linspace(-8, 8, 9))


def _readout_system_of(params, n_max):
    """solver._readout_system on the factors, populations P_m of |g,m> and
    read-out positions of the frame that solver._readout_frame picks."""
    factors, weights, _, _, rows, cols = solver._readout_frame(params, n_max)
    return solver._readout_system(factors, weights, rows, cols)


def _assert_readout_band_is_narrow(params, n_max=10):
    """The read-out block's (kl, ku), read from its nonzeros, is exactly
    (2, 2) for a thermal pump, (1, 1) for the vacuum and for the displaced
    coherent block: the eta coupling (and, displaced, the sigma_ef shift)
    gives the offsets +-1, and a and a^dag of the thermal block give +2 and
    -2. The vacuum block is |g,0><e,0| and |g,0><f,1|, the thermal one
    2n_max + 1 positions and the displaced one 2(n_max + 1), at any eta; at
    eta = 0 the f positions decouple, which leaves the thermal band (2, 2)
    and makes the vacuum and displaced ones (0, 0). A wider band would make
    each grid point cost more."""
    a = _readout_system_of(params, n_max)[0]
    rows, cols = np.nonzero(a)
    bands = (int((rows - cols).max()), int((cols - rows).max()))
    if params.Omega == 0.0 and params.n_th > 0.0:
        assert bands == (2, 2)
        assert a.shape[0] == 2 * n_max + 1
    else:
        assert bands == ((1, 1) if params.eta > 0.0 else (0, 0))
        assert a.shape[0] == (2 if params.Omega == 0.0 else 2 * n_max + 2)


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("params", _LAB_FRAME_SYSTEMS, ids=_LAB_FRAME_IDS)
def test_readout_block_is_banded(params):
    _assert_readout_band_is_narrow(params)


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**_RANDOM_SYSTEMS)
def test_readout_block_is_banded_randomized(gamma, eta, kappa, delta, pump):
    _assert_readout_band_is_narrow(
        SystemParams(gamma=gamma, eta=eta, kappa=kappa, delta=delta, pump=pump))


def _band_lu_solution(a, rhs, grid):
    """(x, info): the grid's block-diagonal system (A + i Delta_k I) x_k = b
    solved by one LAPACK band LU (zgbsv) on A's band, as the read-out solved
    every frame before the tridiagonal path; x has a row per point."""
    kl, ku, block = solver._band_storage(*np.nonzero(a), a[np.nonzero(a)], rhs.size)
    band = np.tile(block.T, (grid.size, 1)).T
    band[kl + ku] += 1j * np.repeat(grid, rhs.size)
    *_, x, info = solver.zgbsv(kl, ku, band, np.tile(rhs, grid.size))
    return x.reshape(grid.size, -1), info


def _dense_batched_readout(a, rhs, out, grid):
    """chi/beta from the former read-out solve: the grid solved on the dense
    A with batched np.linalg.solve, 16 points per batch."""
    chi = np.empty(grid.size, dtype=complex)
    for start in range(0, grid.size, 16):
        batch = slice(start, start + 16)
        x = np.linalg.solve(a + 1j * grid[batch, None, None] * np.eye(rhs.size), rhs)
        chi[batch] = [row.sum() for row in x[:, out]]
    return chi


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("params", _ORACLE_SYSTEMS,
                         ids=["vacuum", "thermal", "coherent", "coherent-detuned",
                              "full-gamma-map"])
def test_band_readout_matches_dense_batched_solve(params):
    system = _readout_system_of(params, 12)
    grid = np.linspace(-120, 120, 241)
    chi, _ = solver._readout_response(*system, grid)
    np.testing.assert_allclose(chi, _dense_batched_readout(*system, grid),
                               rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("params", _ORACLE_SYSTEMS,
                         ids=["vacuum", "thermal", "coherent", "coherent-detuned",
                              "full-gamma-map"])
def test_readout_residual_is_that_of_the_dense_matrix(params):
    # each residual is ||(A + i Delta I) x - b|| of the same band solution,
    # with the dense A, to rounding, and within the gate's tolerance
    a, rhs, out = _readout_system_of(params, 12)
    grid = np.linspace(-120, 120, 241)
    x = _band_lu_solution(a, rhs, grid)[0]
    want = np.array([np.linalg.norm((a + 1j * delta * np.eye(rhs.size)) @ xk - rhs)
                     for delta, xk in zip(grid, x)])
    scale = np.maximum(1.0, np.abs(a).max() + np.abs(grid))
    got = solver._readout_response(a, rhs, out, grid)[1]
    assert np.all(np.abs(got - want) <= 1e-13 * scale * (1.0 + np.linalg.norm(x, axis=1)))
    assert np.all(got <= 1e-9 * np.linalg.norm(rhs) * scale)


def _singular_readout():
    """(A, b, out) with A + i Delta I exactly singular at Delta = 2 only: its
    first column is then zero."""
    a = np.array([[-2j, 1.0, 0.0], [0.0, -1.0, 0.5], [0.0, 0.3, -1.0]])
    return a, np.array([-1j, 0.0, 0.0]), np.array([0])


def test_readout_singular_point_raises():
    with pytest.raises(SolverFailure, match=r"singular at Delta=2\b"):
        solver._readout_response(*_singular_readout(), np.array([-1.0, 0.0, 2.0, 3.0]))
    chi, resid = solver._readout_response(*_singular_readout(), np.array([-1.0, 3.0]))
    assert np.all(np.isfinite(chi)) and np.all(np.isfinite(resid))


@pytest.mark.parametrize("column", [0, 2], ids=["first-pivot", "last-pivot"])
@pytest.mark.parametrize("grid", [[2.0, 3.0, 4.0], [-1.0, 2.0, 3.0], [-1.0, 0.0, 2.0]],
                         ids=["first", "middle", "last"])
def test_readout_singular_point_is_named_wherever_it_sits(grid, column):
    # the grid is one block-diagonal band LU; its first zero pivot, in the
    # first or the last column of a block, must name that block's Delta
    a, rhs, out = _singular_readout()
    if column:  # the same block reversed: its last column vanishes at Delta = 2
        a = a[::-1, ::-1]
        rhs, out = rhs[::-1].copy(), np.array([2])
    with pytest.raises(SolverFailure, match=r"singular at Delta=2$"):
        solver._readout_response(a, rhs, out, np.array(grid))


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
def test_coherent_spectrum_builds_the_lindblad_factors_once(monkeypatch):
    # the displaced read-out shifts the probe-free state's lab factors
    # instead of building a second set (a module that imports the builder by
    # name is counted too)
    built, build = [], liouvillian.lindblad_factors

    def counting(*args, **kwargs):
        built.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(liouvillian, "lindblad_factors", counting)
    monkeypatch.setattr(solver, "lindblad_factors", counting, raising=False)
    params = SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                         pump=CoherentPump(Omega=0.5))
    probe_spectrum(params, np.linspace(-10, 10, 11), n_max=6)
    assert len(built) == 1


def test_readout_singular_point_exits_4(monkeypatch, tmp_path, capsys):
    out = tmp_path / "s.csv"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 4.0, "n_th": 0.1,
        "n_max": 4, "delta_min": -2.0, "delta_max": 2.0, "delta_points": 5,
        "output": str(out)}), encoding="utf-8")
    monkeypatch.setattr(solver, "_readout_system", lambda *args: _singular_readout())
    assert cli.main(["spectrum", "--config", str(cfg)]) == 4
    assert "singular at Delta=2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
def test_readout_block_rejects_a_leaking_generator():
    spec = HilbertSpec(4)
    thermal = SystemParams.from_effective(5, 1, eta=4, kappa=1, pump=ThermalPump(0.3))
    _, weights, _, _, rows, cols = solver._readout_frame(thermal, 4)
    # a g-e coupling in H takes |g,m><x,n| to |e,m><x,n|, out of |g><{f,e}|
    probed = factors_at(thermal, 0.0, spec, epsilon=0.3)
    with pytest.raises(SolverFailure, match="leaks"):
        solver._readout_system(probed, weights, rows, cols)
    # an f-e drive takes |g,m><e,m| to |g,m><f,m|: inside |g><{f,e}|, but out
    # of the read-out block picked there
    f = 3 * np.arange(spec.n_max + 1) + 1
    hamiltonian = liouvillian._dense_hamiltonian(thermal, 0.0, spec, 0.0)
    hamiltonian[f + 1, f] = hamiltonian[f, f + 1] = 0.5
    driven = lindblad_factors(hamiltonian, liouvillian._dense_jumps(thermal, spec), spec)
    with pytest.raises(SolverFailure, match="leaks"):
        solver._readout_system(driven, weights, rows, cols)

    # the displaced frame: a g-e coupling in the factors it shifts
    coherent = SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                           pump=CoherentPump(Omega=0.5))
    _, weights, _, _, rows, cols = solver._readout_frame(coherent, 4)
    probed = solver._displaced_generator(coherent,
                                         factors_at(coherent, 0.0, spec, epsilon=0.3))
    with pytest.raises(SolverFailure, match="leaks"):
        solver._readout_system(probed, weights, rows, cols)


def _thermal_factors(spec):
    """Probe-free L0's factors under a thermal pump (n_th = 0.3)."""
    return factors_at(SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                                  pump=ThermalPump(0.3)),
                      0.0, spec, epsilon=0.0)


def _ground_leak(kind, factors):
    """factors with one leak out of the |g><g| block, in one of the three
    terms the leak test reads: M[G^c, G], N[G, G^c] or a jump's c[G^c, G]
    (kind M, N or c)."""
    spec = factors.spec
    g1, f1, e1 = (spec.index(1, x) for x in ("g", "f", "e"))
    leak = np.zeros((spec.dim, spec.dim))
    if kind == "M":  # M[G^c, G]: |g,1> -> |e,1> on the left only
        leak[e1, g1] = 1.0
        return replace(factors, m=factors.m + leak)
    if kind == "N":  # N[G, G^c]: <g,1| -> <f,1| on the right only
        leak[g1, f1] = 1.0
        return replace(factors, n=factors.n + leak)
    leak[e1, g1] = 1.0  # c[G^c, G]: c = |e,1><g,1|
    return _with_jump(factors, leak)


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("kind", ["M", "N", "c"])
@pytest.mark.parametrize("route, pump", [
    ("readout-frame", ThermalPump(n_th=0.3)),
    ("readout-frame", CoherentPump(Omega=0.5, pump_detuning=0.7)),
    ("probe-free-state", CoherentPump(Omega=0.5, pump_detuning=0.7)),
], ids=["frame-thermal", "frame-coherent", "probe-free-coherent"])
def test_ground_block_check_catches_each_kind_of_leak(monkeypatch, kind, route, pump):
    # each term of the leak test alone, through both production callers: the
    # read-out frame's gate (lab and displaced factors) and the coherent
    # branch of probe_free_state, which runs the leak test alone
    params = SystemParams.from_effective(5, 1, eta=4, kappa=1, pump=pump)
    call = {"readout-frame": solver._readout_frame,
            "probe-free-state": solver.probe_free_state}[route]
    call(params, 3)  # the unmodified factors pass
    lab = solver.factors_at
    monkeypatch.setattr(solver, "factors_at",
                        lambda *args, **kwargs: _ground_leak(kind, lab(*args, **kwargs)))
    with pytest.raises(SolverFailure, match=r"leaks out of the \|g><g\| block"):
        call(params, 3)


def _thermal_readout_positions(spec):
    """(rows, cols) of |g,m><e,m| and |g,m><f,m+1|, sorted by vec index."""
    pairs = [(spec.index(m, "g"), spec.index(m, "e")) for m in range(spec.n_max + 1)]
    pairs += [(spec.index(m, "g"), spec.index(m + 1, "f")) for m in range(spec.n_max)]
    pairs.sort(key=lambda p: p[0] + spec.dim * p[1])
    return tuple(np.array(x) for x in zip(*pairs))


def _readout_leak(kind, spec):
    """Thermal L0's factors with one leak out of the kept read-out positions
    but inside the |g><{f,e}| product block, each caught by one clause of
    the kept-set check alone."""
    factors = _thermal_factors(spec)
    g0, f0, e0, g1 = (spec.index(n, x) for n, x in ((0, "g"), (0, "f"), (0, "e"),
                                                      (1, "g")))
    leak = np.zeros((spec.dim, spec.dim))
    if kind == "M":  # M[:, r_k]: |g,0><e,0| -> |g,1><e,0|
        leak[g1, g0] = 1.0
        return replace(factors, m=factors.m + leak)
    if kind == "N":  # N[c_k, :]: |g,0><e,0| -> |g,0><f,0|
        leak[e0, f0] = 1.0
        return replace(factors, n=factors.n + leak)
    # c = |g,0><g,0| + |f,0><e,0| takes |g,0><e,0| to |g,0><f,0|
    leak[g0, g0] = leak[f0, e0] = 1.0
    return _with_jump(factors, leak)


@pytest.mark.parametrize("kind", ["M", "N", "jump pair"])
def test_readout_block_check_catches_each_kind_of_leak(kind):
    spec = HilbertSpec(3)
    rows, cols = _thermal_readout_positions(spec)
    leaky = _readout_leak(kind, spec)
    ground = 3 * np.arange(spec.n_max + 1)
    excited = np.sort(np.concatenate([ground + 1, ground + 2]))
    leaky.block(ground, excited)
    with pytest.raises(SolverFailure, match="leaks out of the read-out block"):
        solver._readout_block(leaky, rows, cols)


def test_readout_block_check_pairs_nonzeros_of_one_jump():
    # the jump-pair leak split over two jumps, |g,0><g,0| and
    # |f,0><e,0| + |g,1><g,1|: both act on a kept row, but neither takes a
    # kept position anywhere, so the block is built
    spec = HilbertSpec(3)
    rows, cols = _thermal_readout_positions(spec)
    factors = _thermal_factors(spec)
    for pairs in ([(0, "g", 0, "g")], [(0, "f", 0, "e"), (1, "g", 1, "g")]):
        jump = np.zeros((spec.dim, spec.dim))
        for n, x, m, y in pairs:
            jump[spec.index(n, x), spec.index(m, y)] = 1.0
        factors = _with_jump(factors, jump)
    assert solver._readout_block(factors, rows, cols).shape == (rows.size, rows.size)


def _readout_slice_of_l0(params, spec):
    """The read-out block sliced out of the full probe-free L0 (the displaced
    one for a coherent pump), by vec index, on its kept positions: in the
    vacuum (eta > 0) |g,0><e,0| and |g,0><f,1| alone."""
    dim, m = spec.dim, np.arange(spec.n_max + 1)
    if params.Omega > 0.0:
        l0 = solver._displaced_generator(
            params, factors_at(params, 0.0, spec, epsilon=0.0)).superoperator().matrix
        block = dim * (3 * m[:, None] + np.array([1, 2])).ravel()
    else:
        l0 = liouvillian_at(params, 0.0, spec, epsilon=0.0).matrix
        if params.n_th > 0.0:
            block = np.sort(np.concatenate([3 * m + dim * (3 * m + 2),
                                            3 * m[:-1] + dim * (3 * m[1:] + 1)]))
        else:
            block = np.array([dim * 2, dim * 4])
    return l0[block][:, block].toarray()


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("params", _ORACLE_SYSTEMS,
                         ids=["vacuum", "thermal", "coherent", "coherent-detuned",
                              "full-gamma-map"])
def test_readout_block_is_an_exact_slice_of_l0(params):
    got = _readout_system_of(params, 8)[0]
    assert np.array_equal(got, _readout_slice_of_l0(params, HilbertSpec(8)))


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("params", [
    SystemParams.from_effective(5, 1, eta=4, kappa=1, pump=ThermalPump(n_th=0.3)),
    SystemParams.from_effective(5, 1, eta=4, kappa=1, delta=1.3,
                                pump=CoherentPump(Omega=0.7, pump_detuning=0.9)),
    SystemParams.from_effective(5, 1, eta=4, kappa=1, delta=0.6),
], ids=["thermal", "coherent", "vacuum"])
def test_readout_points_independent_of_batching(params):
    # 37 points span three batches; each point alone must give the same bits
    grid = np.linspace(-12, 12, 37)
    whole = probe_spectrum(params, grid, n_max=8)
    alone = [probe_spectrum(params, grid[k:k + 1], n_max=8) for k in range(grid.size)]
    assert np.array_equal(whole.chi, np.concatenate([s.chi for s in alone]))
    assert np.array_equal(whole.residuals,
                          np.concatenate([s.residuals for s in alone]))


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("params, size", [
    (SystemParams.from_effective(5, 1, eta=4, kappa=1, pump=ThermalPump(n_th=0.3)), 13),
    (SystemParams.from_effective(5, 1, eta=4, kappa=1, pump=CoherentPump(Omega=0.5)), 14),
    (SystemParams.from_effective(5, 1, eta=4, kappa=1), 2),
], ids=["thermal", "coherent", "vacuum"])
def test_one_lu_per_linear_response_spectrum(monkeypatch, params, size):
    # no cavity LU: a thermal pump or the vacuum takes the closed form, a
    # coherent one the displaced vacuum; the whole grid takes one LU of 101
    # read-out blocks: a band LU of the thermal ladder (13 dims), a
    # tridiagonal LU of the displaced chain (14) or of the vacuum's pair (2)
    calls = _count_assemblies_and_lus(monkeypatch)
    probe_spectrum(params, np.linspace(-10, 10, 101), n_max=6)
    assert calls["splu"] == {}
    chain = params.n_th == 0.0
    assert calls["tridiagonal_lu" if chain else "band_lu"] == {101 * size: 1}
    assert calls["band_lu" if chain else "tridiagonal_lu"] == {}


def _count_assemblies_and_lus(monkeypatch) -> dict:
    """Record the number of positions of every Liouvillian block assembled
    (the full space included: every product block goes through
    LindbladFactors.entries, the read-out block through
    solver._readout_block) and count the sparse LUs, the LAPACK band LUs and
    the LAPACK tridiagonal LUs by matrix size, by wrapping them; no wall
    clock involved."""
    calls = {"blocks": [], "splu": Counter(), "band_lu": Counter(),
             "tridiagonal_lu": Counter()}
    entries, readout_block = liouvillian.LindbladFactors.entries, solver._readout_block
    splu, zgbsv, zgtsv = solver.spla.splu, solver.zgbsv, solver.zgtsv

    def counting_entries(self, rows, cols):
        calls["blocks"].append(rows.size * cols.size)
        return entries(self, rows, cols)

    def counting_readout_block(factors, rows, cols):
        calls["blocks"].append(rows.size)
        return readout_block(factors, rows, cols)

    def counting_splu(matrix, *args, **kwargs):
        calls["splu"][matrix.shape[0]] += 1
        return splu(matrix, *args, **kwargs)

    def counting_zgbsv(kl, ku, ab, *args, **kwargs):
        calls["band_lu"][ab.shape[1]] += 1
        return zgbsv(kl, ku, ab, *args, **kwargs)

    def counting_zgtsv(dl, d, *args, **kwargs):
        calls["tridiagonal_lu"][d.size] += 1
        return zgtsv(dl, d, *args, **kwargs)

    monkeypatch.setattr(liouvillian.LindbladFactors, "entries", counting_entries)
    monkeypatch.setattr(solver, "_readout_block", counting_readout_block)
    monkeypatch.setattr(solver.spla, "splu", counting_splu)
    monkeypatch.setattr(solver, "zgbsv", counting_zgbsv)
    monkeypatch.setattr(solver, "zgtsv", counting_zgtsv)
    return calls


def test_population_sweep_costs_one_assembly_and_one_lu_per_value(
        monkeypatch, tmp_path, capsys):
    # f and e drain to g, so no {f, e} sector check runs, and no D^2 block
    # is assembled. Omega = 0 (a thermal pump, the vacuum at n_th = 0) takes
    # the read-out frame: no block and no LU. A coherent pump assembles one
    # (n_max+1)^2 = 81-position cavity block per value and solves it with
    # one band LU
    for key, values, blocks, band_lus in [("n_th", [0.0, 0.1, 0.2, 0.4, 0.8], [], {}),
                                          ("Omega", [0.1, 0.2, 0.4], [81] * 3, {81: 3})]:
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({
            "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 20.0, key: values[0],
            "n_max": 8, "sweep_key": key, "sweep_values": values,
            "output": str(tmp_path / "p.csv")}), encoding="utf-8")
        with monkeypatch.context() as patch:
            calls = _count_assemblies_and_lus(patch)
            assert cli.main(["populations", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert calls == {"blocks": blocks, "splu": {}, "band_lu": band_lus,
                         "tridiagonal_lu": {}}, key


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("pump", [ThermalPump(n_th=0.3), CoherentPump(Omega=0.5)],
                         ids=["thermal", "coherent"])
def test_linear_response_spectrum_assemblies(monkeypatch, pump):
    # a thermal pump: only the dense read-out block on its 13 positions; a
    # coherent pump: only the displaced |g,0><{f,e}| (14); either way the
    # probe-free state is gated on the factors, with no 7^2 cavity block,
    # and never D^2 = 441 is built. No sparse LU, and no cavity band LU
    params = SystemParams.from_effective(5, 1, eta=4, kappa=1, pump=pump)
    calls = _count_assemblies_and_lus(monkeypatch)
    probe_spectrum(params, np.linspace(-10, 10, 101), n_max=6)
    assert calls["blocks"] == ([14] if params.Omega > 0.0 else [13])
    assert calls["splu"] == {}
    assert calls["band_lu"][49] == 0


_BOSE_SYSTEMS = [
    SystemParams.from_effective(5, 1, eta=4, kappa=1, delta=0.6),
    SystemParams.from_effective(5, 1, eta=4, kappa=1, pump=ThermalPump(n_th=0.3)),
    SystemParams(gamma=_FULL_GAMMA, eta=4.0, kappa=1.0, delta=-0.4,
                 pump=ThermalPump(n_th=0.4)),
    SystemParams.from_effective(5, 1, eta=80, kappa=0.2, pump=ThermalPump(n_th=2.0)),
]
_BOSE_IDS = ["vacuum", "thermal", "full-gamma-map-thermal", "hot"]


def _recorded_warnings(call):
    """(call(), the messages of the warnings it raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [str(w.message) for w in caught]


@pytest.mark.parametrize("params", _BOSE_SYSTEMS, ids=_BOSE_IDS)
def test_bose_probe_free_state_is_probe_free_states_ground_diagonal(monkeypatch, params):
    # the spectrum's populations are probe_free_state's, bit for bit, with
    # the same tail, warning and residual: both take one frame, whose one
    # residual gate per call is never looser than the assembled cavity
    # block's tolerance
    n_max = 6
    tols = _recording_ground_gate(monkeypatch)
    (factors, weights, report, residual, _, _), caught = _recorded_warnings(
        lambda: solver._readout_frame(params, n_max))
    (_, state, lab_report), lab_caught = _recorded_warnings(
        lambda: solver.probe_free_state(params, n_max))
    assert np.array_equal(weights, np.diag(state.rho)[::3].real)
    assert report == lab_report and state.residual_norm == residual
    assert caught == []  # the public entry points warn, never the frame itself
    assert lab_caught == ([] if report.converged else [report.message])
    assert (len(lab_caught) == 1) == (params.n_th > 0.1)  # the hot and thermal tails warn
    ground = 3 * np.arange(n_max + 1)
    assert len(tols) == 2 and tols[0] == tols[1]
    assert tols[0] <= solver._residual_tol(factors.block(ground, ground))


def _assert_ground_gate_sits_at_the_tolerance(monkeypatch, params, multiple, fails,
                                              frame):
    """P + t (e_0 - e_1), scaled so that its residual in the frame's
    assembled L_GG is the given multiple of the gate's tolerance (P's own
    is ~1e-16 in the lab frame and exactly 0 in the displaced one, far
    below), must raise above the tolerance and pass below it."""
    n_max = 6
    tols = _recording_ground_gate(monkeypatch)
    factors = solver._readout_frame(params, n_max)[0]
    bump = np.zeros(n_max + 1)
    bump[:2] = 1.0, -1.0
    scale = multiple * tols[0] / _assembled_ground_residual(factors, bump)
    weights = solver._bose_weights
    monkeypatch.setattr(solver, "_bose_weights",
                        lambda n_th, n_max: weights(n_th, n_max) + scale * bump)
    if fails:
        with pytest.raises(SolverFailure, match=f"{frame} probe-free state leaves residual"):
            probe_spectrum(params, np.linspace(-5, 5, 5), n_max=n_max)
    else:
        probe_spectrum(params, np.linspace(-5, 5, 5), n_max=n_max)
    return factors, tols[0]


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("multiple, fails", [(2.0, True), (0.5, False)],
                         ids=["2x-raises", "half-passes"])
def test_bose_residual_gate_sits_at_the_tolerance(monkeypatch, multiple, fails):
    _assert_ground_gate_sits_at_the_tolerance(monkeypatch, _BOSE_SYSTEMS[1], multiple,
                                              fails, "lab-frame")


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("multiple, fails", [(2.0, True), (0.5, False)],
                         ids=["2x-raises", "half-passes"])
def test_displaced_residual_gate_sits_at_the_tolerance(monkeypatch, multiple, fails):
    # the displaced gate takes the lab frame's tolerance rule, never looser
    # than 1e-9 max(1, _l0_scale) on the displaced factors
    params = SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                         pump=CoherentPump(Omega=0.5, pump_detuning=0.3))
    factors, tol = _assert_ground_gate_sits_at_the_tolerance(
        monkeypatch, params, multiple, fails, "displaced")
    assert tol <= 1e-9 * max(1.0, solver._l0_scale(factors))


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
def test_bose_residual_gate_trips_on_a_wrong_temperature(monkeypatch):
    # Bose weights of n_th 1% too large break detailed balance
    weights = solver._bose_weights
    monkeypatch.setattr(solver, "_bose_weights",
                        lambda n_th, n_max: weights(1.01 * n_th, n_max))
    with pytest.raises(SolverFailure, match="residual"):
        probe_spectrum(_BOSE_SYSTEMS[1], np.linspace(-5, 5, 5), n_max=6)


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("params", _BOSE_SYSTEMS, ids=_BOSE_IDS)
def test_bose_spectrum_never_calls_probe_free_state(monkeypatch, params):
    # a thermal or vacuum linear-response spectrum reads its populations
    # from the closed form: no D x D state, cavity block or SteadyState
    def refuse(*args, **kwargs):
        raise AssertionError("probe_free_state called")

    monkeypatch.setattr(solver, "probe_free_state", refuse)
    series = probe_spectrum(params, np.linspace(-5, 5, 5), n_max=6)
    assert np.all(np.isfinite(series.chi))


# kappa starts at 0.01 and e and f always decay to g, so that every
# position of the full block is damped and no grid point is singular
@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gamma=st.fixed_dictionaries({
           ("e", "g"): st.floats(0.5, 10.0), ("e", "f"): _zero_or(0.2, 5.0),
           ("e", "e"): _zero_or(0.2, 3.0), ("f", "g"): st.floats(0.2, 5.0),
           ("f", "f"): _zero_or(0.2, 3.0)}),
       pump=st.one_of(st.builds(ThermalPump, _zero_or(0.05, 1.0)),
                      st.builds(CoherentPump, st.floats(0.05, 1.0),
                                _zero_or_signed(0.2, 2.0))),
       eta=_zero_or(0.5, 5.0), kappa=st.floats(0.01, 5.0),
       delta=_zero_or_signed(0.2, 3.0), n_max=st.integers(1, 8))
def test_readout_frame_picks_the_closed_positions(gamma, pump, eta, kappa, delta, n_max):
    # each frame's table at any eta: the vacuum |g,0><e,0| and |g,0><f,1|, a
    # thermal pump |g,m><e,m| and |g,m><f,m+1| (2n_max + 1), the displaced
    # frame |g,0><{f, e},n| (2(n_max + 1)); on the thermal table the vacuum's
    # x vanishes identically off its two positions, and chi agrees
    params = SystemParams(gamma=gamma, eta=eta, kappa=kappa, delta=delta, pump=pump)
    factors, weights, _, _, rows, cols = solver._readout_frame(params, n_max)
    m = np.arange(n_max + 1)
    thermal = _thermal_readout_positions(HilbertSpec(n_max))
    if params.Omega > 0.0:
        want = np.zeros(2 * m.size, dtype=int), (3 * m[:, None] + [1, 2]).ravel()
    else:
        want = thermal if params.n_th > 0.0 else (np.array([0, 0]), np.array([2, 4]))
    assert np.array_equal(rows, want[0]) and np.array_equal(cols, want[1])
    if params.Omega > 0.0 or params.n_th > 0.0:
        return
    a, rhs, _ = wide = solver._readout_system(factors, weights, *thermal)
    grid = np.linspace(-8, 8, 9)
    np.testing.assert_allclose(
        solver._readout_response(*solver._readout_system(factors, weights, rows, cols),
                                 grid)[0],
        solver._readout_response(*wide, grid)[0], rtol=1e-14, atol=0)
    x = _band_lu_solution(a, rhs, grid)[0]
    assert not x[:, 2:].any()  # off e_0 and f_1, the first two by column


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("params, keep", [
    (SystemParams.from_effective(5, 1, eta=4, kappa=1), slice(0, 1)),
    (SystemParams.from_effective(5, 1, eta=4, kappa=1, pump=ThermalPump(0.3)),
     slice(0, -1)),
    (SystemParams.from_effective(5, 1, eta=4, kappa=1, pump=CoherentPump(Omega=0.5)),
     slice(0, -1)),
], ids=["vacuum-without-f1", "thermal-without-last-e", "displaced-without-last-e"])
def test_readout_refuses_a_table_too_small_for_its_frame(params, keep):
    # the leak check certifies the frame's table: eta takes the vacuum's
    # |g,0><e,0| to |g,0><f,1|, and the last f of a thermal table or of the
    # displaced chain (whose one row |g,0> no jump acts on) to the last e
    factors, weights, _, _, rows, cols = solver._readout_frame(params, 4)
    with pytest.raises(SolverFailure, match="leaks out of the read-out block"):
        solver._readout_system(factors, weights, rows[keep], cols[keep])


def _not_unique(call) -> bool:
    """Whether call() raises NonUniqueSteadyState (any other outcome but a
    return propagates)."""
    try:
        call()
    except NonUniqueSteadyState:
        return True
    return False


# kappa is 0 (refused as not unique) or starts at 0.01, for the reason
# given above; f or e may keep its population (no decay to g), so the
# {f, e} sector check runs
@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gamma=st.fixed_dictionaries({pair: _zero_or(0.2, 10.0) for pair in (
           ("e", "g"), ("e", "f"), ("e", "e"), ("f", "g"), ("f", "f"))}),
       eta=_zero_or(0.5, 5.0), kappa=_zero_or(0.01, 5.0),
       delta=_zero_or_signed(0.2, 3.0), omega=st.floats(0.1, 2.0),
       pump_detuning=_zero_or_signed(0.2, 3.0), n_max=st.integers(1, 8))
def test_displaced_spectrum_matches_the_lab_factors_readout(gamma, eta, kappa, delta,
                                                           omega, pump_detuning, n_max):
    # probe_spectrum reads out from the displaced vacuum without the
    # lab-frame cavity solve; it must refuse exactly the systems that
    # probe_free_state refuses, and otherwise give the bits of the read-out
    # composed from probe_free_state's lab factors, displaced
    params = SystemParams(gamma=gamma, eta=eta, kappa=kappa, delta=delta,
                          pump=CoherentPump(omega, pump_detuning))
    grid = np.linspace(-8, 8, 9)
    lab_refused = _not_unique(lambda: solver.probe_free_state(params, n_max))
    assert _not_unique(lambda: probe_spectrum(params, grid, n_max=n_max)) == lab_refused
    if lab_refused:
        return
    lab, _, _ = solver.probe_free_state(params, n_max)
    vacuum = np.zeros(n_max + 1)
    vacuum[0] = 1.0
    m = np.arange(n_max + 1)  # |g,0><f,m| and |g,0><e,m|, in vec order
    rows, cols = np.zeros(2 * m.size, dtype=int), np.stack([3 * m + 1, 3 * m + 2], 1).ravel()
    want, _ = solver._readout_response(*solver._readout_system(
        solver._displaced_generator(params, lab), vacuum, rows, cols), grid)
    assert np.array_equal(probe_spectrum(params, grid, n_max=n_max).chi, want)


def test_displaced_residual_gate_trips_on_a_wrong_alpha(monkeypatch):
    # alpha for Omega 1% too large leaves the drive uncancelled, so
    # |g,0><g,0| is no steady state of the displaced L0
    displaced = solver._displaced_generator

    def wrong_alpha(params, factors):
        pump = CoherentPump(1.01 * params.Omega, params.pump_detuning)
        return displaced(replace(params, pump=pump), factors)

    monkeypatch.setattr(solver, "_displaced_generator", wrong_alpha)
    params = SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                         pump=CoherentPump(Omega=0.5, pump_detuning=0.3))
    with pytest.raises(SolverFailure, match="residual"):
        probe_spectrum(params, np.linspace(-5, 5, 5), n_max=6)


def test_displaced_readout_rejects_a_leaking_generator(monkeypatch):
    # an extra jump |f><g| takes |g,m><g,n| to |f,m><f,n|: the displaced
    # path checks the |g><g| block on its factors, as the lab frame does
    spec = HilbertSpec(3)
    excite = np.zeros((spec.dim, spec.dim))
    excite[3 * np.arange(spec.n_max + 1) + 1, 3 * np.arange(spec.n_max + 1)] = 1.0
    jumps = liouvillian._dense_jumps
    monkeypatch.setattr(liouvillian, "_dense_jumps",
                        lambda params, spec: [*jumps(params, spec), excite])
    params = SystemParams.from_effective(5, 1, eta=4, kappa=1, pump=CoherentPump(0.5))
    with pytest.raises(SolverFailure, match=r"leaks out of the \|g><g\| block"):
        probe_spectrum(params, np.linspace(-5, 5, 5), n_max=3)


@pytest.mark.parametrize("n_max", [3, 8])
def test_displaced_truncation_report_is_the_poisson_tail(n_max):
    # |alpha|^2 = 0.64: the Poisson weights of n above n_max - 5 (n >= 1 at
    # n_max 3, n >= 4 at n_max 8), normalized on n = 0..n_max
    params = SystemParams.from_effective(5, 1, eta=80, kappa=1, pump=CoherentPump(0.8))
    weights = [0.64 ** n / math.factorial(n) for n in range(n_max + 1)]
    (factors, populations, report, residual, _, _), caught = _recorded_warnings(
        lambda: solver._readout_frame(params, n_max))
    assert caught == []  # probe_spectrum warns below, not the frame
    tail = sum(weights[max(0, n_max - 5) + 1:]) / sum(weights)
    assert report.tail_mass == pytest.approx(tail, rel=1e-12)
    assert not report.converged and report.n_max == n_max
    assert residual == solver._ground_gate(factors, populations)[0] <= 1e-15
    assert populations.tolist() == [1.0] + [0.0] * n_max
    with pytest.warns(TruncationNotConverged, match=f"tail mass {tail:.3e} above photon "
                                                     f"number {max(0, n_max - 5)} exceeds"):
        series = probe_spectrum(params, np.linspace(-5, 5, 3), n_max=n_max)
    assert series.warnings == (f"TruncationNotConverged: {report.message}",)


def test_displaced_vacuum_residual_is_the_full_space_residual():
    # the residual from the G x G slices of the factors against
    # ||L vec(rho)|| on the full superoperator, for random dense H and jumps
    # with M[G^c, G], N[G, G^c] and every c[G^c, G] zeroed, so that the
    # |g><g| block is invariant: rho = |g,0><g,0| (column 0 alone) and
    # rho = sum_m P_m |g,m><g,m|. The random factors as built leak, and the
    # gate refuses them before it computes anything
    rng = np.random.default_rng(11)
    spec = HilbertSpec(2)
    outside = np.arange(spec.dim) % 3 != 0
    leaks = outside[:, None] & ~outside  # [G^c, G]

    def random_matrix():
        return rng.normal(size=(spec.dim,) * 2) + 1j * rng.normal(size=(spec.dim,) * 2)

    for k in range(40):
        h = random_matrix()
        factors = lindblad_factors(h + h.conj().T,
                                   [random_matrix() for _ in range(rng.integers(1, 4))],
                                   spec)
        weights = np.eye(1, spec.n_max + 1)[0] if k % 2 else rng.uniform(size=spec.n_max + 1)
        with pytest.raises(SolverFailure, match=r"leaks out of the \|g><g\| block"):
            solver._ground_gate(factors, weights)
        factors = replace(factors, m=np.where(leaks, 0, factors.m),
                          n=np.where(leaks.T, 0, factors.n),
                          jumps=np.where(leaks, 0, factors.jumps))
        rho = np.zeros((spec.dim, spec.dim))
        rho[::3, ::3] = np.diag(weights)
        full = np.linalg.norm(factors.superoperator().matrix @ vec(rho))
        assert solver._ground_gate(factors, weights)[0] == pytest.approx(full, rel=1e-12)


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
def test_excited_sector_check_assembles_only_the_fe_block(monkeypatch):
    # gamma_fg = 0 under a pump: the {f, e} sector check assembles and
    # factors only the {f, e} block of L0 (10 x 10 joint indices), the only
    # block and the only LU: the thermal cavity state is closed-form and
    # gated on the factors, with no cavity block; the full 225-dim L0 is
    # never built
    params = SystemParams(gamma={("e", "g"): 10.0}, eta=2.0, kappa=1.0,
                          pump=ThermalPump(0.3))
    calls = _count_assemblies_and_lus(monkeypatch)
    solver.probe_free_state(params, 4)
    assert calls == {"blocks": [100], "splu": {100: 1}, "band_lu": {},
                     "tridiagonal_lu": {}}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gamma=st.fixed_dictionaries({pair: _zero_or(0.01, 50.0) for pair in (
           ("e", "g"), ("e", "f"), ("e", "e"), ("f", "g"), ("f", "f"))}),
       eta=_zero_or(0.1, 100.0), kappa=_zero_or(0.01, 10.0),
       delta=_zero_or_signed(0.1, 10.0), pump=st.one_of(
           st.builds(ThermalPump, _zero_or(0.01, 5.0)),
           st.builds(CoherentPump, _zero_or(0.01, 3.0), _zero_or_signed(0.1, 5.0))),
       n_max=st.integers(1, 5))
def test_l0_scale_bounds_the_largest_entry_of_l0(gamma, eta, kappa, delta, pump,
                                                 n_max):
    # the {f, e} sector check's tolerance is 1e-9 max(1, _l0_scale): it must
    # never fall below the full L0's 1e-9 max(1, max|L0|)
    params = SystemParams(gamma=gamma, eta=eta, kappa=kappa, delta=delta, pump=pump)
    factors = factors_at(params, 0.0, HilbertSpec(n_max), epsilon=0.0)
    l0 = factors.superoperator().matrix
    assert solver._l0_scale(factors) >= np.abs(l0.data).max(initial=0.0)


def test_l0_scale_bounds_generic_generators():
    # random dense H and jumps: a jump with diagonal entries of opposite
    # signs makes M + N + conj(c) kron c exceed max|M| + max|N|, so the
    # bound needs its jump term
    rng = np.random.default_rng(5)
    spec = HilbertSpec(1)
    d = spec.dim

    def random_matrix():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    for _ in range(50):
        h = random_matrix()
        factors = lindblad_factors(h + h.conj().T,
                                   [random_matrix() for _ in range(rng.integers(1, 4))],
                                   spec)
        l0 = factors.superoperator().matrix
        assert solver._l0_scale(factors) >= np.abs(l0.data).max()


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
def test_readout_residual_above_tolerance_raises(monkeypatch):
    zgbsv = solver.zgbsv

    def perturbed(*args, **kwargs):
        lub, piv, x, info = zgbsv(*args, **kwargs)
        return lub, piv, x * (1.0 + 1e-6), info

    monkeypatch.setattr(solver, "zgbsv", perturbed)
    params = SystemParams.from_effective(5, 1, eta=4, kappa=1, pump=ThermalPump(n_th=0.3))
    with pytest.raises(SolverFailure, match="residual"):
        probe_spectrum(params, np.linspace(-5, 5, 5), n_max=6)


@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
def test_chain_readout_residual_above_tolerance_raises(monkeypatch):
    # the tridiagonal path keeps the residual gate: a coherent pump's chain
    zgtsv = solver.zgtsv

    def perturbed(*args, **kwargs):
        *factored, x, info = zgtsv(*args, **kwargs)
        return (*factored, x * (1.0 + 1e-6), info)

    monkeypatch.setattr(solver, "zgtsv", perturbed)
    params = SystemParams.from_effective(5, 1, eta=4, kappa=1, pump=CoherentPump(Omega=0.5))
    with pytest.raises(SolverFailure, match="residual"):
        probe_spectrum(params, np.linspace(-5, 5, 5), n_max=6)


# gamma_f = 0 makes the f_0 pivot of the displaced chain vanish at the
# transparency point Delta = pump_detuning - delta/2, which the grid holds
# (exactly when both are 0), so the solve must pivot there; eta = 0
# decouples the chain into its diagonal. With gamma_f = 0 and no pump or no
# eta, |f,0> is dark, and the frame refuses the state as not unique
@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gamma_e=st.floats(0.1, 10.0), gamma_f=_zero_or(0.01, 5.0),
       eta=_zero_or(0.1, 100.0), kappa=st.floats(0.05, 5.0),
       delta=_zero_or_signed(0.1, 5.0), omega=_zero_or(0.05, 2.0),
       pump_detuning=_zero_or_signed(0.1, 3.0), n_max=st.integers(1, 12))
def test_chain_readout_matches_the_band_lu(gamma_e, gamma_f, eta, kappa, delta, omega,
                                           pump_detuning, n_max):
    # the vacuum and displaced frames are tridiagonal and take zgtsv; the
    # band LU they took before (zgbsv) is the oracle: the same chi to 1e-13
    # of the spectrum's scale, residuals that agree to 1e-13 of the gate's
    # scale, and the same singular point
    pump = CoherentPump(omega, pump_detuning) if omega > 0.0 else None
    params = SystemParams.from_effective(gamma_e, gamma_f, eta=eta, kappa=kappa,
                                         delta=delta, pump=pump)
    try:
        a, rhs, out = _readout_system_of(params, n_max)
    except NonUniqueSteadyState:
        assert gamma_f == 0.0 and (eta == 0.0 or omega == 0.0)
        return
    assert not (np.triu(a, 2).any() or np.tril(a, -2).any())
    half = np.linspace(0.0, 2.0 * (eta + gamma_e + gamma_f + kappa + abs(delta)), 21)
    grid = np.union1d(np.concatenate([-half[:0:-1], half]), [pump_detuning - delta / 2])
    x, info = _band_lu_solution(a, rhs, grid)
    if info > 0:
        with pytest.raises(SolverFailure,
                           match=rf"singular at Delta={grid[(info - 1) // rhs.size]:g}$"):
            solver._readout_response(a, rhs, out, grid)
        return
    chi, resid = solver._readout_response(a, rhs, out, grid)
    want = x.take(out, axis=1).sum(axis=1)
    assert np.abs(chi - want).max() <= 1e-13 * np.abs(want).max()
    want_resid = np.linalg.norm(
        (a + 1j * grid[:, None, None] * np.eye(rhs.size)) @ x[:, :, None] - rhs[:, None],
        axis=(1, 2))
    scale = np.linalg.norm(rhs) * np.maximum(1.0, np.abs(a).max() + np.abs(grid))
    assert np.all(np.abs(resid - want_resid) <= 1e-13 * scale)


def test_structurally_singular_generator_is_not_unique(capfd):
    # eta = kappa = n_th = 0: no |g,m><g,n| element with m != n evolves, so
    # the generator is singular for any rates; refused before SuperLU runs,
    # and probe_free_state refuses kappa = 0 before it builds anything
    params = SystemParams(gamma={("e", "g"): 2.0, ("f", "g"): 1.0}, eta=0.0,
                          kappa=0.0, pump=ThermalPump(n_th=0.0))
    sop = liouvillian_at(params, 0.0, HilbertSpec(4), epsilon=0.0)
    with pytest.raises(NonUniqueSteadyState, match="structurally singular"):
        steady_state(sop)
    with pytest.raises(NonUniqueSteadyState, match="not unique: kappa = 0"):
        solver.probe_free_state(params, 4)
    assert capfd.readouterr() == ("", "")


def test_analytic_method_rejects_pumping():
    grid = np.linspace(-5, 5, 11)
    with pytest.raises(AnalyticInvalidHere):
        probe_spectrum(SystemParams.from_effective(
            5, 1, eta=4, kappa=1, pump=ThermalPump(n_th=0.1)),
            grid, method="analytic")
    with pytest.raises(AnalyticInvalidHere):
        probe_spectrum(SystemParams.from_effective(
            5, 1, eta=4, kappa=1, pump=CoherentPump(Omega=0.2)),
            grid, method="analytic")
    with pytest.raises(ParameterError):
        probe_spectrum(FIG5B, grid, method="magic")


def test_worker_pool_output_is_deterministic():
    grid = np.linspace(-10, 10, 7)
    p = SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                    pump=ThermalPump(n_th=0.1))
    one = probe_spectrum(p, grid, method="linear_response", n_max=12, workers=1)
    two = probe_spectrum(p, grid, method="linear_response", n_max=12, workers=2)
    assert np.array_equal(one.im_chi, two.im_chi)
    assert np.array_equal(one.re_chi, two.re_chi)
    assert np.array_equal(one.residuals, two.residuals)


def test_grid_validation():
    p = FIG5B
    with pytest.raises(ParameterError):
        probe_spectrum(p, [], method="analytic")
    with pytest.raises(ParameterError):
        probe_spectrum(p, [[0.0, 1.0]], method="analytic")
    with pytest.raises(ParameterError):
        probe_spectrum(p, [0.0, np.nan], method="analytic")
    with pytest.raises(ParameterError):
        probe_spectrum(p, [0.0, 2.0, 1.0], method="analytic")


_NAN = float("nan")


@pytest.mark.parametrize("call, message", [
    (lambda: HilbertSpec(2.5), "n_max must be an integer >= 1, got 2.5"),
    (lambda: HilbertSpec(True), "n_max must be an integer >= 1, got True"),
    (lambda: HilbertSpec(np.bool_(True)), "n_max must be an integer >= 1, got np.True_"),
    (lambda: HilbertSpec(0), "n_max must be an integer >= 1, got 0"),
    (lambda: probe_spectrum(FIG5B, [0.0], n_max=_NAN), "n_max must be an integer >= 1, got nan"),
    (lambda: probe_spectrum(FIG5B, [0.0], n_max=3.0), "n_max must be an integer >= 1, got 3.0"),
    (lambda: probe_spectrum(FIG5B, [0.0], n_max=3.0, method="finite_epsilon"),
     "n_max must be an integer >= 1, got 3.0"),
    (lambda: check_truncation_convergence(FIG5B, 2.0), "n_max must be an integer >= 1, got 2.0"),
    (lambda: time_domain_crosscheck(FIG5B, _NAN), "Delta must be a finite real number, got nan"),
    (lambda: time_domain_crosscheck(FIG5B, math.inf),
     "Delta must be a finite real number, got inf"),
    (lambda: time_domain_crosscheck(FIG5B, -math.inf),
     "Delta must be a finite real number, got -inf"),
    (lambda: time_domain_crosscheck(FIG5B, "1"), "Delta must be a finite real number, got '1'"),
], ids=["hilbert-float", "hilbert-bool", "hilbert-numpy-bool", "hilbert-zero",
        "spectrum-nan", "spectrum-float", "finite-epsilon-float", "truncation-float",
        "crosscheck-nan", "crosscheck-inf", "crosscheck-minus-inf", "crosscheck-string"])
def test_malformed_sizes_and_detunings_are_parameter_errors(call, message):
    with pytest.raises(ParameterError) as raised:
        call()
    assert str(raised.value) == message


def test_numpy_integer_sizes_are_accepted():
    spec = HilbertSpec(np.int64(3))
    assert spec == HilbertSpec(3) and spec.dim == 12
    series = probe_spectrum(FIG5B, [0.0], n_max=np.int32(3))
    assert series.chi == probe_spectrum(FIG5B, [0.0], n_max=3).chi


def test_truncation_reports():
    vac = check_truncation_convergence(
        SystemParams.from_effective(5, 1, eta=4, kappa=1), 2)
    assert vac.tail_mass == 0.0 and vac.converged

    thermal = SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                          pump=ThermalPump(n_th=0.05))
    # geometric tail above n = n_max - 5: (n_th/(1+n_th))^6 = 1.17e-8 at
    # n_max = 10 sits just above the 1e-8 bar; n_max = 12 clears it
    with pytest.warns(TruncationNotConverged):
        r10 = check_truncation_convergence(thermal, 10)
    assert not r10.converged
    assert r10.tail_mass == pytest.approx((0.05 / 1.05) ** 6, rel=1e-3)
    r12 = check_truncation_convergence(thermal, 12)
    assert r12.converged
    assert r12.tail_mass == pytest.approx((0.05 / 1.05) ** 8, rel=1e-3)

    strong = SystemParams.from_effective(5, 1, eta=80, kappa=1,
                                         pump=CoherentPump(Omega=0.8))
    with pytest.warns(TruncationNotConverged):
        r3 = check_truncation_convergence(strong, 3)
    assert not r3.converged and r3.tail_mass > 0.1

    state = _probe_free_state(thermal, 12)
    again = truncation_report(state)
    assert again.n_max == 12 and again.converged
    assert again.tail_mass == pytest.approx(r12.tail_mass, rel=1e-12)


def test_truncation_warning_from_spectrum():
    p = SystemParams.from_effective(5, 1, eta=80, kappa=1,
                                    pump=CoherentPump(Omega=0.8))
    with pytest.warns(TruncationNotConverged):
        series = probe_spectrum(p, np.linspace(-5, 5, 3),
                                method="linear_response", n_max=3)
    assert any("TruncationNotConverged" in w for w in series.warnings)


def test_find_peaks_ats_doublet():
    p = SystemParams.from_effective(10, 1, eta=10, kappa=1)
    series = probe_spectrum(p, np.linspace(-20, 20, 801), method="analytic")
    peaks = find_peaks(series)
    assert len(peaks.positions) == 2
    # poles sit at +-sqrt(4 eta^2 - eta_T^2)/2 = +-9.165; the maxima are
    # pulled outward ~1.2 by the dispersive admixture
    center = math.sqrt(4 * 100 - 64) / 2.0
    assert peaks.positions[0] == pytest.approx(-center, abs=2.0)
    assert peaks.positions[1] == pytest.approx(center, abs=2.0)
    assert peaks.positions[0] == pytest.approx(-peaks.positions[1], abs=1e-9)
    assert peaks.heights[0] == pytest.approx(peaks.heights[1], rel=1e-9)


def test_find_peaks_uncoupled_single_lorentzian():
    p = SystemParams.from_effective(10, 1, eta=0, kappa=1)
    series = probe_spectrum(p, np.linspace(-20, 20, 801), method="analytic")
    peaks = find_peaks(series)
    assert len(peaks.positions) == 1
    assert peaks.positions[0] == pytest.approx(0.0, abs=1e-6)
    assert peaks.heights[0] == pytest.approx(0.1, rel=1e-6)


def test_find_peaks_warns_on_coarse_grid():
    p = SystemParams.from_effective(10, 1, eta=10, kappa=1)
    series = probe_spectrum(p, np.linspace(-20, 20, 9), method="analytic")
    with pytest.warns(ResolutionWarning):
        find_peaks(series)


def test_find_peaks_photon_ladder_under_coherent_pump():
    # Omega = 0.8, kappa = 1: mean photon number 0.64; the n = 0, 1, 2
    # doublets at 2*eta*sqrt(n+1)/2 are all above the default prominence
    p = SystemParams.from_effective(5, 1, eta=80, kappa=1,
                                    pump=CoherentPump(Omega=0.8))
    grid = np.linspace(-160, 160, 801)
    series = probe_spectrum(p, grid, method="linear_response", n_max=14)
    peaks = find_peaks(series)
    assert len(peaks.positions) == 6
    pos = peaks.positions
    for k in range(3):
        assert pos[k] == pytest.approx(-pos[5 - k], abs=0.5)
    expected = [80.0, 80.0 * math.sqrt(2), 80.0 * math.sqrt(3)]
    got = sorted(abs(x) for x in pos[3:])
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=5.0)


def test_spectrum_resonance_components_attach_rules():
    grid = np.linspace(-15, 15, 51)
    with_poles = probe_spectrum(FIG5B, grid, method="analytic")
    assert with_poles.im_r1 is not None and with_poles.im_r2 is not None
    total = with_poles.im_r1 + with_poles.im_r2
    assert np.abs(total - with_poles.im_chi).max() < 1e-12

    detuned = probe_spectrum(
        SystemParams.from_effective(10, 1, eta=3.9, kappa=1, delta=2.0),
        grid, method="analytic")
    assert detuned.im_r1 is None and detuned.im_r2 is None

    # eta = eta_T/2 collapses the doublet to a double pole: no decomposition
    critical = probe_spectrum(
        SystemParams.from_effective(5, 1, eta=1.5, kappa=1),
        grid, method="analytic")
    assert critical.im_r1 is None and critical.im_r2 is None


def test_analytic_spectrum_is_chi_over_beta_at_any_beta():
    # chi/beta is evaluated at beta = 1: a tiny beta neither overflows nor
    # moves a bit
    grid = np.linspace(-1.0, 1.0, 5)
    unit = probe_spectrum(FIG5B, grid, method="analytic")
    for beta in (1e-310, 2.5):
        series = probe_spectrum(replace(FIG5B, beta=beta), grid, method="analytic")
        for field in ("im_chi", "re_chi", "im_r1", "im_r2"):
            assert np.array_equal(getattr(series, field), getattr(unit, field))
        assert series.params.beta == beta


def test_analytic_spectrum_at_the_removable_singularity():
    p = SystemParams.from_effective(5.0, 0.0, eta=0.0, kappa=0.0)
    grid = np.linspace(-1.0, 1.0, 5)
    series = probe_spectrum(p, grid, method="analytic")
    np.testing.assert_allclose(series.chi, -1.0 / (grid + 5j), rtol=1e-15, atol=0)
    assert np.abs(series.im_r1 + series.im_r2 - series.im_chi).max() <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_analytic_spectrum_refuses_a_non_finite_value():
    # a damping of 5e-324 alone halves to 0: both poles sit on the real
    # axis, at Delta = -1 and 1, grid points where chi and R_1, R_2 blow up
    p = SystemParams.from_effective(5e-324, 0.0, eta=1.0, kappa=0.0)
    with pytest.raises(PreconditionError, match="not finite at Delta=-1$"):
        probe_spectrum(p, np.linspace(-1.0, 1.0, 5), method="analytic")


def test_finite_epsilon_linearity_warning():
    p = SystemParams.from_effective(10, 1, eta=3.9, kappa=1, epsilon=1.0)
    with pytest.warns(LinearityWarning):
        series = probe_spectrum(p, np.linspace(-2, 2, 5),
                                method="finite_epsilon", n_max=2)
    assert any("LinearityWarning" in w for w in series.warnings)


def test_time_domain_matches_closed_form_on_resonance():
    exact = chi_vacuum(0.0, FIG5B) / FIG5B.beta
    got = time_domain_crosscheck(FIG5B, 0.0, n_max=2)
    assert abs(got - exact) < 0.01 * abs(exact)


def test_time_domain_bare_atom():
    # eta = 0 decouples the cavity; chi(0) = i/gamma_e for any gamma_f, kappa
    p = SystemParams.from_effective(5.0, 0.5, eta=0.0, kappa=1.0)
    got = time_domain_crosscheck(p, 0.0, n_max=1)
    assert got == pytest.approx(1j / 5.0, abs=1e-4)


def test_time_domain_far_detuned():
    exact = chi_vacuum(250.0, FIG5B) / FIG5B.beta
    got = time_domain_crosscheck(FIG5B, 250.0, n_max=2)
    assert abs(got.imag - exact.imag) < 1e-3 * abs(exact.imag)


def test_time_domain_preconditions():
    with pytest.raises(ParameterError):
        time_domain_crosscheck(FIG5B, 0.0, n_max=6)
    with pytest.raises(ParameterError):
        time_domain_crosscheck(SystemParams.from_effective(
            5, 1, eta=4, kappa=1, pump=ThermalPump(n_th=0.1)), 0.0)
    with pytest.raises(IntegrationFailure):
        time_domain_crosscheck(SystemParams(gamma={}, eta=2.0, kappa=0.0), 0.0)


def _unconverged_steady_states(monkeypatch):
    """Wrap solver.steady_state so that every state it returns reads as not
    converged, its bits and residual unchanged."""
    solve = solver.steady_state
    monkeypatch.setattr(solver, "steady_state",
                        lambda *args, **kwargs: replace(solve(*args, **kwargs),
                                                        converged=False))


def test_finite_epsilon_refuses_an_unconverged_steady_state(monkeypatch, tmp_path, capsys):
    _unconverged_steady_states(monkeypatch)
    with pytest.raises(SolverFailure,
                       match=r"at Delta=-2 leaves residual \S+, above \S+$"):
        probe_spectrum(FIG5B, np.linspace(-2, 2, 5), method="finite_epsilon", n_max=2)
    out = tmp_path / "s.csv"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "gamma_e": 10.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 3.9, "n_max": 2,
        "delta_min": -2.0, "delta_max": 2.0, "delta_points": 5,
        "output": str(out)}), encoding="utf-8")
    assert cli.main(["spectrum", "--config", str(cfg), "--method", "finite_epsilon"]) == 4
    assert "finite-epsilon steady state at Delta=-2 leaves residual" in capsys.readouterr().err
    assert not out.exists()


def test_time_domain_refuses_an_unconverged_starting_state(monkeypatch):
    _unconverged_steady_states(monkeypatch)
    with pytest.raises(SolverFailure,
                       match=r"^time-domain starting state leaves residual \S+, above \S+$"):
        time_domain_crosscheck(FIG5B, 0.0, n_max=2)
