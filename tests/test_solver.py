"""Steady-state, spectrum, peak-detection, and cross-check solver tests.

Numeric oracles: the probe-free steady state factorizes exactly into
(cavity state) x |g><g| because nothing pumps the atom without the probe, so
thermal pumping must reproduce the geometric photon distribution and coherent
pumping the displaced vacuum with alpha = -i*Omega/kappa. The probe spectrum
routes are cross-checked against the closed form where it is valid.
"""

import math

import numpy as np
import pytest

from vitats import (
    AnalyticInvalidHere,
    CoherentPump,
    HilbertSpec,
    IntegrationFailure,
    LinearityWarning,
    NonUniqueSteadyState,
    ParameterError,
    ResolutionWarning,
    SolverFailure,
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
from vitats import solver

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


def _joint_cavity_times_g(cavity_rho, n_max):
    dim = 3 * (n_max + 1)
    out = np.zeros((dim, dim), dtype=complex)
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
    assert _trace_distance(state.rho, _joint_cavity_times_g(cavity, 30)) < 1e-8


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
    assert _trace_distance(state.rho, _joint_cavity_times_g(cavity, 30)) < 1e-6
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


def test_worker_pool_capped_at_cpu_count(monkeypatch):
    pools = []

    class SerialPool:
        # records the requested pool size and maps in this process
        def __init__(self, max_workers):
            self.chunks = 0
            pools.append(self)
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, pieces):
            pieces = list(pieces)
            self.chunks = len(pieces)
            return map(fn, pieces)

    monkeypatch.setattr(solver.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(solver, "ProcessPoolExecutor", SerialPool)
    grid = np.linspace(-10, 10, 7)
    p = SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                    pump=ThermalPump(n_th=0.1))
    many = probe_spectrum(p, grid, method="linear_response", n_max=12,
                          workers=10**6)
    assert [(pool.max_workers, pool.chunks) for pool in pools] == [(3, 3)]
    one = probe_spectrum(p, grid, method="linear_response", n_max=12)
    assert len(pools) == 1
    assert np.array_equal(many.chi, one.chi)


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


def test_truncation_reports():
    vac = check_truncation_convergence(
        SystemParams.from_effective(5, 1, eta=4, kappa=1), 2)
    assert vac.tail_mass == 0.0 and vac.converged

    thermal = SystemParams.from_effective(5, 1, eta=4, kappa=1,
                                          pump=ThermalPump(n_th=0.05))
    # geometric tail above n = n_max - 5: (n_th/(1+n_th))^6 = 1.17e-8 at
    # n_max = 10 sits just above the 1e-8 bar; n_max = 12 clears it
    r10 = check_truncation_convergence(thermal, 10)
    assert not r10.converged
    assert r10.tail_mass == pytest.approx((0.05 / 1.05) ** 6, rel=1e-3)
    r12 = check_truncation_convergence(thermal, 12)
    assert r12.converged
    assert r12.tail_mass == pytest.approx((0.05 / 1.05) ** 8, rel=1e-3)

    strong = SystemParams.from_effective(5, 1, eta=80, kappa=1,
                                         pump=CoherentPump(Omega=0.8))
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
