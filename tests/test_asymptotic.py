"""Asymptotic oracles for the pumped read-out, from chi_vacuum alone.

Neither limit shares anything with L0 but the Bose weights: each compares a
linear_response spectrum against closed-form vacuum susceptibilities, so
they pin the coherent amplitude |alpha|, the pump-detuning shift, the
cavity jump rate and the sqrt(m+1) photon-number couplings independently
of the displaced frame's residual gate.

- Coherent pump, the classical-control limit: as eta -> 0 with eta |alpha|
  held fixed, the quantum links eta sqrt(n+1) vanish and the displaced
  chain reduces to the e_0 - f_0 pair with link eta |alpha|, where f_0 has
  no cavity loss. So chi -> chi_vacuum(Delta - dd/2; eta' = eta |alpha|,
  kappa' = 0, delta' = delta - dd), |alpha| = Omega/hypot(kappa, dd), with
  an error of O(eta^2).
- Thermal pump, the secular limit: as kappa -> 0 the photon-number
  manifolds decouple, and chi -> sum_m P_m chi_vacuum(eta' = eta sqrt(m+1),
  kappa' = 0, delta), P the truncated Bose weights, with an error of
  O(kappa).

Both maps hold at any cavity detuning delta; the tests check delta = 0
and delta = 1.3, -2.

The error is max|chi - chi_limit| / max|chi_limit| over the grid.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vitats import (
    CoherentPump,
    SystemParams,
    ThermalPump,
    TruncationNotConverged,
    chi_vacuum,
    probe_spectrum,
)


def _relative_error(chi, limit):
    return float(np.abs(chi - limit).max() / np.abs(limit).max())


def _spectrum(params, grid, n_max):
    # a strong coherent drive leaves a Poisson tail of 1 at this n_max; the
    # read-out does not depend on it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationNotConverged)
        return probe_spectrum(params, grid, n_max=n_max).chi


def _coherent_error(eta, dd, gamma_e=5.0, gamma_f=1.0, kappa=1.0, coupling=4.0,
                    points=1201, delta=0.0):
    """The classical-control error at eta, with eta |alpha| = coupling."""
    omega = coupling * math.hypot(kappa, dd) / eta
    params = SystemParams.from_effective(gamma_e, gamma_f, eta=eta, kappa=kappa,
                                         delta=delta, pump=CoherentPump(omega, dd))
    grid = np.linspace(-15.0, 15.0, points)
    pair = SystemParams.from_effective(gamma_e, gamma_f, eta=coupling, kappa=0.0,
                                       delta=delta - dd)
    return _relative_error(_spectrum(params, grid, 6), chi_vacuum(grid - dd / 2.0, pair))


def _thermal_error(kappa, n_th=0.4, gamma_e=5.0, gamma_f=1.0, eta=80.0, n_max=30,
                   points=3001, delta=0.0):
    """The secular error at kappa."""
    params = SystemParams.from_effective(gamma_e, gamma_f, eta=eta, kappa=kappa,
                                         delta=delta, pump=ThermalPump(n_th))
    grid = np.linspace(-300.0, 300.0, points)
    weights = (n_th / (n_th + 1.0)) ** np.arange(n_max + 1)
    weights /= weights.sum()
    limit = sum(p * chi_vacuum(grid, SystemParams.from_effective(
        gamma_e, gamma_f, eta=eta * math.sqrt(m + 1), kappa=0.0, delta=delta))
        for m, p in enumerate(weights))
    return _relative_error(_spectrum(params, grid, n_max), limit)


@pytest.mark.parametrize("dd, constant", [(0.0, 0.0352), (0.7, 0.0351), (-1.3, 0.0346)])
def test_coherent_pump_meets_the_classical_control_limit(dd, constant):
    # gamma_e 5, gamma_f 1, kappa 1, eta |alpha| = 4, n_max 6: the error is
    # constant * eta^2 to within 1% at eta 0.1, 0.01 and 0.001
    errors = [_coherent_error(eta, dd) for eta in (0.1, 0.01, 0.001)]
    for eta, error in zip((0.1, 0.01, 0.001), errors):
        assert error == pytest.approx(constant * eta ** 2, rel=0.01)
    assert 99.0 < errors[0] / errors[1] < 101.0 and 99.0 < errors[1] / errors[2] < 101.0


@pytest.mark.parametrize("delta, dd, constant", [
    (1.3, 0.0, 0.0346), (1.3, 0.7, 0.0364), (-2.0, 0.0, 0.0339), (-2.0, 0.7, 0.0309)])
def test_classical_control_limit_holds_off_cavity_resonance(delta, dd, constant):
    # as at delta = 0, with delta' = delta - dd: the error is constant * eta^2
    # to within 1% at eta 0.1, 0.01 and 0.001 (ratios 99.95-100.00)
    errors = [_coherent_error(eta, dd, delta=delta) for eta in (0.1, 0.01, 0.001)]
    for eta, error in zip((0.1, 0.01, 0.001), errors):
        assert error == pytest.approx(constant * eta ** 2, rel=0.01)
    assert 99.0 < errors[0] / errors[1] < 101.0 and 99.0 < errors[1] / errors[2] < 101.0


def test_thermal_pump_meets_the_secular_limit():
    # eta 80, n_th 0.4, n_max 30: the error at kappa 0.1, 0.01 and 0.001 is
    # 5.29e-2, 5.57e-3 and 5.60e-4, so O(kappa) with a constant near 0.56
    errors = [_thermal_error(kappa) for kappa in (0.1, 0.01, 0.001)]
    assert errors == pytest.approx([5.29e-2, 5.57e-3, 5.60e-4], rel=0.01)
    assert 9.0 < errors[0] / errors[1] < 11.0 and 9.5 < errors[1] / errors[2] < 10.5


@pytest.mark.parametrize("delta, expected", [(1.3, [5.31e-2, 5.59e-3, 5.62e-4]),
                                             (-2.0, [5.32e-2, 5.61e-3, 5.63e-4])])
def test_secular_limit_holds_off_cavity_resonance(delta, expected):
    # the same system at a cavity detuning delta, kept in the limit's
    # chi_vacuum: still O(kappa), with constants within 1% of delta = 0's
    errors = [_thermal_error(kappa, delta=delta) for kappa in (0.1, 0.01, 0.001)]
    assert errors == pytest.approx(expected, rel=0.01)
    assert 9.0 < errors[0] / errors[1] < 11.0 and 9.5 < errors[1] / errors[2] < 10.5


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(gamma_e=st.floats(0.5, 10.0), gamma_f=st.floats(0.2, 5.0),
       dd=st.floats(-2.0, 2.0))
def test_classical_control_limit_is_second_order(gamma_e, gamma_f, dd):
    # one decade of eta takes two decades off the error, for any widths and
    # pump detuning; the constant peaks near 0.56 at the narrowest widths
    errors = [_coherent_error(eta, dd, gamma_e, gamma_f) for eta in (0.01, 0.001)]
    assert 99.0 < errors[0] / errors[1] < 101.0
    assert errors[1] < 1.0 * 0.001 ** 2


# gamma_e from 2 and n_th up to 0.6: narrower lines or a hotter cavity need
# a smaller kappa to reach the asymptotic ratio (9.2 at gamma_e 1, n_th 1)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(gamma_e=st.floats(2.0, 10.0), gamma_f=st.floats(0.2, 5.0),
       n_th=st.floats(0.05, 0.6))
def test_secular_limit_is_first_order(gamma_e, gamma_f, n_th):
    # one decade of kappa takes one decade off the error (9.5-10.0 over
    # these draws); the constant peaks near 2.2 at the corner gamma_e 2,
    # gamma_f 0.2, n_th 0.6
    errors = [_thermal_error(kappa, n_th, gamma_e, gamma_f, points=1201)
              for kappa in (0.01, 0.001)]
    assert 9.0 < errors[0] / errors[1] < 10.5
    assert errors[1] < 3.0 * 0.001
