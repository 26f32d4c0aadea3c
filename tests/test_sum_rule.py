"""The absorption sum rule: an oracle for the pumped read-out that shares
nothing with L0 but the populations and gamma_e.

At large |Delta| the read-out solution tends to b/(i Delta), so
chi/beta -> -1/Delta, and by Kramers-Kronig the integral of Im chi/beta
over Delta is pi for any eta, kappa, delta and pump. The cavity jumps keep
the cavity trace, so outside the grid Im chi/beta ~ gamma_e/Delta^2, and a
grid on +-L misses about 2 gamma_e/(pi L) of the area over pi.
"""

import math

import numpy as np
import pytest

from vitats import CoherentPump, SystemParams, ThermalPump, probe_spectrum

_SYSTEMS = [(5.0, 1.0, 80.0, 1.0, 0.0), (5.0, 1.0, 4.0, 1.0, 1.3),
            (2.0, 0.5, 10.0, 0.3, -0.7)]


# a thermal n_th 0.4 leaves a Bose tail near 1e-6 at n_max 16; the sum rule
# holds at any truncation, since the populations are normalized
@pytest.mark.filterwarnings("ignore::vitats.TruncationNotConverged")
@pytest.mark.parametrize("pump, n_max", [
    (None, 4), (ThermalPump(0.4), 16), (CoherentPump(0.8), 16),
    (CoherentPump(0.8, pump_detuning=0.5), 16),
], ids=["vacuum", "thermal", "coherent", "coherent-detuned"])
@pytest.mark.parametrize("gamma_e, gamma_f, eta, kappa, delta", _SYSTEMS,
                         ids=["fig7", "weak-detuned", "narrow"])
def test_absorption_area_plus_tail_is_one(pump, n_max, gamma_e, gamma_f, eta, kappa,
                                          delta):
    # the trapezoid area over pi on +-4000 (16001 points) plus the missing
    # tail is 1 within 4.0e-7 over these systems
    params = SystemParams.from_effective(gamma_e, gamma_f, eta=eta, kappa=kappa,
                                         delta=delta, pump=pump)
    span = 4000.0
    grid = np.linspace(-span, span, 16001)
    series = probe_spectrum(params, grid, n_max=n_max)
    area = np.trapezoid(series.im_chi / params.beta, grid) / math.pi
    assert area + 2.0 * gamma_e / (math.pi * span) == pytest.approx(1.0, abs=1e-6)
