"""Closed-form vacuum susceptibility, resonance decomposition, and the
VIT / vacuum-ATS regime classifier.

The weak probe sees the emitter dressed by the cavity vacuum. To first order
in the probe amplitude the susceptibility is

    chi(Delta) = beta * (Delta + delta/2 + i(gamma_f+kappa)) /
                 (-Delta^2 - i(gamma_e+gamma_f+kappa)Delta + C)

    C = eta^2 + gamma_e*gamma_f + gamma_e*kappa + delta^2/4
        + i*(delta/2)*(-gamma_e + gamma_f + kappa)

with Delta the probe detuning from the mean of the vacuum dressed doublet.
At delta = 0 the denominator factorizes over two complex poles Delta_1/2 and
chi splits into two resonances R_i = w_i/(Delta - Delta_i). Whether the two
resonances interfere destructively (transparency dip, VIT) or are two
separate positive doublet peaks (vacuum ATS) is decided by the coupling eta
against the damping asymmetry eta_T = |gamma_f + kappa - gamma_e|.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .dressed import mixing_angle, subspace_rates
from .errors import (
    DegenerateDamping,
    DegeneratePoles,
    DivisionDegenerate,
    NonzeroDetuning,
    PreconditionError,
)
from .model import SystemParams, effective_rates, half_widths

_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class PolePair:
    """Complex poles of the vacuum susceptibility at delta = 0.

    delta_1 carries the +sqrt branch. discriminant = 4 eta^2 - eta_T^2;
    negative discriminant means both poles are purely imaginary (same
    frequency, different linewidths), positive means Re delta_1 = -Re delta_2
    (same linewidth, split frequencies).
    """

    delta_1: complex
    delta_2: complex
    eta_T: float
    discriminant: float


@dataclass(frozen=True)
class ResonanceComponent:
    """One term of the two-pole decomposition chi = R_1 + R_2."""

    pole: complex
    weight: complex

    def evaluate(self, Delta):
        """R(Delta) = weight / (Delta - pole), vectorized over Delta; 0 for a
        zero weight, also at a pole on the real axis."""
        d = np.asarray(Delta, dtype=float)
        if self.weight == 0:
            return np.zeros(d.shape, dtype=complex)[()]  # [()]: a scalar for a scalar
        return self.weight / (d - self.pole)


class Regime(enum.Enum):
    NO_DIP = "NoDip"
    VIT = "VIT"
    VACUUM_ATS = "VacuumATS"


@dataclass(frozen=True)
class RegimeReport:
    """Dimensionless classifier output.

    eta_d = 1/sqrt(2+gamma_R) is the dip threshold, eta_c = |1-gamma_R|/2 the
    VIT/ATS boundary, both in units of gamma_f+kappa like eta_R.
    boundary_degenerate flags a tie within 1e-12 (tie-break: stronger
    coupling regime wins).
    """

    gamma_R: float
    eta_R: float
    eta_d: float
    eta_c: float
    dip_present: bool
    regime: Regime
    boundary_degenerate: bool = False


def _square(value: float, name: str) -> float:
    """value ** 2, or PreconditionError naming the parameter if it overflows."""
    try:
        return value ** 2
    except OverflowError:
        raise PreconditionError(f"{name} = {value:g} is too large: its square "
                                f"overflows a float") from None


def chi_vacuum(Delta, params: SystemParams):
    """Complex susceptibility of the unpumped (vacuum) system.

    Vectorized over Delta; returns a complex scalar for scalar input. Any
    cavity detuning delta is allowed. At eta = 0 and gamma_f + kappa = 0 the
    numerator and denominator share the factor Delta + delta/2, and chi is
    the cancelled form -beta/(Delta - delta/2 + i gamma_e), finite there.
    PreconditionError if eta^2 or delta^2 overflows, or any product in C
    does (or their sum): chi would then be 0 at every Delta.
    """
    gamma_e, gamma_f = half_widths(params)
    kappa, delta, eta = params.kappa, params.delta, params.eta
    total = gamma_e + gamma_f + kappa
    if total == 0.0:
        raise DegenerateDamping("gamma_e + gamma_f + kappa = 0")
    g = gamma_f + kappa
    d = np.asarray(Delta, dtype=float)
    if eta == 0.0 and g == 0.0:
        chi = -params.beta / (d - delta / 2.0 + 1j * gamma_e)
    else:
        terms = {"eta^2": _square(eta, "eta"), "gamma_e*gamma_f": gamma_e * gamma_f,
                 "gamma_e*kappa": gamma_e * kappa, "delta^2/4": _square(delta, "delta") / 4.0,
                 "(delta/2)(gamma_f + kappa - gamma_e)": 0.5j * delta * (-gamma_e + g)}
        big_c = sum(terms.values())
        if not cmath.isfinite(big_c):  # a finite chi would be 0 at every Delta
            name = next((k for k, v in terms.items() if not cmath.isfinite(v)), "their sum")
            raise PreconditionError(f"the constant C of chi overflows a float: {name} "
                                    f"is not finite")
        chi = params.beta * (d + delta / 2.0 + 1j * g) / (-d ** 2 - 1j * total * d + big_c)
    return complex(chi) if np.isscalar(Delta) else chi


def first_order_coherences(Delta, params: SystemParams):
    """First-order coherence amplitudes (rho_Gu, rho_Gv) per unit probe.

    These are the amplitudes of |G><u_0| and |G><v_0| in the dressed basis;
    recombined as cos(theta_0) rho_Gu + sin(theta_0) rho_Gv they reproduce
    chi_vacuum/beta. Vectorized over Delta.
    """
    gamma_e, gamma_f = half_widths(params)
    if gamma_e + gamma_f + params.kappa == 0.0:
        raise DegenerateDamping("gamma_e + gamma_f + kappa = 0")
    theta = mixing_angle(0, params.eta, params.delta)
    rates = subspace_rates(theta, gamma_e, gamma_f, params.kappa)
    s_0 = math.hypot(params.delta, 2.0 * params.eta)
    d = np.asarray(Delta, dtype=float)
    w_minus = d - s_0 / 2.0  # omega_{-,0} - omega_p
    w_plus = d + s_0 / 2.0   # omega_{+,0} - omega_p
    c, s = math.cos(theta), math.sin(theta)
    den = (rates.Gamma_c ** 2
           - (1j * w_minus + rates.Gamma_Gu) * (1j * w_plus + rates.Gamma_Gv))
    rho_gv = 1j * (s * (1j * w_minus + rates.Gamma_Gu) - c * rates.Gamma_c) / den
    rho_gu = 1j * (c * (1j * w_plus + rates.Gamma_Gv) - s * rates.Gamma_c) / den
    if np.isscalar(Delta):
        return complex(rho_gu), complex(rho_gv)
    return rho_gu, rho_gv


def poles(params: SystemParams) -> PolePair:
    """Poles of chi at delta = 0.

    Delta_{1,2} = [-i(gamma_e+gamma_f+kappa) +- sqrt(4 eta^2 - eta_T^2)] / 2,
    with the principal square root (negative discriminant gives +i sqrt|.|).
    For a negative discriminant the + root cancels, so Delta_1 is taken from
    Vieta's product Delta_1 Delta_2 = -C instead. PreconditionError if eta^2
    or eta_T^2 overflows.
    """
    if params.delta != 0.0:
        raise NonzeroDetuning("pole decomposition is defined only at delta = 0")
    gamma_e, gamma_f = half_widths(params)
    total = gamma_e + gamma_f + params.kappa
    eta_t = abs(gamma_f + params.kappa - gamma_e)
    disc = 4.0 * _square(params.eta, "eta") - _square(eta_t, "eta_T")
    root = np.sqrt(complex(disc))
    delta_1 = complex(-1j * total + root) / 2.0
    delta_2 = complex(-1j * total - root) / 2.0
    if disc < 0.0:
        # delta_1 = i(sqrt|disc| - total)/2 cancels as eta_T outgrows eta, so
        # it comes from delta_2, the larger, by delta_1 delta_2 = -C with
        # C = eta^2 + gamma_e (gamma_f + kappa), each term divided first so
        # that C itself never overflows
        delta_1 = -(params.eta * (params.eta / delta_2)
                    + gamma_e * ((gamma_f + params.kappa) / delta_2))
    return PolePair(delta_1=delta_1, delta_2=delta_2, eta_T=eta_t, discriminant=disc)


def decompose_resonances(params: SystemParams) -> tuple[ResonanceComponent, ResonanceComponent]:
    """Split chi into its two pole terms R_i(Delta) = w_i/(Delta - Delta_i).

    w_1 = beta (Delta_1 + i(gamma_f+kappa)) / (Delta_2 - Delta_1)
    w_2 = beta (-Delta_2 - i(gamma_f+kappa)) / (Delta_2 - Delta_1)

    so that R_1 + R_2 = chi identically (partial fractions of the pole form
    of chi_vacuum). For a negative discriminant the poles are imaginary, and
    Delta_k + i(gamma_f+kappa) cancels for the pole near -i(gamma_f+kappa)
    (both weights are then tiny): since (Delta_k + i(gamma_f+kappa))
    (Delta_k + i gamma_e) = eta^2 at delta = 0, the smaller factor of each
    pole is taken as eta^2 over the larger.
    """
    pair = poles(params)
    if pair.discriminant == 0.0:
        raise DegeneratePoles("eta = eta_T/2: double pole, no two-term split")
    gamma_e, gamma_f = half_widths(params)
    g = gamma_f + params.kappa
    shifted = [pair.delta_1 + 1j * g, pair.delta_2 + 1j * g]  # Delta_k + i g
    for k, pole in enumerate((pair.delta_1, pair.delta_2)):
        if pair.discriminant < 0.0 and abs(pole + 1j * gamma_e) > abs(shifted[k]):
            shifted[k] = params.eta * (params.eta / (pole + 1j * gamma_e))
    span = pair.delta_2 - pair.delta_1
    w_1 = params.beta * shifted[0] / span
    w_2 = -params.beta * shifted[1] / span
    return (ResonanceComponent(pole=pair.delta_1, weight=complex(w_1)),
            ResonanceComponent(pole=pair.delta_2, weight=complex(w_2)))


def dip_threshold(params: SystemParams) -> float:
    """Coupling above which the absorption develops a central dip at delta=0.

    eta_dip = (gamma_f+kappa) * sqrt[(gamma_f+kappa) /
                                     (2(gamma_f+kappa) + gamma_e)];
    equivalently the second derivative of Im chi at Delta = 0 changes sign
    there.
    """
    if params.delta != 0.0:
        raise NonzeroDetuning("dip threshold is defined only at delta = 0")
    gamma_e, gamma_f = half_widths(params)
    g = gamma_f + params.kappa
    if g == 0.0:
        raise DivisionDegenerate("gamma_f + kappa = 0", gamma_e=gamma_e, gamma_f=gamma_f)
    return g * math.sqrt(g / (2.0 * g + gamma_e))


def classify_regime(params: SystemParams) -> RegimeReport:
    """Classify the vacuum absorption profile into NoDip / VIT / VacuumATS.

    In units of gamma_f+kappa: a dip requires eta_R > eta_d = 1/sqrt(2+gamma_R).
    For gamma_R > 2 the dip is interference-dominated (VIT) until
    eta_R > eta_c = |1-gamma_R|/2, where it becomes a resolved doublet
    (VacuumATS); for gamma_R < 2 any dip is already a doublet. Boundary ties
    within 1e-12 classify as the stronger-coupling regime and set the
    boundary_degenerate flag.
    """
    if params.delta != 0.0:
        raise NonzeroDetuning("regime classification is defined only at delta = 0")
    rates = effective_rates(params)  # DivisionDegenerate unless gamma_R, eta_R finite
    gamma_r, eta_r = rates.gamma_R, rates.eta_R
    eta_d = 1.0 / math.sqrt(2.0 + gamma_r)
    eta_c = 0.5 * abs(1.0 - gamma_r)

    def above(x: float, bound: float) -> bool:
        return x > bound + _BOUNDARY_TOL

    def tied(x: float, bound: float) -> bool:
        return abs(x - bound) <= _BOUNDARY_TOL

    boundary = tied(gamma_r, 2.0) or tied(eta_r, eta_d) or tied(eta_r, eta_c)
    dip_present = above(eta_r, eta_d) or tied(eta_r, eta_d)

    if above(gamma_r, 2.0):
        if above(eta_r, eta_c) or tied(eta_r, eta_c):
            regime = Regime.VACUUM_ATS
        elif dip_present:
            regime = Regime.VIT
        else:
            regime = Regime.NO_DIP
    else:
        # at gamma_R <= 2 the VIT window is empty: a dip is already a doublet
        regime = Regime.VACUUM_ATS if dip_present else Regime.NO_DIP

    return RegimeReport(
        gamma_R=gamma_r,
        eta_R=eta_r,
        eta_d=eta_d,
        eta_c=eta_c,
        dip_present=dip_present,
        regime=regime,
        boundary_degenerate=boundary,
    )
