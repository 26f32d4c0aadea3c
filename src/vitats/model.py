"""System parameters, validation, and derived effective rates.

Level scheme: a lambda-type three-level emitter with ground |g>, first
excited |f>, second excited |e>. A quantized cavity mode couples f<->e with
strength eta; a weak classical probe couples g<->e. All rates and detunings
are dimensionless multiples of one reference rate gamma_ref (the figures'
unit); absolute frequencies enter only through the optional temperature ->
thermal-occupation conversion.

Rate conventions:
- gamma[(i, j)] with i above j is the population decay rate i -> j; the
  diagonal entries gamma[(i, i)] are pure dephasing rates. gamma[(g, g)] is
  fixed to 0 (a g dephasing would only redefine the global phase reference).
- kappa is the cavity *amplitude* decay rate: <a> decays at exactly kappa.
- The probe-coherence half-widths are gamma_e = (gamma_eg+gamma_ef+gamma_ee)/2
  and gamma_f = (gamma_fg+gamma_ff)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Union

from .errors import (
    DivisionDegenerate,
    MissingCavityFrequency,
    NegativeRate,
    NonpositiveBeta,
    NonpositiveTemperature,
    ParameterError,
)

LEVELS = ("g", "f", "e")

# Ordered (upper, lower) pairs carrying a rate; diagonal pairs are dephasing.
DECAY_PAIRS = (
    ("e", "g"), ("e", "f"), ("e", "e"),
    ("f", "g"), ("f", "f"),
    ("g", "g"),
)


@dataclass(frozen=True)
class ThermalPump:
    """Thermal cavity occupation n_th >= 0."""

    n_th: float


@dataclass(frozen=True)
class TemperaturePump:
    """Thermal pump given as (T, omega_c); normalized to ThermalPump by
    validate_params.

    temperature is in kelvin, omega_c is the angular cavity frequency in
    rad/s. These are the only absolute-unit quantities in the package.
    """

    temperature: float
    omega_c: float


@dataclass(frozen=True)
class CoherentPump:
    """Coherent cavity drive of amplitude Omega (gamma_ref units).

    pump_detuning = omega_c - omega_d (cavity frequency minus drive
    frequency, gamma_ref units); 0 means resonant pumping.
    """

    Omega: float
    pump_detuning: float = 0.0


Pump = Union[ThermalPump, TemperaturePump, CoherentPump]


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the emitter-cavity system.

    gamma maps level pairs to nonnegative rates (see module docstring);
    missing pairs default to 0. eta/kappa/delta are the cavity coupling,
    cavity amplitude decay, and cavity-transition detuning
    delta = omega_c - (omega_e - omega_f). beta scales the susceptibility;
    epsilon is the probe amplitude used only by the finite-epsilon method.
    """

    gamma: Mapping[tuple[str, str], float] = field(default_factory=dict)
    eta: float = 0.0
    kappa: float = 0.0
    delta: float = 0.0
    pump: Pump | None = None
    beta: float = 1.0
    epsilon: float = 1e-3

    @classmethod
    def from_effective(cls, gamma_e: float, gamma_f: float, *, eta: float,
                       kappa: float, delta: float = 0.0, pump: Pump | None = None,
                       beta: float = 1.0, epsilon: float = 1e-3) -> "SystemParams":
        """Build params from the two effective half-widths.

        The branching of the e and f widths is not resolved by any spectrum
        computed here (only the sums gamma_e, gamma_f enter the probe
        coherence block), so the whole width is assigned to decay into g:
        gamma_eg = 2*gamma_e, gamma_fg = 2*gamma_f.
        """
        gamma = {("e", "g"): 2.0 * gamma_e, ("f", "g"): 2.0 * gamma_f}
        return cls(gamma=gamma, eta=eta, kappa=kappa, delta=delta, pump=pump,
                   beta=beta, epsilon=epsilon)

    @property
    def n_th(self) -> float:
        """Thermal occupation of the cavity bath (0 unless thermally pumped)."""
        if isinstance(self.pump, ThermalPump):
            return self.pump.n_th
        if isinstance(self.pump, TemperaturePump):
            return thermal_occupation(self.pump.omega_c, self.pump.temperature)
        return 0.0

    @property
    def Omega(self) -> float:
        return self.pump.Omega if isinstance(self.pump, CoherentPump) else 0.0

    @property
    def pump_detuning(self) -> float:
        return self.pump.pump_detuning if isinstance(self.pump, CoherentPump) else 0.0


@dataclass(frozen=True)
class EffectiveRates:
    """Effective half-widths and the dimensionless regime ratios.

    gamma_R = gamma_e/(gamma_f+kappa), eta_R = eta/(gamma_f+kappa),
    eta_T = |gamma_f + kappa - gamma_e|.
    """

    gamma_e: float
    gamma_f: float
    gamma_R: float
    eta_R: float
    eta_T: float


def validate_params(p: SystemParams) -> SystemParams:
    """Check and normalize parameters.

    Every rate, detuning, amplitude and pump setting must be finite. Returns
    a new SystemParams with the gamma map completed over all pairs,
    gamma[(g,g)] forced to 0, and a TemperaturePump converted to the
    equivalent ThermalPump.
    """
    settings = {f"gamma[{pair}]": value for pair, value in p.gamma.items()}
    settings.update(eta=p.eta, kappa=p.kappa, delta=p.delta, beta=p.beta,
                    epsilon=p.epsilon)
    if p.pump is not None:
        settings.update(vars(p.pump))
    for name, value in settings.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} = {value} must be finite")

    gamma = dict.fromkeys(DECAY_PAIRS, 0.0)
    for pair, value in p.gamma.items():
        if pair not in gamma:
            raise ParameterError(f"unknown decay pair {pair!r}; allowed: {DECAY_PAIRS}")
        if value < 0:
            raise NegativeRate(f"gamma[{pair}] = {value} < 0")
        gamma[pair] = float(value)
    gamma[("g", "g")] = 0.0

    if p.eta < 0:
        raise NegativeRate(f"eta = {p.eta} < 0")
    if p.kappa < 0:
        raise NegativeRate(f"kappa = {p.kappa} < 0")
    if p.beta <= 0:
        raise NonpositiveBeta(f"beta = {p.beta} must be > 0")
    if p.epsilon <= 0:
        raise ParameterError(f"epsilon = {p.epsilon} must be > 0")

    pump = p.pump
    if isinstance(pump, TemperaturePump):
        pump = ThermalPump(thermal_occupation(pump.omega_c, pump.temperature))
    if isinstance(pump, ThermalPump) and pump.n_th < 0:
        raise ParameterError(f"n_th = {pump.n_th} < 0")
    if isinstance(pump, CoherentPump) and pump.Omega < 0:
        raise NegativeRate(f"Omega = {pump.Omega} < 0")

    return replace(p, gamma=gamma, pump=pump)


def half_widths(p: SystemParams) -> tuple[float, float]:
    """(gamma_e, gamma_f) coherence half-widths; always defined."""
    g = validate_params(p).gamma
    gamma_e = (g[("e", "g")] + g[("e", "f")] + g[("e", "e")]) / 2.0
    gamma_f = (g[("f", "g")] + g[("f", "f")]) / 2.0
    return gamma_e, gamma_f


def effective_rates(p: SystemParams) -> EffectiveRates:
    """Effective half-widths and regime ratios for validated params."""
    gamma_e, gamma_f = half_widths(p)
    total = gamma_f + p.kappa
    if total == 0.0:
        raise DivisionDegenerate(
            "gamma_f + kappa = 0: gamma_R and eta_R are undefined",
            gamma_e=gamma_e, gamma_f=gamma_f)
    return EffectiveRates(
        gamma_e=gamma_e,
        gamma_f=gamma_f,
        gamma_R=gamma_e / total,
        eta_R=p.eta / total,
        eta_T=abs(total - gamma_e),
    )


# exact SI 2019 Planck and Boltzmann constants (J s, J/K)
_H, _K_B = 6.62607015e-34, 1.380649e-23
_HBAR = _H / (2.0 * math.pi)


def thermal_occupation(omega_c: float, temperature: float) -> float:
    """Bose-Einstein occupation n_th = 1/(exp(hbar*omega_c/k_B*T) - 1).

    omega_c is angular frequency in rad/s, temperature in kelvin.
    """
    if temperature <= 0:
        raise NonpositiveTemperature(f"temperature = {temperature} K must be > 0")
    if omega_c <= 0:
        raise MissingCavityFrequency(f"omega_c = {omega_c} rad/s must be > 0")
    k_t = _K_B * temperature  # underflows to 0 for a tiny temperature
    x = _HBAR * omega_c / k_t if k_t > 0.0 else math.inf
    if x > 700.0:  # expm1 overflows; occupation is numerically zero
        return 0.0
    if not x > 1e-300:  # hbar omega_c underflows: 1/expm1(x) would overflow
        raise ParameterError(f"thermal occupation at omega_c = {omega_c} rad/s and "
                             f"temperature = {temperature} K exceeds 1e300")
    return 1.0 / math.expm1(x)


# --- flat key-value configuration --------------------------------------------

_EFFECTIVE_KEYS = ("gamma_e", "gamma_f")
_FULL_KEYS = ("gamma_eg", "gamma_ef", "gamma_ee", "gamma_fg", "gamma_ff")
_PUMP_KEYS = ("n_th", "temperature_mK", "Omega")

PARAM_KEYS = _EFFECTIVE_KEYS + _FULL_KEYS + (
    "eta", "kappa", "delta", "n_th", "temperature_mK", "omega_c_GHz",
    "Omega", "pump_detuning", "beta", "epsilon",
)


def params_from_config(cfg: Mapping[str, object]) -> SystemParams:
    """Build validated SystemParams from a flat key-value mapping.

    Either the effective pair (gamma_e, gamma_f) or the full gamma map keys
    may be present, not both. At most one pump among n_th / temperature_mK /
    Omega; temperature_mK requires omega_c_GHz, and temperature_mK = 0 is
    the vacuum bath n_th = 0.
    """
    unknown = set(cfg) - set(PARAM_KEYS)
    if unknown:
        raise ParameterError(f"unknown parameter keys: {sorted(unknown)}")

    def num(key: str, default: float | None = None) -> float | None:
        if key not in cfg:
            return default
        value = cfg[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParameterError(f"{key} must be a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            raise ParameterError(f"{key} must be a finite number, got an "
                                 f"integer too large for a float") from None

    has_eff = [k for k in _EFFECTIVE_KEYS if k in cfg]
    has_full = [k for k in _FULL_KEYS if k in cfg]
    if has_eff and has_full:
        raise ParameterError(
            f"give either the effective pair {has_eff} or the full map {has_full}, not both")
    if has_eff:
        if len(has_eff) != 2:
            raise ParameterError("gamma_e and gamma_f must be given together")
        gamma = {("e", "g"): 2.0 * num("gamma_e"), ("f", "g"): 2.0 * num("gamma_f")}
    else:
        gamma = {}
        for key in has_full:
            upper, lower = key[-2], key[-1]
            gamma[(upper, lower)] = num(key)

    pumps_given = [k for k in _PUMP_KEYS if k in cfg]
    if len(pumps_given) > 1:
        raise ParameterError(f"at most one pump among {_PUMP_KEYS}, got {pumps_given}")
    pump: Pump | None = None
    if "n_th" in cfg:
        pump = ThermalPump(num("n_th"))
    elif "temperature_mK" in cfg:
        if "omega_c_GHz" not in cfg:
            raise MissingCavityFrequency("temperature_mK requires omega_c_GHz")
        temperature = num("temperature_mK") * 1e-3
        if temperature == 0.0:
            # absolute zero, or a temperature that underflows in kelvin, has
            # no Bose factor to evaluate: the vacuum bath
            pump = ThermalPump(0.0)
        else:
            pump = TemperaturePump(temperature=temperature,
                                   omega_c=2.0 * math.pi * 1e9 * num("omega_c_GHz"))
    elif "Omega" in cfg:
        pump = CoherentPump(num("Omega"), num("pump_detuning", 0.0))
    elif "pump_detuning" in cfg:
        raise ParameterError("pump_detuning given without Omega")

    params = SystemParams(
        gamma=gamma,
        eta=num("eta", 0.0),
        kappa=num("kappa", 0.0),
        delta=num("delta", 0.0),
        pump=pump,
        beta=num("beta", 1.0),
        epsilon=num("epsilon", 1e-3),
    )
    return validate_params(params)


def params_to_config(p: SystemParams) -> dict[str, float]:
    """Flat canonical echo of validated params (used for output metadata)."""
    p = validate_params(p)
    cfg: dict[str, float] = {}
    for (upper, lower), value in sorted(p.gamma.items()):
        if value != 0.0 or (upper, lower) in (("e", "g"), ("f", "g")):
            cfg[f"gamma_{upper}{lower}"] = value
    cfg["eta"] = p.eta
    cfg["kappa"] = p.kappa
    cfg["delta"] = p.delta
    if isinstance(p.pump, ThermalPump):
        cfg["n_th"] = p.pump.n_th
    elif isinstance(p.pump, CoherentPump):
        cfg["Omega"] = p.pump.Omega
        cfg["pump_detuning"] = p.pump.pump_detuning
    cfg["beta"] = p.beta
    cfg["epsilon"] = p.epsilon
    return cfg
