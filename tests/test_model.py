import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import constants

from vitats import (
    CoherentPump,
    DivisionDegenerate,
    MissingCavityFrequency,
    NegativeRate,
    NonpositiveBeta,
    NonpositiveTemperature,
    ParameterError,
    SystemParams,
    TemperaturePump,
    ThermalPump,
    effective_rates,
    params_from_config,
    params_to_config,
    thermal_occupation,
    validate_params,
)
from vitats.model import DECAY_PAIRS


def test_validate_identity_for_clean_params():
    p = SystemParams(gamma={("e", "g"): 10.0, ("f", "g"): 2.0}, eta=4.0,
                     kappa=1.0, delta=0.0)
    assert validate_params(p) is p  # construction already checked p
    assert p.gamma[("e", "g")] == 10.0
    assert p.gamma[("f", "g")] == 2.0
    assert p.gamma[("g", "g")] == 0.0
    assert p.eta == 4.0 and p.kappa == 1.0 and p.pump is None


def test_gamma_gg_forced_to_zero():
    p = SystemParams(gamma={("g", "g"): 3.0, ("e", "g"): 1.0})
    assert p.gamma[("g", "g")] == 0.0


def test_temperature_pump_converts_to_thermal():
    # 80 mK at omega_c/2pi = 5 GHz
    omega_c = 2 * math.pi * 5e9
    p = SystemParams(gamma={("e", "g"): 1.0},
                     pump=TemperaturePump(temperature=0.080, omega_c=omega_c))
    assert isinstance(p.pump, ThermalPump)
    assert p.n_th == pytest.approx(0.0524, abs=5e-4)
    assert p.n_th == pytest.approx(0.0524217894, rel=1e-8)


_VALID = {"gamma": {("e", "g"): 10.0, ("f", "g"): 2.0}, "eta": 4.0, "kappa": 1.0}
_OMEGA_C = 2 * math.pi * 5e9  # rad/s


@pytest.mark.parametrize("fields, error, message", [
    ({"eta": math.nan}, ParameterError, "eta = nan must be finite"),
    ({"gamma": {("e", "g"): math.inf}}, ParameterError,
     "gamma[('e', 'g')] = inf must be finite"),
    ({"pump": CoherentPump(0.4, pump_detuning=-math.inf)}, ParameterError,
     "pump_detuning = -inf must be finite"),
    ({"pump": TemperaturePump(temperature=math.nan, omega_c=_OMEGA_C)}, ParameterError,
     "temperature = nan must be finite"),
    ({"gamma": {("e", "g"): -1.0}}, NegativeRate, "gamma[('e', 'g')] = -1.0 < 0"),
    ({"gamma": {("e", "f"): -1.0}}, NegativeRate, "gamma[('e', 'f')] = -1.0 < 0"),
    ({"eta": -0.5}, NegativeRate, "eta = -0.5 < 0"),
    ({"kappa": -0.1}, NegativeRate, "kappa = -0.1 < 0"),
    ({"gamma": {("g", "e"): 1.0}}, ParameterError,
     "unknown decay pair ('g', 'e'); allowed: " + str(DECAY_PAIRS)),
    ({"beta": 0.0}, NonpositiveBeta, "beta = 0.0 must be > 0"),
    ({"beta": -2.0}, NonpositiveBeta, "beta = -2.0 must be > 0"),
    ({"epsilon": 0.0}, ParameterError, "epsilon = 0.0 must be > 0"),
    ({"pump": ThermalPump(-0.1)}, ParameterError, "n_th = -0.1 < 0"),
    ({"pump": CoherentPump(-0.4)}, NegativeRate, "Omega = -0.4 < 0"),
    ({"pump": TemperaturePump(temperature=0.0, omega_c=_OMEGA_C)},
     NonpositiveTemperature, "temperature = 0.0 K must be > 0"),
    ({"pump": TemperaturePump(temperature=0.08, omega_c=0.0)},
     MissingCavityFrequency, "omega_c = 0.0 rad/s must be > 0"),
    ({"pump": TemperaturePump(temperature=0.08, omega_c=-1.0)},
     MissingCavityFrequency, "omega_c = -1.0 rad/s must be > 0"),
])
def test_construction_refuses_each_invalid_field(fields, error, message):
    for build in (lambda: SystemParams(**{**_VALID, **fields}),
                  lambda: replace(SystemParams(**_VALID), **fields)):
        with pytest.raises(ParameterError) as info:
            build()
        assert type(info.value) is error
        assert str(info.value) == message


@pytest.mark.parametrize("pump", [None, ThermalPump(0.1), CoherentPump(0.4, 0.2),
                                  TemperaturePump(temperature=0.08, omega_c=_OMEGA_C)])
def test_constructed_params_are_complete_and_read_only(pump):
    p = SystemParams(gamma={("g", "g"): 3.0, ("e", "f"): 1}, pump=pump)
    assert dict(p.gamma) == {**dict.fromkeys(DECAY_PAIRS, 0.0), ("e", "f"): 1.0}
    assert all(type(rate) is float for rate in p.gamma.values())
    with pytest.raises(TypeError):
        p.gamma[("e", "g")] = 2.0
    assert not isinstance(p.pump, TemperaturePump)
    assert not isinstance(replace(p, eta=1.0).pump, TemperaturePump)


def test_thermal_occupation_ln2_gives_one():
    # hbar*omega/(kB*T) = ln 2  ->  n_th = 1
    temperature = 0.010
    omega = math.log(2.0) * constants.k * temperature / constants.hbar
    assert thermal_occupation(omega, temperature) == pytest.approx(1.0, rel=1e-12)


def test_thermal_occupation_low_temperature_limit():
    omega = 2 * math.pi * 5e9
    assert thermal_occupation(omega, 1e-6) == 0.0
    assert thermal_occupation(omega, 0.010) == pytest.approx(3.789449e-11, rel=1e-5)
    with pytest.raises(NonpositiveTemperature):
        thermal_occupation(omega, 0.0)
    with pytest.raises(NonpositiveTemperature):
        thermal_occupation(omega, -1.0)


@pytest.mark.parametrize("temperature_mk", [1e-300, 1e-310, 5e-324])
def test_thermal_occupation_at_a_tiny_temperature(temperature_mk):
    # k_B T underflows to 0 (5e-324 mK is 0 K: the vacuum bath); the
    # occupation is 0, not a division by zero
    p = params_from_config({"gamma_e": 5, "gamma_f": 1, "omega_c_GHz": 5.0,
                            "temperature_mK": temperature_mk})
    assert p.n_th == 0.0


def test_thermal_occupation_beyond_the_float_range_is_refused():
    # hbar omega_c underflows to 0: the occupation would be infinite
    with pytest.raises(ParameterError, match="exceeds 1e300"):
        params_from_config({"gamma_e": 5, "gamma_f": 1, "omega_c_GHz": 1e-300,
                            "temperature_mK": 10.0})


def test_thermal_occupation_is_bit_equal_to_scipy_constants():
    # the exact SI values h and k_B, with hbar = h/(2 pi), are scipy's, so
    # every temperature preset keeps its n_th to the last bit
    omega = 2 * math.pi * 5e9
    for temperature in np.linspace(0.001, 0.1, 100):
        x = constants.hbar * omega / (constants.k * temperature)
        assert thermal_occupation(omega, temperature) == 1.0 / math.expm1(x)


def test_thermal_occupation_monotonicity():
    rng = np.random.default_rng(7)
    omega = 2 * math.pi * 5e9
    temps = np.sort(rng.uniform(0.005, 0.5, size=50))
    occ = [thermal_occupation(omega, t) for t in temps]
    assert all(b > a for a, b in zip(occ, occ[1:]))
    omegas = np.sort(rng.uniform(0.5, 10.0, size=50)) * 2 * math.pi * 1e9
    occ_w = [thermal_occupation(w, 0.080) for w in omegas]
    assert all(b < a for a, b in zip(occ_w, occ_w[1:]))


def test_effective_rates_published_regime_point():
    # gamma map in 2pi*MHz; kappa and eta stay as quoted in the regime example
    p = SystemParams(gamma={("e", "g"): 15.0, ("f", "g"): 6.5},
                     eta=36.0, kappa=0.63)
    r = effective_rates(p)
    assert r.gamma_e == pytest.approx(7.5)
    assert r.gamma_f == pytest.approx(3.25)
    assert r.gamma_R == pytest.approx(1.93, abs=5e-3)
    assert r.eta_R == pytest.approx(9.28, abs=5e-3)


def test_effective_rates_eta_T():
    p = SystemParams.from_effective(5.0, 1.0, eta=4.0, kappa=1.0)
    assert effective_rates(p).eta_T == pytest.approx(3.0, abs=1e-15)


def test_effective_rates_degenerate():
    with pytest.raises(DivisionDegenerate) as info:
        effective_rates(SystemParams(gamma={}, eta=1.0))
    assert info.value.gamma_e == 0.0
    assert info.value.gamma_f == 0.0


@pytest.mark.parametrize("gamma_f, kappa, eta", [(1e-320, 0.0, 2.0), (0.1, 0.0, 1e308)])
def test_effective_rates_that_overflow_are_degenerate(gamma_f, kappa, eta):
    # gamma_R or eta_R would be inf: refused, as at gamma_f + kappa = 0
    p = SystemParams.from_effective(5.0, gamma_f, eta=eta, kappa=kappa)
    with pytest.raises(DivisionDegenerate, match="must be finite") as info:
        effective_rates(p)
    assert (info.value.gamma_e, info.value.gamma_f) == (5.0, gamma_f)


def test_effective_rates_scale_covariance():
    rng = np.random.default_rng(11)
    for _ in range(200):
        ge, gf, kappa, eta = rng.uniform(0.05, 20.0, size=4)
        scale = rng.uniform(0.01, 100.0)
        base = effective_rates(SystemParams.from_effective(ge, gf, eta=eta, kappa=kappa))
        scaled = effective_rates(SystemParams.from_effective(
            scale * ge, scale * gf, eta=scale * eta, kappa=scale * kappa))
        assert scaled.gamma_e == pytest.approx(scale * base.gamma_e, rel=1e-12)
        assert scaled.gamma_f == pytest.approx(scale * base.gamma_f, rel=1e-12)
        assert scaled.eta_T == pytest.approx(scale * base.eta_T, rel=1e-9, abs=1e-12)
        assert scaled.gamma_R == pytest.approx(base.gamma_R, rel=1e-12)
        assert scaled.eta_R == pytest.approx(base.eta_R, rel=1e-12)


def test_from_effective_expansion():
    p = SystemParams.from_effective(5.0, 1.0, eta=2.0, kappa=0.2)
    assert p.gamma[("e", "g")] == 10.0
    assert p.gamma[("f", "g")] == 2.0
    r = effective_rates(p)
    assert r.gamma_e == 5.0 and r.gamma_f == 1.0


def test_config_rejects_unknown_and_mixed_keys():
    with pytest.raises(ParameterError):
        params_from_config({"gamma_e": 5, "gamma_f": 1, "bogus": 1})
    with pytest.raises(ParameterError):
        params_from_config({"gamma_e": 5, "gamma_f": 1, "gamma_eg": 10})
    with pytest.raises(ParameterError):
        params_from_config({"gamma_e": 5})  # pair must be complete
    with pytest.raises(ParameterError):
        params_from_config({"gamma_e": 5, "gamma_f": 1, "n_th": 0.1, "Omega": 0.2})
    with pytest.raises(ParameterError):
        params_from_config({"gamma_e": 5, "gamma_f": 1, "pump_detuning": 0.5})
    with pytest.raises(MissingCavityFrequency):
        params_from_config({"gamma_e": 5, "gamma_f": 1, "temperature_mK": 80})


def test_config_pumps():
    p = params_from_config({"gamma_e": 5, "gamma_f": 1, "n_th": 0.3})
    assert isinstance(p.pump, ThermalPump) and p.n_th == 0.3
    p = params_from_config({"gamma_e": 5, "gamma_f": 1, "Omega": 0.4,
                            "pump_detuning": 0.1})
    assert isinstance(p.pump, CoherentPump)
    assert p.Omega == 0.4 and p.pump_detuning == 0.1
    p = params_from_config({"gamma_e": 5, "gamma_f": 1,
                            "temperature_mK": 80, "omega_c_GHz": 5})
    assert isinstance(p.pump, ThermalPump)
    assert p.n_th == pytest.approx(0.0524217894, rel=1e-8)



def test_config_zero_temperature_is_the_vacuum_bath():
    zero = params_from_config({"gamma_e": 5, "gamma_f": 1,
                               "temperature_mK": 0, "omega_c_GHz": 5})
    assert zero == params_from_config({"gamma_e": 5, "gamma_f": 1, "n_th": 0.0})
    with pytest.raises(MissingCavityFrequency):
        params_from_config({"gamma_e": 5, "gamma_f": 1, "temperature_mK": 0})
    with pytest.raises(NonpositiveTemperature):
        params_from_config({"gamma_e": 5, "gamma_f": 1,
                            "temperature_mK": -1, "omega_c_GHz": 5})

def test_config_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        cfg = {"gamma_eg": rng.uniform(0, 10), "gamma_ef": rng.uniform(0, 2),
               "gamma_fg": rng.uniform(0, 4), "eta": rng.uniform(0, 10),
               "kappa": rng.uniform(0, 3), "delta": rng.uniform(-2, 2),
               "beta": rng.uniform(0.1, 3), "epsilon": rng.uniform(1e-4, 1e-2),
               "n_th": rng.uniform(0, 1)}
        p = params_from_config(cfg)
        echo = params_to_config(p)
        q = params_from_config(echo)
        assert q == p
        for key, value in cfg.items():
            assert echo[key] == value


_FULL_GAMMA_KEYS = ("gamma_eg", "gamma_ef", "gamma_ee", "gamma_fg", "gamma_ff")
_CONFIG_RATES = st.one_of(
    st.fixed_dictionaries({"gamma_e": st.floats(0, 100), "gamma_f": st.floats(0, 100)}),
    st.dictionaries(st.sampled_from(_FULL_GAMMA_KEYS), st.floats(0, 100)))
_CONFIG_PUMP = st.one_of(
    st.just({}),
    st.fixed_dictionaries({"n_th": st.floats(0, 100)}),
    st.fixed_dictionaries({"temperature_mK": st.floats(0, 1000),
                           "omega_c_GHz": st.floats(1e-3, 1e3)}),
    st.fixed_dictionaries({"Omega": st.floats(0, 10)},
                          optional={"pump_detuning": st.floats(-100, 100)}))
_CONFIG_REST = st.fixed_dictionaries({}, optional={
    "eta": st.floats(0, 1e3), "kappa": st.floats(0, 100),
    "delta": st.floats(-100, 100), "beta": st.floats(1e-6, 1e3),
    "epsilon": st.floats(1e-9, 1.0)})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rates=_CONFIG_RATES, pump=_CONFIG_PUMP, rest=_CONFIG_REST)
def test_config_round_trip_randomized(rates, pump, rest):
    p = params_from_config({**rates, **pump, **rest})
    assert params_from_config(params_to_config(p)) == p


def test_pump_defaults_zero():
    p = SystemParams(gamma={("e", "g"): 1.0})
    assert p.n_th == 0.0 and p.Omega == 0.0 and p.pump_detuning == 0.0


_BASE = {"gamma_e": 5.0, "gamma_f": 1.0, "eta": 4.0, "kappa": 1.0,
         "delta": 0.0, "beta": 1.0, "epsilon": 1e-3}
_FULL_MAP = {"gamma_eg": 8.0, "gamma_ef": 1.0, "gamma_ee": 1.0,
             "gamma_fg": 1.5, "gamma_ff": 0.5, "eta": 4.0, "kappa": 1.0}
_NONFINITE_CASES = {key: cfg for cfg in (
    {**_BASE, "temperature_mK": 10.0, "omega_c_GHz": 5.0},
    {**_BASE, "Omega": 0.4, "pump_detuning": 0.2},
    {**_BASE, "n_th": 0.1},
    _FULL_MAP,
    _BASE) for key in cfg}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", sorted(_NONFINITE_CASES))
def test_nonfinite_values_rejected(key, value):
    cfg = {**_NONFINITE_CASES[key], key: value}
    with pytest.raises(ParameterError, match="finite"):
        params_from_config(cfg)
