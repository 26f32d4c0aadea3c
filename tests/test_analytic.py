import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vitats import (
    DegenerateDamping,
    DegeneratePoles,
    DivisionDegenerate,
    NonzeroDetuning,
    PreconditionError,
    Regime,
    ResonanceComponent,
    SystemParams,
    chi_vacuum,
    classify_regime,
    decompose_resonances,
    dip_threshold,
    first_order_coherences,
    mixing_angle,
    poles,
)


def _imag_form(Delta, gamma_e, gamma_f, kappa, eta, delta, beta=1.0):
    """Independent absorption-only route: real-rational form of Im chi."""
    g = gamma_f + kappa
    num = gamma_e * (Delta + delta / 2.0) ** 2 + eta ** 2 * g + gamma_e * g ** 2
    d_re = -Delta ** 2 + eta ** 2 + gamma_e * gamma_f + delta ** 2 / 4.0 + gamma_e * kappa
    d_im = -Delta * (gamma_e + gamma_f + kappa) + 0.5 * delta * (-gamma_e + gamma_f + kappa)
    return beta * num / (d_re ** 2 + d_im ** 2)


def _draw_params(rng, delta=0.0):
    return SystemParams.from_effective(
        rng.uniform(0.1, 15.0), rng.uniform(0.1, 5.0),
        eta=rng.uniform(0.0, 20.0), kappa=rng.uniform(0.0, 5.0), delta=delta)


def test_chi_bare_atom_peak():
    p = SystemParams.from_effective(5.0, 1.0, eta=0.0, kappa=0.0)
    assert chi_vacuum(0.0, p).imag == pytest.approx(1.0 / 5.0, rel=1e-14)
    assert chi_vacuum(0.0, p).real == pytest.approx(0.0, abs=1e-15)


def test_chi_known_value():
    p = SystemParams.from_effective(5.0, 1.0, eta=10.0, kappa=0.2)
    chi = chi_vacuum(0.0, p)
    assert chi.imag == pytest.approx(127.2 / 11236, rel=1e-13)
    assert chi.imag == pytest.approx(0.011321, abs=5e-7)


def test_chi_even_in_Delta_at_zero_detuning():
    rng = np.random.default_rng(21)
    grid = rng.uniform(-25, 25, size=200)
    p = _draw_params(rng)
    forward = chi_vacuum(grid, p)
    mirrored = chi_vacuum(-grid, p)
    np.testing.assert_allclose(forward.imag, mirrored.imag, rtol=0, atol=1e-15)
    np.testing.assert_allclose(forward.real, -mirrored.real, rtol=0, atol=1e-15)


def test_chi_reflection_symmetry_with_detuning():
    rng = np.random.default_rng(22)
    for _ in range(50):
        delta = rng.uniform(-8, 8)
        p = _draw_params(rng, delta=delta)
        q = SystemParams.from_effective(
            p.gamma[("e", "g")] / 2, p.gamma[("f", "g")] / 2,
            eta=p.eta, kappa=p.kappa, delta=-delta)
        grid = rng.uniform(-20, 20, size=64)
        np.testing.assert_allclose(chi_vacuum(grid, p).imag,
                                   chi_vacuum(-grid, q).imag,
                                   rtol=0, atol=1e-14)


def test_chi_asymmetric_off_resonance():
    p = SystemParams.from_effective(5.0, 1.0, eta=2.0, kappa=0.2, delta=2.0)
    assert abs(chi_vacuum(3.0, p).imag - chi_vacuum(-3.0, p).imag) > 1e-3


def test_chi_matches_imag_form_oracle():
    # two independent code paths for the absorption must agree
    rng = np.random.default_rng(23)
    for _ in range(100):
        delta = rng.uniform(-6, 6) if rng.uniform() < 0.7 else 0.0
        p = _draw_params(rng, delta=delta)
        ge = p.gamma[("e", "g")] / 2
        gf = p.gamma[("f", "g")] / 2
        grid = rng.uniform(-25, 25, size=40)
        oracle = _imag_form(grid, ge, gf, p.kappa, p.eta, delta)
        got = chi_vacuum(grid, p).imag
        np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=1e-300)


def test_chi_beta_scaling_and_shapes():
    p = SystemParams.from_effective(5.0, 1.0, eta=2.0, kappa=0.2, beta=2.5)
    base = SystemParams.from_effective(5.0, 1.0, eta=2.0, kappa=0.2)
    assert chi_vacuum(1.0, p) == pytest.approx(2.5 * chi_vacuum(1.0, base), rel=1e-15)
    assert isinstance(chi_vacuum(1.0, base), complex)
    out = chi_vacuum(np.array([0.0, 1.0]), base)
    assert out.shape == (2,) and out.dtype == complex


def test_chi_degenerate_damping():
    with pytest.raises(DegenerateDamping):
        chi_vacuum(0.0, SystemParams(gamma={}, eta=1.0))


@pytest.mark.parametrize("delta", [0.0, 1.5])
def test_chi_finite_at_the_removable_singularity(delta):
    # eta = 0 and gamma_f + kappa = 0: numerator and denominator share the
    # factor Delta + delta/2, and chi is -beta/(Delta - delta/2 + i gamma_e)
    p = SystemParams.from_effective(5.0, 0.0, eta=0.0, kappa=0.0, delta=delta)
    grid = np.linspace(-1.0, 1.0, 5) - delta / 2.0  # holds Delta = -delta/2
    chi = chi_vacuum(grid, p)
    assert np.all(np.isfinite(chi))
    np.testing.assert_allclose(chi, -1.0 / (grid - delta / 2.0 + 5j), rtol=1e-15, atol=0)
    assert chi_vacuum(-delta / 2.0, p) == -1.0 / (-delta + 5j)


def test_resonances_finite_at_the_removable_singularity():
    # R_1 has weight exactly 0 and its pole on the real axis, at Delta = 0
    p = SystemParams.from_effective(5.0, 0.0, eta=0.0, kappa=0.0)
    r_1, r_2 = decompose_resonances(p)
    assert r_1.weight == 0 and r_1.pole == 0
    grid = np.linspace(-1.0, 1.0, 5)
    total = np.imag(r_1.evaluate(grid)) + np.imag(r_2.evaluate(grid))
    assert np.all(np.isfinite(total))
    assert np.abs(total - chi_vacuum(grid, p).imag).max() <= 1e-12


def test_resonance_component_of_zero_weight_is_zero():
    zero = ResonanceComponent(pole=0j, weight=0j)
    assert np.array_equal(zero.evaluate([-1.0, 0.0, 2.0]), np.zeros(3, dtype=complex))
    assert zero.evaluate(0.0) == 0 and np.ndim(zero.evaluate(0.0)) == 0


@pytest.mark.parametrize("key, value", [("eta", 1e160), ("delta", 1e200)])
def test_chi_square_overflow_is_a_precondition_error(key, value):
    p = SystemParams.from_effective(5.0, 1.0, **{"eta": 2.0, "kappa": 1.0, key: value})
    with pytest.raises(PreconditionError, match=re.escape(f"{key} = {value:g} is too large")):
        chi_vacuum(0.0, p)


def test_poles_square_overflow_is_a_precondition_error():
    p = SystemParams.from_effective(5.0, 1.0, eta=1e160, kappa=1.0)
    with pytest.raises(PreconditionError, match="^eta = 1e[+]160 is too large"):
        poles(p)


@pytest.mark.parametrize("system, product", [
    (dict(gamma_e=1e200, gamma_f=1e200, eta=1.0, kappa=0.0), "gamma_e*gamma_f"),
    (dict(gamma_e=1e200, gamma_f=1.0, eta=1.0, kappa=1e200), "gamma_e*kappa"),
    (dict(gamma_e=1e200, gamma_f=1.0, eta=1.0, kappa=0.0, delta=1e150),
     "(delta/2)(gamma_f + kappa - gamma_e)"),
    (dict(gamma_e=1e154, gamma_f=1e154, eta=1.3e154, kappa=0.0), "their sum"),
])
def test_chi_constant_overflow_is_a_precondition_error(system, product):
    # C = inf would leave chi = 0 at every Delta, finite and wrong
    gamma_e, gamma_f = system.pop("gamma_e"), system.pop("gamma_f")
    p = SystemParams.from_effective(gamma_e, gamma_f, **system)
    with pytest.raises(PreconditionError,
                       match=re.escape(f"C of chi overflows a float: {product} is not")):
        chi_vacuum(np.linspace(-1.0, 1.0, 5), p)


def _chi_reference(Delta, p):
    """chi_vacuum's closed form as one expression, its sum in C's order."""
    gamma_e, gamma_f = p.gamma[("e", "g")] / 2, p.gamma[("f", "g")] / 2
    g, total = gamma_f + p.kappa, gamma_e + gamma_f + p.kappa
    big_c = (p.eta ** 2 + gamma_e * gamma_f + gamma_e * p.kappa + p.delta ** 2 / 4.0
             + 0.5j * p.delta * (-gamma_e + g))
    return p.beta * (Delta + p.delta / 2.0 + 1j * g) / (-Delta ** 2 - 1j * total * Delta
                                                        + big_c)


def test_chi_finite_constant_keeps_its_bits():
    rng = np.random.default_rng(47)
    grid = np.linspace(-30.0, 30.0, 61)
    for _ in range(200):
        delta = rng.uniform(-6, 6) if rng.uniform() < 0.6 else 0.0
        p = _draw_params(rng, delta=delta)
        if p.eta == 0.0 and p.gamma[("f", "g")] + p.kappa == 0.0:
            continue  # the cancelled form
        assert np.array_equal(chi_vacuum(grid, p), _chi_reference(grid, p))


@pytest.mark.parametrize("gamma_e", [1e4, 1e8, 1e12])
def test_poles_below_the_discriminant_zero_match_vieta(gamma_e):
    # disc < 0: the narrow pole i(sqrt|disc| - total)/2 cancelled (off by
    # 1.3e-9 at gamma_e 1e8); from Vieta's product it keeps full precision
    p = SystemParams.from_effective(gamma_e, 1.0, eta=1.0, kappa=1.0)
    pair = poles(p)
    assert pair.discriminant < 0
    total, product = gamma_e + 2.0, -(1.0 + gamma_e * 2.0)
    assert abs(pair.delta_1 * pair.delta_2 - product) <= 1e-15 * abs(product)
    assert abs(pair.delta_1 + pair.delta_2 + 1j * total) <= 1e-15 * total
    assert pair.delta_1.real == 0.0 and pair.delta_2.real == 0.0


def test_poles_keep_the_narrow_pole_at_huge_damping():
    # gamma_e 1e154: the + root used to cancel to exactly 0, a pole on the
    # real axis; the narrow pole is -i(gamma_f + kappa) to 1e-154
    p = SystemParams.from_effective(1e154, 1.0, eta=1.0, kappa=1.0)
    pair = poles(p)
    assert pair.delta_1 == pytest.approx(-2.0j, rel=1e-15)
    assert pair.delta_2 == pytest.approx(-1e154j, rel=1e-15)
    assert all(np.isfinite(r.evaluate(0.0)) for r in decompose_resonances(p))


def test_first_order_recombination_matches_chi():
    rng = np.random.default_rng(31)
    for _ in range(100):
        delta = rng.uniform(-6, 6) if rng.uniform() < 0.6 else 0.0
        p = _draw_params(rng, delta=delta)
        if p.eta == 0.0 and delta == 0.0:
            continue  # vacuum mixing angle undefined
        theta = mixing_angle(0, p.eta, p.delta)
        grid = rng.uniform(-20, 20, size=32)
        rho_gu, rho_gv = first_order_coherences(grid, p)
        recombined = math.cos(theta) * rho_gu + math.sin(theta) * rho_gv
        target = chi_vacuum(grid, p) / p.beta
        np.testing.assert_allclose(recombined, target, rtol=1e-12, atol=1e-14)


def test_first_order_balanced_when_cross_term_vanishes():
    # gamma_e = gamma_f + kappa and delta = 0: equal-magnitude amplitudes
    p = SystemParams.from_effective(3.0, 1.0, eta=2.0, kappa=2.0)
    rho_gu, rho_gv = first_order_coherences(0.0, p)
    assert abs(rho_gu) == pytest.approx(abs(rho_gv), rel=1e-12)


def test_poles_fig5b_values():
    p = SystemParams.from_effective(10.0, 1.0, eta=3.9, kappa=1.0)
    pair = poles(p)
    assert pair.eta_T == pytest.approx(8.0)
    assert pair.discriminant == pytest.approx(-3.16, rel=1e-12)
    values = sorted((pair.delta_1, pair.delta_2), key=lambda z: z.imag)
    assert values[1] == pytest.approx(-5.11118055826844j, rel=1e-12)
    assert values[0] == pytest.approx(-6.88881944173156j, rel=1e-12)


def test_poles_fig5c_values():
    p = SystemParams.from_effective(10.0, 1.0, eta=4.1, kappa=1.0)
    pair = poles(p)
    assert pair.discriminant == pytest.approx(3.24, rel=1e-12)
    assert pair.delta_1 == pytest.approx(0.9 - 6.0j, rel=1e-12)
    assert pair.delta_2 == pytest.approx(-0.9 - 6.0j, rel=1e-12)


def test_poles_vieta_random():
    rng = np.random.default_rng(41)
    for _ in range(500):
        p = _draw_params(rng)
        pair = poles(p)
        ge = p.gamma[("e", "g")] / 2
        gf = p.gamma[("f", "g")] / 2
        total = ge + gf + p.kappa
        product = -(p.eta ** 2 + ge * gf + ge * p.kappa)
        scale = max(1.0, total, abs(product))
        assert abs(pair.delta_1 + pair.delta_2 + 1j * total) <= 1e-12 * scale
        assert abs(pair.delta_1 * pair.delta_2 - product) <= 1e-12 * scale


def test_poles_structure_by_discriminant_sign():
    rng = np.random.default_rng(43)
    seen_below = seen_above = 0
    while seen_below < 40 or seen_above < 40:
        p = _draw_params(rng)
        pair = poles(p)
        ge = p.gamma[("e", "g")] / 2
        gf = p.gamma[("f", "g")] / 2
        if pair.discriminant < 0:
            assert abs(pair.delta_1.real) < 1e-13
            assert abs(pair.delta_2.real) < 1e-13
            seen_below += 1
        elif pair.discriminant > 0:
            assert pair.delta_1.real == pytest.approx(-pair.delta_2.real, rel=1e-12)
            half = -(ge + gf + p.kappa) / 2
            assert pair.delta_1.imag == pytest.approx(half, rel=1e-12)
            assert pair.delta_2.imag == pytest.approx(half, rel=1e-12)
            seen_above += 1


def test_poles_double_at_threshold():
    p = SystemParams.from_effective(5.0, 1.0, eta=1.5, kappa=1.0)
    pair = poles(p)
    assert pair.discriminant == 0.0
    assert pair.delta_1 == pair.delta_2


def test_poles_require_zero_detuning():
    p = SystemParams.from_effective(5.0, 1.0, eta=2.0, kappa=1.0, delta=0.5)
    with pytest.raises(NonzeroDetuning):
        poles(p)
    with pytest.raises(NonzeroDetuning):
        decompose_resonances(p)


def test_resonance_sum_identity():
    rng = np.random.default_rng(45)
    draws = 0
    while draws < 50:
        p = _draw_params(rng)
        ge = p.gamma[("e", "g")] / 2
        gf = p.gamma[("f", "g")] / 2
        eta_T = abs(gf + p.kappa - ge)
        if abs(2 * p.eta - eta_T) < 0.1:
            continue  # stay away from the double pole
        draws += 1
        r1, r2 = decompose_resonances(p)
        grid = rng.uniform(-30, 30, size=1000)
        total = r1.evaluate(grid) + r2.evaluate(grid)
        chi = chi_vacuum(grid, p)
        assert np.abs(total - chi).max() <= 1e-12


def _resonances_60_digits(gamma_e, gamma_f, kappa, eta):
    """(pole, weight) of R_1 and R_2 at delta = 0 from the textbook formulas
    in 60-digit arithmetic."""
    import mpmath

    with mpmath.workdps(60):
        g = mpmath.mpf(gamma_f) + kappa
        root = mpmath.sqrt(mpmath.mpc(4 * mpmath.mpf(eta) ** 2 - (g - gamma_e) ** 2))
        delta_1 = (-1j * (gamma_e + g) + root) / 2
        delta_2 = (-1j * (gamma_e + g) - root) / 2
        return [(complex(pole), complex(weight)) for pole, weight in (
            (delta_1, (delta_1 + 1j * g) / (delta_2 - delta_1)),
            (delta_2, (-delta_2 - 1j * g) / (delta_2 - delta_1)))]


@pytest.mark.parametrize("gamma_e, kappa", [(1e8, 1.0), (1.0, 1e8), (1e4, 1.0), (1.0, 1e4)],
                         ids=["wide-e", "wide-cavity", "wide-e-1e4", "wide-cavity-1e4"])
def test_resonance_weights_below_the_discriminant_zero_match_60_digits(gamma_e, kappa):
    # disc < 0: Delta_k + i(gamma_f + kappa), taken directly, cancels for the
    # pole near -i(gamma_f + kappa): w_1 2.6e-8 off at gamma_e 1e8, and with
    # the wide cavity w_2 = -0 against 1e-16, so that Im R_2 reads 0
    p = SystemParams.from_effective(gamma_e, 1.0, eta=1.0, kappa=kappa)
    assert poles(p).discriminant < 0
    for got, (pole, weight) in zip(decompose_resonances(p),
                                   _resonances_60_digits(gamma_e, 1.0, kappa, 1.0)):
        assert abs(got.pole - pole) <= 1e-14 * abs(pole)
        assert abs(got.weight - weight) <= 1e-14 * abs(weight)
        at_zero = weight / -pole
        assert abs(got.evaluate(0.0) - at_zero) <= 1e-14 * abs(at_zero)


def test_resonance_degenerate_poles_error():
    p = SystemParams.from_effective(5.0, 1.0, eta=1.5, kappa=1.0)
    with pytest.raises(DegeneratePoles):
        decompose_resonances(p)


def test_resonances_ats_side_positive_lorentzians():
    # complex weights put small dispersive lobes on each component, so
    # "positive" means positive-peaked: the peak dominates any undershoot
    # and both components absorb (Im > 0) at line center
    p = SystemParams.from_effective(10.0, 1.0, eta=10.0, kappa=1.0)
    r1, r2 = decompose_resonances(p)
    grid = np.linspace(-20, 20, 801)
    im1, im2 = r1.evaluate(grid).imag, r2.evaluate(grid).imag
    assert r1.evaluate(0.0).imag > 0 and r2.evaluate(0.0).imag > 0
    assert im1.max() > 10 * abs(im1.min())
    assert im2.max() > 10 * abs(im2.min())
    center = math.sqrt(4 * 100 - 64) / 2.0  # 9.1651...
    pole_reals = sorted((r1.pole.real, r2.pole.real))
    assert pole_reals[0] == pytest.approx(-center, rel=1e-12)
    assert pole_reals[1] == pytest.approx(center, rel=1e-12)
    # dispersive lobes pull each maximum outward from its pole by ~1.24
    peak_positions = sorted((grid[np.argmax(im1)], grid[np.argmax(im2)]))
    assert peak_positions[0] == pytest.approx(-center, abs=2.0)
    assert peak_positions[1] == pytest.approx(center, abs=2.0)


def test_resonances_vit_side_opposite_signs():
    p = SystemParams.from_effective(10.0, 1.0, eta=3.9, kappa=1.0)
    r1, r2 = decompose_resonances(p)
    at_zero = (r1.evaluate(0.0).imag, r2.evaluate(0.0).imag)
    assert at_zero[0] * at_zero[1] < 0


def test_dip_threshold_value():
    p = SystemParams.from_effective(5.0, 1.0, eta=1.0, kappa=0.2)
    expected = 1.2 * math.sqrt(1.2 / 7.4)
    assert dip_threshold(p) == pytest.approx(expected, rel=1e-15)
    assert dip_threshold(p) == pytest.approx(0.4832, abs=5e-5)


def test_dip_threshold_grows_with_kappa():
    values = [dip_threshold(SystemParams.from_effective(5.0, 1.0, eta=1.0, kappa=k))
              for k in (0.1, 1.0, 10.0, 100.0, 1000.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 30.0


def test_dip_threshold_division_degenerate():
    with pytest.raises(DivisionDegenerate):
        dip_threshold(SystemParams.from_effective(5.0, 0.0, eta=1.0, kappa=0.0))
    with pytest.raises(NonzeroDetuning):
        dip_threshold(SystemParams.from_effective(5.0, 1.0, eta=1.0, kappa=0.2,
                                                  delta=0.4))


def test_dip_threshold_curvature_flip():
    # sign of the central second difference of Im chi at Delta = 0 flips at
    # the returned threshold
    rng = np.random.default_rng(55)
    h = 1e-3
    for _ in range(50):
        ge = rng.uniform(0.5, 12.0)
        gf = rng.uniform(0.05, 4.0)
        kappa = rng.uniform(0.0, 3.0)
        ref = SystemParams.from_effective(ge, gf, eta=1.0, kappa=kappa)
        threshold = dip_threshold(ref)

        def curvature(eta):
            p = SystemParams.from_effective(ge, gf, eta=eta, kappa=kappa)
            ys = [chi_vacuum(d, p).imag for d in (-h, 0.0, h)]
            return ys[0] - 2 * ys[1] + ys[2]

        assert curvature(threshold * 1.05) > 0
        assert curvature(threshold * 0.95) < 0


def test_classify_regime_published_point():
    p = SystemParams.from_effective(7.5, 3.25, eta=36.0, kappa=0.63)
    r = classify_regime(p)
    assert r.gamma_R == pytest.approx(1.93, abs=5e-3)
    assert r.eta_R == pytest.approx(9.28, abs=5e-3)
    assert r.eta_d == pytest.approx(0.50, abs=5e-3)
    assert r.eta_c == pytest.approx(0.47, abs=5e-3)
    assert r.regime is Regime.VACUUM_ATS
    assert r.dip_present


def test_classify_regime_fig5_assignments():
    vit = classify_regime(SystemParams.from_effective(10, 1, eta=3.9, kappa=1))
    ats = classify_regime(SystemParams.from_effective(10, 1, eta=4.1, kappa=1))
    assert vit.regime is Regime.VIT and vit.dip_present
    assert ats.regime is Regime.VACUUM_ATS


def test_classify_regime_no_dip():
    # gamma_R = 5, eta_R = 0.25 sits below eta_d = 1/sqrt(2 + 5)
    r = classify_regime(SystemParams.from_effective(10, 1, eta=0.5, kappa=1))
    assert r.regime is Regime.NO_DIP
    assert not r.dip_present
    assert r.eta_d == pytest.approx(1 / math.sqrt(7), rel=1e-12)
    assert r.eta_R < r.eta_d < r.eta_c


def test_classify_regime_scale_invariant():
    rng = np.random.default_rng(61)
    for _ in range(100):
        ge, gf = rng.uniform(0.1, 10, size=2)
        kappa, eta = rng.uniform(0.01, 10, size=2)
        scale = rng.uniform(0.01, 50)
        a = classify_regime(SystemParams.from_effective(ge, gf, eta=eta, kappa=kappa))
        b = classify_regime(SystemParams.from_effective(
            scale * ge, scale * gf, eta=scale * eta, kappa=scale * kappa))
        assert a.regime is b.regime
        assert a.dip_present == b.dip_present


def test_classify_regime_dip_iff_not_nodip():
    rng = np.random.default_rng(62)
    for _ in range(300):
        p = _draw_params(rng)
        if p.gamma[("f", "g")] / 2 + p.kappa == 0.0:
            continue
        r = classify_regime(p)
        assert r.dip_present == (r.regime is not Regime.NO_DIP)


def test_classify_regime_boundary_tie():
    # construct eta_R exactly on the ATS boundary for gamma_R > 2
    ge, gf, kappa = 8.0, 1.0, 1.0
    gamma_r = ge / (gf + kappa)           # 4
    eta = 0.5 * abs(1 - gamma_r) * (gf + kappa)   # eta_R == eta_c == 1.5
    r = classify_regime(SystemParams.from_effective(ge, gf, eta=eta, kappa=kappa))
    assert r.boundary_degenerate
    assert r.regime is Regime.VACUUM_ATS  # tie classifies as stronger coupling


def test_classify_regime_tie_at_gamma_r_two():
    # gamma_R = 2 closes the VIT window: eta_d = eta_c = 1/2 there. Just
    # above 2, within the tie tolerance, eta_R between eta_d and eta_c would
    # be VIT if gamma_R counted as above 2; the tie gives the doublet
    for gamma_e, eta in ((4.0, 1.0), (4.0 + 8e-13, 1.0 + 2e-13), (4.0, 2.0)):
        r = classify_regime(SystemParams.from_effective(gamma_e, 1.0, eta=eta, kappa=1.0))
        assert abs(r.gamma_R - 2.0) <= 1e-12 and r.boundary_degenerate
        assert r.dip_present and r.regime is Regime.VACUUM_ATS
    r = classify_regime(SystemParams.from_effective(4.0, 1.0, eta=0.5, kappa=1.0))
    assert r.boundary_degenerate and not r.dip_present and r.regime is Regime.NO_DIP


@pytest.mark.parametrize("offset", [-5e-13, 0.0, 5e-13])
@pytest.mark.parametrize("gamma_e, regime", [(8.0, Regime.VIT), (2.0, Regime.VACUUM_ATS)],
                         ids=["gamma_R=4", "gamma_R=1"])
def test_classify_regime_tie_at_eta_d(gamma_e, regime, offset):
    # eta_R = eta_d = 1/sqrt(2 + gamma_R), within the tie tolerance: the dip
    # is present, and the regime is the one just above the threshold
    eta_d = 1.0 / math.sqrt(2.0 + gamma_e / 2.0)
    r = classify_regime(SystemParams.from_effective(gamma_e, 1.0, eta=2.0 * (eta_d + offset),
                                                    kappa=1.0))
    assert abs(r.eta_R - r.eta_d) <= 1e-12 and r.boundary_degenerate
    assert r.dip_present and r.regime is regime


_REGIME_ORDER = [Regime.NO_DIP, Regime.VIT, Regime.VACUUM_ATS]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(gamma_r=st.one_of(st.floats(0.0, 20.0),
                         st.sampled_from([2.0, 2.0 - 4e-13, 2.0 + 4e-13])),
       gamma_f=st.floats(0.0, 5.0), kappa=st.floats(0.01, 5.0),
       eta_r=st.lists(st.floats(0.0, 15.0), max_size=6))
def test_classify_regime_never_falls_back_as_eta_grows(gamma_r, gamma_f, kappa, eta_r):
    # at fixed rates the regime only moves NoDip -> VIT -> VacuumATS as eta
    # grows, ties included: the etas are drawn around both thresholds
    total = gamma_f + kappa

    def report(eta):
        return classify_regime(SystemParams.from_effective(gamma_r * total, gamma_f,
                                                           eta=eta, kappa=kappa))

    start = report(0.0)
    etas = [0.0, *(total * x for x in eta_r)]
    for bound in (start.eta_d, start.eta_c):
        etas += [total * (bound + d) for d in (-2e-12, -5e-13, 0.0, 5e-13, 2e-12)
                 if bound + d >= 0.0]
    ranks = [_REGIME_ORDER.index(report(eta).regime) for eta in sorted(etas)]
    assert ranks == sorted(ranks)


def test_classify_regime_requires_zero_delta():
    with pytest.raises(NonzeroDetuning):
        classify_regime(SystemParams.from_effective(5, 1, eta=2, kappa=1, delta=0.1))


def test_resonance_component_metadata():
    p = SystemParams.from_effective(10.0, 1.0, eta=10.0, kappa=1.0)
    r1, r2 = decompose_resonances(p)
    pair = poles(p)
    assert {r1.pole, r2.pole} == {pair.delta_1, pair.delta_2}
    # weights reproduce chi by partial fractions at an arbitrary point
    z = 1.234
    expected = r1.weight / (z - r1.pole) + r2.weight / (z - r2.pole)
    assert cmath.isclose(expected, chi_vacuum(z, p), rel_tol=1e-12)
