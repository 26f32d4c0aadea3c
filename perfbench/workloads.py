"""Seeded inputs for the vitats benchmark and the oracles that gate them.

A workload is a fixed list of bundles. A bundle is one `vitats` CLI
invocation: the flat JSON config it reads, the files it writes and the
number of ops it holds. The seed only jitters physical parameters (eta,
n_th, Omega, kappa, temperatures, grid span). Grid sizes, n_max and the
bundle list are fixed per workload, so the cost of a pass barely depends on
the seed.

Why each workload exists:

- thermal-doublets: the fig-7b system. The per-detuning sparse solve
  dominates on a block-sparse Liouvillian with small LU fill. The n_th = 0
  slice has an exact closed-form oracle.
- coherent-doublets: the criterion-7 system. Same solver layer, different
  sparsity: LU fill is about 12x nnz, so ordering or fill changes that help
  thermal but hurt coherent show up here.
- population-sweep: figs 6 and 8a. Steady state plus assembly is all of the
  work; there is no probe grid.
- vacuum-sweep: fig 3b, a pole table and the classifier. The Liouvillian is
  never built; the closed forms and the CSV writer are the work. It is the
  control for solver changes. Its timings are bound by the interpreter and
  swung by 25-46% from seed to seed with the speed of a shared 2-core VM,
  against 7-21% for the solver workloads, so BENCHMARK.json leaves it out
  of the gated set; `run.py --workload vacuum-sweep` and `--workload all`
  still run and gate it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import find_peaks

WORKLOADS = ("thermal-doublets", "coherent-doublets", "population-sweep",
             "vacuum-sweep")

GAMMA_E, GAMMA_F = 5.0, 1.0
CHI_RTOL = 1e-6             # criterion 2: numeric vs closed-form vacuum chi
PARTIAL_FRACTION_TOL = 1e-12  # criterion 3: Im(R1 + R2) vs Im chi
POPULATION_TOL = 1e-6       # criterion 6: P_n vs Bose / Poisson
VIETA_TOL = 1e-12           # criterion 4: pole sum and product
RATIO_RTOL = 1e-12          # criterion 1: classifier ratios
PROMINENCE = 0.02           # the default prominence of vitats.find_peaks

# The self-check runs every oracle against this wrong system; at least one
# gate of every workload must then miss.
WRONG_KAPPA, WRONG_ETA = 2.0, 1.25

# Planck and Boltzmann constants (exact SI values) for the Bose oracle.
_H, _K_B = 6.62607015e-34, 1.380649e-23


@dataclass(frozen=True)
class Bundle:
    """One CLI invocation, its outputs and the oracle that gates them."""

    name: str
    argv: tuple[str, ...]
    files: tuple[Path, ...]   # every file the invocation writes
    data: Path                # the file the oracle reads
    ops: int
    check: str                # key of CHECKS
    system: dict              # physical parameters the oracle uses
    n_max: int | None = None
    grid: tuple[float, float, int] | None = None
    peaks: tuple[int, ...] = ()   # photon numbers n whose doublet is gated
    sweep: tuple[str, tuple[float, ...]] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    bundles: tuple[Bundle, ...]
    setup: Bundle       # the smallest request of the workload: first, untimed op
    reference: Bundle   # the system and grid the traced layer pass runs on


def _write_config(path: Path, cfg: dict) -> None:
    path.write_text(json.dumps(cfg, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def _file_bundle(workdir: Path, name: str, command: str, cfg: dict, *,
                 ops: int, check: str, system: dict, peaks=()) -> Bundle:
    """A spectrum/populations bundle: config file in, CSV plus sidecar out."""
    out = workdir / f"{name}.csv"
    cfg = {**cfg, "output": str(out)}
    cfg_path = workdir / f"{name}.config.json"
    _write_config(cfg_path, cfg)
    grid = sweep = None
    if "delta_points" in cfg:
        grid = (cfg["delta_min"], cfg["delta_max"], cfg["delta_points"])
    if "sweep_key" in cfg:
        sweep = (cfg["sweep_key"], tuple(cfg["sweep_values"]))
    return Bundle(name=name, argv=(command, "--config", str(cfg_path)),
                  files=(out, out.with_name(out.name + ".meta.json")),
                  data=out, ops=ops, check=check, system=system,
                  n_max=cfg.get("n_max"), grid=grid, peaks=tuple(peaks),
                  sweep=sweep)


def _system(cfg: dict) -> dict:
    keys = ("gamma_e", "gamma_f", "eta", "kappa", "delta", "n_th", "Omega",
            "temperature_mK", "omega_c_GHz")
    return {k: cfg[k] for k in keys if k in cfg}


def _spectrum(workdir, name, system, *, span, points, n_max=None,
              method="linear_response", peaks=(), sweep=None, check="lr"):
    cfg = {**system, "delta_min": -span, "delta_max": span,
           "delta_points": points, "method": method}
    if n_max is not None:
        cfg["n_max"] = n_max
    ops = points
    if sweep is not None:
        cfg["sweep_key"], cfg["sweep_values"] = sweep
        ops *= len(sweep[1])
    return _file_bundle(workdir, name, "spectrum", cfg, ops=ops, check=check,
                        system=_system(system), peaks=peaks)


def _population_sweep(workdir, name, system, key, values, n_max=20):
    cfg = {**system, "sweep_key": key, "sweep_values": values, "n_max": n_max}
    return _file_bundle(workdir, name, "populations", cfg, ops=len(values),
                        check="populations", system={**_system(system),
                                                     "sweep_key": key})


def _thermal(rng: random.Random, workdir: Path) -> Workload:
    eta = 80.0 * rng.uniform(0.95, 1.05)
    span = eta * rng.uniform(4.2, 4.6)
    n_ths = (0.0, 0.05 * rng.uniform(0.8, 1.2), 0.15 * rng.uniform(0.8, 1.2))
    base = {"gamma_e": GAMMA_E, "gamma_f": GAMMA_F, "kappa": 1.0, "eta": eta}
    # At n_th ~ 0.05 the n = 1 doublet stands about 2% of the maximum above
    # its valley, right at the default prominence, so only n_th ~ 0.15 gates it.
    peaks = ((0,), (0,), (0, 1))
    bundles = tuple(
        _spectrum(workdir, f"thermal{k}", {**base, "n_th": n_th}, span=span,
                  points=201, n_max=20, peaks=peaks[k])
        for k, n_th in enumerate(n_ths))
    setup = _spectrum(workdir, "setup", {**base, "n_th": n_ths[1]}, span=span,
                      points=2, n_max=20)
    return Workload("thermal-doublets", bundles, setup, bundles[1])


def _coherent(rng: random.Random, workdir: Path) -> Workload:
    eta = 80.0 * rng.uniform(0.95, 1.05)
    span = 2.0 * eta
    omegas = (0.4 * rng.uniform(0.85, 1.15), 0.3 * rng.uniform(0.9, 1.1))
    base = {"gamma_e": GAMMA_E, "gamma_f": GAMMA_F, "kappa": 1.0, "eta": eta}
    bundles = tuple(
        _spectrum(workdir, f"coherent{k}", {**base, "Omega": omega}, span=span,
                  points=61, n_max=16, peaks=(0, 1))
        for k, omega in enumerate(omegas))
    setup = _spectrum(workdir, "setup", {**base, "Omega": omegas[0]},
                      span=span, points=2, n_max=16)
    return Workload("coherent-doublets", bundles, setup, bundles[0])


def _populations(rng: random.Random, workdir: Path) -> Workload:
    temps = sorted(round(rng.uniform(5.0, 100.0), 6) for _ in range(12))
    omegas = sorted(round(rng.uniform(0.05, 0.8), 6) for _ in range(6))
    thermal = {"gamma_e": GAMMA_E, "gamma_f": GAMMA_F,
               "kappa": 0.2 * rng.uniform(0.9, 1.1),
               "eta": 2.0 * rng.uniform(0.9, 1.1),
               "omega_c_GHz": 5.0 * rng.uniform(0.9, 1.1)}
    coherent = {"gamma_e": GAMMA_E, "gamma_f": GAMMA_F, "kappa": 1.0,
                "eta": 80.0 * rng.uniform(0.95, 1.05)}
    bundles = (
        _population_sweep(workdir, "pop_temperature", thermal,
                          "temperature_mK", temps),
        _population_sweep(workdir, "pop_omega", coherent, "Omega", omegas),
    )
    setup = _population_sweep(workdir, "setup", coherent, "Omega", omegas[:1])
    # the layer pass probes a small grid around the n = 0 doublet
    reference = _spectrum(workdir, "reference", {**coherent, "Omega": omegas[0]},
                          span=2.0 * coherent["eta"], points=9, n_max=20)
    return Workload("population-sweep", bundles, setup, reference)


def _vacuum(rng: random.Random, workdir: Path) -> Workload:
    fig3b = {"gamma_e": GAMMA_E, "gamma_f": GAMMA_F,
             "kappa": 0.2 * rng.uniform(0.9, 1.1),
             "eta": 2.0 * rng.uniform(0.9, 1.1)}
    detunings = [round(x, 9) for x in
                 np.linspace(-5.0, 5.0, 41) * rng.uniform(0.9, 1.1)]
    fig5 = {"gamma_e": 10.0, "gamma_f": GAMMA_F,
            "kappa": rng.uniform(0.8, 1.2), "eta": 3.9 * rng.uniform(0.9, 1.1)}
    bundles = [
        _spectrum(workdir, "vacuum_sweep", fig3b, span=10.0 * rng.uniform(0.9, 1.1),
                  points=2001, method="analytic", sweep=("delta", detunings),
                  check="analytic_sweep"),
        _spectrum(workdir, "vacuum_spectrum", fig5, span=20.0, points=2001,
                  method="analytic", check="analytic"),
    ]
    poles_dir = workdir / "poles"
    poles_csv = poles_dir / "poles_vs_kappa.csv"
    bundles.append(Bundle(
        name="poles", argv=("reproduce", "4ab", "--output", str(poles_dir)),
        files=(poles_dir / "NOTES.txt", poles_csv,
               poles_csv.with_name(poles_csv.name + ".meta.json")),
        data=poles_csv, ops=801, check="poles",
        system={"gamma_e": GAMMA_E, "gamma_f": GAMMA_F, "eta": 1.0}))
    for i, eta in enumerate((0.3, 2.0, 8.0)):
        for j, kappa in enumerate((0.2, 1.0, 3.0)):
            system = {"gamma_e": GAMMA_E, "gamma_f": GAMMA_F,
                      "eta": eta * rng.uniform(0.9, 1.1),
                      "kappa": kappa * rng.uniform(0.9, 1.1)}
            name = f"classify{i}{j}"
            cfg_path = workdir / f"{name}.config.json"
            _write_config(cfg_path, system)
            out = workdir / f"{name}.json"
            bundles.append(Bundle(
                name=name, argv=("classify", "--config", str(cfg_path),
                                 "--output", str(out)),
                files=(out,), data=out, ops=1, check="classify", system=system))
    setup = bundles[-1]
    reference = _spectrum(workdir, "reference", fig5, span=20.0, points=201,
                          n_max=2)
    return Workload("vacuum-sweep", tuple(bundles), setup, reference)


_MAKERS = {"thermal-doublets": _thermal, "coherent-doublets": _coherent,
           "population-sweep": _populations, "vacuum-sweep": _vacuum}


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's configs for this seed under workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _MAKERS[name](random.Random(f"{name}:{seed}"), workdir)


# --- closed-form oracles -----------------------------------------------------

def chi_closed_form(delta_p, gamma_e, gamma_f, kappa, eta, delta=0.0):
    """Vacuum chi/beta of the paper's closed form, written out independently."""
    g = gamma_f + kappa
    big_c = (eta ** 2 + gamma_e * gamma_f + gamma_e * kappa + delta ** 2 / 4.0
             + 0.5j * delta * (g - gamma_e))
    d = np.asarray(delta_p, dtype=float)
    return (d + delta / 2.0 + 1j * g) / (-d ** 2 - 1j * (gamma_e + g) * d + big_c)


def bose_populations(n_th: float, count: int) -> np.ndarray:
    n = np.arange(count)
    return n_th ** n / (1.0 + n_th) ** (n + 1)


def poisson_populations(mean: float, count: int) -> np.ndarray:
    return np.array([math.exp(-mean) * mean ** n / math.factorial(n)
                     for n in range(count)])


def thermal_occupation(temperature_mK: float, omega_c_GHz: float) -> float:
    return 1.0 / math.expm1(_H * omega_c_GHz * 1e9 / (_K_B * temperature_mK * 1e-3))


def refined_peaks(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Peak positions at PROMINENCE of the maximum, parabola-refined."""
    idx, _ = find_peaks(y, prominence=PROMINENCE * float(y.max()))
    out = []
    for i in idx:
        if 0 < i < y.size - 1:
            a, b, _ = np.polyfit(x[i - 1:i + 2], y[i - 1:i + 2], 2)
            if a < 0:
                out.append(-b / (2.0 * a))
                continue
        out.append(float(x[i]))
    return np.asarray(out)


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return dict(zip(header, data.T))


def _rates(s: dict) -> tuple[float, float, float, float]:
    return s["gamma_e"], s["gamma_f"], s["kappa"], s["eta"]


def _chi_miss(chi, exact) -> np.ndarray:
    return ~np.isfinite(chi) | (np.abs(chi - exact) > CHI_RTOL * np.abs(exact))


def _check_lr(b: Bundle, s: dict) -> np.ndarray:
    cols = read_csv(b.data)
    chi = cols["re_chi"] + 1j * cols["im_chi"]
    bad = ~np.isfinite(chi)
    if s.get("n_th", 0.0) == 0.0 and s.get("Omega", 0.0) == 0.0:
        ge, gf, kappa, eta = _rates(s)
        bad |= _chi_miss(chi, chi_closed_form(cols["delta"], ge, gf, kappa, eta))
    if b.peaks and not bad.any():
        found = refined_peaks(cols["delta"], cols["im_chi"])
        for n in b.peaks:
            for sign in (-1.0, 1.0):
                target = sign * math.sqrt(n + 1.0) * s["eta"]
                if found.size == 0 or np.abs(found - target).min() > s["gamma_e"]:
                    bad[:] = True
    return bad


def _check_analytic(b: Bundle, s: dict) -> np.ndarray:
    cols = read_csv(b.data)
    chi = cols["re_chi"] + 1j * cols["im_chi"]
    ge, gf, kappa, eta = _rates(s)
    bad = _chi_miss(chi, chi_closed_form(cols["delta"], ge, gf, kappa, eta))
    bad |= ~(np.abs(cols["im_R1"] + cols["im_R2"] - cols["im_chi"])
             <= PARTIAL_FRACTION_TOL)
    return bad


def _check_analytic_sweep(b: Bundle, s: dict) -> np.ndarray:
    cols = read_csv(b.data)
    chi = cols["re_chi"] + 1j * cols["im_chi"]
    ge, gf, kappa, eta = _rates(s)
    return _chi_miss(chi, chi_closed_form(cols["delta"], ge, gf, kappa, eta,
                                          cols["delta_c"]))


def _check_populations(b: Bundle, s: dict) -> np.ndarray:
    cols = read_csv(b.data)
    got = np.column_stack([cols[f"P_{n}"] for n in range(4)])
    bad = ~np.isfinite(got).all(axis=1)
    for row, value in enumerate(cols["sweep_value"]):
        if s["sweep_key"] == "temperature_mK":
            want = bose_populations(thermal_occupation(value, s["omega_c_GHz"]), 4)
        else:
            want = poisson_populations((value / s["kappa"]) ** 2, 4)
        bad[row] |= not np.abs(got[row] - want).max() <= POPULATION_TOL
    return bad


def _check_poles(b: Bundle, s: dict) -> np.ndarray:
    cols = read_csv(b.data)
    d1 = cols["re_delta1"] + 1j * cols["im_delta1"]
    d2 = cols["re_delta2"] + 1j * cols["im_delta2"]
    ge, gf, eta = s["gamma_e"], s["gamma_f"], s["eta"]
    kappa = cols["kappa"] * s["kappa_factor"]
    total = -1j * (ge + gf + kappa)
    product = -(eta ** 2 + ge * gf + ge * kappa)
    return ~((np.abs(d1 + d2 - total) <= VIETA_TOL * np.maximum(1.0, np.abs(total)))
             & (np.abs(d1 * d2 - product)
                <= VIETA_TOL * np.maximum(1.0, np.abs(product))))


def _check_classify(b: Bundle, s: dict) -> np.ndarray:
    doc = json.loads(b.data.read_text(encoding="utf-8"))
    ge, gf, kappa, eta = _rates(s)
    gamma_r, eta_r = ge / (gf + kappa), eta / (gf + kappa)
    eta_d, eta_c = 1.0 / math.sqrt(2.0 + gamma_r), 0.5 * abs(1.0 - gamma_r)
    if gamma_r > 2.0 and eta_r < eta_c:
        regime = "VIT" if eta_r >= eta_d else "NoDip"
    else:
        regime = "VacuumATS" if eta_r >= eta_d else "NoDip"
    ok = doc["regime"] == regime and all(
        abs(doc[key] - want) <= RATIO_RTOL * abs(want)
        for key, want in (("gamma_R", gamma_r), ("eta_R", eta_r),
                          ("eta_d", eta_d), ("eta_c", eta_c)))
    return np.array([not ok])


CHECKS = {"lr": _check_lr, "analytic": _check_analytic,
          "analytic_sweep": _check_analytic_sweep,
          "populations": _check_populations, "poles": _check_poles,
          "classify": _check_classify}


def check_bundle(b: Bundle, *, wrong: bool = False) -> np.ndarray:
    """Per-op miss flags of a bundle's outputs against its oracle.

    wrong=True runs the oracle for a deliberately wrong system (kappa and
    eta scaled), which the gates must reject.
    """
    s = dict(b.system, kappa_factor=1.0)
    if wrong:
        s["kappa_factor"] = WRONG_KAPPA
        for key, factor in (("kappa", WRONG_KAPPA), ("eta", WRONG_ETA)):
            if key in s:
                s[key] *= factor
    try:
        bad = CHECKS[b.check](b, s)
    except (OSError, ValueError, KeyError):  # missing or malformed output
        return np.ones(b.ops, dtype=bool)
    if bad.size != b.ops:
        return np.ones(b.ops, dtype=bool)
    return bad
