"""Configuration-driven command line front end.

Commands:
- classify: regime report (NoDip / VIT / VacuumATS) as JSON on stdout.
- spectrum: probe spectrum over a detuning grid, CSV or JSON, optional
  second sweep axis in long format.
- populations: photon-number-resolved steady-state populations.
- reproduce <fig>: figure-reproduction presets writing a data bundle with a
  NOTES.txt describing parameters and any documented discrepancy.

Config files are flat JSON. System keys: gamma_e, gamma_f (or the full
gamma_eg/gamma_ef/gamma_ee/gamma_fg/gamma_ff map), eta, kappa, delta, n_th,
temperature_mK, omega_c_GHz, Omega, pump_detuning, beta, epsilon. Run keys:
n_max, delta_min, delta_max, delta_points, method, output, format,
sweep_key, sweep_values.

Exit codes: 0 ok; 2 configuration problems; 3 precondition violations
(e.g. classify at delta != 0); 4 solver failures. Warnings are printed to
stderr as "warning: ..." lines. Output is byte-identical across reruns:
fixed 17-significant-digit floats, sorted JSON keys, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import warnings
from collections.abc import Callable
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import classify_regime, poles
from .errors import (
    ParameterError,
    PreconditionError,
    SolverError,
    UnknownFigure,
    VitatsError,
)
from .model import PARAM_KEYS, SystemParams, params_from_config, params_to_config
from .solver import populations as _populations, probe_free_state, probe_spectrum

_RUN_KEYS = ("n_max", "delta_min", "delta_max", "delta_points", "method",
             "output", "format", "sweep_key", "sweep_values")
_PUMP_CONFIG_KEYS = ("n_th", "temperature_mK", "Omega")
_P_COLUMNS = ["P_0", "P_1", "P_2", "P_3"]


def _cell_format(kind: type) -> str:
    """printf conversion for a CSV cell of this type: text as it is,
    integers in decimal, anything else as a float to 17 significant digits
    (enough to round-trip a double)."""
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    return "%.17g"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_csv(path: Path, columns: list[str], rows: list) -> None:
    """One row template, from the cell types of the first row; a column
    whose later cells format differently raises TypeError rather than be
    printed with the wrong conversion (%d truncates a float)."""
    lines = [",".join(columns)]
    if rows:
        formats = [_cell_format(type(cell)) for cell in rows[0]]
        for name, fmt, cells in zip(columns, formats, zip(*rows)):
            if any(_cell_format(kind) != fmt for kind in set(map(type, cells))):
                raise TypeError(f"CSV column {name!r} mixes cell types")
        template = ",".join(formats)
        lines.extend(template % tuple(row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _write_meta(path: Path, metadata: dict) -> None:
    sidecar = path.with_name(path.name + ".meta.json")
    _write_text(sidecar, json.dumps(metadata, sort_keys=True, indent=2) + "\n")


def _write_json(path: Path, metadata: dict, columns: list[str], rows) -> None:
    doc = {"metadata": metadata,
           "columns": columns,
           "rows": [[None if cell is None else
                     (cell if isinstance(cell, str) else float(cell))
                     for cell in row] for row in rows]}
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _emit(path: Path, fmt: str, metadata: dict, columns: list[str], rows) -> None:
    if fmt == "json":
        _write_json(path, metadata, columns, rows)
    else:
        _write_csv(path, columns, rows)
        _write_meta(path, metadata)
    print(f"wrote {path}")


def _metadata(params, *, method: str, n_max, residuals=None, notes=(),
              extra: dict | None = None) -> dict:
    md: dict = {
        "software": f"vitats {__version__}",
        "params": params_to_config(params) if params is not None else None,
        "method": method,
        "n_max": n_max,
        "warnings": list(notes),
    }
    if residuals is None:
        md["residual_max"] = None
    else:
        md["residual_max"] = float(np.max(residuals)) if len(residuals) else None
    if extra:
        md.update(extra)
    return md


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cfg = json.load(handle)
    except ValueError as exc:  # not UTF-8, not JSON, or an overlong integer
        raise ParameterError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ParameterError("config must be a JSON object of key-value pairs")
    return cfg


def _split_config(cfg: dict) -> tuple[dict, dict]:
    run = {k: cfg[k] for k in _RUN_KEYS if k in cfg}
    system = {k: v for k, v in cfg.items() if k not in _RUN_KEYS}
    return run, system


def _finite_number(value) -> bool:
    """Whether value is a JSON number (not a bool) that is a finite float."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond float
        return False


def _config_number(run: dict, key: str) -> float:
    """run[key] as a float; it must be a finite JSON number."""
    value = run[key]
    if not _finite_number(value):
        raise ParameterError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _n_max(args, run: dict) -> int:
    """--n-max if given, else the config's n_max (a JSON integer >= 1), else 60."""
    if args.n_max is not None:
        return args.n_max
    value = run.get("n_max", 60)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ParameterError(f"n_max must be an integer >= 1, got {value!r}")
    return value


def _grid_from_run(run: dict) -> np.ndarray:
    missing = [k for k in ("delta_min", "delta_max", "delta_points") if k not in run]
    if missing:
        raise ParameterError(f"config is missing grid keys: {missing}")
    points = run["delta_points"]
    if not isinstance(points, int) or isinstance(points, bool) or points < 2:
        raise ParameterError("delta_points must be an integer >= 2")
    lo, hi = (_config_number(run, key) for key in ("delta_min", "delta_max"))
    if not hi > lo:
        raise ParameterError("delta_max must exceed delta_min")
    return np.linspace(lo, hi, points)


def _sweep_from_run(run: dict) -> tuple[str, list[float]] | None:
    key, values = run.get("sweep_key"), run.get("sweep_values")
    if key is None and values is None:
        return None
    if key is None or values is None:
        raise ParameterError("sweep_key and sweep_values must be given together")
    if key not in PARAM_KEYS:
        raise ParameterError(f"sweep_key {key!r} is not a recognized parameter")
    if not isinstance(values, (list, tuple)) or not values or \
            not all(map(_finite_number, values)):
        raise ParameterError("sweep_values must be a nonempty list of finite numbers")
    return key, [float(v) for v in values]


def _sweep(system: dict, key: str, values) -> list[tuple[float, SystemParams]]:
    """(value, validated params) for each value of one swept config key, in
    order; a sweep's sidecar echoes the params of the first value."""
    return [(float(v), params_from_config({**system, key: float(v)}))
            for v in values]


def _population_sweep(system: dict, key: str, values, n_max: int,
                      echo: tuple[str, ...] = ()):
    """(first params, rows) with one row per sweep value: the value, the
    params attributes named in echo, and P_0..P_3 of the probe-free state."""
    runs = _sweep(system, key, values)
    rows = []
    for value, params in runs:
        _, state, _ = probe_free_state(params, n_max)
        rows.append([value, *(getattr(params, name) for name in echo),
                     *(float(p) for p in _populations(state).p_n[:4])])
    return runs[0][1], rows


def _resolve(args, run: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return run.get(key, default)


def _emit_series(path: Path, fmt: str, series) -> None:
    columns = ["delta", "im_chi", "re_chi"]
    arrays = [series.grid, series.im_chi, series.re_chi]
    if series.im_r1 is not None:
        columns += ["im_R1", "im_R2"]
        arrays += [series.im_r1, series.im_r2]
    md = _metadata(series.params, method=series.method, n_max=series.n_max,
                   residuals=series.residuals, notes=series.warnings)
    _emit(path, fmt, md, columns, list(zip(*arrays)))


# --- commands -----------------------------------------------------------------

def _cmd_classify(args) -> int:
    _, system = _split_config(_load_config(args.config))
    report = classify_regime(params_from_config(system))
    doc = {"gamma_R": report.gamma_R, "eta_R": report.eta_R,
           "eta_d": report.eta_d, "eta_c": report.eta_c,
           "dip_present": report.dip_present, "regime": report.regime.value}
    text = json.dumps(doc, indent=2) + "\n"
    sys.stdout.write(text)
    if args.output:
        _write_text(Path(args.output), text)
    return 0


def _cmd_spectrum(args) -> int:
    run, system = _split_config(_load_config(args.config))
    method = _resolve(args, run, "method", "linear_response")
    fmt = _resolve(args, run, "format", "csv")
    if fmt not in ("csv", "json"):
        raise ParameterError(f"format must be csv or json, got {fmt!r}")
    n_max = _n_max(args, run)
    output = Path(_resolve(args, run, "output", f"spectrum.{fmt}"))
    grid = _grid_from_run(run)
    sweep = _sweep_from_run(run)

    if sweep is None:
        _emit_series(output, fmt,
                     probe_spectrum(params_from_config(system), grid, method=method,
                                    n_max=n_max))
        return 0

    key, values = sweep
    sweep_col = "delta_c" if key == "delta" else key
    rows: list[tuple] = []
    residuals: list = []
    notes: list[str] = []
    runs = _sweep(system, key, values)
    for value, params in runs:
        series = probe_spectrum(params, grid, method=method, n_max=n_max)
        rows.extend(zip(series.grid, [value] * grid.size,
                        series.im_chi, series.re_chi))
        residuals.append(None if series.residuals is None
                         else float(series.residuals.max()))
        notes.extend(series.warnings)
    md = _metadata(runs[0][1], method=method,
                   n_max=None if method == "analytic" else n_max,
                   notes=notes,
                   extra={"sweep_key": key, "sweep_values": values,
                          "residual_max_per_sweep": residuals})
    md["residual_max"] = max((r for r in residuals if r is not None), default=None)
    _emit(output, fmt, md, ["delta", sweep_col, "im_chi", "re_chi"], rows)
    return 0


def _cmd_populations(args) -> int:
    run, system = _split_config(_load_config(args.config))
    fmt = _resolve(args, run, "format", "csv")
    if fmt not in ("csv", "json"):
        raise ParameterError(f"format must be csv or json, got {fmt!r}")
    n_max = _n_max(args, run)
    output = Path(_resolve(args, run, "output", f"populations.{fmt}"))
    sweep = _sweep_from_run(run)

    pump_given = any(k in system for k in _PUMP_CONFIG_KEYS)
    if sweep is not None:
        pump_given = pump_given or sweep[0] in _PUMP_CONFIG_KEYS
    if not pump_given:
        raise ParameterError(
            "populations requires a pump key (n_th, temperature_mK, or Omega); "
            "use n_th = 0 for the vacuum case")

    if sweep is None:
        params = params_from_config(system)
        _, state, _ = probe_free_state(params, n_max)
        table = _populations(state)
        md = _metadata(params, method="steady_state", n_max=n_max,
                       residuals=[state.residual_norm])
        rows = [(n, p) for n, p in enumerate(table.p_n)]
        _emit(output, fmt, md, ["n", "P_n"], rows)
        joint_rows = [(n, level, table.joint[(n, level)])
                      for n in range(n_max + 1) for level in ("g", "f", "e")]
        joint_path = output.with_name(output.stem + ".joint" + output.suffix)
        if fmt == "json":
            _write_json(joint_path, md, ["n", "level", "population"], joint_rows)
        else:
            _write_csv(joint_path, ["n", "level", "population"], joint_rows)
        print(f"wrote {joint_path}")
        return 0

    key, values = sweep
    base, rows = _population_sweep(system, key, values, n_max)
    md = _metadata(base, method="steady_state", n_max=n_max,
                   extra={"sweep_key": key, "sweep_values": values})
    _emit(output, fmt, md, ["sweep_value", *_P_COLUMNS], rows)
    return 0


# --- figure presets -------------------------------------------------------------
# Each job writes one figure's files as job(outdir, n_max); the analytic jobs
# ignore n_max.

_PRESET_N_MAX = 20  # Fock cutoff of the pumped presets unless --n-max is given


def _spectra_job(outdir: Path, n_max, *, span: float, method: str, system: dict,
                 key: str, values, name: str) -> None:
    """One spectrum CSV per value of key, on 2001 points over [-span, span];
    name is a format pattern for the value."""
    grid = np.linspace(-span, span, 2001)
    for value, params in _sweep(system, key, values):
        series = probe_spectrum(params, grid, method=method, n_max=n_max)
        _emit_series(outdir / name.format(value), "csv", series)


def _analytic_sweep_meta(system: dict, key: str, values) -> dict:
    return _metadata(None, method="analytic", n_max=None,
                     extra={"base_params": dict(sorted(system.items())),
                            "sweep_key": key, "sweep_points": len(values)})


def _delta_c_map_job(outdir: Path, n_max, *, span: float, system: dict, values,
                     name: str) -> None:
    """Long-format vacuum absorption over probe detuning and cavity detuning."""
    grid = np.linspace(-span, span, 2001)
    rows = []
    for value, params in _sweep(system, "delta", values):
        series = probe_spectrum(params, grid, method="analytic")
        rows.extend(zip(series.grid, [value] * grid.size, series.im_chi))
    _emit(outdir / name, "csv", _analytic_sweep_meta(system, "delta", values),
          ["delta", "delta_c", "im_chi"], rows)


def _poles_job(outdir: Path, n_max, *, system: dict, key: str, values,
               name: str) -> None:
    rows = []
    for value, params in _sweep(system, key, values):
        pair = poles(params)
        rows.append((value, pair.delta_1.real, pair.delta_1.imag,
                     pair.delta_2.real, pair.delta_2.imag))
    _emit(outdir / name, "csv", _analytic_sweep_meta(system, key, values),
          [key, "re_delta1", "im_delta1", "re_delta2", "im_delta2"], rows)


def _populations_job(outdir: Path, n_max: int, *, system: dict, key: str, values,
                     name: str, echo: tuple[str, ...] = (),
                     extra: dict | None = None) -> None:
    base, rows = _population_sweep(system, key, values, n_max, echo)
    md = _metadata(base, method="steady_state", n_max=n_max,
                   extra={"sweep_key": key, "sweep_points": len(values),
                          **(extra or {})})
    _emit(outdir / name, "csv", md, [key, *echo, *_P_COLUMNS], rows)


_OMEGA_C_NOTE = (
    "The source figure's temperature axis does not state a cavity frequency; "
    "this preset uses omega_c/2pi = 5 GHz and reports the thermal occupation "
    "n_th alongside each temperature so the physics stays convention-independent.")

_FIG5 = partial(_spectra_job, span=20.0, method="analytic", key="eta",
                name="spectrum.csv")
_PUMPED = {"gamma_e": 5, "gamma_f": 1, "kappa": 1}

# figure id -> (NOTES.txt text, job)
_FIGURES: dict[str, tuple[str, Callable[[Path, int], None]]] = {
    "3a": (
        "Vacuum probe spectra at gamma_e=5, gamma_f=1, kappa=0.2, delta=0 "
        "for eta in {0, 2, 10} (all rates in units of gamma_f). One CSV per "
        "eta; columns are probe detuning, Im chi/beta, Re chi/beta, and the "
        "two resonance components. No known discrepancies.",
        partial(_spectra_job, span=25.0, method="analytic",
                system={"gamma_e": 5, "gamma_f": 1, "kappa": 0.2}, key="eta",
                values=(0.0, 2.0, 10.0), name="spectrum_eta{:g}.csv")),
    "3b": (
        "Vacuum absorption versus probe detuning (delta column) and cavity "
        "detuning (delta_c column) at gamma_e=5, gamma_f=1, kappa=0.2, "
        "eta=2. Long-format CSV delta,delta_c,im_chi. No known discrepancies.",
        partial(_delta_c_map_job, span=10.0,
                system={"gamma_e": 5.0, "gamma_f": 1.0, "kappa": 0.2, "eta": 2.0},
                values=np.linspace(-5.0, 5.0, 41), name="spectrum_2d.csv")),
    "4ab": (
        "Resonance-pole trajectories versus cavity decay kappa at "
        "gamma_e=5, gamma_f=1, delta=0. DISCREPANCY: the source figure's "
        "caption states eta = 4, but the real-part bifurcations it shows "
        "at kappa = 2 and kappa = 6 solve 2*eta = |gamma_f + kappa - "
        "gamma_e| only for eta = 1. This preset uses eta = 1 so the "
        "computed transitions land where the source figure places them.",
        partial(_poles_job, system={"gamma_e": 5, "gamma_f": 1, "eta": 1},
                key="kappa", values=np.linspace(0.0, 8.0, 801),
                name="poles_vs_kappa.csv")),
    "4cd": (
        "Resonance-pole trajectories versus coupling eta at gamma_e=5, "
        "gamma_f=1, kappa=1, delta=0. The real parts bifurcate exactly at "
        "eta = |gamma_f + kappa - gamma_e|/2 = 1.5. No known discrepancies.",
        partial(_poles_job, system={"gamma_e": 5, "gamma_f": 1, "kappa": 1},
                key="eta", values=np.linspace(0.0, 4.0, 801),
                name="poles_vs_eta.csv")),
    "5a": (
        "Vacuum spectrum and resonance decomposition at gamma_e=10, "
        "gamma_f=1, kappa=0, eta=3.9, delta=0 (weak-coupling side: the two "
        "components carry opposite-sign Im parts at Delta=0, an "
        "interference dip). No known discrepancies.",
        partial(_FIG5, system={"gamma_e": 10, "gamma_f": 1, "kappa": 0.0},
                values=(3.9,))),
    "5b": (
        "As 5a but kappa=1, eta=3.9: still below the threshold "
        "|gamma_f + kappa - gamma_e|/2 = 4, so the dip is interference "
        "(opposite-sign components at Delta=0). No known discrepancies.",
        partial(_FIG5, system={"gamma_e": 10, "gamma_f": 1, "kappa": 1.0},
                values=(3.9,))),
    "5c": (
        "As 5b but eta=4.1, just above the threshold 4: the poles acquire "
        "distinct real parts and the dip becomes a resolved doublet. "
        "No known discrepancies.",
        partial(_FIG5, system={"gamma_e": 10, "gamma_f": 1, "kappa": 1.0},
                values=(4.1,))),
    "5d": (
        "As 5b but eta=10, deep strong coupling: two positive Lorentzian "
        "components centered near +-eta. No known discrepancies.",
        partial(_FIG5, system={"gamma_e": 10, "gamma_f": 1, "kappa": 1.0},
                values=(10.0,))),
    "6": (
        "Photon-number-resolved ground-level populations P_0..P_3 versus "
        "temperature at gamma_e=5, gamma_f=1, kappa=0.2, eta=2 (thermal "
        "cavity pump). " + _OMEGA_C_NOTE,
        partial(_populations_job,
                system={"gamma_e": 5, "gamma_f": 1, "kappa": 0.2, "eta": 2,
                        "omega_c_GHz": 5.0},
                key="temperature_mK", values=np.linspace(0.0, 100.0, 101),
                name="populations_vs_T.csv", echo=("n_th",),
                extra={"omega_c_GHz": 5.0})),
    "7a": (
        "Thermal suppression of the weak-coupling dip: spectra at "
        "gamma_e=5, gamma_f=1, kappa=1, eta=4 for T in {0, 10, 80} mK. "
        + _OMEGA_C_NOTE,
        partial(_spectra_job, span=10.0, method="linear_response",
                system={**_PUMPED, "eta": 4, "omega_c_GHz": 5.0},
                key="temperature_mK", values=(0.0, 10.0, 80.0),
                name="spectrum_T{:g}mK.csv")),
    "7b": (
        "Photon-number-resolved doublets under thermal pumping: spectra at "
        "gamma_e=5, gamma_f=1, kappa=1, eta=80 for T in {0, 10, 80} mK; "
        "thermal occupation populates n=1 and adds peaks near "
        "+-sqrt(2)*eta. " + _OMEGA_C_NOTE,
        partial(_spectra_job, span=350.0, method="linear_response",
                system={**_PUMPED, "eta": 80, "omega_c_GHz": 5.0},
                key="temperature_mK", values=(0.0, 10.0, 80.0),
                name="spectrum_T{:g}mK.csv")),
    "8a": (
        "Populations versus coherent pump amplitude Omega at gamma_e=5, "
        "gamma_f=1, kappa=1, eta=80, resonant pump. DISCREPANCY: the "
        "source figure shows P_0 below P_1..P_3 at Omega=0.8, but the "
        "probe-free steady state factorizes exactly into |g><g| times a "
        "coherent cavity state of amplitude Omega/kappa, whose Poissonian "
        "populations with mean 0.64 give P_0 > P_1 > P_2 > P_3. This "
        "bundle reports the exact result; epsilon and pump_detuning are "
        "exposed in the library so alternative conventions can be searched.",
        partial(_populations_job, system={**_PUMPED, "eta": 80},
                key="Omega", values=np.linspace(0.0, 0.8, 17),
                name="populations_vs_Omega.csv")),
    "8b": (
        "Photon-number-resolved spectra under coherent pumping at "
        "gamma_e=5, gamma_f=1, kappa=1, eta=80 for Omega in {0, 0.4, 0.8}: "
        "doublets emerge near +-eta, +-sqrt(2)*eta, +-sqrt(3)*eta as the "
        "pump populates n = 0, 1, 2. No known discrepancies.",
        partial(_spectra_job, span=350.0, method="linear_response",
                system={**_PUMPED, "eta": 80}, key="Omega",
                values=(0.0, 0.4, 0.8), name="spectrum_Omega{:g}.csv")),
}


def _cmd_reproduce(args) -> int:
    if args.figure not in _FIGURES:
        raise UnknownFigure(
            f"unknown figure {args.figure!r}; choose from {sorted(_FIGURES)}")
    notes, job = _FIGURES[args.figure]
    outdir = Path(args.output or f"fig{args.figure}")
    # the outermost directory this command creates, removed if the job fails
    created = next((d for d in (*reversed(outdir.parents), outdir)
                    if not d.exists()), None)
    try:
        job(outdir, _PRESET_N_MAX if args.n_max is None else args.n_max)
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    _write_text(outdir / "NOTES.txt", notes + "\n")
    print(f"wrote {outdir / 'NOTES.txt'}")
    return 0


# --- argument parsing -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vitats",
        description="Probe absorption spectra of a three-level emitter "
                    "coupled to a lossy quantized cavity mode")
    parser.add_argument("--version", action="version",
                        version=f"vitats {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to flat JSON config")
        p.add_argument("--output", default=None, help="output path")
        p.add_argument("--n-max", dest="n_max", type=int, default=None,
                       help="cavity Fock-space cutoff")

    p_classify = sub.add_parser("classify", help="regime report as JSON")
    p_classify.add_argument("--config", required=True)
    p_classify.add_argument("--output", default=None)
    p_classify.set_defaults(func=_cmd_classify)

    p_spectrum = sub.add_parser("spectrum", help="probe spectrum on a grid")
    add_common(p_spectrum)
    p_spectrum.add_argument("--format", choices=("csv", "json"), default=None)
    p_spectrum.add_argument(
        "--method", choices=("analytic", "linear_response", "finite_epsilon"),
        default=None)
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_pop = sub.add_parser("populations", help="steady-state populations")
    add_common(p_pop)
    p_pop.add_argument("--format", choices=("csv", "json"), default=None)
    p_pop.set_defaults(func=_cmd_populations)

    p_rep = sub.add_parser("reproduce", help="figure-reproduction presets")
    p_rep.add_argument("figure", help="one of " + ", ".join(sorted(_FIGURES)))
    p_rep.add_argument("--output", default=None, help="bundle directory")
    p_rep.add_argument("--n-max", dest="n_max", type=int, default=None)
    p_rep.set_defaults(func=_cmd_reproduce)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser, once per process: parsing leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    caught: list = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (VitatsError, OSError) as exc:  # configuration problems
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for item in caught:
            print(f"warning: {item.message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
