"""Spans and the traced per-layer pass of the vitats benchmark.

Spans are recorded only here, around the calls the benchmark makes into the
public functions of vitats.model, analytic, dressed, liouvillian, solver and
cli; nothing inside src/vitats is instrumented. They stay in memory and are
written once, at the end of a run.

Which end-to-end metric each layer metric should move, and where:

- solver.per_point_ms: throughput_ops_s and bundle_p50_s on both doublet
  workloads (over 90% of a pass); nothing on population-sweep or
  vacuum-sweep.
- solver.spectrum_fixed_ms: bundle_p50_s, mostly on thermal-doublets, where
  a point is cheap.
- solver.steady_state_ms, liouvillian.assemble_ms and
  liouvillian.build_operators_ms: throughput_ops_s on population-sweep.
- analytic.* and cli.*: vacuum-sweep only.
- solver.lu_nnz (LU fill): peak_mem_mb, on coherent-doublets.
"""

from __future__ import annotations

import json
import statistics
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

from vitats import analytic, dressed, liouvillian, model, solver

from workloads import Bundle, bose_populations, chi_closed_form, \
    poisson_populations

_RUN_KEYS = ("n_max", "delta_min", "delta_max", "delta_points", "method",
             "output", "format", "sweep_key", "sweep_values")
_MICRO_REPS = 200   # calls of the microsecond-scale closed forms
_REPS = 3           # calls of the millisecond-scale solver layers


class Tracer:
    """In-memory spans (name, start, end, parent span index, op id).

    Closed spans are tuples of atoms, which the garbage collector stops
    tracking, so a long trace does not slow the collections it triggers.
    """

    FIELDS = ("name", "start", "end", "parent", "op")

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._open: list[int] = []
        self._ops: dict[int, object] = {}

    @contextmanager
    def span(self, name: str, op=None):
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self._ops[parent]
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        self._ops[index] = op
        start = time.perf_counter()
        try:
            yield index
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent, op)
            self._open.pop()
            del self._ops[index]

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str, op) -> list[float]:
        return [s[2] - s[1] for s in self.spans
                if s is not None and s[0] == name and s[4] == op]

    def children_time(self, index: int) -> float:
        return sum(s[2] - s[1] for s in self.spans[index + 1:]
                   if s is not None and s[3] == index)

    def last(self, name: str) -> float:
        return next(s[2] - s[1] for s in reversed(self.spans)
                    if s is not None and s[0] == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            out[s[0]] = out.get(s[0], 0.0) + s[2] - s[1] - covered
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def write(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"summary": summary, "self_time_s": self.self_times(),
               "spans": [dict(zip(self.FIELDS, s)) for s in self.spans]}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _config(b: Bundle) -> dict:
    return json.loads(Path(b.argv[2]).read_text(encoding="utf-8"))


def _physical(cfg: dict) -> dict:
    """The config's physical parameters: everything but the run keys."""
    return {k: v for k, v in cfg.items() if k not in _RUN_KEYS}


def _grid(b: Bundle) -> np.ndarray:
    lo, hi, points = b.grid
    return np.linspace(lo, hi, points)


def library_calls(b: Bundle, t: Tracer) -> None:
    """The library calls `vitats.cli.main` makes for this bundle, each traced.

    cli.main time minus the time of these calls is the CLI's own overhead:
    config parsing, CSV formatting and writing, metadata. Warnings are
    ignored here; the CLI records them.
    """
    parse = model.params_from_config
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if b.check == "poles":  # `reproduce 4ab`: a kappa axis fixed by the preset
            for kappa in np.linspace(0.0, 8.0, 801):
                p = t.call("model.params_from_config", parse,
                           {**b.system, "kappa": float(kappa)})
                t.call("analytic.poles", analytic.poles, p)
            return
        cfg = _config(b)
        system = _physical(cfg)
        if b.argv[0] == "classify":
            t.call("analytic.classify_regime", analytic.classify_regime,
                   t.call("model.params_from_config", parse, system))
            return
        for value in [None] if b.sweep is None else b.sweep[1]:
            p = t.call("model.params_from_config", parse,
                       system if value is None else {**system, b.sweep[0]: value})
            if b.argv[0] == "spectrum":
                t.call("solver.probe_spectrum", solver.probe_spectrum, p,
                       _grid(b), method=cfg.get("method", "linear_response"),
                       n_max=int(cfg.get("n_max", 60)), workers=1)
                continue
            spec = liouvillian.HilbertSpec(int(cfg["n_max"]))
            sop = t.call("liouvillian.liouvillian_at", liouvillian.liouvillian_at,
                         p, 0.0, spec, epsilon=0.0)
            state = t.call("solver.steady_state", solver.steady_state, sop)
            t.call("solver.truncation_report", solver.truncation_report, state)
            t.call("solver.populations", solver.populations, state)


def lu_nnz(p, spec, delta_p: float) -> int:
    """nnz(L) + nnz(U) of the trace-completed Liouvillian at one detuning,
    factored the way the per-point solve factors it (SuperLU, COLAMD)."""
    matrix = liouvillian.liouvillian_at(p, delta_p, spec, epsilon=0.0).matrix.tolil()
    matrix[0, :] = 0.0
    matrix[0, liouvillian.trace_indices(spec.dim)] = 1.0
    lu = spla.splu(matrix.tocsc())
    return int(lu.L.nnz + lu.U.nnz)


def _closed_form_populations(p, count: int) -> np.ndarray:
    if p.n_th > 0.0:
        return bose_populations(p.n_th, count)
    if p.Omega > 0.0:
        return poisson_populations((p.Omega / p.kappa) ** 2, count)
    return np.eye(1, count)[0]


def layer_pass(ref: Bundle, t: Tracer) -> dict[str, float]:
    """Time each layer once more on the workload's reference system.

    Every workload reports every layer: the spectrum layers of
    population-sweep and vacuum-sweep run on a small probe grid of their own
    system (at n_max = 2 for the vacuum), so those numbers describe that
    system, not the workload's timed path.
    """
    op = "layer"
    med = statistics.median
    system = ref.system
    grid = _grid(ref)
    spec = liouvillian.HilbertSpec(ref.n_max)
    out: dict[str, float] = {}

    with t.span("bench.layer_pass", op=op), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(_MICRO_REPS):
            p = t.call("model.params_from_config", model.params_from_config, system)
            t.call("model.validate_params", model.validate_params, p)
        out["model.parse_us"] = 1e6 * (med(t.durations("model.params_from_config", op))
                                       + med(t.durations("model.validate_params", op)))

        dense = np.linspace(grid[0], grid[-1], 2001)
        for _ in range(_MICRO_REPS // 4):
            t.call("analytic.chi_vacuum", analytic.chi_vacuum, dense, p)
        out["analytic.chi_ns_per_pt"] = 1e9 * med(
            t.durations("analytic.chi_vacuum", op)) / dense.size
        gamma_e, gamma_f = t.call("model.half_widths", model.half_widths, p)
        theta = t.call("dressed.mixing_angle", dressed.mixing_angle, 0, p.eta, p.delta)
        for _ in range(_MICRO_REPS):
            t.call("analytic.poles", analytic.poles, p)
            t.call("analytic.classify_regime", analytic.classify_regime, p)
            t.call("dressed.subspace_rates", dressed.subspace_rates, theta,
                   gamma_e, gamma_f, p.kappa)
        out["analytic.poles_us"] = 1e6 * med(t.durations("analytic.poles", op))
        out["analytic.classify_us"] = 1e6 * (
            med(t.durations("analytic.classify_regime", op))
            + med(t.durations("dressed.subspace_rates", op)))

        for _ in range(_REPS):
            t.call("liouvillian.build_operators", liouvillian.build_operators, spec)
            sop = t.call("liouvillian.liouvillian_at", liouvillian.liouvillian_at,
                         p, 0.0, spec, epsilon=0.0)
            state = t.call("solver.steady_state", solver.steady_state, sop)
            table = t.call("solver.populations", solver.populations, state)
        report = t.call("solver.truncation_report", solver.truncation_report, state)
        out["liouvillian.build_operators_ms"] = 1e3 * med(
            t.durations("liouvillian.build_operators", op))
        out["liouvillian.assemble_ms"] = 1e3 * med(
            t.durations("liouvillian.liouvillian_at", op))
        out["liouvillian.n_max"] = spec.n_max
        out["liouvillian.dim"] = spec.dim
        out["liouvillian.superop_dim"] = spec.dim ** 2
        out["liouvillian.nnz"] = sop.matrix.nnz
        out["solver.steady_state_ms"] = 1e3 * med(t.durations("solver.steady_state", op))
        out["solver.steady_state_residual"] = state.residual_norm
        out["solver.tail_mass"] = report.tail_mass
        out["solver.populations_ms"] = 1e3 * med(t.durations("solver.populations", op))
        want = _closed_form_populations(p, spec.n_max + 1)
        rel_err = float(np.abs(table.p_n - want).max() / want.max())

        one = grid[grid.size // 2:grid.size // 2 + 1]
        for _ in range(_REPS):
            t.call("solver.probe_spectrum[1]", solver.probe_spectrum, p, one,
                   n_max=spec.n_max)
        t_one = med(t.durations("solver.probe_spectrum[1]", op))
        series = t.call("solver.probe_spectrum[N]", solver.probe_spectrum, p, grid,
                        n_max=spec.n_max)
        t_all = t.last("solver.probe_spectrum[N]")
        t.call("solver.probe_spectrum[N,workers=2]", solver.probe_spectrum, p,
               grid, n_max=spec.n_max, workers=2)
        t_pool = t.last("solver.probe_spectrum[N,workers=2]")
        out["solver.spectrum_fixed_ms"] = 1e3 * t_one
        out["solver.per_point_ms"] = 1e3 * (t_all - t_one) / (grid.size - 1)
        out["solver.grid_points"] = grid.size
        out["solver.residual_max"] = float(series.residuals.max())
        out["solver.pool_efficiency"] = t_all / t_pool / 2.0
        if p.n_th == 0.0 and p.Omega == 0.0:
            exact = chi_closed_form(grid, gamma_e, gamma_f, p.kappa, p.eta, p.delta)
            rel_err = max(rel_err, float(np.max(np.abs(series.chi - exact)
                                                / np.abs(exact))))
        out["solver.max_rel_err"] = rel_err

        for _ in range(_REPS):
            peaks = t.call("solver.find_peaks", solver.find_peaks, series)
        out["solver.find_peaks_ms"] = 1e3 * med(t.durations("solver.find_peaks", op))
        out["solver.peaks_found"] = len(peaks.positions)
        out["solver.lu_nnz"] = lu_nnz(p, spec, float(grid[0]))
    return out


def bundle_sizes(b: Bundle) -> dict:
    """Problem sizes and deterministic diagnostics of one bundle, computed
    outside the timed region: n_max, D, D^2, nnz, grid points, the solver
    residual from the bundle's sidecar and the photon tail mass."""
    sizes: dict = {"ops": b.ops}
    if b.grid is not None:
        sizes["grid_points"] = b.grid[2]
    meta = b.data.with_name(b.data.name + ".meta.json")
    if meta.is_file():
        sizes["residual_max"] = json.loads(meta.read_text(encoding="utf-8")).get(
            "residual_max")
    if b.n_max is None:  # closed-form bundles build no Liouvillian
        return sizes
    cfg = _physical(_config(b))
    if b.sweep is not None:  # the largest pump of the sweep has the largest tail
        cfg[b.sweep[0]] = max(b.sweep[1])
    spec = liouvillian.HilbertSpec(b.n_max)
    sop = liouvillian.liouvillian_at(model.params_from_config(cfg), 0.0, spec,
                                     epsilon=0.0)
    state = solver.steady_state(sop, check_uniqueness=False)
    sizes.update(n_max=b.n_max, dim=spec.dim, superop_dim=spec.dim ** 2,
                 nnz=sop.matrix.nnz,
                 tail_mass=solver.truncation_report(state).tail_mass)
    return sizes
