#!/usr/bin/env python3
"""Seeded benchmark of the vitats CLI, with a traced per-layer pass.

Run from the repository root:

    python3 perfbench/run.py --workload thermal-doublets --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (why each exists: workloads.py): thermal-doublets,
coherent-doublets, population-sweep, vacuum-sweep. One run of one workload:

1. writes the seed's config files under perfbench/_work/;
2. with --trace 0, measures setup_s in fresh interpreters: spawn to the end
   of the workload's smallest request (median of SETUP_SAMPLES). The first
   of them then runs one whole pass for peak_mem_mb (its peak RSS), so
   memory is measured away from the timed passes;
3. warms up in this process with the same smallest request, then drives
   vitats.cli.main in-process over whole passes until --seconds of timed
   work, single-threaded (BLAS pinned to one thread);
4. gates the first pass against closed-form oracles, every later pass
   against the first byte for byte, and checks that a deliberately wrong
   oracle system trips the gates;
5. with --trace 1, alternates untraced and traced passes instead, splits
   each bundle into the library calls the CLI wraps, and runs the layer
   pass of layers.py; it reports the per-layer metrics;
6. prints a report, then as the last stdout line one JSON object with
   correct, attempted, failed and metrics. The full report (problem sizes
   and diagnostics beside every timing) and the spans are written under
   perfbench/results/.

End-to-end metrics (--trace 0):

- setup_s: fresh interpreter to the end of the first, untimed request
  (imports plus first-call warm-up), median of SETUP_SAMPLES.
- throughput_ops_s: ops completed per second over the run's warm passes.
- bundle_p50_s: median over the workload's bundles (CLI invocations) of
  each one's mean time to a complete data bundle.
- peak_mem_mb: peak RSS of a fresh interpreter after one whole pass.

The every-invocation median and high percentile are printed and kept in
the report as well.

An op is one detuning point in a spectrum, one steady state in a population
sweep, and one CSV row or classifier report in vacuum-sweep. A failed op is
a nonzero CLI exit code, a non-finite value, an oracle miss, or output that
differs from the first pass. error_rate = failed / attempted, printed with
the metrics and carried by the attempted and failed fields; any failure
makes the command exit 1.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: single-threaded BLAS

import argparse
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"
sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, Bundle, Workload, check_bundle, make_workload  # noqa: E402

SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 90

END_TO_END_UNITS = {"setup_s": "s", "throughput_ops_s": "1/s",
                    "bundle_p50_s": "s", "peak_mem_mb": "MB"}
PER_LAYER_UNITS = {
    "model.parse_us": "us", "analytic.chi_ns_per_pt": "ns",
    "analytic.poles_us": "us", "analytic.classify_us": "us",
    "liouvillian.build_operators_ms": "ms", "liouvillian.assemble_ms": "ms",
    "liouvillian.n_max": "count", "liouvillian.dim": "count",
    "liouvillian.superop_dim": "count", "liouvillian.nnz": "count",
    "solver.steady_state_ms": "ms", "solver.steady_state_residual": "norm",
    "solver.tail_mass": "probability", "solver.spectrum_fixed_ms": "ms",
    "solver.per_point_ms": "ms", "solver.grid_points": "count",
    "solver.residual_max": "norm", "solver.find_peaks_ms": "ms",
    "solver.peaks_found": "count", "solver.populations_ms": "ms",
    "solver.max_rel_err": "ratio", "solver.pool_efficiency": "ratio",
    "solver.lu_nnz": "count", "cli.overhead_ms": "ms",
    "cli.bytes_written": "bytes", "cli.rows_written": "count",
    "trace.overhead_frac": "ratio",
}


def _run_bundle(cli_main, b: Bundle) -> tuple[int, float]:
    """Invoke the CLI in-process on one bundle: (exit code, wall seconds)."""
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli_main(list(b.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails the bundle, not the benchmark
            traceback.print_exc()
            code = -1
    elapsed = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(f"{b.name}: exit code {code}\n{err.getvalue()}")
    return code, elapsed


def _digest(files) -> str | None:
    h = hashlib.sha256()
    for path in files:
        try:
            h.update(path.read_bytes())
        except OSError:
            return None
    return h.hexdigest()


class Ledger:
    """Counts attempted and failed ops. The first pass is gated by the
    oracles, every later pass by byte identity with the first."""

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str | None] = {}
        self.times: dict[str, list[float]] = {b.name: [] for b in wl.bundles}

    def record_op(self, b: Bundle, code: int) -> None:
        self.attempted += b.ops
        self.failed += b.ops if code != 0 else int(check_bundle(b).sum())

    def record_pass(self, results: list[tuple[int, float]]) -> float:
        for b, (code, seconds) in zip(self.wl.bundles, results):
            self.times[b.name].append(seconds)
            digest = _digest(b.files) if code == 0 else None
            if b.name not in self.digests:
                self.digests[b.name] = digest
                self.record_op(b, code)
                continue
            self.attempted += b.ops
            if digest is None or digest != self.digests[b.name]:
                self.failed += b.ops
        return sum(seconds for _, seconds in results)

    def self_check(self) -> bool:
        """True when the wrong oracle system misses somewhere."""
        return any(check_bundle(b, wrong=True).any() for b in self.wl.bundles)


def _one_pass(cli_main, wl: Workload, tracer=None, index: int = 0):
    if tracer is None:
        return [_run_bundle(cli_main, b) for b in wl.bundles]
    results = []
    for b in wl.bundles:
        with tracer.span("cli.main", op=f"pass{index}:{b.name}"):
            results.append(_run_bundle(cli_main, b))
    return results


def _measure_setup(args, workdir: Path) -> tuple[list[float], int]:
    """setup_s samples from fresh interpreters, and the first one's peak RSS
    (KiB) after a whole pass."""
    samples, peak_kb = [], 0
    for k in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-child",
               "--workdir", str(workdir / f"setup{k}")]
        if k == 0:
            cmd.append("--mem-pass")
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed ({proc.returncode}):\n"
                               f"{proc.stdout}{proc.stderr}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(doc["setup_end"] - start)
        peak_kb = doc.get("maxrss_kb", peak_kb)
    return samples, peak_kb


def _setup_child(args) -> int:
    """Fresh interpreter: import the CLI, run the smallest request, report
    the time it ended; with --mem-pass, run one pass and report peak RSS."""
    from vitats import cli

    wl = make_workload(args.workload, args.seed, Path(args.workdir))
    codes = [_run_bundle(cli.main, wl.setup)[0]]
    doc: dict = {"setup_end": time.monotonic()}
    if args.mem_pass:
        codes += [_run_bundle(cli.main, b)[0] for b in wl.bundles]
        doc["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(doc))
    return 0 if not any(codes) else 1


def _high_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its
    value; the maximum when there are fewer than twenty samples."""
    ordered = sorted(values)
    if len(ordered) < 20:
        return 100.0, ordered[-1]
    keep = len(ordered) - 10
    return 100.0 * keep / len(ordered), ordered[keep - 1]


def _output_counts(wl: Workload) -> tuple[int, int]:
    """Bytes written by one pass, and the CSV rows plus JSON reports."""
    size = sum(path.stat().st_size for b in wl.bundles for path in b.files)
    rows = 0
    for b in wl.bundles:
        if b.data.suffix == ".csv":
            rows += b.data.read_bytes().count(b"\n") - 1
        else:
            rows += 1
    return size, rows


def _trace_metrics(cli_main, wl: Workload, ledger: Ledger, seconds: float,
                   summary: dict) -> dict:
    from layers import Tracer, layer_pass, library_calls

    tracer = Tracer()
    untraced, traced = [], []
    overhead: dict[str, list[float]] = {b.name: [] for b in wl.bundles}
    while sum(untraced) + sum(traced) < seconds or not traced:
        untraced.append(ledger.record_pass(_one_pass(cli_main, wl)))
        results = _one_pass(cli_main, wl, tracer, len(traced))
        traced.append(ledger.record_pass(results))
        # The same work as bare library calls, right after each CLI call's
        # traced twin, so the paired difference is the CLI's own overhead.
        for b, (_, cli_seconds) in zip(wl.bundles, results):
            with tracer.span("bench.library",
                             op=f"library{len(traced)}:{b.name}") as index:
                library_calls(b, tracer)
            overhead[b.name].append(cli_seconds - tracer.children_time(index))
    size, rows = _output_counts(wl)
    metrics = layer_pass(wl.reference, tracer)
    metrics.update({
        "cli.overhead_ms": 1e3 * statistics.fmean(
            statistics.median(d) for d in overhead.values()),
        "cli.bytes_written": size,
        "cli.rows_written": rows,
        "trace.overhead_frac": sum(traced) / sum(untraced) - 1.0,
    })
    summary.update(untraced_pass_s=untraced, traced_pass_s=traced)
    tracer.write(RESULTS / f"trace-{wl.name}-s{summary['seed']}.json", summary)
    self_times = tracer.self_times()
    print("  self time by span (s): " + ", ".join(
        f"{name} {value:.4g}" for name, value in list(self_times.items())[:8]))
    return metrics


def _run(args) -> int:
    from layers import bundle_sizes
    from vitats import cli

    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    wl = make_workload(args.workload, args.seed, workdir)
    summary: dict = {"workload": wl.name, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace}
    if not args.trace:
        setup, peak_kb = _measure_setup(args, workdir)

    ledger = Ledger(wl)
    ledger.record_op(wl.setup, _run_bundle(cli.main, wl.setup)[0])  # warm-up
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    if args.trace:
        values = _trace_metrics(cli.main, wl, ledger, args.seconds, summary)
    else:
        pass_times = []
        while sum(pass_times) < args.seconds or not pass_times:
            pass_times.append(ledger.record_pass(_one_pass(cli.main, wl)))
        # Means over the run, not best-of or medians: in forty ten-seed runs
        # on a shared 2-core VM whose speed drifted by up to 30% over
        # minutes, the mean had the smallest seed-to-seed spread.
        means = [statistics.fmean(ledger.times[b.name]) for b in wl.bundles]
        pooled = [t for times in ledger.times.values() for t in times]
        values = {"setup_s": statistics.median(setup),
                  "throughput_ops_s": sum(b.ops for b in wl.bundles)
                  * len(pass_times) / sum(pass_times),
                  "bundle_p50_s": statistics.median(means),
                  "peak_mem_mb": peak_kb / 1024.0}
        pct, high = _high_percentile(pooled)
        summary.update(setup_samples_s=setup, pass_s=pass_times,
                       all_bundles_p50_s=statistics.median(pooled),
                       all_bundles_high_percentile=[pct, high, len(pooled)])

    gate_ok = ledger.self_check()
    correct = gate_ok and ledger.failed == 0
    error_rate = ledger.failed / ledger.attempted
    summary.update(attempted=ledger.attempted, failed=ledger.failed,
                   error_rate=error_rate, self_check_tripped=gate_ok,
                   metrics=values, bundles={
                       b.name: {"mean_s": statistics.fmean(ledger.times[b.name]),
                                "best_s": min(ledger.times[b.name]),
                                "times_s": ledger.times[b.name],
                                **bundle_sizes(b)}
                       for b in wl.bundles})
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    for name, value in values.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    if not args.trace:
        pct, high, count = summary["all_bundles_high_percentile"]
        print(f"  every invocation: p50 {summary['all_bundles_p50_s']:.6g} s, "
              f"p{pct:.0f} {high:.6g} s over {count}; setup median of {len(setup)}")
    print(f"  {'error_rate':32s} {error_rate:.6g} ({ledger.failed}/{ledger.attempted}"
          f" ops failed; wrong-oracle self-check "
          f"{'tripped' if gate_ok else 'DID NOT TRIP'})")
    for name, info in summary["bundles"].items():
        print(f"  bundle {name}: " + ", ".join(
            f"{k} {v:.6g}" if isinstance(v, float) else
            f"runs {len(v)}" if isinstance(v, list) else f"{k} {v}"
            for k, v in info.items()))
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0 if correct else 1


def _run_all(args) -> int:
    """Every workload, each from its own process, then one table."""
    rows, ok = {}, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        ok = ok and proc.returncode == 0
        rows[name] = result
    print("\nworkload            " + "  ".join(
        f"{m} [{u}]" for m, u in END_TO_END_UNITS.items()) + "  error_rate")
    for name, result in rows.items():
        if result is None:
            print(f"{name:20s} no result")
            continue
        cells = [f"{v['value']:.4g}" for v in result["metrics"].values()]
        print(f"{name:20s} " + "  ".join(cells)
              + f"  {result['failed'] / result['attempted']:.3g}")
    return 0 if ok else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--mem-pass", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "vitats" / "__init__.py").is_file():
        print(f"error: vitats sources not found at {SRC}", file=sys.stderr)
        return 2
    if args.setup_child:
        return _setup_child(args)
    if args.workload == "all":
        return _run_all(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
