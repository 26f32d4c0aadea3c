#!/usr/bin/env python3
"""Re-measure the ROADMAP's hand-timed baseline table in one command.

Run from the repository root (about two minutes on a 2-core box):

    python3 perfbench/reanchor.py

Rows: `vitats reproduce 7b` in a fresh interpreter; the criterion-7
coherent spectrum at 1025 points; the probe-free steady state with the
uniqueness check on that system, cold (first call in a fresh interpreter)
and warm (median of 5 in one process); the thermal n_th = 0.05 spectrum at
201 points; and the workers=2 pool efficiency on the coherent-doublets
system. Nothing here is gated. The table is printed and written to
perfbench/results/reanchor.json.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: single-threaded BLAS

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

_COLD_STEADY_STATE = """
import time
from vitats import CoherentPump, HilbertSpec, SystemParams, liouvillian_at, steady_state
p = SystemParams.from_effective(5.0, 1.0, eta=80.0, kappa=1.0, pump=CoherentPump(0.4))
sop = liouvillian_at(p, 0.0, HilbertSpec(16), epsilon=0.0)
start = time.perf_counter()
steady_state(sop)
print(time.perf_counter() - start)
"""


def _fresh(code: str, *args: str) -> tuple[float, str]:
    """Wall time and stdout of a fresh interpreter running code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    return time.perf_counter() - start, proc.stdout


def _timed(fn, *args, **kwargs) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def main() -> int:
    if not (SRC / "vitats" / "__init__.py").is_file():
        print(f"error: vitats sources not found at {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    from layers import lu_nnz
    from vitats import (CoherentPump, HilbertSpec, SystemParams, ThermalPump,
                        liouvillian_at, probe_spectrum, steady_state)

    rows: dict[str, dict] = {}
    outdir = BENCH / "_work" / "reanchor"
    shutil.rmtree(outdir, ignore_errors=True)

    wall, _ = _fresh("import sys; from vitats.cli import main; sys.exit(main(sys.argv[1:]))",
                     "reproduce", "7b", "--output", str(outdir / "fig7b"))
    rows["reproduce 7b (thermal, n_max=20, 3x2001 pts)"] = {
        "wall_s": wall, "points": 6003, "n_max": 20, "fresh_process": True}

    coherent = SystemParams.from_effective(5.0, 1.0, eta=80.0, kappa=1.0,
                                           pump=CoherentPump(0.4))
    spec16 = HilbertSpec(16)
    grid = np.linspace(-160.0, 160.0, 1025)
    one = [_timed(probe_spectrum, coherent, grid[512:513], n_max=16)[0]
           for _ in range(3)]
    t_all, _ = _timed(probe_spectrum, coherent, grid, n_max=16)
    nnz = liouvillian_at(coherent, 0.0, spec16, epsilon=0.0).matrix.nnz
    rows["coherent Omega=0.4, n_max=16, 1025 pts (criterion 7)"] = {
        "wall_s": t_all, "points": 1025, "n_max": 16, "dim": spec16.dim,
        "superop_dim": spec16.dim ** 2, "nnz": nnz,
        "lu_nnz": lu_nnz(coherent, spec16, 0.0),
        "per_point_ms": 1e3 * (t_all - statistics.median(one)) / 1024}

    cold = [float(_fresh(_COLD_STEADY_STATE)[1]) for _ in range(3)]
    sop = liouvillian_at(coherent, 0.0, spec16, epsilon=0.0)
    warm = [_timed(steady_state, sop)[0] for _ in range(5)]
    rows["steady_state with uniqueness check, same system"] = {
        "cold_first_call_s": cold, "warm_median_s": statistics.median(warm),
        "warm_s": warm, "n_max": 16, "superop_dim": spec16.dim ** 2}

    thermal = SystemParams.from_effective(5.0, 1.0, eta=80.0, kappa=1.0,
                                          pump=ThermalPump(0.05))
    spec20 = HilbertSpec(20)
    t_thermal, _ = _timed(probe_spectrum, thermal,
                          np.linspace(-350.0, 350.0, 201), n_max=20)
    rows["thermal n_th=0.05, n_max=20, 201 pts"] = {
        "wall_s": t_thermal, "points": 201, "n_max": 20,
        "nnz": liouvillian_at(thermal, 0.0, spec20, epsilon=0.0).matrix.nnz,
        "lu_nnz": lu_nnz(thermal, spec20, 0.0)}

    pool_grid = np.linspace(-160.0, 160.0, 257)
    t1, _ = _timed(probe_spectrum, coherent, pool_grid, n_max=16, workers=1)
    t2, _ = _timed(probe_spectrum, coherent, pool_grid, n_max=16, workers=2)
    rows["pool: coherent n_max=16, 257 pts, workers=2 vs 1"] = {
        "workers1_s": t1, "workers2_s": t2, "pool_efficiency": t1 / t2 / 2.0}

    shutil.rmtree(outdir, ignore_errors=True)
    results = BENCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / "reanchor.json").write_text(json.dumps(rows, indent=1) + "\n",
                                           encoding="utf-8")
    print("| workload | measured |\n|---|---|")
    for name, row in rows.items():
        cells = ", ".join(f"{k} {v:.4g}" if isinstance(v, float) else
                          f"{k} {[round(x, 3) for x in v]}" if isinstance(v, list)
                          else f"{k} {v}" for k, v in row.items())
        print(f"| {name} | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
