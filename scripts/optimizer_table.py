#!/usr/bin/env python3
"""Print a markdown table of the hcd optimizer's work on the paper designs.

    python3 scripts/optimizer_table.py

One row per train length N = 48, 64, 96, 128 on [0, 2] (N - 1 constraint
angles, ``coordinate_descent`` defaults, seed 0), for the library under
./src: the null-space width U, the SQUAREM cycles of the longest restart,
the fixed-point map evaluations of all restarts together (three per
cycle), the restarts stopped by the cycle cap, the median wall time and
the median process CPU time of three calls (CPU near wall: one thread at
work), the SNR ratio found and ``snr_upper_bound`` on it.
"""
from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from compwave import (  # noqa: E402
    ResilienceGrid,
    coordinate_descent,
    design_matrix,
    null_space_basis,
    snr_upper_bound,
)

SIZES = (48, 64, 96, 128)
EVALS_PER_CYCLE = 3
CALLS = 3


def row(n: int) -> str:
    grid = ResilienceGrid.uniform(0.0, 2.0, n - 1)
    Z = null_space_basis(design_matrix(grid, n))
    walls, cpus = [], []
    for _ in range(CALLS):
        start, start_cpu = time.perf_counter(), time.process_time()
        report = coordinate_descent(Z, seed=0)
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - start_cpu)
    width = Z.shape[1]
    cap = -(-report.sweeps * width // EVALS_PER_CYCLE)
    cycles = [len(trace) - 1 for trace in report.traces]
    bound = snr_upper_bound(Z, Z @ report.best_lambda)
    return (f"| {n} | {width} | {max(cycles)} | {EVALS_PER_CYCLE * sum(cycles)} | "
            f"{sum(c == cap for c in cycles)}/{report.restarts} | {statistics.median(walls) * 1e3:.1f} | "
            f"{statistics.median(cpus) * 1e3:.1f} | "
            f"{report.snr!r} | {bound!r} |")


def main() -> int:
    print("| N | U | cycles | map evaluations | restarts at the cap | wall ms | cpu ms | SNR | snr_upper_bound |")
    print("|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
    for n in SIZES:
        print(row(n))
    return 0


if __name__ == "__main__":
    sys.exit(main())
