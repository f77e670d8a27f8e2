"""Before/after timing of the n >= 3 step solve: writes BENCH_fastdiag.json.

    python bench/fastdiag.py --before PATH [--runs 3] [--out BENCH_fastdiag.json]

PATH is a checkout of the commit to compare against (the parent, say);
`ab.py` holds the options and the run order.  Each run is a fresh
interpreter that imports `degenpde` from one checkout's `src` and solves
u_t = Lu + 1 with `random_coefficients(7, 3)`, zero data, 33^3, 49^3 and
65^3 nodes and 17 time slices (dt = 1/16).  A full solve is one
`solve_ivbp`; a step solve is one `StepMatrix.solve`, timed by wrapping it;
Krylov iterations are counted through the `callback` of the module-level
`solver.bicgstab`.  Times are medians over runs (step solves: over every
step of every run); the accuracy figures (Krylov iterations per step, max
step residual, max |u_after - u_before| over the space-time grid, and
whether the solutions are bitwise equal) travel with them.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import ab

SIZES = (33, 49, 65)


def measure(src: str, run: int, work: Path) -> dict:
    """One run on every size; the solutions go to work/values.npz."""
    sys.path.insert(0, src)
    from degenpde import solver
    from degenpde.fields import Grid
    from degenpde.operators import random_coefficients

    step_times, iters = [], []
    solve, krylov = solver.StepMatrix.solve, solver.bicgstab

    def timed_solve(self, rhs, x0):
        start = perf_counter()
        out = solve(self, rhs, x0)
        step_times.append(perf_counter() - start)
        return out

    def counting_krylov(*args, callback=None, **kwargs):
        iters.append(0)

        def count(xk):
            iters[-1] += 1
        return krylov(*args, callback=count, **kwargs)

    solver.StepMatrix.solve = timed_solve
    solver.bicgstab = counting_krylov

    def const(value):
        return lambda x, *coords: np.full(np.broadcast(x, *coords).shape, value)

    result, fields = {}, {}
    for k in SIZES:
        grid = Grid.uniform((0, 1, k), [(-1, 1, k), (-1, 1, k)], (0, 1, 17))
        problem = solver.IVBProblem(coeffs=random_coefficients(7, 3), forcing=const(1.0),
                                    initial=const(0.0), lateral=const(0.0))
        step_times.clear()
        iters.clear()
        start = perf_counter()
        u = solver.solve_ivbp(problem, grid)
        result[str(k)] = {"full_solve_s": perf_counter() - start,
                          "step_solve_s": list(step_times),
                          "iterations": list(iters),
                          "residual_max": max(u.step_residuals)}
        fields[str(k)] = u.values
    np.savez(work / "values.npz", **fields)
    return result


def compare(run: int, before: dict, after: dict, work: Path) -> dict:
    b, a = (np.load(work / side / "values.npz") for side in ab.SIDES)
    return {"max_abs_du": {k: float(np.max(np.abs(a[k] - b[k]))) for k in b.files},
            "bitwise_equal": all(np.array_equal(a[k], b[k]) for k in b.files)}


def summarize(results: dict, rows: list) -> dict:
    report = {"problem": "random_coefficients(7, 3), forcing 1, zero data, y in [-1, 1]^2, "
                         "s in [0, 1], t in [0, 1] with 17 slices (dt = 1/16)"}
    for side, runs in results.items():
        report[side] = {}
        for k in map(str, SIZES):
            iters = [n for run in runs for n in run[k]["iterations"]]
            report[side][k] = {
                "full_solve_s": statistics.median(run[k]["full_solve_s"] for run in runs),
                "step_solve_s": statistics.median(t for run in runs
                                                  for t in run[k]["step_solve_s"]),
                "steps_per_solve": len(runs[0][k]["step_solve_s"]),
                "iterations_per_step": {"median": statistics.median(iters), "max": max(iters)},
                "residual_max": max(run[k]["residual_max"] for run in runs),
            }
    report["max_abs_du"] = {k: max(row["max_abs_du"][k] for row in rows)
                            for k in map(str, SIZES)}
    report["all_values_bitwise_equal"] = all(row["bitwise_equal"] for row in rows)
    report["speedup"] = {
        k: {metric: report["before"][k][metric] / report["after"][k][metric]
            for metric in ("full_solve_s", "step_solve_s")}
        for k in map(str, SIZES)}
    return report


if __name__ == "__main__":
    sys.exit(ab.main(__doc__, measure, compare, summarize))
