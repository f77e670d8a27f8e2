"""Before/after memory of the n = 3 step assembly and ABP check: writes BENCH_working_set.json.

    python bench/working_set.py --before PATH [--runs 5] [--out BENCH_working_set.json]

PATH is a checkout of the commit to compare against (the parent, say);
`ab.py` holds the options and the run order.  Each run is a fresh
interpreter that imports `degenpde` from one checkout's `src`.  First it
does what one op of the benchmark's n3_abp workload does: for 33^3 and 49^3
nodes and 17 time slices it solves u_t = Lu + 1 with
`random_coefficients(seed, 3)` and zero data, then runs `abp_check` with
g = -1 on the cube B_eta(1) based at (x, y, t) = (0.5, 0, 1); the process
peak resident memory is read after it.  Then, per size, `operator_matrix`
at t = 1 and `assemble_step_matrix` with dt = 1/16 (the solve's step) are
timed, and each of `operator_matrix`, `assemble_step_matrix`, `solve_ivbp`
and `abp_check` is called once more under `tracemalloc` for its traced
peak.  Run r uses seed r + 1 on both sides.  Times and peaks are medians
over runs; the accuracy figures travel with them: SHA-256 digests of the
step matrix's arrays and flags, of the solved field and of its step
residuals, and the ABP report text, each compared between the sides.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

import ab

SIZES = (33, 49)
LAYERS = ("operator_matrix", "assemble_step_matrix", "solve_ivbp", "abp_check")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def timed_s(call) -> float:
    start = perf_counter()
    call()
    return perf_counter() - start


def measure(src: str, run: int, work: Path) -> dict:
    """One run at seed run + 1 at every size."""
    sys.path.insert(0, src)
    from degenpde import estimates, solver
    from degenpde.fields import Grid, ScalarField
    from degenpde.geometry import ParabolicCube, Point
    from degenpde.operators import operator_matrix, random_coefficients

    def const(value):
        return lambda x, *coords: np.full(np.broadcast(x, *coords).shape, value)

    cube = ParabolicCube("B_eta", Point(0.5, [0, 0], 1.0), 1.0)
    cases = {}
    for k in SIZES:
        grid = Grid.uniform((0, 1, k), [(-1, 1, k), (-1, 1, k)], (0, 1, 17))
        problem = solver.IVBProblem(coeffs=random_coefficients(run + 1, 3), forcing=const(1.0),
                                    initial=const(0.0), lateral=const(0.0))
        cases[k] = grid, problem, ScalarField(grid, np.full(grid.shape, -1.0))

    result = {}
    for k, (grid, problem, g) in cases.items():
        start = perf_counter()
        u = solver.solve_ivbp(problem, grid)
        solved = perf_counter()
        report = estimates.abp_check(u, g, cube, 0.5)
        result[str(k)] = {"solve_ivbp_s": solved - start, "abp_check_s": perf_counter() - solved,
                          "solution_sha256": digest(u.values),
                          "residuals_sha256": digest(np.array(u.step_residuals)),
                          "abp_text": report.to_text()}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for k, (grid, problem, g) in cases.items():
        out = result[str(k)]
        step = solver.assemble_step_matrix(problem, grid, 1 / 16, 1.0)
        out["step_matrix_sha256"] = digest(step.A.data, step.A.indices, step.A.indptr,
                                           np.array([step.diagonally_dominant,
                                                     step.max_positive_offdiag]))
        del step
        calls = {
            "operator_matrix": lambda: operator_matrix(problem.coeffs, grid, 1.0),
            "assemble_step_matrix": lambda: solver.assemble_step_matrix(problem, grid, 1 / 16,
                                                                        1.0),
        }
        for name, call in calls.items():
            out[f"{name}_s"] = timed_s(call)
        u = solver.solve_ivbp(problem, grid)
        calls["solve_ivbp"] = lambda: solver.solve_ivbp(problem, grid)
        calls["abp_check"] = lambda: estimates.abp_check(u, g, cube, 0.5)
        for name, call in calls.items():
            out[f"{name}_peak_mb"] = traced_peak_mb(call)
    return result


def compare(run: int, before: dict, after: dict, work: Path) -> list:
    """One row per size."""
    rows = []
    for k in map(str, SIZES):
        b, a = before[k], after[k]
        rows.append({"seed": run + 1, "nodes": int(k),
                     **{f"{key}_identical": a[key] == b[key] for key in
                        ("step_matrix_sha256", "solution_sha256", "residuals_sha256",
                         "abp_text")}})
    return rows


def summarize(results: dict, rows: list) -> dict:
    keys = [f"{layer}_{unit}" for layer in LAYERS for unit in ("s", "peak_mb")]
    report = {}
    for side, runs in results.items():
        report[side] = {k: {key: statistics.median(run[k][key] for run in runs) for key in keys}
                        for k in map(str, SIZES)}
        report[side]["peak_rss_mb"] = statistics.median(run["peak_rss_mb"] for run in runs)
    per_seed = [row for run_rows in rows for row in run_rows]
    report["accuracy"] = {
        f"all_{key}": all(row[key] for row in per_seed)
        for key in ("step_matrix_sha256_identical", "solution_sha256_identical",
                    "residuals_sha256_identical", "abp_text_identical")}
    report["accuracy"]["per_seed"] = per_seed
    report["memory_ratio"] = {
        k: {layer: report["before"][k][f"{layer}_peak_mb"] / report["after"][k][f"{layer}_peak_mb"]
            for layer in LAYERS}
        for k in map(str, SIZES)}
    report["memory_ratio"]["peak_rss_mb"] = (report["before"]["peak_rss_mb"]
                                             / report["after"]["peak_rss_mb"])
    report["speedup"] = {
        k: {layer: report["before"][k][f"{layer}_s"] / report["after"][k][f"{layer}_s"]
            for layer in LAYERS}
        for k in map(str, SIZES)}
    return report


if __name__ == "__main__":
    sys.exit(ab.main(__doc__, measure, compare, summarize, runs=5))
