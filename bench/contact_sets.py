"""Before/after timing of the ABP contact sets: writes BENCH_contact_sets.json.

    python bench/contact_sets.py --before PATH [--runs 3] [--out BENCH_contact_sets.json]

PATH is a checkout of the commit to compare against (the parent, say);
`ab.py` holds the options and the run order.  Each run is a fresh
interpreter that imports `degenpde` from one checkout's `src` and does what
one op of the benchmark's n3_abp workload does: for 33^3 and 49^3 nodes and
17 time slices it solves u_t = Lu + 1 with `random_coefficients(seed, 3)`
and zero data, then runs `abp_check` with g = -1 on the cube B_eta(1) based
at (x, y, t) = (0.5, 0, 1).  Run r uses seed r + 1 on both sides.
`contact_sets` is timed by wrapping it; a second, untimed call with the
same arguments under `tracemalloc` gives its traced peak memory.  Times
and peaks are medians over runs; the accuracy figures travel with them: the
lower contact set's node count on both sides, whether its masks and the ABP
report texts are identical, the largest difference between the sides in
each ABP report number, and each process's peak resident memory.  The
summary's `memory_ratio` is before over after for the traced peak at each
size and for the process peak, next to `speedup`.  Only `gamma_minus`, the
set `abp_check` integrates over, is read, so any checkout that has it can be
either side.
"""

from __future__ import annotations

import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

import ab

SIZES = (33, 49)


def measure(src: str, run: int, work: Path) -> dict:
    """One run at seed run + 1 at every size; the masks go to work/masks.npz."""
    sys.path.insert(0, src)
    from degenpde import estimates, solver
    from degenpde.fields import Grid, ScalarField
    from degenpde.geometry import ParabolicCube, Point
    from degenpde.operators import random_coefficients

    contact_sets = estimates.contact_sets
    seen = {"s": 0.0, "masks": None}

    def timed_contact_sets(*args, **kwargs):
        start = perf_counter()
        out = contact_sets(*args, **kwargs)
        seen["s"] += perf_counter() - start
        seen["masks"] = out
        seen["args"] = args, kwargs
        return out

    estimates.contact_sets = timed_contact_sets

    def const(value):
        return lambda x, *coords: np.full(np.broadcast(x, *coords).shape, value)

    result, masks = {}, {}
    cube = ParabolicCube("B_eta", Point(0.5, [0, 0], 1.0), 1.0)
    for k in SIZES:
        grid = Grid.uniform((0, 1, k), [(-1, 1, k), (-1, 1, k)], (0, 1, 17))
        problem = solver.IVBProblem(coeffs=random_coefficients(run + 1, 3), forcing=const(1.0),
                                    initial=const(0.0), lateral=const(0.0))
        seen["s"] = 0.0
        start = perf_counter()
        u = solver.solve_ivbp(problem, grid)
        solved = perf_counter()
        report = estimates.abp_check(u, ScalarField(grid, np.full(grid.shape, -1.0)), cube, 0.5)
        done = perf_counter()
        contact = seen["masks"]
        args, kwargs = seen["args"]
        tracemalloc.start()
        try:
            contact_sets(*args, **kwargs)
            traced_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result[str(k)] = {
            "op_s": done - start, "solve_s": solved - start, "abp_s": done - solved,
            "contact_sets_s": seen["s"],
            "contact_sets_peak_mb": traced_peak / 2 ** 20,
            "gamma_minus_nodes": int(contact.gamma_minus.sum()),
            "abp_text": report.to_text(),
            "abp_numbers": {key: float(val) for key, val in
                            [("lhs", report.lhs), ("measured_constant", report.measured_constant),
                             *report.rhs_components.items(), *report.margins.items()]},
        }
        masks[f"minus{k}"] = contact.gamma_minus
    np.savez(work / "masks.npz", **masks)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def compare(run: int, before: dict, after: dict, work: Path) -> list:
    """One row per size."""
    masks = {side: np.load(work / side / "masks.npz") for side in ab.SIDES}
    rows = []
    for k in map(str, SIZES):
        b, a = before[k], after[k]
        rows.append({
            "seed": run + 1, "nodes": int(k),
            "masks_identical": np.array_equal(masks["before"][f"minus{k}"],
                                              masks["after"][f"minus{k}"]),
            "abp_text_identical": a["abp_text"] == b["abp_text"],
            "gamma_minus_nodes": [b["gamma_minus_nodes"], a["gamma_minus_nodes"]],
            "abp_max_abs_diff": {key: 0.0 if a["abp_numbers"][key] == val
                                 else abs(a["abp_numbers"][key] - val)
                                 for key, val in b["abp_numbers"].items()},
        })
    return rows


def summarize(results: dict, rows: list) -> dict:
    report = {}
    for side, runs in results.items():
        report[side] = {k: {key: statistics.median(run[k][key] for run in runs) for key in
                            ("op_s", "solve_s", "abp_s", "contact_sets_s", "contact_sets_peak_mb")}
                        for k in map(str, SIZES)}
        report[side]["op_s"] = statistics.median(sum(run[k]["op_s"] for k in map(str, SIZES))
                                                 for run in runs)
        report[side]["peak_rss_mb"] = statistics.median(run["peak_rss_mb"] for run in runs)
    per_seed = [row for run_rows in rows for row in run_rows]
    report["accuracy"] = {
        "all_masks_identical": all(row["masks_identical"] for row in per_seed),
        "all_abp_texts_identical": all(row["abp_text_identical"] for row in per_seed),
        "abp_max_abs_diff": max(max(row["abp_max_abs_diff"].values()) for row in per_seed),
        "per_seed": per_seed,
    }
    report["speedup"] = {
        k: report["before"][k]["contact_sets_s"] / report["after"][k]["contact_sets_s"]
        for k in map(str, SIZES)}
    report["speedup"]["op_s"] = report["before"]["op_s"] / report["after"]["op_s"]
    report["memory_ratio"] = {
        k: report["before"][k]["contact_sets_peak_mb"] / report["after"][k]["contact_sets_peak_mb"]
        for k in map(str, SIZES)}
    report["memory_ratio"]["peak_rss_mb"] = (report["before"]["peak_rss_mb"]
                                             / report["after"]["peak_rss_mb"])
    return report


if __name__ == "__main__":
    sys.exit(ab.main(__doc__, measure, compare, summarize))
