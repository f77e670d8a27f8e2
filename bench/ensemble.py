"""Before/after timing of the random solution ensemble: writes BENCH_ensemble.json.

    python bench/ensemble.py --before PATH [--runs 5] [--out BENCH_ensemble.json]

PATH is a checkout of the commit to compare against (the parent, say);
`ab.py` holds the options and the run order.  Each run is a fresh
interpreter that imports `degenpde` from one checkout's `src` and does what
one op of the benchmark's ensemble_n2 workload does: a 20-member
`random_positive_solution_ensemble` of the model operator (v = 1, n = 2) on
33 x 33 nodes and t = linspace(0, 0.5, 201), then `harnack_quotient` at
rho = 0.1, 0.2, 0.4 and `oscillation_decay` on every member.  Run r uses
seed r + 1 on both sides.  Step-matrix assemblies, LU factorizations, step
solves and coefficient validations are counted by wrapping
`solver.assemble_step_matrix`, `solver.splu`, `StepMatrix.solve` and
`solver.validate_coefficients`, and the march's data reads are counted
(`data_evals`) and timed (`data_eval_s`) by wrapping `solver._eval_spatial`.
`lu_solves` counts `StepMatrix.solve` calls: a march that solves for all
members in one call makes 200 per op, one that solves member by member
4000.  `lu_solve_s` is the time inside those calls, and `march_other_s` =
`ensemble_s` - `lu_solve_s` is the rest of the ensemble: validation,
assembly and factorization, data reads and the march's own bookkeeping.
`data_evals` is 2 per member when the march reads each member's initial
and lateral data once, 202 per member when it evaluates the lateral data
again at each of the 200 steps.  Times are medians over runs; the
accuracy figures travel with them: the largest |u_after - u_before| over
every member's space-time grid, the largest step residual, whether the
Harnack and oscillation report texts are identical, and each process's
peak resident memory.
"""

from __future__ import annotations

import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import ab

MEMBERS, NODES, HARNACK_RADII = 20, 33, (0.1, 0.2, 0.4)
COUNTED = ("assemble_step_matrix", "splu", "validate_coefficients")
KEYS = ("op_s", "ensemble_s", "lu_solve_s", "march_other_s", "estimates_s", "data_eval_s",
        "data_evals", "assemblies", "factorizations", "lu_solves", "validations",
        "residual_max", "peak_rss_mb")


def measure(src: str, run: int, work: Path) -> dict:
    """One op at seed run + 1; the members' values go to work/values.npz."""
    sys.path.insert(0, src)
    from degenpde import estimates, solver
    from degenpde.fields import Grid
    from degenpde.operators import model_coefficients

    seen = {name: 0 for name in COUNTED + ("solve", "data_evals")}
    seen["data_eval_s"] = seen["lu_solve_s"] = 0.0

    def counted(name):
        original = getattr(solver, name)

        def wrapper(*args, **kwargs):
            seen[name] += 1
            return original(*args, **kwargs)
        setattr(solver, name, wrapper)

    for name in COUNTED:
        counted(name)
    solve, eval_spatial = solver.StepMatrix.solve, solver._eval_spatial

    def counted_solve(self, rhs, x0):
        start = perf_counter()
        out = solve(self, rhs, x0)
        seen["lu_solve_s"] += perf_counter() - start
        seen["solve"] += 1
        return out

    def timed_eval(*args, **kwargs):
        start = perf_counter()
        out = eval_spatial(*args, **kwargs)
        seen["data_eval_s"] += perf_counter() - start
        seen["data_evals"] += 1
        return out

    solver.StepMatrix.solve, solver._eval_spatial = counted_solve, timed_eval

    grid = Grid.uniform((0, 1, NODES), [(-1, 1, NODES)], (0, 0.5, 201))
    start = perf_counter()
    members = solver.random_positive_solution_ensemble(
        run + 1, MEMBERS, model_coefficients(1.0, 2), grid)
    solved = perf_counter()
    texts = []
    for u in members:
        for rho in HARNACK_RADII:
            texts.append(estimates.harnack_quotient(u, None, 0.5, [0.0], 0.5, rho, 0.5).to_text())
        texts.append(estimates.oscillation_decay(u, (0.5, [0.0], 0.5), 0.4, 2, None, 0.5).to_text())
    done = perf_counter()
    np.savez(work / "values.npz", *(u.values for u in members))
    return {
        "op_s": done - start, "ensemble_s": solved - start, "estimates_s": done - solved,
        "lu_solve_s": seen["lu_solve_s"], "march_other_s": solved - start - seen["lu_solve_s"],
        "data_eval_s": seen["data_eval_s"], "data_evals": seen["data_evals"],
        "assemblies": seen["assemble_step_matrix"], "factorizations": seen["splu"],
        "lu_solves": seen["solve"], "validations": seen["validate_coefficients"],
        "residual_max": max(max(u.step_residuals) for u in members),
        "texts": texts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def compare(run: int, before: dict, after: dict, work: Path) -> dict:
    b, a = (np.load(work / side / "values.npz") for side in ab.SIDES)
    return {
        "seed": run + 1,
        "max_abs_du": max(float(np.max(np.abs(a[key] - b[key]))) for key in b.files),
        "values_bitwise_equal": all(np.array_equal(a[key], b[key]) for key in b.files),
        "residual_max": [before["residual_max"], after["residual_max"]],
        "report_texts_identical": after["texts"] == before["texts"],
    }


def summarize(results: dict, rows: list) -> dict:
    report = {}
    for side, runs in results.items():
        report[side] = {key: statistics.median(run[key] for run in runs) for key in KEYS}
        report[side]["op_s_per_run"] = [run["op_s"] for run in runs]
        report[side]["peak_rss_mb_per_run"] = [run["peak_rss_mb"] for run in runs]
    report["accuracy"] = {
        "max_abs_du": max(row["max_abs_du"] for row in rows),
        "all_values_bitwise_equal": all(row["values_bitwise_equal"] for row in rows),
        "all_report_texts_identical": all(row["report_texts_identical"] for row in rows),
        "residual_max": max(max(row["residual_max"]) for row in rows),
        "per_seed": rows,
    }
    report["speedup"] = {key: report["before"][key] / report["after"][key]
                         for key in ("op_s", "ensemble_s", "march_other_s", "estimates_s",
                                     "data_eval_s")}
    return report


if __name__ == "__main__":
    sys.exit(ab.main(__doc__, measure, compare, summarize, runs=5))
