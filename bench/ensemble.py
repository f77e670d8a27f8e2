"""Before/after timing of the random solution ensemble: writes BENCH_ensemble.json.

    python bench/ensemble.py --before PATH [--runs 5] [--out BENCH_ensemble.json]

PATH is a checkout of the commit to compare against (the parent, say);
"after" is the checkout holding this script.  Each run is a fresh
interpreter that imports `degenpde` from one checkout's `src` and does what
one op of the benchmark's ensemble_n2 workload does: a 20-member
`random_positive_solution_ensemble` of the model operator (v = 1, n = 2) on
33 x 33 nodes and t = linspace(0, 0.5, 201), then `harnack_quotient` at
rho = 0.1, 0.2, 0.4 and `oscillation_decay` on every member.  Run r uses
seed r + 1 on both sides, and runs alternate between the sides.  Step-matrix
assemblies, LU factorizations, step solves and coefficient validations are
counted by wrapping `solver.assemble_step_matrix`, `solver.splu`,
`StepMatrix.solve` and `solver.validate_coefficients`, and data evaluation
is timed by wrapping `solver._eval_spatial`.  Times are medians over runs;
the accuracy figures travel with them: the largest |u_after - u_before| over
every member's space-time grid, the largest step residual, whether the
Harnack and oscillation report texts are identical, and each process's
peak resident memory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
from fastdiag import git_rev, source_sha256

ROOT = Path(__file__).resolve().parent.parent
MEMBERS, NODES, HARNACK_RADII = 20, 33, (0.1, 0.2, 0.4)
COUNTED = ("assemble_step_matrix", "splu", "validate_coefficients")


def measure(src: str, seed: int, dump: str) -> dict:
    """One op; the members' values go to the npz file `dump`."""
    sys.path.insert(0, src)
    from degenpde import estimates, solver
    from degenpde.fields import Grid
    from degenpde.operators import model_coefficients

    seen = {name: 0 for name in COUNTED + ("solve",)}
    seen["data_eval_s"] = 0.0

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
        seen["solve"] += 1
        return solve(self, rhs, x0)

    def timed_eval(*args, **kwargs):
        start = perf_counter()
        out = eval_spatial(*args, **kwargs)
        seen["data_eval_s"] += perf_counter() - start
        return out

    solver.StepMatrix.solve, solver._eval_spatial = counted_solve, timed_eval

    grid = Grid.uniform((0, 1, NODES), [(-1, 1, NODES)], (0, 0.5, 201))
    start = perf_counter()
    members = solver.random_positive_solution_ensemble(
        seed, MEMBERS, model_coefficients(1.0, 2), grid)
    solved = perf_counter()
    texts = []
    for u in members:
        for rho in HARNACK_RADII:
            texts.append(estimates.harnack_quotient(u, None, 0.5, [0.0], 0.5, rho, 0.5).to_text())
        texts.append(estimates.oscillation_decay(u, (0.5, [0.0], 0.5), 0.4, 2, None, 0.5).to_text())
    done = perf_counter()
    np.savez(dump, *(u.values for u in members))
    return {
        "op_s": done - start, "ensemble_s": solved - start, "estimates_s": done - solved,
        "data_eval_s": seen["data_eval_s"],
        "assemblies": seen["assemble_step_matrix"], "factorizations": seen["splu"],
        "lu_solves": seen["solve"], "validations": seen["validate_coefficients"],
        "residual_max": max(max(u.step_residuals) for u in members),
        "texts": texts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


KEYS = ("op_s", "ensemble_s", "estimates_s", "data_eval_s", "assemblies",
        "factorizations", "lu_solves", "validations", "residual_max", "peak_rss_mb")


def summarize(runs: list[dict]) -> dict:
    out = {key: statistics.median(run[key] for run in runs) for key in KEYS}
    out["op_s_per_run"] = [run["op_s"] for run in runs]
    out["peak_rss_mb_per_run"] = [run["peak_rss_mb"] for run in runs]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, help="checkout to compare against")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_ensemble.json")
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.seed, args.dump)))
        return 0
    if args.before is None or args.runs < 1:
        parser.error("--before is required and --runs must be >= 1")

    sides = {"before": args.before.resolve(), "after": ROOT}
    runs = {"before": [], "after": []}
    per_seed = []
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(args.runs):
            seed = r + 1
            order = ("before", "after") if r % 2 == 0 else ("after", "before")
            for side in order:
                dump = os.path.join(tmp, f"{side}.npz")
                done = subprocess.run([sys.executable, __file__, "--measure",
                                       str(sides[side] / "src"), "--seed", str(seed),
                                       "--dump", dump],
                                      capture_output=True, text=True, check=True)
                runs[side].append(json.loads(done.stdout))
            before = np.load(os.path.join(tmp, "before.npz"))
            after = np.load(os.path.join(tmp, "after.npz"))
            b, a = runs["before"][-1], runs["after"][-1]
            per_seed.append({
                "seed": seed,
                "max_abs_du": max(float(np.max(np.abs(after[key] - before[key])))
                                  for key in before.files),
                "values_bitwise_equal": all(np.array_equal(after[key], before[key])
                                            for key in before.files),
                "residual_max": [b["residual_max"], a["residual_max"]],
                "report_texts_identical": a["texts"] == b["texts"],
            })

    report = {
        "about": __doc__.split("\n\n")[2].replace("\n", " ").strip(),
        "runs_per_side": args.runs,
        "platform": {"nproc": os.cpu_count(), "python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "revisions": {side: {"git": git_rev(path), "source_sha256": source_sha256(path)}
                      for side, path in sides.items()},
        "before": summarize(runs["before"]),
        "after": summarize(runs["after"]),
        "accuracy": {
            "max_abs_du": max(row["max_abs_du"] for row in per_seed),
            "all_values_bitwise_equal": all(row["values_bitwise_equal"] for row in per_seed),
            "all_report_texts_identical": all(row["report_texts_identical"] for row in per_seed),
            "residual_max": max(max(row["residual_max"]) for row in per_seed),
            "per_seed": per_seed,
        },
    }
    report["speedup"] = {key: report["before"][key] / report["after"][key]
                         for key in ("op_s", "ensemble_s", "data_eval_s")}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
