"""Before/after timing of the ABP contact sets: writes BENCH_contact_sets.json.

    python bench/contact_sets.py --before PATH [--runs 3] [--out BENCH_contact_sets.json]

PATH is a checkout of the commit to compare against (the parent, say);
"after" is the checkout holding this script.  Each run is a fresh
interpreter that imports `degenpde` from one checkout's `src` and does what
one op of the benchmark's n3_abp workload does: for 33^3 and 49^3 nodes and
17 time slices it solves u_t = Lu + 1 with `random_coefficients(seed, 3)`
and zero data, then runs `abp_check` with g = -1 on the cube B_eta(1) based
at (x, y, t) = (0.5, 0, 1).  Run r uses seed r + 1 on both sides, and runs
alternate between the sides.  `contact_sets` is timed by wrapping it, and
the matrices it hands to `np.linalg.eigvalsh` are counted the same way.
Times are medians over runs; the accuracy figures travel with them: the
contact-set node counts of both sides, whether the masks and the ABP
report texts are identical, the largest difference between the sides in
each ABP report number, and each process's peak resident memory.
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
SIZES = (33, 49)


def measure(src: str, seed: int, dump: str) -> dict:
    """One run at every size; the contact-set masks go to the npz file `dump`."""
    sys.path.insert(0, src)
    from degenpde import estimates, solver
    from degenpde.fields import Grid, ScalarField
    from degenpde.geometry import ParabolicCube, Point
    from degenpde.operators import random_coefficients

    contact_sets, eigvalsh = estimates.contact_sets, np.linalg.eigvalsh
    seen = {"s": 0.0, "eig_nodes": 0, "inside": False, "masks": None}

    def timed_contact_sets(*args, **kwargs):
        start = perf_counter()
        seen["inside"] = True
        try:
            out = contact_sets(*args, **kwargs)
        finally:
            seen["inside"] = False
        seen["s"] += perf_counter() - start
        seen["masks"] = out
        return out

    def counting_eigvalsh(a, *args, **kwargs):
        if seen["inside"]:
            seen["eig_nodes"] += len(a)
        return eigvalsh(a, *args, **kwargs)

    estimates.contact_sets = timed_contact_sets
    np.linalg.eigvalsh = counting_eigvalsh

    def const(value):
        return lambda x, *coords: np.full(np.broadcast(x, *coords).shape, value)

    result, masks = {}, {}
    cube = ParabolicCube("B_eta", Point(0.5, [0, 0], 1.0), 1.0)
    for k in SIZES:
        grid = Grid.uniform((0, 1, k), [(-1, 1, k), (-1, 1, k)], (0, 1, 17))
        problem = solver.IVBProblem(coeffs=random_coefficients(seed, 3), forcing=const(1.0),
                                    initial=const(0.0), lateral=const(0.0))
        seen.update(s=0.0, eig_nodes=0)
        start = perf_counter()
        u = solver.solve_ivbp(problem, grid)
        solved = perf_counter()
        report = estimates.abp_check(u, ScalarField(grid, np.full(grid.shape, -1.0)), cube, 0.5)
        done = perf_counter()
        contact = seen["masks"]
        result[str(k)] = {
            "op_s": done - start, "solve_s": solved - start, "abp_s": done - solved,
            "contact_sets_s": seen["s"], "eigvalsh_nodes": seen["eig_nodes"],
            "gamma_plus_nodes": int(contact.gamma_plus.sum()),
            "gamma_minus_nodes": int(contact.gamma_minus.sum()),
            "abp_text": report.to_text(),
            "abp_numbers": {key: float(val) for key, val in
                            [("lhs", report.lhs), ("measured_constant", report.measured_constant),
                             *report.rhs_components.items(), *report.margins.items()]},
        }
        masks[f"plus{k}"], masks[f"minus{k}"] = contact.gamma_plus, contact.gamma_minus
    np.savez(dump, **masks)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def summarize(runs: list[dict]) -> dict:
    def median(key, k):
        return statistics.median(run[k][key] for run in runs)

    out = {k: {key: median(key, k) for key in
               ("op_s", "solve_s", "abp_s", "contact_sets_s", "eigvalsh_nodes")}
           for k in map(str, SIZES)}
    out["op_s"] = statistics.median(sum(run[k]["op_s"] for k in map(str, SIZES)) for run in runs)
    out["peak_rss_mb"] = statistics.median(run["peak_rss_mb"] for run in runs)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, help="checkout to compare against")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_contact_sets.json")
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
            for k in map(str, SIZES):
                b, a = runs["before"][-1][k], runs["after"][-1][k]
                per_seed.append({
                    "seed": seed, "nodes": int(k),
                    "masks_identical": all(np.array_equal(before[f"{m}{k}"], after[f"{m}{k}"])
                                           for m in ("plus", "minus")),
                    "abp_text_identical": a["abp_text"] == b["abp_text"],
                    "gamma_plus_nodes": [b["gamma_plus_nodes"], a["gamma_plus_nodes"]],
                    "gamma_minus_nodes": [b["gamma_minus_nodes"], a["gamma_minus_nodes"]],
                    "eigvalsh_nodes": [b["eigvalsh_nodes"], a["eigvalsh_nodes"]],
                    "abp_max_abs_diff": {key: 0.0 if a["abp_numbers"][key] == val
                                         else abs(a["abp_numbers"][key] - val)
                                         for key, val in b["abp_numbers"].items()},
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
            "all_masks_identical": all(row["masks_identical"] for row in per_seed),
            "all_abp_texts_identical": all(row["abp_text_identical"] for row in per_seed),
            "abp_max_abs_diff": max(max(row["abp_max_abs_diff"].values()) for row in per_seed),
            "per_seed": per_seed,
        },
    }
    report["speedup"] = {
        k: report["before"][k]["contact_sets_s"] / report["after"][k]["contact_sets_s"]
        for k in map(str, SIZES)}
    report["speedup"]["op_s"] = report["before"]["op_s"] / report["after"]["op_s"]
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
