"""Before/after timing of the n >= 3 step solve: writes BENCH_fastdiag.json.

    python bench/fastdiag.py --before PATH [--runs 3] [--out BENCH_fastdiag.json]

PATH is a checkout of the commit to compare against (the parent, say);
"after" is the checkout holding this script.  Each run is a fresh
interpreter that imports `degenpde` from one checkout's `src` and solves
u_t = Lu + 1 with `random_coefficients(7, 3)`, zero data, 33^3, 49^3 and
65^3 nodes and 17 time slices (dt = 1/16).  Runs alternate between the two
sides.  A full solve is one `solve_ivbp`; a step solve is one
`StepMatrix.solve`, timed by wrapping it; Krylov iterations are counted
through the `callback` of the module-level `solver.bicgstab`.  Times are
medians over runs (step solves: over every step of every run); the accuracy
figures (Krylov iterations per step, max step residual, and
max |u_after - u_before| over the space-time grid) travel with them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SIZES = (33, 49, 65)


def measure(src: str, dump: str) -> dict:
    """One run on every size; the solutions go to the npz file `dump`."""
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
    np.savez(dump, **fields)
    return result


def source_sha256(checkout: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "degenpde").rglob("*.py")):
        digest.update(path.relative_to(checkout).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_rev(checkout: Path) -> str | None:
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def summarize(runs: list[dict]) -> dict:
    out = {}
    for k in map(str, SIZES):
        iters = [n for run in runs for n in run[k]["iterations"]]
        out[k] = {
            "full_solve_s": statistics.median(run[k]["full_solve_s"] for run in runs),
            "step_solve_s": statistics.median(t for run in runs for t in run[k]["step_solve_s"]),
            "steps_per_solve": len(runs[0][k]["step_solve_s"]),
            "iterations_per_step": {"median": statistics.median(iters), "max": max(iters)},
            "residual_max": max(run[k]["residual_max"] for run in runs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, help="checkout to compare against")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_fastdiag.json")
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.dump)))
        return 0
    if args.before is None or args.runs < 1:
        parser.error("--before is required and --runs must be >= 1")

    sides = {"before": args.before.resolve(), "after": ROOT}
    runs = {"before": [], "after": []}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(args.runs):
            order = ("before", "after") if r % 2 == 0 else ("after", "before")
            for side in order:
                dump = os.path.join(tmp, f"{side}.npz")
                done = subprocess.run([sys.executable, __file__, "--measure",
                                       str(sides[side] / "src"), "--dump", dump],
                                      capture_output=True, text=True, check=True)
                runs[side].append(json.loads(done.stdout))
        before = np.load(os.path.join(tmp, "before.npz"))
        after = np.load(os.path.join(tmp, "after.npz"))
        du = {k: float(np.max(np.abs(after[k] - before[k]))) for k in before.files}

    report = {
        "about": __doc__.split("\n\n")[2].replace("\n", " ").strip(),
        "problem": "random_coefficients(7, 3), forcing 1, zero data, y in [-1, 1]^2, "
                   "s in [0, 1], t in [0, 1] with 17 slices (dt = 1/16)",
        "runs_per_side": args.runs,
        "platform": {"nproc": os.cpu_count(), "python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "revisions": {side: {"git": git_rev(path), "source_sha256": source_sha256(path)}
                      for side, path in sides.items()},
        "before": summarize(runs["before"]),
        "after": summarize(runs["after"]),
        "max_abs_du": du,
    }
    report["speedup"] = {
        k: {metric: report["before"][k][metric] / report["after"][k][metric]
            for metric in ("full_solve_s", "step_solve_s")}
        for k in map(str, SIZES)}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
