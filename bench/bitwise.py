"""Bitwise before/after check of what the solver and the CLI produce: writes BENCH_bitwise.json.

    python bench/bitwise.py --before PATH [--runs 3] [--out BENCH_bitwise.json]

PATH is a checkout of the commit to compare against (the parent, say);
`ab.py` holds the options and the run order.  Each run is a fresh
interpreter that imports `degenpde` from one checkout's `src` and takes the
SHA-256 of each item below, on inputs seeded by the run (seed r + 1): every
file that `degenpde run model_manufactured --seed <seed>` writes; the
values and the step residuals of each member of the benchmark's ensemble_n2
ensemble (20 members, model operator v = 1, n = 2, 33 x 33 nodes, 201
slices over t in [0, 0.5]); and the values, the step residuals and the
`abp_check` report text of both n3_abp solves (random n = 3 coefficients of
the seed, forcing 1, zero data, 33^3 and 49^3 nodes on 17 slices over
[0, 1], the B_eta cube at (0.5, 0, 0, 1) of radius 1, nu = 0.5).  Each run's
row says "equal" or "unequal" per item; an item missing on one side is
unequal.  `all_equal` holds when every item of every run is equal.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

import ab

MEMBERS, ENSEMBLE_NODES, N3_NODES, N3_SLICES = 20, 33, (33, 49), 17


def digest(*arrays) -> str:
    """SHA-256 of the arrays' float64 bytes, in order."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()


def measure(src: str, run: int, work: Path) -> dict:
    """The hashes of one run's items; the CLI's reports land in work/out."""
    sys.path.insert(0, src)
    from degenpde import cli, estimates, solver
    from degenpde.fields import Grid, ScalarField
    from degenpde.geometry import ParabolicCube, Point
    from degenpde.operators import model_coefficients, random_coefficients

    seed = run + 1
    hashes = {}
    out = work / "out"
    if cli.main(["run", "model_manufactured", "--seed", str(seed), "--out", str(out)]) != 0:
        raise RuntimeError("degenpde run model_manufactured did not pass")
    for path in sorted(out.iterdir()):
        hashes[f"cli/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()

    k = ENSEMBLE_NODES
    grid = Grid.uniform((0, 1, k), [(-1, 1, k)], (0, 0.5, 201))
    members = solver.random_positive_solution_ensemble(seed, MEMBERS,
                                                       model_coefficients(1.0, 2), grid)
    for i, u in enumerate(members):
        hashes[f"ensemble_n2/member_{i:02d}/values"] = digest(u.values)
        hashes[f"ensemble_n2/member_{i:02d}/step_residuals"] = digest(u.step_residuals)
    del members

    def constant(value):
        return lambda x, *coords: np.full(np.broadcast(x, *coords).shape, value)

    cube = ParabolicCube("B_eta", Point(0.5, [0, 0], 1.0), 1.0)
    for k in N3_NODES:
        grid = Grid.uniform((0, 1, k), [(-1, 1, k)] * 2, (0, 1, N3_SLICES))
        problem = solver.IVBProblem(coeffs=random_coefficients(seed, 3), forcing=constant(1.0),
                                    initial=constant(0.0), lateral=constant(0.0))
        u = solver.solve_ivbp(problem, grid)
        report = estimates.abp_check(u, ScalarField(grid, np.full(grid.shape, -1.0)), cube, 0.5)
        hashes[f"n3_abp/{k}^3/values"] = digest(u.values)
        hashes[f"n3_abp/{k}^3/step_residuals"] = digest(u.step_residuals)
        hashes[f"n3_abp/{k}^3/abp_report"] = hashlib.sha256(report.to_text().encode()).hexdigest()
        del u
    return {"hashes": hashes}


def compare(run: int, before: dict, after: dict, work: Path) -> dict:
    b, a = before["hashes"], after["hashes"]
    return {"seed": run + 1,
            "items": {name: "equal" if a.get(name) == b.get(name) else "unequal"
                      for name in sorted(set(a) | set(b))}}


def summarize(results: dict, rows: list) -> dict:
    unequal = sorted({name for row in rows for name, verdict in row["items"].items()
                      if verdict == "unequal"})
    return {"all_equal": not unequal, "items_per_run": len(rows[0]["items"]),
            "unequal_items": unequal, "per_run": rows}


if __name__ == "__main__":
    sys.exit(ab.main(__doc__, measure, compare, summarize))
