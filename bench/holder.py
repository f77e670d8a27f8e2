"""Before/after timing of the Hoelder search in a CLI run: writes BENCH_holder.json.

    python bench/holder.py --before PATH [--runs 6] [--out BENCH_holder.json]

PATH is a checkout of the commit to compare against (the parent, say);
`ab.py` holds the options and the run order.  Each run is a fresh
interpreter that imports `degenpde` from one checkout's `src` and does what
one op of the benchmark's cli_model workload does: `degenpde run` on a 33^3
`model_manufactured` spec (manufactured error, Harnack, oscillation and
Schauder checks) with `model:v=<v>` and solution x + v t, once to warm up
and once timed.  Run r uses seed r + 1 and v = (0.25, 1, 4)[r % 3] on both
sides.  `cs_norm_2_alpha` and `holder_seminorm` are timed by wrapping them
where `estimates` looks them up, and the pair-set builds are counted as
calls of `np.random.default_rng` (sampled regions) and `np.triu_indices`
(all-pairs regions) made inside them.  Times are medians over runs; the
accuracy figures travel with them: the largest difference in any value
those two functions return, whether every report file is byte-identical,
and each process's peak resident memory.
"""

from __future__ import annotations

import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import ab

NODES, VELOCITIES = 33, ("0.25", "1", "4")
TIMED = ("cs_norm_2_alpha", "holder_seminorm")
KEYS = ("op_s", "cs_norm_2_alpha_s", "holder_seminorm_s", "cs_norm_2_alpha_calls",
        "holder_seminorm_calls", "pair_set_builds", "peak_rss_mb")

SPEC = """\
[experiment]
name = model_manufactured
seed = {seed}
nu = 0.5
coefficients = model:v={v}

[grid]
s = 0 1 {nodes}
y2 = -1 1 {nodes}
t = 0 1 {nodes}

[problem]
solution = x + {v}*t
forcing = 0

[check manufactured]
type = manufactured_error
tol = 1e-10

[check harnack]
type = harnack_quotient
s0 = 0.5
y0 = 0
t0 = 1.0
rho = 0.4
c_max = 10

[check oscillation]
type = oscillation_decay
s0 = 0.5
y0 = 0
t0 = 1.0
rho = 0.4
levels = 2
theta_max = 0.95

[check schauder]
type = schauder_ratio
r = 0.5
alpha = 0.5
x0 = 0
y0 = 0
t0 = 0.9
"""


def measure(src: str, run: int, work: Path) -> dict:
    """A warm-up op and a timed op; the timed op's reports land in work/out."""
    sys.path.insert(0, src)
    from degenpde import cli, estimates

    seen = {name: [] for name in TIMED}
    values = {name: [] for name in TIMED}
    builds, inside = [0], [False]

    def timed(name):
        original = getattr(estimates, name)

        def wrapper(*args, **kwargs):
            inside[0] = True
            start = perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                inside[0] = False
            seen[name].append(perf_counter() - start)
            values[name].append(out)
            return out
        setattr(estimates, name, wrapper)

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            builds[0] += inside[0]
            return original(*args, **kwargs)
        setattr(module, name, wrapper)

    spec = work / "experiment.spec"
    spec.write_text(SPEC.format(seed=run + 1, v=VELOCITIES[run % len(VELOCITIES)], nodes=NODES))
    if cli.main(["run", str(spec), "--out", str(work / "warmup")]) != 0:
        raise RuntimeError("warm-up op failed")
    for name in TIMED:
        timed(name)
    counted(np.random, "default_rng")
    counted(np, "triu_indices")
    start = perf_counter()
    rc = cli.main(["run", str(spec), "--out", str(work / "out")])
    op_s = perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"timed op exited {rc}")
    return {
        "op_s": op_s,
        "cs_norm_2_alpha_s": sum(seen["cs_norm_2_alpha"]),
        "holder_seminorm_s": sum(seen["holder_seminorm"]),
        "cs_norm_2_alpha_calls": len(seen["cs_norm_2_alpha"]),
        "holder_seminorm_calls": len(seen["holder_seminorm"]),
        "pair_set_builds": builds[0],
        "values": values,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def compare(run: int, before: dict, after: dict, work: Path) -> dict:
    b, a = before["values"], after["values"]
    reports = {side: {p.name: p.read_bytes() for p in sorted((work / side / "out").iterdir())}
               for side in ab.SIDES}
    return {
        "seed": run + 1, "v": float(VELOCITIES[run % len(VELOCITIES)]),
        "values": {name: len(a[name]) for name in TIMED},
        "max_abs_value_diff": max(abs(x - y) for name in TIMED
                                  for x, y in zip(a[name], b[name], strict=True)),
        "values_bitwise_equal": a == b,
        "report_files": len(reports["after"]),
        "report_files_identical": reports["after"] == reports["before"],
    }


def summarize(results: dict, rows: list) -> dict:
    report = {}
    for side, runs in results.items():
        report[side] = {key: statistics.median(run[key] for run in runs) for key in KEYS}
        report[side]["op_s_per_run"] = [run["op_s"] for run in runs]
        report[side]["peak_rss_mb_per_run"] = [run["peak_rss_mb"] for run in runs]
    report["accuracy"] = {
        "max_abs_value_diff": max(row["max_abs_value_diff"] for row in rows),
        "all_values_bitwise_equal": all(row["values_bitwise_equal"] for row in rows),
        "all_report_files_identical": all(row["report_files_identical"] for row in rows),
        "per_seed": rows,
    }
    report["speedup"] = {key: report["before"][key] / report["after"][key]
                         for key in ("op_s", "cs_norm_2_alpha_s", "holder_seminorm_s")}
    return report


if __name__ == "__main__":
    sys.exit(ab.main(__doc__, measure, compare, summarize, runs=6))
