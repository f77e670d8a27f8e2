"""Before/after timing of the Hoelder search in a CLI run: writes BENCH_holder.json.

    python bench/holder.py --before PATH [--runs 6] [--out BENCH_holder.json]

PATH is a checkout of the commit to compare against (the parent, say);
`ab.py` holds the options and the run order.  Each run is a fresh
interpreter that imports `degenpde` from one checkout's `src` and does what
one op of the benchmark's cli_model workload does: `degenpde run` on a 33^3
`model_manufactured` spec (manufactured error, Harnack, oscillation and
Schauder checks) with `model:v=<v>` and solution x + v t, once to warm up
and once timed.  Run r uses seed r + 1 and v = (0.25, 1, 4)[r % 3] on both
sides.  The Hoelder kernel is timed by wrapping it where `fields` and
`estimates` look it up: `_ratio_maxes`, which draws a region's pairs and
walks them for every field, or, in a checkout that predates it, the pair-set
build `_region_pairs` plus the field pass, `_ratio_maxes` (one pass for
many fields) or `_ratio_max` (one pass per field), summed;
`cs_norm_2_alpha` is timed the same way.  After the timed op has read the
process's peak resident memory, a third op runs under `tracemalloc`, and
the kernel's traced peak is the largest rise of the traced memory above
what was in use at the start of one of its calls (in a checkout that
builds the pair set apart, a pass's rise leaves out the pair set it was
given).  Times and peaks are medians over runs; the accuracy figures
travel with them: the largest difference in any per-field maximum the
kernel returns or any `cs_norm_2_alpha` value, and whether every report
file is byte-identical.
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

NODES, VELOCITIES = 33, ("0.25", "1", "4")
VALUES = ("cs_norm_2_alpha", "ratio_max")
KEYS = ("op_s", "kernel_s", "cs_norm_2_alpha_s", "kernel_passes", "fields_walked",
        "peak_rss_mb", "kernel_traced_peak_mb")
SPEEDUP = ("op_s", "kernel_s", "cs_norm_2_alpha_s")

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
    from degenpde import cli, estimates, fields

    seconds = {"pair_set": [], "kernel": [], "cs_norm_2_alpha": []}
    values = {name: [] for name in VALUES}
    rises = [0]  # traced-memory rises of the kernel's calls in the traced op

    def timed(module, name, span, record):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                if span == "cs_norm_2_alpha":
                    return original(*args, **kwargs)
                at = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = original(*args, **kwargs)
                rises.append(tracemalloc.get_traced_memory()[1] - at)
                return out
            start = perf_counter()
            out = original(*args, **kwargs)
            seconds[span].append(perf_counter() - start)
            record(out)
            return out
        for owner in (fields, estimates):
            if getattr(owner, name, None) is original:
                setattr(owner, name, wrapper)

    spec = work / "experiment.spec"
    spec.write_text(SPEC.format(seed=run + 1, v=VELOCITIES[run % len(VELOCITIES)], nodes=NODES))
    if cli.main(["run", str(spec), "--out", str(work / "warmup")]) != 0:
        raise RuntimeError("warm-up op failed")
    if hasattr(fields, "_region_pairs"):  # a checkout that builds the pair set apart
        timed(fields, "_region_pairs", "pair_set", lambda out: None)
    kernel = "_ratio_maxes" if hasattr(fields, "_ratio_maxes") else "_ratio_max"
    timed(fields, kernel, "kernel",
          lambda out: values["ratio_max"].extend(np.atleast_1d(out).tolist()))
    timed(estimates, "cs_norm_2_alpha", "cs_norm_2_alpha", values["cs_norm_2_alpha"].append)
    start = perf_counter()
    rc = cli.main(["run", str(spec), "--out", str(work / "out")])
    op_s = perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"timed op exited {rc}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracemalloc.start()
    try:
        rc = cli.main(["run", str(spec), "--out", str(work / "traced")])
    finally:
        tracemalloc.stop()
    if rc != 0:
        raise RuntimeError(f"traced op exited {rc}")
    return {
        "op_s": op_s,
        "kernel_s": sum(seconds["pair_set"]) + sum(seconds["kernel"]),
        "cs_norm_2_alpha_s": sum(seconds["cs_norm_2_alpha"]),
        "kernel_passes": len(seconds["kernel"]),
        "fields_walked": len(values["ratio_max"]),
        "values": values,
        "peak_rss_mb": peak_rss_mb,
        "kernel_traced_peak_mb": max(rises) / 1e6,
    }


def compare(run: int, before: dict, after: dict, work: Path) -> dict:
    b, a = before["values"], after["values"]
    reports = {side: {p.name: p.read_bytes() for p in sorted((work / side / "out").iterdir())}
               for side in ab.SIDES}
    return {
        "seed": run + 1, "v": float(VELOCITIES[run % len(VELOCITIES)]),
        "values": {name: len(a[name]) for name in VALUES},
        "max_abs_value_diff": max(abs(x - y) for name in VALUES
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
    # before / after; null where the after side spent no time to divide by
    report["speedup"] = {key: report["before"][key] / report["after"][key]
                         if report["after"][key] > 0 else None for key in SPEEDUP}
    return report


if __name__ == "__main__":
    sys.exit(ab.main(__doc__, measure, compare, summarize, runs=6))
