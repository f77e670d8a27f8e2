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
`cs_norm_2_alpha` is timed the same way.  Where the Schauder check walks
its two boxes on two threads, the summed kernel seconds `kernel_s` exceed
the kernel's wall time `kernel_wall_s`, the time during which at least one
kernel call runs; both stand next to the op's wall time `op_s`.  The values
of each kernel call are kept in the order of the call's region size, so the
two sides compare whatever thread finished first.  After the timed op has
read the process's peak resident memory, a third op keeps the arguments of
each kernel call, and each call is then replayed alone under `tracemalloc`:
the kernel's traced peak is the largest rise of the traced memory above
what was in use at the start of one replay, so a walk's figure holds none
of what a concurrent walk allocates (in a checkout that builds the pair set
apart, a pass's rise leaves out the pair set it was given).  Times and
peaks are medians over runs; the accuracy figures travel with them: the
largest difference in any per-field maximum the kernel returns or any
`cs_norm_2_alpha` value, and whether every report file is byte-identical.
"""

from __future__ import annotations

import math
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
KEYS = ("op_s", "kernel_s", "kernel_wall_s", "cs_norm_2_alpha_s", "kernel_passes",
        "fields_walked", "peak_rss_mb", "kernel_traced_peak_mb")
SPEEDUP = ("op_s", "kernel_s", "kernel_wall_s", "cs_norm_2_alpha_s")

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


def covered_seconds(spans: list) -> float:
    """Length of the union of the (start, end) intervals."""
    total, reached = 0.0, -math.inf
    for start, end in sorted(spans):
        total += max(0.0, end - max(start, reached))
        reached = max(reached, end)
    return total


def measure(src: str, run: int, work: Path) -> dict:
    """A warm-up op and a timed op; the timed op's reports land in work/out."""
    sys.path.insert(0, src)
    from degenpde import cli, estimates, fields

    # (start, end) of each timed call; the kernel's calls may overlap
    spans = {"pair_set": [], "kernel": [], "cs_norm_2_alpha": []}
    values = {name: [] for name in VALUES}
    kernel_calls = []  # (region nodes, the call's per-field maxima)
    replays = None  # in the third op, the kernel's calls, to replay one at a time

    def timed(module, name, span, record):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            if replays is not None:
                if span != "cs_norm_2_alpha":
                    replays.append((original, args, kwargs))
                return original(*args, **kwargs)
            start = perf_counter()
            out = original(*args, **kwargs)
            spans[span].append((start, perf_counter()))
            record(args, out)
            return out
        for owner in (fields, estimates):
            if getattr(owner, name, None) is original:
                setattr(owner, name, wrapper)

    spec = work / "experiment.spec"
    spec.write_text(SPEC.format(seed=run + 1, v=VELOCITIES[run % len(VELOCITIES)], nodes=NODES))
    if cli.main(["run", str(spec), "--out", str(work / "warmup")]) != 0:
        raise RuntimeError("warm-up op failed")
    if hasattr(fields, "_region_pairs"):  # a checkout that builds the pair set apart
        timed(fields, "_region_pairs", "pair_set", lambda args, out: None)
    kernel = "_ratio_maxes" if hasattr(fields, "_ratio_maxes") else "_ratio_max"
    # the last argument holds the region's values, its last axis one per node
    timed(fields, kernel, "kernel", lambda args, out: kernel_calls.append(
        (np.shape(args[-1])[-1], np.atleast_1d(out).tolist())))
    timed(estimates, "cs_norm_2_alpha", "cs_norm_2_alpha",
          lambda args, out: values["cs_norm_2_alpha"].append(out))
    start = perf_counter()
    rc = cli.main(["run", str(spec), "--out", str(work / "out")])
    op_s = perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"timed op exited {rc}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    replays = []
    if cli.main(["run", str(spec), "--out", str(work / "replayed")]) != 0:
        raise RuntimeError("replayed op exited nonzero")
    rises = [0]
    tracemalloc.start()
    try:
        for original, args, kwargs in replays:
            at = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            original(*args, **kwargs)
            rises.append(tracemalloc.get_traced_memory()[1] - at)
    finally:
        tracemalloc.stop()
    # a stable sort: calls on equal regions stay in call order
    for _, maxima in sorted(kernel_calls, key=lambda call: call[0]):
        values["ratio_max"].extend(maxima)
    kernel_spans = spans["pair_set"] + spans["kernel"]
    return {
        "op_s": op_s,
        "kernel_s": sum(end - start for start, end in kernel_spans),
        "kernel_wall_s": covered_seconds(kernel_spans),
        "cs_norm_2_alpha_s": sum(end - start for start, end in spans["cs_norm_2_alpha"]),
        "kernel_passes": len(spans["kernel"]),
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
