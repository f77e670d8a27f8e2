"""Before/after timing of the Hoelder search in a CLI run: writes BENCH_holder.json.

    python bench/holder.py --before PATH [--runs 6] [--out BENCH_holder.json]

PATH is a checkout of the commit to compare against (the parent, say);
"after" is the checkout holding this script.  Each run is a fresh
interpreter that imports `degenpde` from one checkout's `src` and does what
one op of the benchmark's cli_model workload does: `degenpde run` on a
33^3 `model_manufactured` spec (manufactured error, Harnack, oscillation
and Schauder checks) with `model:v=<v>` and solution x + v t, once to warm
up and once timed.  Run r uses seed r + 1 and v = (0.25, 1, 4)[r % 3] on
both sides, and runs alternate between the sides.  `cs_norm_2_alpha` and
`holder_seminorm` are timed by wrapping them where `estimates` looks them
up, and the pair-set builds are counted as calls of `np.random.default_rng`
(sampled regions) and `np.triu_indices` (all-pairs regions) made inside
them.  Times are medians over runs; the accuracy figures travel with them:
the largest difference in any value those two functions return, whether
every report file is byte-identical, and each process's peak resident
memory.
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
NODES, VELOCITIES = 33, ("0.25", "1", "4")
TIMED = ("cs_norm_2_alpha", "holder_seminorm")

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


def measure(src: str, seed: int, v: str, work: str) -> dict:
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

    spec = Path(work) / "experiment.spec"
    spec.write_text(SPEC.format(seed=seed, v=v, nodes=NODES))
    if cli.main(["run", str(spec), "--out", str(Path(work) / "warmup")]) != 0:
        raise RuntimeError("warm-up op failed")
    for name in TIMED:
        timed(name)
    counted(np.random, "default_rng")
    counted(np, "triu_indices")
    start = perf_counter()
    rc = cli.main(["run", str(spec), "--out", str(Path(work) / "out")])
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


KEYS = ("op_s", "cs_norm_2_alpha_s", "holder_seminorm_s", "cs_norm_2_alpha_calls",
        "holder_seminorm_calls", "pair_set_builds", "peak_rss_mb")


def summarize(runs: list[dict]) -> dict:
    out = {key: statistics.median(run[key] for run in runs) for key in KEYS}
    out["op_s_per_run"] = [run["op_s"] for run in runs]
    out["peak_rss_mb_per_run"] = [run["peak_rss_mb"] for run in runs]
    return out


def read_reports(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, help="checkout to compare against")
    parser.add_argument("--runs", type=int, default=6)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_holder.json")
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--v", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.seed, args.v, args.work)))
        return 0
    if args.before is None or args.runs < 3:
        parser.error("--before is required and --runs must be >= 3")

    sides = {"before": args.before.resolve(), "after": ROOT}
    runs = {"before": [], "after": []}
    per_seed = []
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(args.runs):
            seed, v = r + 1, VELOCITIES[r % len(VELOCITIES)]
            order = ("before", "after") if r % 2 == 0 else ("after", "before")
            reports = {}
            for side in order:
                work = Path(tmp) / side
                work.mkdir(exist_ok=True)
                done = subprocess.run([sys.executable, __file__, "--measure",
                                       str(sides[side] / "src"), "--seed", str(seed),
                                       "--v", v, "--work", str(work)],
                                      capture_output=True, text=True, check=True)
                runs[side].append(json.loads(done.stdout))
                reports[side] = read_reports(work / "out")
            b, a = runs["before"][-1]["values"], runs["after"][-1]["values"]
            per_seed.append({
                "seed": seed, "v": float(v),
                "values": {name: len(a[name]) for name in TIMED},
                "max_abs_value_diff": max(abs(x - y) for name in TIMED
                                          for x, y in zip(a[name], b[name], strict=True)),
                "values_bitwise_equal": a == b,
                "report_files": len(reports["after"]),
                "report_files_identical": reports["after"] == reports["before"],
            })

    for side in runs:
        for run in runs[side]:
            del run["values"]
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
            "max_abs_value_diff": max(row["max_abs_value_diff"] for row in per_seed),
            "all_values_bitwise_equal": all(row["values_bitwise_equal"] for row in per_seed),
            "all_report_files_identical": all(row["report_files_identical"]
                                              for row in per_seed),
            "per_seed": per_seed,
        },
    }
    report["speedup"] = {key: report["before"][key] / report["after"][key]
                         for key in ("op_s", "cs_norm_2_alpha_s", "holder_seminorm_s")}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
