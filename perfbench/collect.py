"""Run the benchmark over many seeds and summarise it.

    python3 perfbench/collect.py                       # 10 seeds, every workload
    python3 perfbench/collect.py --workloads n3_abp --seeds 1 2 3 4 5
    python3 perfbench/collect.py --write               # also rewrite baseline.json

Runs `run.py` once per (workload, seed) untraced, one after another, and
twice traced on the first seed.  For each end-to-end metric it prints the
median and the quartile spread (q3 - q1) / median over the seeds, next to the
metric's bound from BENCHMARK.json.  The traced pair gives the per-layer
medians, checks that every count metric repeats exactly, and gives the
tracing overhead (traced minus untraced `op_p50_s` on the same seed).

`--write` stores all of it in `baseline.json` and fills the measured share of
the op into `interactions.json` for every per-layer time metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def is_count(name: str, units: dict) -> bool:
    return units[name] in ("count", "B")


def collect_workload(workload, seeds, seconds, bench) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    untraced = []
    for seed in seeds:
        result, record = run_once(workload, seed, seconds, 0)
        untraced.append((seed, result, record))
        print(f"{workload} seed {seed}: correct={result['correct']} ops={result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    summary = {"seeds": seeds, "correct": all(r["correct"] for _, r, _ in untraced),
               "failed": sum(r["failed"] for _, r, _ in untraced),
               "ops": [r["attempted"] for _, r, _ in untraced], "end_to_end": {}}
    for name, bound in bounds.items():
        stats = spread([r["metrics"][name]["value"] for _, r, _ in untraced])
        stats["bound"] = bound
        summary["end_to_end"][name] = stats
        print(f"  {name}: median {stats['median']:.4g}  spread {stats['spread']:.4f}  "
              f"bound {bound} (steady below {bound / 3:.4f})", flush=True)
    summary["accuracy"] = [rec["accuracy"] for _, _, rec in untraced]
    summary["op_tail_s"] = [rec["op_tail_s"] for _, _, rec in untraced]
    summary["platform"] = untraced[0][2]["platform"]
    summary["revision"] = untraced[0][2]["revision"]

    traced = [run_once(workload, seeds[0], seconds, 1) for _ in range(2)]
    layers = {}
    for name in units:
        values = [r["metrics"][name]["value"] for r, _ in traced]
        layers[name] = {"median": statistics.median(values), "values": values}
    mismatched = [n for n in units if is_count(n, units)
                  and len(set(layers[n]["values"])) != 1]
    traced_p50 = statistics.median(rec["traced_op_p50_s"] for _, rec in traced)
    untraced_p50 = untraced[0][1]["metrics"]["op_p50_s"]["value"]
    summary["traced"] = {
        "seed": seeds[0], "correct": all(r["correct"] for r, _ in traced),
        "ops": [r["attempted"] for r, _ in traced], "per_layer": layers,
        "counts_repeat_exactly": not mismatched, "counts_that_differ": mismatched,
        "op_p50_s": traced_p50, "untraced_op_p50_s": untraced_p50,
        "tracing_overhead_s": traced_p50 - untraced_p50,
        "shares": {n: layers[n]["median"] / traced_p50 for n in units if units[n] == "s"},
        "accuracy": [rec["accuracy"] for _, rec in traced],
    }
    print(f"  traced: op_p50 {traced_p50:.4g} s, overhead {traced_p50 - untraced_p50:+.4g} s, "
          f"counts repeat exactly: {not mismatched} {mismatched or ''}", flush=True)
    return summary


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--write", action="store_true",
                   help="store the summary in baseline.json and the shares in interactions.json")
    args = p.parse_args(argv)

    summary = {w: collect_workload(w, args.seeds, args.seconds, bench) for w in args.workloads}
    if args.write:
        baseline = {"run_seconds": args.seconds, "workloads": summary}
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
        path = HERE / "interactions.json"
        interactions = json.loads(path.read_text())
        for name, entry in interactions["per_layer"].items():
            shares = {w: round(s["traced"]["shares"][name], 4)
                      for w, s in summary.items() if name in s["traced"]["shares"]}
            if shares:
                entry["measured_share"] = shares
        path.write_text(json.dumps(interactions, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
