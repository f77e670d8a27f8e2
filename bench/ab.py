"""The before/after driver shared by the benchmark scripts in this directory.

A script `bench/<topic>.py` defines three functions and hands them to `main`:

    measure(src, run, work) -> dict      one run in a fresh interpreter that
                                         imports `degenpde` from `src`; it
                                         derives its inputs from `run` and may
                                         leave files in the directory `work`
    compare(run, before, after, work)    the two sides of one run, side by
                                         side; `work / side` is each side's
                                         `work`; returns one row
    summarize(results, rows) -> dict     the report's entries beyond the
                                         framing; results[side] lists the
                                         measure dicts, rows the compare rows

    python bench/<topic>.py --before PATH [--runs N] [--out BENCH_<topic>.json]

PATH is a checkout of the commit to compare against (the parent, say);
"after" is the checkout holding this directory.  Run r measures both sides,
"before" first when r is even and "after" first when it is odd, and N must
be at least 3.  The report holds `about` (the script docstring's third
paragraph), `runs_per_side`, `platform` and `revisions`, then what
`summarize` returns.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("before", "after")


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


def main(doc: str, measure, compare, summarize, runs: int = 3, argv=None) -> int:
    script = Path(inspect.getfile(measure)).resolve()
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--before", type=Path, help="checkout to compare against")
    parser.add_argument("--runs", type=int, default=runs, help="runs per side, at least 3")
    parser.add_argument("--out", type=Path, default=ROOT / f"BENCH_{script.stem}.json",
                        help=f"report file (default: BENCH_{script.stem}.json at the root)")
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    parser.add_argument("--run", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.run, args.work)))
        return 0
    if args.before is None or args.runs < 3:
        parser.error("--before is required and --runs must be >= 3")

    sides = {"before": args.before.resolve(), "after": ROOT}
    results = {side: [] for side in SIDES}
    rows = []
    for run in range(args.runs):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            for side in SIDES if run % 2 == 0 else SIDES[::-1]:
                (work / side).mkdir()
                done = subprocess.run(
                    [sys.executable, str(script), "--measure", str(sides[side] / "src"),
                     "--run", str(run), "--work", str(work / side)],
                    stdout=subprocess.PIPE, text=True, check=True)
                results[side].append(json.loads(done.stdout))
            rows.append(compare(run, results["before"][-1], results["after"][-1], work))

    report = {
        "about": doc.split("\n\n")[2].replace("\n", " ").strip(),
        "runs_per_side": args.runs,
        "platform": {"nproc": os.cpu_count(), "python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "revisions": {side: {"git": git_rev(path), "source_sha256": source_sha256(path)}
                      for side, path in sides.items()},
        **summarize(results, rows),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0
