"""degenpde benchmark: one workload, one seed, a closed loop of ops.

    python3 perfbench/run.py --workload cli_model --seed 1 --seconds 38 --trace 0

Run from the root of a checkout; the library is imported from its `src`.
One caller runs ops back to back, each waiting for the previous one, for
about `--seconds` (at least two ops; no op starts that would end more than
half an op past the deadline).  Every op's output
goes through the workload's gate.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the line
before it is the run record (versions, hardware, op count, accuracy figures).

With `--trace 0` the metrics are the end-to-end ones in BENCHMARK.json.
With `--trace 1` every op runs under the span wrappers of `tracing.py` and
the metrics are the per-layer ones: self seconds and counts per op, as the
median over the run's ops.  The run record then holds the traced op median;
traced minus untraced `op_p50_s` is the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_model", "ensemble_n2", "n3_abp")
MIN_OPS = 2
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120

# a fresh interpreter times importing the library and generating the inputs
PROBE = """\
import sys, time
t0 = time.perf_counter()
import workloads
workloads.setup(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4])
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny problem sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def setup_probe(args, work: Path, index: int) -> float:
    probe_dir = work / f"probe{index}"
    probe_dir.mkdir()
    done = subprocess.run(
        [sys.executable, "-c", PROBE, args.workload, str(args.seed), args.size,
         str(probe_dir)],
        cwd=HERE, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def more_ops(times: list[float], elapsed: float, seconds: float) -> bool:
    """Start another op unless it would end more than half an op past the deadline."""
    if len(times) < MIN_OPS:
        return True
    return elapsed + 0.5 * statistics.median(times) < seconds


def op_tail(times: list[float]) -> dict | None:
    """Highest percentile with at least 10 ops beyond it, if the run has one."""
    n = len(times)
    if n < 11:
        return None
    return {"value_s": sorted(times)[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "degenpde").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".spec"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    git = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        git = done.stdout.strip() or None
    return {"git": git, "source_sha256": digest.hexdigest()}


def blas_threads(np) -> int | None:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def platform_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(np)},
        "cache": cache_sizes(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "degenpde" / "__init__.py").is_file():
        return fail(f"no library source at {ROOT / 'src' / 'degenpde'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, spec, units, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def run(args, spec, units, work: Path) -> int:
    import workloads

    inputs = workloads.setup(args.workload, args.seed, args.size, work)
    # setup_s is an untraced metric, timed in fresh interpreters: this one
    # has already imported modules that numpy and scipy share
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setup_samples = [setup_probe(args, work, i) for i in range(probes)]
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        return fail(f"set-up probe failed: {exc}")

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    op = workloads.OPS[args.workload]
    times, failures, accuracy = [], [], {}
    failed = 0
    reference = None
    start = perf_counter()
    while more_ops(times, perf_counter() - start, args.seconds):
        k = len(times)
        out_dir = work / f"op{k}"
        t_op = perf_counter()
        try:
            if tracer is not None:
                tracer.op = k
                with tracing.instrument(tracer):
                    result = op(inputs, out_dir)
            else:
                result = op(inputs, out_dir)
            elapsed = perf_counter() - t_op
        except Exception:  # an op that raises is a failed op; keep measuring
            times.append(perf_counter() - t_op)
            failed += 1
            failures.append(traceback.format_exc(limit=3))
            traceback.print_exc()
            continue
        times.append(elapsed)
        problems = workloads.gate(inputs, result, reference)
        if problems:
            failed += 1
            failures.append("; ".join(problems))
        else:
            if args.workload == "cli_model" and reference is None:
                reference = workloads.read_outputs(result["out_dir"])
            for name, value in workloads.accuracy(inputs, result).items():
                accuracy[name] = max(accuracy.get(name, 0.0), value)
        workloads.discard(result)
        del result  # free the op's fields before the next op allocates its own

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_p50_s = statistics.median(times)
    if tracer is not None:
        names = [m["name"] for m in spec["per_layer"]]
        values = tracing.layer_metrics(tracer, len(times), names)
        # read from the report files by the gate, not seen by any wrapper
        values["cli.manufactured_error"] = accuracy.get("cli.manufactured_error", 0.0)
        accuracy.update({k: values[k] for k in ("solver.residual_max", "solver.krylov_iters")
                         if k in values})
    else:
        values = {"op_p50_s": op_p50_s, "setup_s": statistics.median(setup_samples),
                  "peak_rss_mb": peak_rss_mb}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "ops": len(times),
        "op_times_s": times, "failed_frac": failed / len(times),
        "op_tail_s": op_tail(times), "setup_samples_s": setup_samples,
        "accuracy": accuracy, "revision": revision(), "platform": platform_record(),
        "failures": failures[:5],
    }
    if tracer is not None:
        record["traced_op_p50_s"] = op_p50_s
        record["spans"] = len(tracer.spans)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(times), "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
