"""The benchmark's own tests: tiny runs emit every metric, and every gate can fail.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from degenpde.fields import ScalarField  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_emits_every_metric(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.2",
                     "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"] and math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0
    assert record["ops"] == result["attempted"] and record["seed"] == 5
    assert record["platform"]["nproc"] >= 1 and record["revision"]["source_sha256"]
    assert record["accuracy"]


def test_benchmark_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "cli_model", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def _tiny(workload, tmp_path):
    inputs = workloads.setup(workload, 7, "tiny", tmp_path)
    return inputs, workloads.OPS[workload](inputs, tmp_path / "out")


def _with_value(u: ScalarField, index, value) -> ScalarField:
    values = u.values.copy()
    values[index] = value
    return ScalarField(u.grid, values)


def test_ensemble_gate_rejects_a_node_below_the_data_minimum(tmp_path):
    inputs, result = _tiny("ensemble_n2", tmp_path)
    assert workloads.gate(inputs, result, None) == []
    low = workloads.ENSEMBLE_BOUNDS[0] - 1e-9
    result["members"][1] = _with_value(result["members"][1], (3, 4, 100), low)
    problems = workloads.gate(inputs, result, None)
    assert len(problems) == 1 and "member 1" in problems[0]


def test_ensemble_gate_rejects_a_non_finite_estimate(tmp_path):
    inputs, result = _tiny("ensemble_n2", tmp_path)
    result["reports"][0].rhs_components["g_norm"] = math.inf
    assert workloads.gate(inputs, result, None)


def test_n3_gate_rejects_a_field_above_the_supersolution(tmp_path):
    inputs, result = _tiny("n3_abp", tmp_path)
    assert workloads.gate(inputs, result, None) == []
    u = result["fields"][0]
    result["fields"][0] = _with_value(u, (4, 4, 4, 2), float(u.grid.t[2]) + 1e-7)
    assert workloads.gate(inputs, result, None)
    result["fields"][0] = _with_value(u, (4, 4, 4, 2), -1e-7)
    assert workloads.gate(inputs, result, None)


def test_cli_gate_rejects_a_solution_that_does_not_solve_the_equation(tmp_path):
    inputs, result = _tiny("cli_model", tmp_path)
    assert workloads.gate(inputs, result, None) == []
    spec = inputs.params["spec"]
    # u = x + t + v t leaves residual u_t - (x u_xx + u_yy + v u_x) = 1
    spec.write_text(spec.read_text().replace("solution = x + ", "solution = x + t + "))
    wrong = workloads.OPS["cli_model"](inputs, tmp_path / "wrong")
    problems = workloads.gate(inputs, wrong, None)
    assert any("manufactured error" in p for p in problems)
    assert "exit status 1" in problems


def test_cli_gate_rejects_reports_that_differ_from_the_reference(tmp_path):
    inputs, result = _tiny("cli_model", tmp_path)
    reference = workloads.read_outputs(result["out_dir"])
    again = workloads.OPS["cli_model"](inputs, tmp_path / "again")
    assert workloads.gate(inputs, again, reference) == []
    reference["summary.txt"] += b" "
    problems = workloads.gate(inputs, again, reference)
    assert problems == ["reports differ from the reference op on the same spec"]


def test_tracing_restores_every_wrapped_function(tmp_path):
    from degenpde import solver

    before = (solver.solve_ivbp, solver.splu, solver.bicgstab, solver.StepMatrix.solve)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert solver.solve_ivbp is not before[0]
        _tiny("n3_abp", tmp_path)
    assert (solver.solve_ivbp, solver.splu, solver.bicgstab, solver.StepMatrix.solve) == before
    layers = {span[1] for span in tracer.spans}
    assert {"solver.solve_ivbp", "solver.linear_solve", "estimates.abp",
            "estimates.contact_sets", "geometry.node_mask"} <= layers


def test_traced_counts_repeat_exactly_and_self_times_partition_the_op(tmp_path):
    names = [m["name"] for m in BENCH["per_layer"]]
    inputs = workloads.setup("n3_abp", 7, "tiny", tmp_path)
    tracer = tracing.Tracer()
    for k in range(2):
        tracer.op = k
        with tracing.instrument(tracer):
            tracer.enter("op")
            workloads.OPS["n3_abp"](inputs, tmp_path)
            tracer.exit()
    rows = tracer.per_op(2)
    counts = [n for n in names if n.endswith(("_calls", "_nnz", "_iters", "_nodes"))]
    assert all(rows[0].get(n, 0) == rows[1].get(n, 0) for n in counts)
    assert rows[0]["solver.krylov_iters"] > 0
    # the self times of an op's spans add up to its root span's duration,
    # less the wrappers' untimed bookkeeping
    root = [s for s in tracer.spans if s[1] == "op"][0]
    total = sum(s[5] for s in tracer.spans if s[0] == 0)
    assert total == pytest.approx(root[3] - root[2], rel=0.05)
