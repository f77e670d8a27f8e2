"""The benchmark's three workloads: inputs from a seed, one op, its output gate.

Importing this module imports degenpde from the checkout's `src` together
with numpy and scipy; that import plus `setup` is what `setup_s` measures.
The library is reached only through its public API and CLI, looked up as
module attributes at call time so the traced run's wrappers see every call.

Each gate returns a list of problems; an empty list means the op's output
is correct.  Hoelder and Schauder values are not pinned: a change to the
Hoelder search is allowed to change them.
"""

from __future__ import annotations

import math
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import degenpde  # noqa: E402
from degenpde import cli, estimates, operators, solver  # noqa: E402
from degenpde.fields import Grid, ScalarField  # noqa: E402
from degenpde.geometry import ParabolicCube, Point  # noqa: E402

if Path(degenpde.__file__).resolve().parent != ROOT / "src" / "degenpde":
    raise ImportError(f"degenpde imported from {degenpde.__file__}, not from {ROOT / 'src'}")

NAMES = ("cli_model", "ensemble_n2", "n3_abp")

# problem sizes; "tiny" exists for the benchmark's own tests
SIZES = {
    "full": {"cli_nodes": 33, "members": 20, "ens_nodes": 33, "n3_nodes": (33, 49), "n3_slices": 17},
    "tiny": {"cli_nodes": 17, "members": 2, "ens_nodes": 9, "n3_nodes": (9,), "n3_slices": 5},
}

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
solution = {solution}
forcing = 0

[check manufactured]
type = manufactured_error
tol = {tol}

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

MANUFACTURED_TOL = 1e-10
HARNACK_RADII = (0.1, 0.2, 0.4)
ENSEMBLE_BOUNDS = (0.1, 1.0)
ENSEMBLE_SLACK = 1e-10
N3_SLACK = 1e-8


@dataclass
class Inputs:
    workload: str
    seed: int
    params: dict


def setup(workload: str, seed: int, size: str, work_dir: Path) -> Inputs:
    """Generate the workload's inputs from the seed (same seed, same inputs).

    The cli_model spec file is written into work_dir.
    """
    sz = SIZES[size]
    if workload == "cli_model":
        v = random.Random(seed).choice(("0.25", "1", "4"))
        text = SPEC.format(seed=seed, v=v, nodes=sz["cli_nodes"],
                           solution=f"x + {v}*t", tol=MANUFACTURED_TOL)
        spec = Path(work_dir) / "experiment.spec"
        spec.write_text(text)
        return Inputs(workload, seed, {"spec": spec, "tol": MANUFACTURED_TOL})
    if workload == "ensemble_n2":
        k = sz["ens_nodes"]
        grid = Grid.uniform((0, 1, k), [(-1, 1, k)], (0, 0.5, 201))
        return Inputs(workload, seed, {
            "grid": grid, "count": sz["members"],
            "coeffs": operators.model_coefficients(1.0, 2)})
    if workload == "n3_abp":
        problems = []
        for k in sz["n3_nodes"]:
            grid = Grid.uniform((0, 1, k), [(-1, 1, k), (-1, 1, k)],
                                (0, 1, sz["n3_slices"]))
            problem = solver.IVBProblem(
                coeffs=operators.random_coefficients(seed, 3),
                forcing=_constant(1.0), initial=_constant(0.0),
                lateral=_constant(0.0))
            problems.append((grid, problem))
        cube = ParabolicCube("B_eta", Point(0.5, [0, 0], 1.0), 1.0)
        return Inputs(workload, seed, {"problems": problems, "cube": cube})
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")


def _constant(value: float):
    def data(x, *coords):
        return np.full(np.broadcast(x, *coords).shape, value)
    return data


# ---------------------------------------------------------------------------
# ops: each returns what its gate needs


def op_cli_model(inputs: Inputs, out_dir: Path) -> dict:
    rc = cli.main(["run", str(inputs.params["spec"]), "--out", str(out_dir)])
    return {"rc": rc, "out_dir": out_dir}


def op_ensemble_n2(inputs: Inputs, out_dir: Path) -> dict:
    p = inputs.params
    members = solver.random_positive_solution_ensemble(
        inputs.seed, p["count"], p["coeffs"], p["grid"])
    reports = []
    for u in members:
        for rho in HARNACK_RADII:
            reports.append(estimates.harnack_quotient(u, None, 0.5, [0.0], 0.5, rho, 0.5))
        reports.append(estimates.oscillation_decay(u, (0.5, [0.0], 0.5), 0.4, 2, None, 0.5))
    return {"members": members, "reports": reports}


def op_n3_abp(inputs: Inputs, out_dir: Path) -> dict:
    fields, reports = [], []
    for grid, problem in inputs.params["problems"]:
        u = solver.solve_ivbp(problem, grid)
        g = ScalarField(grid, np.full(grid.shape, -1.0))
        reports.append(estimates.abp_check(u, g, inputs.params["cube"], 0.5))
        fields.append(u)
    return {"fields": fields, "reports": reports}


OPS = {"cli_model": op_cli_model, "ensemble_n2": op_ensemble_n2, "n3_abp": op_n3_abp}


# ---------------------------------------------------------------------------
# output gates


def _finite_report(report, label: str) -> list[str]:
    values = [report.lhs, report.measured_constant]
    values += [v for v in report.rhs_components.values() if not isinstance(v, str)]
    if all(math.isfinite(float(v)) for v in values):
        return []
    return [f"{label}: non-finite output in {report.to_record()}"]


def read_outputs(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}


def manufactured_error(out_dir: Path) -> float:
    record = (Path(out_dir) / "manufactured.records").read_text()
    fields = dict(part.split("=", 1) for part in record.strip().split("\t"))
    return float(fields["lhs"])


def gate_cli_model(result: dict, tol: float, reference: dict | None) -> list[str]:
    """Exit 0, manufactured error <= tol, reports identical to the reference op."""
    problems = []
    if result["rc"] != 0:
        problems.append(f"exit status {result['rc']}")
    try:
        err = manufactured_error(result["out_dir"])
    except (OSError, KeyError, ValueError) as exc:
        return problems + [f"no manufactured error record: {exc}"]
    if not err <= tol:
        problems.append(f"manufactured error {err:.3g} above tol {tol:.3g}")
    if reference is not None and read_outputs(result["out_dir"]) != reference:
        problems.append("reports differ from the reference op on the same spec")
    return problems


def gate_ensemble_n2(result: dict) -> list[str]:
    """Discrete maximum principle for g = 0 with data in [0.1, 1]; finite estimates."""
    lo, hi = ENSEMBLE_BOUNDS
    problems = []
    for i, u in enumerate(result["members"]):
        umin, umax = float(u.values.min()), float(u.values.max())
        if not (lo - ENSEMBLE_SLACK <= umin and umax <= hi + ENSEMBLE_SLACK):
            problems.append(f"member {i}: range [{umin:.17g}, {umax:.17g}] leaves [{lo}, {hi}]")
    for i, report in enumerate(result["reports"]):
        problems += _finite_report(report, f"report {i}")
    return problems


def gate_n3_abp(result: dict) -> list[str]:
    """0 <= u <= t (the supersolution) up to the solver tolerance; ABP finite and passing."""
    problems = []
    for u in result["fields"]:
        t = u.grid.t
        below = float((0.0 - u.values).max())
        above = float((u.values - t).max())
        if below > N3_SLACK or above > N3_SLACK:
            problems.append(f"grid {u.grid.shape}: u leaves [0, t] by {max(below, above):.3g}")
    for i, report in enumerate(result["reports"]):
        problems += _finite_report(report, f"abp {i}")
        if not report.passed:
            problems.append(f"abp {i} failed: {report.to_record()}")
    return problems


def gate(inputs: Inputs, result: dict, reference: dict | None) -> list[str]:
    if inputs.workload == "cli_model":
        return gate_cli_model(result, inputs.params["tol"], reference)
    if inputs.workload == "ensemble_n2":
        return gate_ensemble_n2(result)
    return gate_n3_abp(result)


def accuracy(inputs: Inputs, result: dict) -> dict:
    """Accuracy figures visible without tracing, to travel with the times."""
    if inputs.workload == "cli_model":
        return {"cli.manufactured_error": manufactured_error(result["out_dir"])}
    fields = result["members"] if inputs.workload == "ensemble_n2" else result["fields"]
    return {"solver.residual_max": max(max(u.step_residuals) for u in fields)}


def discard(result: dict):
    out_dir = result.get("out_dir")
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
