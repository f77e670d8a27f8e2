"""Batch experiment runner.

Reads a declarative experiment file (sectioned key = value text), solves
the configured initial/boundary-value problem, runs the requested
verification checks, and writes deterministic reports and two-column plot
data. Exit status 0 means every configured check passed, 1 that a check
failed, 2 that the spec is malformed or its grid cannot be marched (the
solve turned non-finite).
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import estimates
from .estimates import EstimateReport, write_series
from .expressions import CompiledExpression
from .fields import Grid, sample
from .geometry import Point
from .operators import COEFFICIENT_PRESETS, parse_coefficient_preset, validate_coefficients
from .solver import IVBProblem, solve_ivbp


class SpecError(ValueError):
    """Experiment-file parse or validation error."""


REQUIRED = object()  # schema default of a key the spec must give


def _each(cast):
    """A cast of whitespace-separated values, each by `cast`."""
    return lambda text: [cast(tok) for tok in text.split()]


def _axis(text: str):
    vals = _each(float)(text)
    if len(vals) != 3 or not vals[2].is_integer() or vals[2] < 3:
        raise ValueError(f"needs 'lo hi count' with an integer count >= 3, got {text!r}")
    return vals[0], vals[1], int(vals[2])


def _between(lo, hi, closed_lo=False, closed_hi=False):
    """A float cast refusing values outside (lo, hi), each end closed if asked."""
    interval = f"{'[' if closed_lo else '('}{lo:g}, {hi:g}{']' if closed_hi else ')'}"

    def cast(text):
        value = float(text)
        if not (lo < value < hi or (closed_lo and value == lo) or (closed_hi and value == hi)):
            raise ValueError(f"must lie in {interval}, got {text.strip()}")
        return value
    return cast


def _int_at_least(lo):
    """An int cast refusing values below lo and text that is not an integer literal."""
    def cast(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo:
            raise ValueError(f"must be an integer >= {lo}, got {text.strip()}")
        return value
    return cast


def _read(section, where, keys):
    """Cast each key of a spec section by its {key: (cast, default-or-REQUIRED)} schema."""
    for key in section:
        if key not in keys:
            raise SpecError(f"[{where}] {key}: unknown key (known: {', '.join(keys)})")
    values = {}
    for key, (cast, default) in keys.items():
        if key in section:
            try:
                values[key] = cast(section[key])
            except ValueError as exc:
                raise SpecError(f"[{where}] {key}: {exc}") from None
        elif default is REQUIRED:
            raise SpecError(f"[{where}] {key}: missing")
        else:
            values[key] = default
    return values


def _manufactured(spec, a, u):
    tol = a["tol"]
    err = np.max(np.abs(u.values - spec.exact.values),
                 axis=tuple(range(u.values.ndim - 1)))
    worst = float(np.max(err))
    report = EstimateReport(
        name="manufactured_error", lhs=worst,
        rhs_components={"tolerance": tol},
        measured_constant=worst / tol,
        margins={"tolerance": tol - worst},
        passed=worst <= tol,
        provenance=f"solution '{spec.solution.text}' on "
                   + "x".join(str(k) for k in spec.grid.shape))
    return report, (spec.grid.t, err)


def _harnack(spec, a, u):
    return estimates.harnack_quotient(u, spec.g_field, a["s0"], a["y0"], a["t0"],
                                      a["rho"], spec.nu, a["c_max"]), None


def _oscillation(spec, a, u):
    levels = a["levels"]
    report = estimates.oscillation_decay(u, (a["s0"], a["y0"], a["t0"]), a["rho"], levels,
                                         spec.g_field, spec.nu, a["theta_max"])
    radii = [a["rho"] / 2.0 ** j for j in range(levels)]
    oscs = [report.rhs_components.get(f"osc_{j}", 0.0) for j in range(levels)]
    return report, (radii, oscs)


def _holder(spec, a, u):
    return estimates.holder_bound_check(u, spec.g_field, (a["s0"], a["y0"], a["t0"]),
                                        a["r"], a["rho"], spec.nu, a["alpha"]), None


def _schauder(spec, a, u):
    return estimates.schauder_ratio(u, spec.coefficients, a["r"], a["alpha"],
                                    Point(a["x0"], a["y0"], a["t0"])), None


# cube coordinates: s0 and x0 in [0, inf), t0 and each y0 finite
_REAL, _HALF_LINE = _between(-math.inf, math.inf), _between(0, math.inf, closed_lo=True)
_BASE = {"s0": (_HALF_LINE, REQUIRED), "y0": (_each(_REAL), None), "t0": (_REAL, REQUIRED)}

# check type -> (runner, keys).  A runner maps (spec, values, u) to
# (report, series or None); y0 = None is the origin, n - 1 zeros.
CHECKS = {
    "manufactured_error": (_manufactured, {"tol": (_between(0, math.inf), 1e-10)}),
    "harnack_quotient": (_harnack, {**_BASE, "rho": (_between(0, math.inf), REQUIRED),
                                    "c_max": (_between(0, math.inf, closed_hi=True),
                                              math.inf)}),
    "oscillation_decay": (_oscillation, {**_BASE, "rho": (_between(0, math.inf), REQUIRED),
                                         "levels": (_int_at_least(2), 2),
                                         "theta_max": (_between(0, 1, closed_hi=True), 0.95)}),
    "holder_bound": (_holder, {**_BASE, "r": (_between(0, 1), REQUIRED),
                               "rho": (_between(0, 1, closed_hi=True), REQUIRED),
                               "alpha": (_between(0, 1, closed_hi=True), 0.5)}),
    "schauder_ratio": (_schauder, {"r": (_between(0, 1), 0.5),
                                   "alpha": (_between(0, 1), 0.5),
                                   "x0": (_HALF_LINE, 0.0), "y0": (_each(_REAL), None),
                                   "t0": (_REAL, REQUIRED)}),
}

_EXPERIMENT = {"name": (str, REQUIRED), "seed": (_int_at_least(0), 0),
               "nu": (float, REQUIRED), "coefficients": (str, REQUIRED)}
_PROBLEM = {"solution": (CompiledExpression, REQUIRED),
            "forcing": (CompiledExpression, CompiledExpression("0"))}


def _section(parser, name):
    if name not in parser:
        raise SpecError(f"missing [{name}] section")
    return parser[name]


class ExperimentSpec:
    """Parsed experiment file: problem, grid, and the checks to run.

    The whole file is validated here, before any solve: every malformed
    spec raises SpecError with one line naming the section and the key
    (both keys for a holder_bound r >= rho).  Arguments only an estimate
    can judge (a cube with no nodes) are refused when the check runs.  The
    coefficients are validated on the grid, and a failed margin is refused
    by name.  The solution and the forcing are sampled on the whole grid
    (`exact`, `g_field`), which refuses variables the grid lacks and
    non-finite values.
    """

    def __init__(self, path, seed_override=None):
        parser = configparser.ConfigParser()
        read = parser.read([str(path)])
        if not read:
            raise SpecError(f"cannot read experiment file {path}")
        exp = _read(_section(parser, "experiment"), "experiment", _EXPERIMENT)
        self.name = exp["name"]
        self.seed = exp["seed"]
        if seed_override is not None:
            try:
                self.seed = _EXPERIMENT["seed"][0](str(seed_override))
            except ValueError as exc:
                raise SpecError(f"--seed: {exc}") from None
        self.nu = exp["nu"]
        if not 0.0 < self.nu < 1.0:
            raise SpecError(f"[experiment] nu: nu = {self.nu:g} is outside the "
                            "admissible open interval (0, 1)")
        preset = exp["coefficients"]
        if preset.startswith("random:") and seed_override is not None:
            preset = f"random:seed={self.seed}"
        self.coefficient_preset = preset

        gsec = _section(parser, "grid")
        ys = [f"y{i}" for i in range(2, len(gsec))]
        if not ys:
            raise SpecError("[grid]: needs axes s, t and at least one tangential y2")
        axes = _read(gsec, "grid", {k: (_axis, REQUIRED) for k in ["s", *ys, "t"]})
        try:
            self.grid = Grid.uniform(axes["s"], [axes[k] for k in ys], axes["t"])
        except ValueError as exc:
            raise SpecError(f"[grid]: {exc}") from None
        self.n = self.grid.n
        try:
            self.coefficients = parse_coefficient_preset(preset, self.n)
            margins = validate_coefficients(self.coefficients, self.grid).margins
        except ValueError as exc:
            raise SpecError(f"[experiment] coefficients: {exc}") from None
        failed = [f"{key} margin {m:g}" for key, m in margins.items() if not m >= 0]
        if failed:
            raise SpecError("[experiment] coefficients: coefficient conditions violated "
                            "on the grid: " + ", ".join(failed))

        prob = _read(_section(parser, "problem"), "problem", _PROBLEM)
        sampled = {}
        for key in _PROBLEM:
            try:
                sampled[key] = sample(prob[key], self.grid)
            except (ValueError, ArithmeticError) as exc:
                raise SpecError(f"[problem] {key}: {exc}") from None
        self.solution, self.forcing = prob["solution"], prob["forcing"]
        self.exact, self.g_field = sampled["solution"], sampled["forcing"]

        self.checks = []
        for sec in parser.sections():
            if not sec.startswith("check "):
                continue
            kind = parser[sec].get("type", "").strip()
            if kind not in CHECKS:
                raise SpecError(f"[{sec}] type: unknown check type {kind!r} "
                                f"(known: {', '.join(CHECKS)})")
            run, keys = CHECKS[kind]
            values = _read(parser[sec], sec, {"type": (str, REQUIRED), **keys})
            if kind == "holder_bound" and not values["r"] < values["rho"]:
                raise SpecError(f"[{sec}] r, rho: need r < rho, got r = {values['r']:g} "
                                f"and rho = {values['rho']:g}")
            if "y0" in values:
                if values["y0"] is None:
                    values["y0"] = [0.0] * (self.n - 1)
                elif len(values["y0"]) != self.n - 1:
                    raise SpecError(f"[{sec}] y0: needs {self.n - 1} values, "
                                    f"got {len(values['y0'])}")
            self.checks.append((sec[len("check "):].strip(), run, values))
        if not self.checks:
            raise SpecError("experiment defines no checks")


def run_experiment(spec: ExperimentSpec, out_dir) -> bool:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. an existing file; refused before the solve
        raise SpecError(f"--out: {exc}") from None
    problem = IVBProblem(coeffs=spec.coefficients, forcing=spec.forcing,
                         initial=spec.solution, lateral=spec.solution)
    try:
        u = solve_ivbp(problem, spec.grid)
    except FloatingPointError as exc:  # a march that turns non-finite
        raise SpecError(f"the spec's grid cannot be marched: {exc}") from None

    results = []
    for name, run, values in spec.checks:
        try:
            results.append((name, run(spec, values, u)))
        except ValueError as exc:  # arguments only the estimate can refuse
            raise SpecError(f"[check {name}]: {exc}") from None

    summary_lines = [f"experiment = {spec.name}",
                     f"seed = {spec.seed}",
                     f"checks = {len(results)}"]
    all_pass = True
    body_lines = []
    for name, (report, series) in results:
        all_pass = all_pass and report.passed
        (out / f"{name}.report.txt").write_text(report.to_text())
        (out / f"{name}.records").write_text(report.to_record() + "\n")
        if series is not None:
            write_series(out / f"{name}.dat", series[0], series[1])
        body_lines.append(
            f"{name}\t{'PASS' if report.passed else 'FAIL'}\t"
            f"constant={report.measured_constant:.17g}")
    summary_lines.append(f"passed = {sum(1 for _, (r, _) in results if r.passed)}")
    summary_lines.append(f"failed = {sum(1 for _, (r, _) in results if not r.passed)}")
    summary_lines.extend(body_lines)
    summary_lines.append(f"result = {'PASS' if all_pass else 'FAIL'}")
    (out / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    return all_pass


def bundled_spec_path(name: str) -> Path:
    ref = resources.files("degenpde") / "specs" / f"{name}.spec"
    if not ref.is_file():
        raise SpecError(f"no bundled experiment named {name!r}")
    return Path(str(ref))


def _bundled_names():
    specs = resources.files("degenpde") / "specs"
    return sorted(p.name[:-5] for p in specs.iterdir() if p.name.endswith(".spec"))


def list_presets() -> str:
    lines = ["coefficient presets:"]
    for key, desc in COEFFICIENT_PRESETS.items():
        lines.append(f"  {key:24s} {desc}")
    lines.append("experiment presets (run with: degenpde run <name>):")
    for name in _bundled_names():
        lines.append(f"  {name}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="degenpde",
        description="run verification experiments for the degenerate "
                    "parabolic toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment file or bundled preset")
    run_p.add_argument("spec", help="path to an experiment file, or a bundled name")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seed", default=None,
                       help="override the experiment seed")
    sub.add_parser("list-presets", help="list coefficient and experiment presets")
    args = parser.parse_args(argv)

    if args.command == "list-presets":
        sys.stdout.write(list_presets())
        return 0

    path = Path(args.spec)
    try:
        if not path.is_file():
            path = bundled_spec_path(args.spec)
        spec = ExperimentSpec(path, seed_override=args.seed)
        out_dir = args.out if args.out is not None else f"{spec.name}_out"
        ok = run_experiment(spec, out_dir)
    except (SpecError, configparser.Error) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
