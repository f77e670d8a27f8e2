"""In-memory span tracing for the traced benchmark run.

`instrument(tracer)` replaces the public functions of each measured layer
with wrappers that open a span, call the original and close the span.  Each
function is patched under the name its caller looks it up by (for example
`degenpde.solver.splu`, not `scipy.sparse.linalg.splu`), so every call the
library makes goes through a wrapper.  Leaving the context restores every
original, so untraced code never runs a wrapper.

A span's self time is its duration minus the time its child spans cover.
Bookkeeping a wrapper does after a call (counting region nodes, reading
file sizes) runs under `Tracer.untimed`, and that time is taken out of every
open span, so it lands in no layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans and counts of one traced run, kept in memory.

    spans holds [op, layer, start, end, parent_index, self_s] per call; spans
    of one op share the op index.
    """

    def __init__(self):
        self.op = 0
        self.spans = []
        self._open = []  # [span_index, start, child_s, excluded_s]
        self.counts = defaultdict(lambda: defaultdict(float))
        self.maxima = defaultdict(lambda: defaultdict(float))

    def enter(self, layer: str):
        parent = self._open[-1][0] if self._open else None
        index = len(self.spans)
        start = perf_counter()
        self.spans.append([self.op, layer, start, None, parent, None])
        self._open.append([index, start, 0.0, 0.0])

    def exit(self):
        end = perf_counter()
        index, start, child_s, excluded_s = self._open.pop()
        duration = end - start - excluded_s
        span = self.spans[index]
        span[3] = end
        span[5] = duration - child_s
        if self._open:
            self._open[-1][2] += duration

    @contextmanager
    def untimed(self):
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            for frame in self._open:
                frame[3] += elapsed

    def count(self, name: str, value: float = 1.0):
        self.counts[self.op][name] += value

    def maximum(self, name: str, value: float):
        ops = self.maxima[self.op]
        ops[name] = max(ops[name], float(value))

    def per_op(self, ops: int) -> list[dict]:
        """Per-op self seconds by layer, plus the counts and maxima."""
        rows = [defaultdict(float) for _ in range(ops)]
        for op, layer, _, _, _, self_s in self.spans:
            if op < ops:
                rows[op][layer + "_s"] += self_s
        for op in range(ops):
            rows[op].update(self.counts[op])
            rows[op].update(self.maxima[op])
        return rows


def _region_nodes(node_mask):
    def observe(tracer, args, result):
        tracer.count("fields.holder_region_nodes",
                     int(node_mask(args["region"], args["field"].grid).sum()))
    return observe


def _contact_nodes(node_mask):
    def observe(tracer, args, result):
        cube, grid = args["cube"], args["u"].grid
        in_cube = node_mask(cube, grid)
        positive_s = (grid.s > 0).reshape((-1,) + (1,) * (in_cube.ndim - 1))
        tracer.count("estimates.contact_nodes", int((in_cube & positive_s).sum()))
        # the per-node (n, n) matrix array contact_sets allocates
        tracer.count("estimates.contact_array_bytes_computed",
                     int(in_cube.size) * grid.n * grid.n * 8)
    return observe


def _validate_slices(tracer, args, result):
    tracer.count("operators.validate_slices", len(args["grid"].t))


def _matrix_nnz(tracer, args, result):
    tracer.count("solver.matrix_nnz", result.A.nnz)


def _factor_nnz(tracer, args, result):
    nnz = result.L.nnz + result.U.nnz
    tracer.count("solver.factor_nnz", nnz)
    # 8-byte values plus 4-byte row indices per stored L and U entry
    tracer.count("solver.factor_bytes_computed", 12 * nnz)


def _residuals(tracer, args, result):
    residuals = getattr(result, "step_residuals", None)
    if residuals:
        tracer.maximum("solver.residual_max", max(residuals))


def _text_bytes(tracer, args, result):
    tracer.count("cli.report_bytes", len(result.encode()))


def _series_bytes(tracer, args, result):
    tracer.count("cli.report_bytes", os.path.getsize(args["path"]))


def _spans(node_mask):
    """(module, attribute, layer, observer) for every wrapped function."""
    derivatives = [("degenpde.fields", "fd_derivatives"),
                   ("degenpde.estimates", "fd_derivatives"),
                   ("degenpde.operators", "fd_derivatives")]
    derivatives += [("degenpde.fields", f"FieldDerivatives.{name}")
                    for name in ("u_x", "x_times_u_xx", "u_x_xgrid",
                                 "u_xx_xgrid", "u_xx")]
    return [
        ("degenpde.estimates", "holder_seminorm", "fields.holder", _region_nodes(node_mask)),
        ("degenpde.estimates", "cs_norm_2_alpha", "fields.holder", _region_nodes(node_mask)),
        *[(mod, attr, "fields.derivatives", None) for mod, attr in derivatives],
        ("degenpde.estimates", "lp_norm_weighted", "fields.lp_norm", None),
        ("degenpde.cli", "sample", "fields.sample", None),
        ("degenpde.solver", "validate_coefficients", "operators.validate", _validate_slices),
        ("degenpde.operators", "CoefficientField.eval_a", "operators.coeff_eval", None),
        ("degenpde.operators", "CoefficientField.eval_b", "operators.coeff_eval", None),
        ("degenpde.estimates", "apply_L0", "operators.apply_L", None),
        ("degenpde.operators", "apply_L", "operators.apply_L", None),
        ("degenpde.cli", "solve_ivbp", "solver.solve_ivbp", _residuals),
        ("degenpde.solver", "solve_ivbp", "solver.solve_ivbp", _residuals),
        ("degenpde.solver", "assemble_step_matrix", "solver.assemble", _matrix_nnz),
        ("degenpde.solver", "splu", "solver.factor", _factor_nnz),
        ("degenpde.solver", "StepMatrix.solve", "solver.linear_solve", None),
        ("degenpde.solver", "_eval_spatial", "solver.data_eval", None),
        ("degenpde.estimates", "contact_sets", "estimates.contact_sets", _contact_nodes(node_mask)),
        ("degenpde.estimates", "abp_check", "estimates.abp", None),
        ("degenpde.estimates", "harnack_quotient", "estimates.harnack", None),
        ("degenpde.estimates", "oscillation_decay", "estimates.oscillation", None),
        ("degenpde.estimates", "schauder_ratio", "estimates.schauder", None),
        ("degenpde.geometry", "ParabolicCube.node_mask", "geometry.node_mask", None),
        ("degenpde.cli", "ExperimentSpec.__init__", "cli.spec_parse", None),
        ("degenpde.estimates", "EstimateReport.to_text", "cli.report_write", _text_bytes),
        ("degenpde.estimates", "EstimateReport.to_record", "cli.report_write", _text_bytes),
        ("degenpde.cli", "write_series", "cli.report_write", _series_bytes),
        ("degenpde.expressions", "CompiledExpression.__call__", "expressions.eval", None),
    ]


# layers whose calls are counted as `<layer>_calls`
COUNTED = ("fields.holder", "operators.validate", "solver.assemble",
           "solver.factor", "solver.linear_solve", "geometry.node_mask",
           "expressions.eval")


def _owner(module: str, attr: str):
    obj = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


def _wrap(tracer: Tracer, layer: str, fn, observe):
    """Span around fn; observe(tracer, arguments by parameter name, result)."""
    counted = layer in COUNTED
    signature = inspect.signature(fn) if observe is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if counted:
            tracer.count(layer + "_calls")
        if observe is not None:
            with tracer.untimed():
                observe(tracer, signature.bind(*args, **kwargs).arguments, result)
        return result

    return wrapper


def _krylov_counter(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, callback=None, **kwargs):
        def counting(xk):
            tracer.count("solver.krylov_iters")
            if callback is not None:
                callback(xk)
        return fn(*args, callback=counting, **kwargs)

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Install every wrapper for the duration of the context."""
    from degenpde.geometry import ParabolicCube

    patched = []
    try:
        for mod, attr, layer, observe in _spans(ParabolicCube.node_mask):
            owner, name = _owner(mod, attr)
            original = getattr(owner, name)
            setattr(owner, name, _wrap(tracer, layer, original, observe))
            patched.append((owner, name, original))
        owner, name = _owner("degenpde.solver", "bicgstab")
        original = getattr(owner, name)
        setattr(owner, name, _krylov_counter(tracer, original))
        patched.append((owner, name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


def layer_metrics(tracer: Tracer, ops: int, names: list[str]) -> dict:
    """Median over ops of each per-layer metric; 0 where no op touched it."""
    rows = tracer.per_op(ops)
    out = {}
    for name in names:
        if name == "solver.reuse_ratio":
            values = [1.0 - row["solver.assemble_calls"] / row["solver.linear_solve_calls"]
                      if row["solver.linear_solve_calls"] else 0.0 for row in rows]
        else:
            values = [row.get(name, 0.0) for row in rows]
        out[name] = statistics.median(values)
    return out
