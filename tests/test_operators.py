import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from scipy import sparse

import degenpde
from degenpde.expressions import compile_expression

from degenpde.fields import Grid, ScalarField, _d1, fd_derivatives, sample
from degenpde.operators import (
    CoefficientField,
    apply_L,
    apply_L0,
    apply_parabolic,
    coefficients_from_expressions,
    exact_forcing,
    manufactured_solutions,
    model_coefficients,
    operator_matrix,
    parse_coefficient_preset,
    random_coefficients,
    validate_coefficients,
)
from degenpde.solver import IVBProblem, assemble_step_matrix, solve_ivbp


def unit_grid(nodes=17):
    return Grid.uniform((0, 1, nodes), [(-1, 1, nodes)], (0, 1, nodes))


def test_validate_model_coefficients_pass():
    rep = validate_coefficients(model_coefficients(1.0, 2), unit_grid(9))
    assert rep.passed
    assert rep.margins["transport"] >= 0


def test_validate_zero_transport_fails():
    coeffs = coefficients_from_expressions({"b1": "0"}, n=2, lam=0.5, nu=0.5)
    rep = validate_coefficients(coeffs, unit_grid(9))
    assert not rep.passed
    assert rep.margins["transport"] < 0


def test_validate_ellipticity_margin():
    # constant matrix with eigenvalues 0.4 and 1.0 against lambda = 0.5
    coeffs = coefficients_from_expressions(
        {"a11": "0.7", "a12": "0.3", "a22": "0.7", "b1": "1"},
        n=2, lam=0.5, nu=0.5)
    rep = validate_coefficients(coeffs, unit_grid(9))
    assert not rep.passed
    assert rep.margins["ellipticity"] == pytest.approx(-0.1, abs=1e-12)


def margins_on_the_spacetime_grid(coeffs, grid):
    """Reference for validate_coefficients: the margins of the whole space-time arrays."""
    meshes = grid.x_meshes()
    A, B = coeffs.eval_a(meshes, grid.shape), coeffs.eval_b(meshes, grid.shape)
    lam, nu = coeffs.params.lam, coeffs.params.nu
    eigs = np.linalg.eigvalsh(np.moveaxis(A, (0, 1), (-2, -1)))
    return {"ellipticity": float(np.min(eigs) - lam),
            "bound_a": float(1.0 / lam - np.max(np.abs(A))),
            "bound_b": float(1.0 / lam - np.max(np.abs(B))),
            "transport": float(np.min(2.0 * B[0] / A[0, 0]) - nu)}


def test_time_dependent_validation_walks_the_slices():
    # every margin is worst on the last slice; the whole space-time arrays
    # (n^2 + n of them) peaked at 240 B per space-time node, one slice at a
    # time peaks at 14 B
    g = Grid.uniform((0, 1, 17), [(-1, 1, 17)] * 2, (0, 1, 17))
    coeffs = coefficients_from_expressions(
        {"a11": "1.2 - 0.5*t", "a22": "1 + t", "a23": "0.1*t", "b1": "0.6 - 0.3*t + 0.1*y2",
         "b2": "0.5*t*y2"}, 3, lam=0.4, nu=0.2)
    tracemalloc.start()
    try:
        report = validate_coefficients(coeffs, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.margins == margins_on_the_spacetime_grid(coeffs, g)
    assert peak < 4 * math.prod(g.shape) * 8
    on_first = CoefficientField(3, coeffs.a, coeffs.b, coeffs.params)
    assert validate_coefficients(on_first, g).margins != report.margins


def test_operator_matrix_arrays_hold_exactly_its_entries():
    # a sparse sum is stored on a buffer sized for both operands; at 33^3
    # L_h's entries were a view of 328,878 stored for 254,826
    g = Grid.uniform((0, 1, 17), [(-1, 1, 17)] * 2, (0, 1, 5))
    L = operator_matrix(random_coefficients(7, 3), g, 0.5)[0]
    for arr in (L.data, L.indices):
        assert (arr if arr.base is None else arr.base).nbytes == L.nnz * arr.itemsize


def test_time_dependent_validation_names_the_node_of_a_non_finite_value():
    coeffs = coefficients_from_expressions({"a11": "1 + 1/(t - 0.75)"}, 2)
    with np.errstate(divide="ignore"), pytest.raises(ValueError, match=re.escape(
            "coefficient a11 is non-finite at node index (0, 0, 12)")):
        validate_coefficients(coeffs, unit_grid(17))


@pytest.mark.parametrize("coeffs", [model_coefficients(2.0, 3), random_coefficients(11, 3)],
                         ids=["model", "random"])
def test_static_validation_matches_the_full_spacetime_grid(coeffs):
    g = Grid.uniform((0, 1, 9), [(-1, 1, 9), (-1, 1, 7)], (0, 1, 17))
    full = CoefficientField(coeffs.n, coeffs.a, coeffs.b, coeffs.params,
                            time_dependent=True)
    one_slice = validate_coefficients(coeffs, g)
    assert one_slice.margins == validate_coefficients(full, g).margins
    assert one_slice.passed


@pytest.mark.parametrize("key", ["a13", "b3", "a1", "c", "A11", "a21 "])
def test_expression_coefficients_refuse_an_unknown_key(key):
    with pytest.raises(ValueError, match=f"unknown coefficient key {key!r}"):
        coefficients_from_expressions({"b1": "1", key: "0.5"}, n=2)


def test_a_symmetric_pair_conflicts_only_when_the_parsed_expressions_differ():
    g = unit_grid(9)
    meshes = g.x_meshes()
    coeffs = coefficients_from_expressions({"a12": "x+1", "a21": " (x) + 01 "}, n=2)
    assert np.array_equal(coeffs.eval_a(meshes, g.shape)[0, 1],
                          np.broadcast_to(meshes[0] + 1.0, g.shape))
    with pytest.raises(ValueError, match="conflicting entries for a12/a21"):
        coefficients_from_expressions({"a12": "x+1", "a21": "1+x"}, n=2)


def test_late_loss_of_ellipticity_is_refused():
    # a22 = 1 - 0.6 t drops below lambda = 0.5 only for t > 5/6
    coeffs = coefficients_from_expressions({"a22": "1 - 0.6*t"}, n=2)
    assert coeffs.time_dependent
    rep = validate_coefficients(coeffs, unit_grid(13))
    assert not rep.passed
    assert rep.margins["ellipticity"] == pytest.approx(-0.1, abs=1e-12)



def test_time_dependent_apply_L_is_the_operator_of_each_slice():
    g = Grid.uniform((0, 1, 13), [(-1, 1, 11), (-1, 1, 9)], (0, 1, 5))
    coeffs = coefficients_from_expressions(
        {"a11": "1 + 0.5*t", "a12": "0.1*t", "a23": "0.2 - 0.1*t", "b1": "1 + t*y2"}, 3, lam=0.3)
    u = np.random.default_rng(2).standard_normal(g.shape)
    got = apply_L(coeffs, ScalarField(g, u)).values
    for k, t in enumerate(g.t):
        want = operator_matrix(coeffs, g, t)[0] @ u[..., k].ravel()
        assert np.array_equal(got[..., k].ravel(), want), k

def test_apply_L_examples():
    g = unit_grid(21)
    coeffs = model_coefficients(2.0, 2)
    lu = apply_L(coeffs, sample(lambda x, y, t: x + 2.0 * t, g))
    assert np.max(np.abs(lu.values - 2.0)) <= 1e-10
    lu = apply_L(coeffs, sample(lambda x, y, t: y + 0 * x, g))
    assert np.max(np.abs(lu.values)) <= 1e-10
    lu = apply_L(coeffs, sample(lambda x, y, t: x * x + 0 * y, g))
    x = np.broadcast_to(g.s.reshape(-1, 1, 1) ** 2, g.shape)
    # quadratics in x are exact past the transport blend zone, s-index >= 5
    assert np.max(np.abs(lu.values - 2.0 * (1.0 + 2.0) * x)[5:]) <= 1e-9


def test_apply_L_linearity():
    g = unit_grid(13)
    coeffs = random_coefficients(5, 2)
    u = sample(lambda x, y, t: np.sin(x) + y * t, g)
    w = sample(lambda x, y, t: np.cos(y) + x * x, g)
    combo = ScalarField(g, 2.0 * u.values - 3.0 * w.values)
    lhs = apply_L(coeffs, combo).values
    rhs = 2.0 * apply_L(coeffs, u).values - 3.0 * apply_L(coeffs, w).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_apply_L0_annihilates_manufactured():
    g = Grid.uniform((0, 1, 33), [(-1, 1, 33)], (0, 1, 33))
    for v in (0.25, 1.0, 4.0):
        for ms in manufactured_solutions(v):
            f = sample(ms.f, g)
            gg = sample(ms.g, g)
            res = apply_L0(v, f).values - gg.values
            # the quadratic in x is exact past the transport blend zone only
            lo = 5 if ms.name == "caloric_quadratic" else 1
            interior = res[lo:-1, 2:-2, 2:-2]
            assert np.max(np.abs(interior)) <= 1e-10, ms.name


def test_apply_parabolic_is_u_t_minus_L():
    g = unit_grid(13)
    f = sample(lambda x, y, t: np.sin(x + y) * (1 + t * t), g)
    for v in (0.25, 4.0):
        assert np.array_equal(apply_parabolic(model_coefficients(v, 2), f).values,
                              apply_L0(v, f).values)
    # L annihilates a field constant in space; the second-order time
    # difference of t^2 is exact
    t_only = sample(lambda x, y, t: t * t + 0 * x, g)
    t = np.broadcast_to(g.t, g.shape)
    lu = apply_parabolic(random_coefficients(5, 2), t_only).values
    assert np.max(np.abs(lu - 2 * t)) <= 1e-12


X_, Y2_, Y3_, T_ = sp.symbols("x y2 y3 t")


def _sympy_forcing(text, entries, n):
    """u_t - Lu for u = text, L the paper's operator with sympy-parsed entries a_ij, b_i."""
    names = {"x": X_, "y2": Y2_, "y3": Y3_, "t": T_}

    def entry(key, default):
        return sp.sympify(entries.get(key, default), locals=names)

    a = [[entry(f"a{min(i, j)}{max(i, j)}", "1" if i == j else "0") for j in range(1, n + 1)]
         for i in range(1, n + 1)]
    b = [entry(f"b{i}", "0") for i in range(1, n + 1)]
    u, z = sp.sympify(text, locals=names), [X_, Y2_, Y3_][:n]
    lu = (X_ * a[0][0] * sp.diff(u, X_, 2)
          + sum(2 * sp.sqrt(X_) * a[0][j] * sp.diff(u, X_, z[j]) for j in range(1, n))
          + sum(a[i][j] * sp.diff(u, z[i], z[j]) for i in range(1, n) for j in range(1, n))
          + sum(b[i] * sp.diff(u, z[i]) for i in range(n)))
    return sp.diff(u, T_) - lu


@pytest.mark.parametrize("v", [0.25, 0.7, 1.0, 4.0])
def test_catalog_forcing_equals_the_symbolic_one(v):
    g = Grid.uniform((0, 1, 17), [(-1, 1, 17)], (0, 1, 17))
    for ms in manufactured_solutions(v):
        want = sp.lambdify((X_, Y2_, T_), _sympy_forcing(ms.f.text, {"b1": repr(v)}, 2))
        assert np.max(np.abs(sample(ms.g, g).values - sample(want, g).values)) <= 1e-14, ms.name


@pytest.mark.parametrize("n, entries, text", [
    (2, {"a11": "1 + 0.3*x", "a12": "0.2 + 0.1*y2", "b1": "1", "b2": "-0.3*t"},
     "(1 + x + x^2/2)*(1 + y2^2/4) + 0.3*x*y2*exp(-t)"),
    (3, {"a11": "1 + 0.3*x", "a12": "0.1", "a13": "0.2*y3", "a22": "1.2", "a23": "0.1*t",
         "a33": "0.9", "b1": "1", "b2": "y3", "b3": "0.3"},
     "sqrt(1 + x)*y2*y3^2 + x^2*y3*t - y2^3"),
], ids=["n2_cross_terms", "n3_all_terms"])
def test_exact_forcing_equals_the_symbolic_one_for_the_class(n, entries, text):
    g = Grid.uniform((0, 1, 9), [(-1, 1, 9)] * (n - 1), (0, 1, 5))
    want = sp.lambdify([X_, Y2_, Y3_][:n] + [T_], _sympy_forcing(text, entries, n))
    got = exact_forcing(coefficients_from_expressions(entries, n=n), compile_expression(text))
    assert np.allclose(sample(got, g).values, sample(want, g).values, rtol=1e-13, atol=1e-13)


def test_exact_forcing_refuses_a_non_finite_coefficient_by_name():
    g = exact_forcing(coefficients_from_expressions({"a12": "1/x"}, n=2),
                      compile_expression("x*y2"))
    with np.errstate(divide="ignore"), pytest.raises(
            ValueError, match=r"coefficient a12 is non-finite at node index \(0,"):
        g(np.array([0.0, 1.0]), 0.5, 0.0)


def test_the_catalog_and_the_cli_run_without_sympy(tmp_path):
    code = ("import sys\n"
            "sys.modules['sympy'] = None\n"
            "from degenpde import cli, operators\n"
            "assert len(operators.manufactured_solutions(1.0)) == 4\n"
            f"sys.exit(cli.main(['run', 'model_manufactured', '--out', {str(tmp_path)!r}]))\n")
    src = str(Path(degenpde.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "summary.txt").read_text().endswith("result = PASS\n")


def test_manufactured_catalog_contents():
    names = [ms.name for ms in manufactured_solutions(0.7)]
    assert "linear" in names
    assert "caloric_quadratic" in names
    assert len(names) >= 4


def test_presets():
    c = parse_coefficient_preset("model:v=2.5", 2)
    assert validate_coefficients(c, unit_grid(5)).passed
    c = parse_coefficient_preset("identity", 3)
    assert c.n == 3
    c = parse_coefficient_preset("random:seed=11", 2)
    assert validate_coefficients(c, unit_grid(9)).passed
    with pytest.raises(ValueError):
        parse_coefficient_preset("nonsense", 2)


@pytest.mark.parametrize("v", [True, False])
def test_a_bool_velocity_is_refused_by_name(v):
    with pytest.raises(ValueError, match=f"transport velocity must be positive and finite, "
                                         f"got {v!r}"):
        model_coefficients(v, 2)


def test_transport_velocity_positive():
    with pytest.raises(ValueError, match="transport velocity must be positive"):
        model_coefficients(0.0, 2)


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
def test_non_finite_velocity_is_refused_by_name(v):
    with pytest.raises(ValueError, match=f"transport velocity must be positive and finite, "
                                         f"got {v!r}"):
        model_coefficients(v, 2)


def reference_apply_L(coeffs, field):
    """Lu by one FieldDerivatives loop: x u_xx and u_x from x_stencils everywhere."""
    g = field.grid
    d = fd_derivatives(field)
    meshes = g.x_meshes()
    A = coeffs.eval_a(meshes, g.shape)
    B = coeffs.eval_b(meshes, g.shape)
    m = len(g.y)
    u_x = d.u_x()
    out = A[0, 0] * d.x_times_u_xx()
    sqrt_x = np.sqrt(meshes[0])
    for j in range(m):
        out += 2.0 * A[0, 1 + j] * sqrt_x * _d1(u_x, g.hy(j), 1 + j)
    for i in range(m):
        for j in range(m):
            out += A[1 + i, 1 + j] * d.u_yy[i][j]
    out += B[0] * u_x
    for j in range(m):
        out += B[1 + j] * d.u_y[j]
    return out


def forward_difference(field):
    """(u_{i+1} - u_i) / (x_{i+1} - x_i) along s, backward in the last row."""
    g = field.grid
    v = field.values
    k = np.minimum(np.arange(len(g.s)), len(g.s) - 2)
    h = (g.x[k + 1] - g.x[k]).reshape((-1,) + (1,) * (v.ndim - 1))
    return (v[k + 1] - v[k]) / h


OPERATOR_CASES = {
    "model": (model_coefficients(1.0, 2), 2),
    "random": (random_coefficients(3, 2), 2),
    "cross_n2": (coefficients_from_expressions(
        {"a12": "0.3 + 0.1*y2", "a22": "1 + 0.2*x", "b1": "1 + 0.1*x", "b2": "0.3*y2"},
        2, lam=0.3), 2),
    "cross_n3": (coefficients_from_expressions(
        {"a23": "0.3 + 0.1*y2", "a12": "0.1", "a13": "0.2*x", "b1": "1", "b2": "0.4",
         "b3": "y3"},
        3, lam=0.3), 3),
    "random_n3": (random_coefficients(7, 3), 3),
    "time_dependent": (coefficients_from_expressions(
        {"a11": "1 + 0.5*t", "a12": "0.2*t", "b1": "1 + t*y2"}, 2), 2),
}


def operator_grid(n, nodes=17, s_lo=0.0):
    return Grid.uniform((s_lo, 1, nodes), [(-1, 1, nodes - 2 * k) for k in range(n - 1)],
                        (0, 1, 5))


def smooth_field(grid):
    return sample(lambda x, *coords: np.exp(-coords[-1]) * (1 + np.sin(3 * x))
                  * np.cos(2 * coords[0] + 0.5 * sum(coords[1:-1])), grid)


@pytest.mark.parametrize("s_lo", [0.0, 0.3], ids=["s0", "clipped"])
@pytest.mark.parametrize("case", sorted(OPERATOR_CASES))
def test_apply_L_is_the_reference_loop_past_the_blend_zone(case, s_lo):
    # the reference differs only in the transport near s = 0: where the
    # blend weight w < 1 the one L_h takes (1 - w) b1 of the forward
    # difference F in place of the centred x-derivative X1
    coeffs, n = OPERATOR_CASES[case]
    g = operator_grid(n, s_lo=s_lo)
    f = smooth_field(g)
    new, ref = apply_L(coeffs, f).values, reference_apply_L(coeffs, f)
    scale = 1.0 + np.max(np.abs(ref))
    assert np.max(np.abs(new - ref)[5:]) <= 1e-12 * scale
    w = np.clip((np.arange(len(g.s)) - 1) / 4.0, 0.0, 1.0).reshape((-1,) + (1,) * n)
    b1 = coeffs.eval_b(g.x_meshes(), g.shape)[0]
    blend = (1 - w) * b1 * (forward_difference(f) - fd_derivatives(f).u_x())
    assert np.max(np.abs(new - ref - blend)[:5]) <= 1e-12 * scale
    assert np.max(np.abs(blend[:5])) > 1e-4 * scale  # the blend zone does differ


LINEAR_GRIDS = {
    "s3_y4": Grid.uniform((0, 1, 3), [(-1, 1, 4)], (0, 1, 3)),
    "s4_y3": Grid.uniform((0, 1, 4), [(-1, 1, 3)], (0, 1, 3)),
    "s5_y5": Grid.uniform((0, 1, 5), [(-1, 1, 5)], (0, 1, 3)),
    "s9_clipped": Grid.uniform((0.4, 1.2, 9), [(-1, 2, 7)], (0, 1, 3)),
    "n3_s4": Grid.uniform((0, 1, 4), [(-1, 1, 3), (0, 1, 5)], (0, 1, 3)),
    "n3_s9": Grid.uniform((0, 1, 9), [(-1, 1, 6), (0, 1, 4)], (0, 1, 3)),
}


@pytest.mark.parametrize("grid_id, case", [
    (grid_id, case) for grid_id, g in sorted(LINEAR_GRIDS.items())
    for case, (_, n) in sorted(OPERATOR_CASES.items()) if n == g.n])
def test_every_row_is_exact_for_fields_linear_in_x_and_y(grid_id, case):
    # every row of L_h, lateral edges included, on s-grids of 3-5 nodes too
    g = LINEAR_GRIDS[grid_id]
    coeffs, n = OPERATOR_CASES[case]
    slopes = (0.7, -1.3, 2.1)[:n]
    # 0.5 + sum_k c_k (x, y...)_k + t; L does not see the time term
    f = sample(lambda x, *coords: 0.5 + slopes[0] * x + coords[-1]
               + sum(c * y for c, y in zip(slopes[1:], coords[:-1])), g)
    B = coeffs.eval_b(g.x_meshes(), g.shape)
    exact = sum(c * b for c, b in zip(slopes, B))
    assert np.max(np.abs(apply_L(coeffs, f).values - exact)) <= 1e-12 * (1 + np.max(np.abs(exact)))


@pytest.mark.parametrize("case", sorted(OPERATOR_CASES))
def test_apply_L_is_the_operator_of_the_step_matrix(case):
    # at every free node, (I - M) u / dt = (L_h + c) u with c = 0
    coeffs, n = OPERATOR_CASES[case]
    g = operator_grid(n)
    f = smooth_field(g)
    dt = 1.0 / 16
    M = assemble_step_matrix(IVBProblem(coeffs), g, dt, t_eval=float(g.t[-1])).A
    u = f.values[..., -1].ravel()
    step = ((sparse.identity(M.shape[0]) - M) @ u / dt).reshape(g.shape[:-1])
    lu = apply_L(coeffs, f).values[..., -1]
    free = g.interior_box(1)
    assert np.max(np.abs(step[free] - lu[free])) <= 1e-10 * (1 + np.max(np.abs(lu)))


def pole_at_x_quarter(x, y, t):
    return 1.0 / (x - 0.25) + 0 * y  # s = 0.5, s-index 4 of 9 nodes


@pytest.mark.filterwarnings("ignore:divide by zero")
@pytest.mark.parametrize("call, index", [
    (lambda c, g, u: solve_ivbp(IVBProblem(c, initial=u, lateral=u), g), "(4, 0, 0)"),
    (lambda c, g, u: validate_coefficients(c, g), "(4, 0, 0)"),
    (lambda c, g, u: assemble_step_matrix(IVBProblem(c), g, 0.1), "(4, 0)"),
    (lambda c, g, u: apply_L(c, sample(u, g)), "(4, 0)"),
], ids=["solve_ivbp", "validate", "assemble", "apply_L"])
def test_a_non_finite_coefficient_is_refused_by_name(call, index):
    # the one refusal, in CoefficientField.eval_a; before it the same
    # fault read "coefficient conditions violated: {'ellipticity': nan,
    # ...}", "non-finite coefficient values on the grid", or a non-finite
    # Lu at node index (4, 0, 0)
    g = unit_grid(9)
    coeffs = model_coefficients(1.0, 2)
    coeffs.a[0][0] = pole_at_x_quarter
    with pytest.raises(ValueError, match=re.escape(
            f"coefficient a11 is non-finite at node index {index}")):
        call(coeffs, g, lambda x, y, t: 1.0 + 0 * x)


def test_a_non_finite_drift_is_refused_by_name():
    g = unit_grid(9)
    coeffs = model_coefficients(1.0, 2)
    coeffs.b[1] = lambda x, y, t: np.where(y > 0.5, np.inf, 0.0) + 0 * x
    with pytest.raises(ValueError, match=re.escape(
            "coefficient b2 is non-finite at node index (0, 7)")):
        apply_L(coeffs, sample(lambda x, y, t: x + 0 * y, g))
