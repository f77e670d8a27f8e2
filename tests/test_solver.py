import dataclasses
import gc
import math
import re
import weakref

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from degenpde import solver
from degenpde.fields import Grid, sample
from degenpde.operators import (coefficients_from_expressions, model_coefficients,
                                random_coefficients)
from degenpde.solver import (
    IVBProblem,
    SolverConfig,
    _march,
    assemble_step_matrix,
    random_positive_solution_ensemble,
    solve_ivbp,
    solve_model,
)


def unit_grid(nodes=17, horizon=1.0, t_nodes=None):
    return Grid.uniform((0, 1, nodes), [(-1, 1, nodes)],
                        (0, horizon, t_nodes or nodes))


def test_constant_is_fixed_point():
    g = unit_grid(17)
    one = lambda x, y, t: 1.0 + 0 * x
    u = solve_model(1.0, None, one, one, g)
    assert np.max(np.abs(u.values - 1.0)) <= 1e-10


def test_step_matrix_rows_sum_to_one_on_constants():
    g = unit_grid(9)
    prob = IVBProblem(coeffs=1.0)
    step = assemble_step_matrix(prob, g, dt=0.01)
    ones = np.ones(step.A.shape[0])
    assert np.max(np.abs(step.A @ ones - 1.0)) <= 1e-12
    assert step.diagonally_dominant


def test_manufactured_linear_exact():
    g = unit_grid(33)
    for v in (0.25, 1.0, 4.0):
        f = lambda x, y, t: x + v * t
        u = solve_model(v, None, f, f, g)
        exact = sample(f, g)
        assert np.max(np.abs(u.values - exact.values)) <= 1e-10


def test_step_residuals_are_declared_one_per_substep():
    g = unit_grid(17)  # 16 steps of 1/16 between output slices
    v = 1.0
    f = lambda x, y, t: x + v * t
    u = solve_model(v, None, f, f, g, SolverConfig(dt=0.025))
    assert "step_residuals" in {fld.name for fld in dataclasses.fields(u)}
    assert len(u.step_residuals) == 3 * (len(g.t) - 1)  # ceil(0.0625 / 0.025)
    assert all(math.isfinite(r) and r <= 1e-9 for r in u.step_residuals)
    assert len(solve_model(v, None, f, f, g).step_residuals) == len(g.t) - 1


def test_zeroth_order_term():
    g = unit_grid(21)
    v, c = 1.0, 1.0
    f = lambda x, y, t: x + v * t
    forcing = lambda x, y, t: c * (x + v * t)
    u = solve_model(v, forcing, f, f, g, c=-c)
    exact = sample(f, g)
    assert np.max(np.abs(u.values - exact.values)) <= 1e-9


def test_zero_problem_stays_zero():
    g = unit_grid(9)
    zero = lambda x, y, t: 0.0 * x
    u = solve_model(2.0, None, zero, zero, g)
    assert np.max(np.abs(u.values)) == 0.0


def test_temporal_order():
    g = Grid.uniform((0, 1, 65), [(-1, 1, 9)], (0, 1, 5))
    v = 1.0
    f = lambda x, y, t: x * x + 2 * (1 + v) * x * t + v * (1 + v) * t * t + 0 * y
    exact = sample(f, g)

    def final_err(dt):
        u = solve_model(v, None, f, f, g, SolverConfig(dt=dt))
        return float(np.max(np.abs(u.values[..., -1] - exact.values[..., -1])))

    assert final_err(0.05) / final_err(0.025) >= 1.8


def test_maximum_principle_random_coefficients():
    for seed in range(3):
        g = unit_grid(21)
        coeffs = random_coefficients(100 + seed, 2)
        prob = IVBProblem(coeffs=coeffs, forcing=lambda x, y, t: -1.0 + 0 * x,
                          initial=lambda x, y, t: 0.0 * x,
                          lateral=lambda x, y, t: 0.0 * x)
        u = solve_ivbp(prob, g)
        assert float(np.max(u.values)) <= 1e-12


def test_incompatible_data_rejected():
    g = unit_grid(9)
    with pytest.raises(ValueError):
        solve_model(1.0, None, lambda x, y, t: 1.0 + 0 * x,
                    lambda x, y, t: 0.0 * x, g)


def test_ensemble_deterministic_and_nonnegative():
    g = unit_grid(17, horizon=0.25, t_nodes=9)
    coeffs = model_coefficients(1.0, 2)
    ens1 = random_positive_solution_ensemble(42, 3, coeffs, g)
    ens2 = random_positive_solution_ensemble(42, 3, coeffs, g)
    for u1, u2 in zip(ens1, ens2):
        assert np.array_equal(u1.values, u2.values)
        assert float(np.min(u1.values)) >= 0.0
    ens3 = random_positive_solution_ensemble(43, 1, coeffs, g)
    assert not np.array_equal(ens1[0].values, ens3[0].values)


def cube_grid(nodes, s_lo=0.0, t_nodes=5):
    return Grid.uniform((s_lo, 1, nodes), [(-1, 1, nodes), (-1, 1, nodes)],
                        (0, 1, t_nodes))


@pytest.mark.parametrize("n", [2, 3])
def test_clipped_box_low_s_face_is_dirichlet(n):
    g = Grid.uniform((0.5, 1, 13), [(-1, 1, 13)] * (n - 1), (0, 1, 5))
    f = lambda x, *coords: x + coords[-1]
    u = solve_model(1.0, None, f, f, g)
    assert np.max(np.abs(u.values - sample(f, g).values)) <= 1e-10


@pytest.mark.parametrize("v", [0.25, 1.0, 4.0])
def test_manufactured_linear_exact_n3(v):
    g = cube_grid(13, t_nodes=9)
    f = lambda x, y2, y3, t: x + v * t
    u = solve_model(v, None, f, f, g)
    assert np.max(np.abs(u.values - sample(f, g).values)) <= 1e-10


@pytest.mark.parametrize("seed", [200, 201, 202])
def test_maximum_principle_random_coefficients_n3(seed):
    g = cube_grid(13, t_nodes=9)
    data = lambda x, y2, y3, t: -0.1 + 0 * x
    prob = IVBProblem(coeffs=random_coefficients(seed, 3),
                      forcing=lambda x, y2, y3, t: -1.0 + 0 * x,
                      initial=data, lateral=data)
    u = solve_ivbp(prob, g)
    assert float(np.max(u.values)) <= -0.1 + 1e-8


STEP_CASES = {
    "random_c": (random_coefficients(5, 3), -1.0),
    "time_dependent": (coefficients_from_expressions(
        {"a11": "1 + 0.5*t", "b1": "1 + t*y2", "b3": "0.5*t - 0.2"}, 3), 0.5),
    "cross_terms": (coefficients_from_expressions(
        {"a23": "0.3 + 0.1*y2", "a12": "0.1", "b2": "0.4"}, 3), 0.0),
    # |b2| h >= 2 a22 on 9 nodes: the preconditioner drops the y2-drift
    "strong_y_drift": (coefficients_from_expressions(
        {"a22": "0.1", "b2": "0.9"}, 3, lam=0.05), 0.0),
}


@pytest.mark.parametrize("nodes", [9, 13])
@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_step_solve_matches_sparse_direct_solve_n3(case, nodes):
    coeffs, c = STEP_CASES[case]
    step = assemble_step_matrix(IVBProblem(coeffs=coeffs, c=c), cube_grid(nodes),
                                dt=1 / 16, t_eval=0.75)
    rhs = np.random.default_rng(nodes).uniform(-1, 1, step.A.shape[0])
    u = step.solve(rhs, x0=np.zeros_like(rhs))
    assert np.max(np.abs(u - spsolve(step.A.tocsc(), rhs))) <= 1e-8


def test_preconditioner_is_exact_for_the_model_operator():
    # one BiCGStab iteration suffices for the model operator; variable
    # coefficients stay within 15
    g = cube_grid(17)
    rhs = np.random.default_rng(3).uniform(-1, 1, 17 ** 3)
    for coeffs, max_iter in ((2.0, 1), (random_coefficients(7, 3), 15)):
        step = assemble_step_matrix(IVBProblem(coeffs=coeffs, c=-0.5), g, dt=1 / 16,
                                    config=SolverConfig(max_iter=max_iter))
        u = step.solve(rhs, x0=np.zeros_like(rhs))
        assert np.max(np.abs(step.A @ u - rhs)) <= 1e-8


def test_step_matrix_is_freed_without_the_cycle_collector():
    # the solver closure must not refer back to its StepMatrix, or the
    # sparse blocks it holds outlive the solve until a gc pass
    gc.disable()
    try:
        step = assemble_step_matrix(IVBProblem(coeffs=2.0), cube_grid(9), dt=0.1)
        ref = weakref.ref(step)
        del step
        assert ref() is None
    finally:
        gc.enable()


def nan_at_interior_node(x, y, t):
    return np.where((x == 0.25) & (y == 0.0), np.nan, 0.0 * x)


NON_FINITE_DATA = {
    # (initial, lateral, forcing): the refusal; nodes are (s, y, t)
    "initial_one_over_x": (lambda x, y, t: 1 / x, lambda x, y, t: 1 / x, None,
                           "initial data is non-finite at node (0.0, -1.0, 0.0)"),
    "initial_interior_nan": (nan_at_interior_node, lambda x, y, t: 0 * x, None,
                             "initial data is non-finite at node (0.5, 0.0, 0.0)"),
    "lateral_nan_after_0.3": (lambda x, y, t: 0 * x,
                              lambda x, y, t: (np.nan if t > 0.3 else 0.0) + 0 * x, None,
                              "lateral data is non-finite at node (0.0, -1.0, 0.375)"),
    "forcing_one_over_x": (lambda x, y, t: 0 * x, lambda x, y, t: 0 * x,
                           lambda x, y, t: 1 / x,
                           "forcing is non-finite at node (0.0, -0.75, 0.125)"),
}


@pytest.mark.filterwarnings("ignore:divide by zero")
@pytest.mark.parametrize("case", sorted(NON_FINITE_DATA))
def test_non_finite_data_is_refused_by_name(case):
    initial, lateral, forcing, message = NON_FINITE_DATA[case]
    prob = IVBProblem(coeffs=1.0, forcing=forcing, initial=initial, lateral=lateral)
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_ivbp(prob, unit_grid(9))


def members():
    """Three compatible problems with different data; one has no forcing."""
    def data(k):
        return lambda x, *coords: k + x + np.sin(coords[0] + k * coords[-1])

    def forcing(k):
        return lambda x, *coords: k * np.cos(x - coords[-1]) + 0 * coords[0]

    return [dict(initial=data(k), lateral=data(k), forcing=forcing(k) if k else None)
            for k in range(3)]


BATCH_CASES = {
    "n2_lu": (random_coefficients(11, 2), unit_grid(13, horizon=0.5, t_nodes=9)),
    "n3_krylov": (random_coefficients(12, 3),
                  Grid.uniform((0, 1, 9), [(-1, 1, 9)] * 2, (0, 0.5, 9))),
    "time_dependent": (coefficients_from_expressions(
        {"a11": "1 + 0.5*t", "b1": "1 + t*y2"}, 2), unit_grid(13, horizon=0.5, t_nodes=9)),
}


@pytest.mark.parametrize("dt", [None, 0.03])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batch_march_equals_one_march_per_member(case, dt):
    coeffs, grid = BATCH_CASES[case]
    config = SolverConfig(dt=dt)
    problems = [IVBProblem(coeffs=coeffs, c=-0.5, **data) for data in members()]
    batch = _march(problems, grid, config)
    for prob, u in zip(problems, batch):
        alone = solve_ivbp(prob, grid, config)
        assert np.array_equal(u.values, alone.values)
        assert u.step_residuals == alone.step_residuals
    # dt = 0.03 splits each step of 1/16 into 3 substeps
    assert len(batch[0].step_residuals) == (len(grid.t) - 1) * (1 if dt is None else 3)


@pytest.mark.parametrize("other", [dict(coeffs=2.0), dict(c=-0.5),
                                   dict(coeffs=model_coefficients(1.0, 2))])
def test_batch_march_refuses_a_second_operator(other):
    data = members()[0]
    first = IVBProblem(coeffs=1.0, **data)
    second = IVBProblem(**{"coeffs": 1.0, **data, **other})
    with pytest.raises(ValueError, match="one operator"):
        _march([first, second], unit_grid(9))


def counting(monkeypatch, name):
    calls = []
    original = getattr(solver, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, name, counted)
    return calls


def ensemble_counts(monkeypatch, name):
    # linspace(0, 0.5, 201) has 9 distinct float spacings
    grid = Grid.uniform((0, 1, 9), [(-1, 1, 9)], (0, 0.5, 201))
    calls = counting(monkeypatch, name)
    random_positive_solution_ensemble(1, 20, model_coefficients(1.0, 2), grid)
    return len(calls)


def test_ensemble_assembles_once_per_step_size(monkeypatch):
    assert ensemble_counts(monkeypatch, "assemble_step_matrix") == 9


def test_ensemble_validates_its_coefficients_once(monkeypatch):
    assert ensemble_counts(monkeypatch, "validate_coefficients") == 1


def test_lateral_data_is_evaluated_on_the_dirichlet_nodes_only():
    grid = unit_grid(9)
    dirichlet = 2 * 9 + (9 - 2)  # both y-faces and s = s_max; s = 0 is free
    sizes = []

    def lateral(x, y, t):
        sizes.append(np.broadcast(x, y).size)
        return x + t

    f = lambda x, y, t: x + t
    u = solve_ivbp(IVBProblem(coeffs=1.0, initial=f, lateral=lateral), grid,
                   SolverConfig(dt=0.05))
    assert sizes == [dirichlet] * (1 + len(u.step_residuals))
    assert np.max(np.abs(u.values - sample(f, grid).values)) <= 1e-10
