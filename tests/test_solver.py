import dataclasses
import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, bicgstab, spsolve

from degenpde import barriers, solver
from degenpde.fields import Grid, sample, x_stencils
from degenpde.operators import (_axis_matrices, coefficients_from_expressions,
                                model_coefficients, operator_matrix, random_coefficients,
                                validate_coefficients)
from degenpde.solver import (
    IVBProblem,
    _march,
    assemble_step_matrix,
    random_positive_solution_ensemble,
    solve_ivbp,
)


def unit_grid(nodes=17, horizon=1.0, t_nodes=None):
    return Grid.uniform((0, 1, nodes), [(-1, 1, nodes)],
                        (0, horizon, t_nodes or nodes))


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -0.1])
def test_a_step_size_that_is_not_finite_and_positive_is_refused(dt):
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        assemble_step_matrix(IVBProblem(coeffs=model_coefficients(1.0, 2)), unit_grid(5), dt)



@pytest.mark.parametrize("coeffs, kind", [(1.0, "float"), (2, "int"), ("model:v=1", "str")])
def test_a_problem_refuses_coefficients_that_are_not_a_field(coeffs, kind):
    with pytest.raises(TypeError, match=re.escape(
            f"coeffs must be a CoefficientField, got {kind}; use model_coefficients(v, n)")):
        IVBProblem(coeffs=coeffs)


@pytest.mark.parametrize("coeffs_n, grid_n", [(3, 2), (2, 3)])
def test_coefficients_of_another_dimension_are_refused(coeffs_n, grid_n):
    # before the refusal n = 3 coefficients on an n = 2 grid lost their third
    # row and column without a word, and n = 2 ones on an n = 3 grid died
    # with an IndexError; validation passed both
    grid = Grid.uniform((0, 1, 5), [(-1, 1, 5)] * (grid_n - 1), (0, 1, 3))
    coeffs = model_coefficients(1.0, coeffs_n)
    one = lambda x, *coords: 1.0 + 0 * x
    match = re.escape(f"coefficient dimension does not match grid: the coefficients have "
                      f"n = {coeffs_n}, the grid n = {grid_n}")
    with pytest.raises(ValueError, match=match):
        solve_ivbp(IVBProblem(coeffs=coeffs, initial=one, lateral=one), grid)
    with pytest.raises(ValueError, match=match):
        assemble_step_matrix(IVBProblem(coeffs=coeffs), grid, 0.1)
    with pytest.raises(ValueError, match=match):
        random_positive_solution_ensemble(1, 2, coeffs, grid)
    with pytest.raises(ValueError, match=match):
        validate_coefficients(coeffs, grid)


def test_step_matrix_refuses_a_non_uniform_s_axis():
    grid = Grid(np.array([0.0, 0.1, 0.3, 0.6, 1.0]), (np.linspace(-1, 1, 5),),
                np.linspace(0, 1, 3))
    with pytest.raises(ValueError, match="axis s is not uniformly spaced"):
        assemble_step_matrix(IVBProblem(coeffs=model_coefficients(1.0, 2)), grid, 0.1)


def loop_step_matrix(coeffs, grid, dt, t_eval):
    """Reference for assemble_step_matrix: I - dt L_h, built row by row.

    Each free node's row of L_h sums, in this order: x a11 u_xx with the
    weights of `fields.x_stencils`; b1 u_x as w times the central weights
    plus (1 - w) times the forward difference, w = clip((i - 1)/4, 0, 1);
    per y-axis a_jj u_yy and b_j u_y by (1, -2, 1)/h^2 and (-1, 0, 1)/2h and
    the mixed 2 sqrt(x) a1j u_{x y_j} by the central x-weights times
    (-1, 0, 1)/2h; the cross terms 2 a_ij u_{y_i y_j} by the 4-point
    stencil.  At s = 0 (x = 0, w = 0) only b1 times the forward difference
    and the y-terms remain.  A Dirichlet row is an identity row.
    """
    shape = grid.shape[:-1]
    m = len(grid.y)
    xm = [*grid.spatial_x_meshes(), t_eval]
    A, B = coeffs.eval_a(xm, shape), coeffs.eval_b(xm, shape)
    xv = grid.x
    _, d1, d2 = x_stencils(xv)
    hy = [grid.hy(j) for j in range(m)]
    lin = np.arange(math.prod(shape)).reshape(shape)
    M = np.eye(lin.size)
    for node in zip(*np.nonzero(~solver._dirichlet_mask(grid))):
        i = node[0]
        row = {}

        def add(shift, value):
            col = lin[tuple(np.add(node, shift))]
            row[col] = row.get(col, 0.0) + value

        def along(axis, step):
            shift = [0] * len(shape)
            shift[axis] = step
            return shift

        w = min(max((i - 1) / 4.0, 0.0), 1.0)
        if i > 0:
            for k, step in enumerate((-1, 0, 1)):
                add(along(0, step), A[(0, 0) + node] * (d2[i, k] * xv[i]))
            for k, step in enumerate((-1, 0, 1)):
                add(along(0, step), w * B[(0,) + node] * d1[i, k])
        fwd = 1.0 / (xv[i + 1] - xv[i])
        add(along(0, 0), (1 - w) * B[(0,) + node] * -fwd)
        add(along(0, 1), (1 - w) * B[(0,) + node] * fwd)
        for j in range(m):
            dyy = A[(1 + j, 1 + j) + node] / (hy[j] * hy[j])
            add(along(1 + j, -1), dyy)
            add(along(1 + j, 0), dyy * -2.0)
            add(along(1 + j, 1), dyy)
            drift = B[(1 + j,) + node] / (2 * hy[j])
            add(along(1 + j, -1), -drift)
            add(along(1 + j, 1), drift)
            mixed = 2.0 * A[(0, 1 + j) + node] * math.sqrt(xv[i]) / (2 * hy[j])
            if i > 0 and mixed != 0:
                for k, step in enumerate((-1, 0, 1)):
                    for sy in (-1, 1):
                        shift = along(0, step)
                        shift[1 + j] = sy
                        add(shift, mixed * (d1[i, k] * sy))
        for a in range(m):
            for b in range(a + 1, m):
                cross = 2 * A[(1 + a, 1 + b) + node] / (4 * hy[a] * hy[b])
                for sa in (-1, 1):
                    for sb in (-1, 1):
                        shift = along(1 + a, sa)
                        shift[1 + b] = sb
                        add(shift, cross * (sa * sb))
        r = lin[node]
        for col, value in row.items():
            M[r, col] -= dt * value
    return M


CROSS_TERMS = {2: {"a12": "0.2 + 0.1*y2", "b1": "1 + 0.2*x", "b2": "0.3*y2"},
               3: {"a12": "0.1", "a13": "-0.15*y3", "a23": "0.3 + 0.1*y2", "b2": "0.4"}}


@pytest.mark.parametrize("s_lo", [0.0, 0.3])
@pytest.mark.parametrize("case", ["diagonal", "cross_terms"])
@pytest.mark.parametrize("n, nodes", [(2, 33), (3, 9)])
def test_step_matrix_equals_the_per_node_loop(n, nodes, case, s_lo):
    grid = Grid.uniform((s_lo, 1, nodes), [(-1, 1, nodes)] * (n - 1), (0, 1, 5))
    coeffs = (random_coefficients(11, n) if case == "diagonal"
              else coefficients_from_expressions(CROSS_TERMS[n], n, lam=0.3))
    dt = 0.37
    A = assemble_step_matrix(IVBProblem(coeffs=coeffs), grid, dt, t_eval=0.5).A
    want = loop_step_matrix(coeffs, grid, dt, 0.5)
    assert A.has_canonical_format and np.all(A.data != 0)
    assert A.nnz == np.count_nonzero(want)
    if n == 2 and case == "diagonal":
        assert np.array_equal(A.toarray(), want)
    else:
        np.testing.assert_allclose(A.toarray(), want, rtol=1e-13, atol=0)



def sparse_algebra_operator(coeffs, grid, t):
    """Reference for operators.operator_matrix: L_h by sparse-matrix algebra.

    Each term is diags(c) @ K, K the Kronecker embedding of a 1-D matrix
    built from COO entries, and the terms are summed left to right by
    sparse addition, the products X1 @ Dy_j and Dy_i @ Dy_j formed from
    the embeddings.
    """
    shape = grid.shape[:-1]
    N = math.prod(shape)
    xm = [*grid.spatial_x_meshes(), t]
    A, B = coeffs.eval_a(xm, shape), coeffs.eval_b(xm, shape)
    m = len(grid.y)
    (xx, x1, fwd, w), y_axes = _axis_matrices(grid)
    w = w.reshape((-1,) + (1,) * m)
    hy = [grid.hy(j) for j in range(m)]

    def on_axis(mat, k):
        coo = mat.tocoo()
        lead = np.arange(math.prod(shape[:k]))[:, None, None] * mat.shape[0]
        trail = np.arange(math.prod(shape[k + 1:]))
        rows, cols = ((lead + i[:, None]) * trail.size + trail for i in (coo.row, coo.col))
        data = np.broadcast_to(coo.data[:, None], rows.shape)
        return sparse.csr_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(N, N))

    def term(coeff, K):
        return sparse.diags(np.broadcast_to(coeff, shape).ravel()) @ K

    X1 = on_axis(x1, 0)
    L = (term(A[0, 0], on_axis(xx, 0)) + term(w * B[0], X1)
         + term((1 - w) * B[0], on_axis(fwd, 0)))
    Y1 = [on_axis(dy, 1 + j) for j, (dy, _) in enumerate(y_axes)]
    for j, (_, dyy) in enumerate(y_axes):
        L = (L + term(A[1 + j, 1 + j] / (hy[j] * hy[j]), on_axis(dyy, 1 + j))
             + term(B[1 + j] / (2 * hy[j]), Y1[j]))
        if np.any(A[0, 1 + j] != 0):
            L = L + term(2.0 * A[0, 1 + j] * np.sqrt(xm[0]) / (2 * hy[j]), X1 @ Y1[j])
    for i in range(m):
        for j in range(i + 1, m):
            if np.any(A[1 + i, 1 + j] != 0):
                L = L + term(2 * A[1 + i, 1 + j] / (4 * hy[i] * hy[j]), Y1[i] @ Y1[j])
    return L


def sparse_algebra_step(coeffs, grid, dt, t_eval):
    """Reference for assemble_step_matrix: (M, diagonally_dominant, max_positive_offdiag).

    M = I - diags(dt P_free) @ L by sparse algebra, and the flags from the
    off-diagonal matrix M - diags(diag M).
    """
    L = sparse_algebra_operator(coeffs, grid, t_eval)
    free = ~solver._dirichlet_mask(grid).ravel()
    scale = sparse.diags(np.where(free, dt, 0.0))
    M = sparse.identity(free.size, format="csr") - scale @ L
    M.sum_duplicates()
    diag = M.diagonal()
    off = M - sparse.diags(diag)
    row_off_abs = np.asarray(np.abs(off).sum(axis=1)).ravel()
    dominant = bool(np.all(np.abs(diag) >= row_off_abs - 1e-12))
    return M, dominant, float(off.data.max()) if off.nnz else 0.0


def same_csr(a, b):
    return all(x.dtype == y.dtype and np.array_equal(x.view(np.uint8), y.view(np.uint8))
               for x, y in ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)))


TIME_DEPENDENT = {"a11": "1 + 0.5*t", "b1": "1 + t*y2", "b2": "0.5*t - 0.2"}
# (coefficients, nodes on the s-axis and on each y-axis, s from)
ASSEMBLY_CASES = {
    "model_v0.25_n2": (model_coefficients(0.25, 2), (17, 17), 0.0),
    "model_v1_n3": (model_coefficients(1.0, 3), (9, 9), 0.0),
    "model_v2_n2": (model_coefficients(2.0, 2), (33, 33), 0.0),
    "model_v2_n3": (model_coefficients(2.0, 3), (9, 11), 0.3),
    "random_3_n2": (random_coefficients(3, 2), (17, 13), 0.0),
    "random_7_n3": (random_coefficients(7, 3), (11, 9), 0.0),
    "random_7_n3_clipped": (random_coefficients(7, 3), (9, 9), 0.3),
    "cross_terms_n2": (coefficients_from_expressions(CROSS_TERMS[2], 2, lam=0.3), (17, 17), 0.0),
    "cross_terms_n3": (coefficients_from_expressions(CROSS_TERMS[3], 3, lam=0.3), (9, 9), 0.0),
    "time_dependent_n2": (coefficients_from_expressions(TIME_DEPENDENT, 2), (17, 17), 0.0),
    "s_nodes_3": (random_coefficients(3, 2), (3, 9), 0.0),
    "s_nodes_5": (coefficients_from_expressions(CROSS_TERMS[3], 3, lam=0.3), (5, 7), 0.0),
}


# (step size, shift of every y-axis off [-1, 1])
STEPS_AND_SHIFTS = [(0.37, 0.0), (1 / 16, -0.5)]


@pytest.mark.parametrize("dt, y_shift", STEPS_AND_SHIFTS)
@pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
def test_step_matrix_equals_the_sparse_algebra_bitwise(case, dt, y_shift):
    coeffs, (ns, ny), s_lo = ASSEMBLY_CASES[case]
    grid = Grid.uniform((s_lo, 1, ns), [(y_shift - 1, y_shift + 1, ny)] * (coeffs.n - 1),
                        (0, 1, 5))
    step = assemble_step_matrix(IVBProblem(coeffs=coeffs), grid, dt, t_eval=0.75)
    M, dominant, max_pos_off = sparse_algebra_step(coeffs, grid, dt, 0.75)
    assert same_csr(step.A, M)
    assert step.diagonally_dominant is dominant
    assert np.array_equal(step.max_positive_offdiag, max_pos_off)
    # L_h itself, entry order included: apply_L sums each row in that order
    assert same_csr(operator_matrix(coeffs, grid, 0.75)[0],
                    sparse_algebra_operator(coeffs, grid, 0.75))



@pytest.mark.parametrize("dt, y_shift", STEPS_AND_SHIFTS)
def test_step_matrix_of_rows_without_a_diagonal_entry_is_the_sparse_algebras(dt, y_shift):
    # a22 = b1 = 0: at s = 0 every diagonal contribution is zero, so those
    # rows of L_h store no diagonal entry and M's diagonal is put in
    coeffs = coefficients_from_expressions({"a22": "0", "b1": "0", "b2": "y2"}, 2)
    grid = Grid.uniform((0, 1, 9), [(y_shift - 1, y_shift + 1, 9)], (0, 1, 5))
    assert np.count_nonzero(operator_matrix(coeffs, grid, 0.5)[0].diagonal() == 0) == 7
    step = assemble_step_matrix(IVBProblem(coeffs=coeffs), grid, dt, t_eval=0.5)
    M, dominant, max_pos_off = sparse_algebra_step(coeffs, grid, dt, 0.5)
    assert same_csr(step.A, M)
    assert (step.diagonally_dominant, step.max_positive_offdiag) == (dominant, max_pos_off)

def test_step_assembly_working_set():
    # the sparse-algebra assembly peaked at 593 B per spatial node here (33^3
    # nodes, random n = 3 coefficients): diags(c) @ K per term, then
    # I - scale @ L - diags and the off and abs(off) matrices; on L's own
    # arrays it peaks at 378 B
    grid = cube_grid(33, t_nodes=17)
    problem = IVBProblem(coeffs=random_coefficients(7, 3))
    tracemalloc.start()
    try:
        assemble_step_matrix(problem, grid, 1 / 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 480 * 33 ** 3


def test_step_assembly_working_set_with_diagonal_coefficients():
    # with the model coefficients L_h's assembly peaks at 316 B per spatial
    # node (33^3 nodes) and M's at 322 B; slicing A_ff out of a copy of M's
    # free rows stays under that, where cutting both free-node blocks out of
    # the copy peaked at 369 B
    grid = cube_grid(33, t_nodes=17)
    problem = IVBProblem(coeffs=model_coefficients(1.0, 3))
    tracemalloc.start()
    try:
        assemble_step_matrix(problem, grid, 1 / 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 340 * 33 ** 3


@pytest.mark.parametrize("case", sorted(c for c in ASSEMBLY_CASES if ASSEMBLY_CASES[c][0].n == 3))
def test_krylov_step_solve_is_bicgstab_on_the_sliced_free_rows_bitwise(case):
    # the reference takes both free-row blocks of M as scipy slices and
    # moves the Dirichlet values to the right side through A_fd
    coeffs, (ns, ny), s_lo = ASSEMBLY_CASES[case]
    grid = Grid.uniform((s_lo, 1, ns), [(-1, 1, ny)] * 2, (0, 1, 5))
    dt = 1 / 16
    step = assemble_step_matrix(IVBProblem(coeffs=coeffs), grid, dt, t_eval=0.75)
    free = ~solver._dirichlet_mask(grid).ravel()
    rng = np.random.default_rng(5)
    rhs, x0 = rng.uniform(-1, 1, (2, free.size, 3))  # nonzero Dirichlet values
    got = step.solve(rhs, x0)

    _, A, B = operator_matrix(coeffs, grid, 0.75)
    P = LinearOperator((np.count_nonzero(free),) * 2, dtype=float,
                       matvec=solver._fast_diagonalization(A, B, grid, dt))
    rows = step.A[free]
    A_ff, A_fd = rows[:, free], rows[:, ~free]
    want = rhs.copy()
    for k in range(rhs.shape[1]):
        b = rhs[free, k] - A_fd @ rhs[~free, k]
        want[free, k], info = bicgstab(A_ff, b, x0=x0[free, k], rtol=solver.KRYLOV_TOL,
                                       atol=0.0, maxiter=solver.KRYLOV_MAX_ITER, M=P)
        assert info == 0
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_constant_is_fixed_point():
    g = unit_grid(17)
    one = lambda x, y, t: 1.0 + 0 * x
    u = solve_ivbp(IVBProblem(model_coefficients(1.0, 2), initial=one, lateral=one), g)
    assert np.max(np.abs(u.values - 1.0)) <= 1e-10


def test_step_matrix_rows_sum_to_one_on_constants():
    g = unit_grid(9)
    prob = IVBProblem(coeffs=model_coefficients(1.0, 2))
    step = assemble_step_matrix(prob, g, dt=0.01)
    ones = np.ones(step.A.shape[0])
    assert np.max(np.abs(step.A @ ones - 1.0)) <= 1e-12
    assert step.diagonally_dominant


def test_manufactured_linear_exact():
    g = unit_grid(33)
    for v in (0.25, 1.0, 4.0):
        f = lambda x, y, t: x + v * t
        u = solve_ivbp(IVBProblem(model_coefficients(v, 2), initial=f, lateral=f), g)
        exact = sample(f, g)
        assert np.max(np.abs(u.values - exact.values)) <= 1e-10


def test_step_residuals_are_declared_one_per_step():
    v = 1.0
    f = lambda x, y, t: x + v * t
    for t_nodes in (17, 41):  # steps of 1/16 and 0.025
        g = unit_grid(17, t_nodes=t_nodes)
        u = solve_ivbp(IVBProblem(model_coefficients(v, 2), initial=f, lateral=f), g)
        assert "step_residuals" in {fld.name for fld in dataclasses.fields(u)}
        assert len(u.step_residuals) == len(g.t) - 1
        assert all(math.isfinite(r) and r <= 1e-9 for r in u.step_residuals)


def test_zero_problem_stays_zero():
    g = unit_grid(9)
    zero = lambda x, y, t: 0.0 * x
    u = solve_ivbp(IVBProblem(model_coefficients(2.0, 2), initial=zero, lateral=zero), g)
    assert np.max(np.abs(u.values)) == 0.0


def test_temporal_order():
    v = 1.0
    f = lambda x, y, t: x * x + 2 * (1 + v) * x * t + v * (1 + v) * t * t + 0 * y

    def final_err(t_nodes):
        g = Grid.uniform((0, 1, 65), [(-1, 1, 9)], (0, 1, t_nodes))
        u = solve_ivbp(IVBProblem(model_coefficients(v, 2), initial=f, lateral=f), g)
        return float(np.max(np.abs(u.values[..., -1] - sample(f, g).values[..., -1])))

    assert final_err(21) / final_err(41) >= 1.8  # steps of 0.05 and 0.025


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
        solve_ivbp(IVBProblem(model_coefficients(1.0, 2), initial=lambda x, y, t: 1.0 + 0 * x,
                              lateral=lambda x, y, t: 0.0 * x), g)


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
    u = solve_ivbp(IVBProblem(model_coefficients(1.0, n), initial=f, lateral=f), g)
    assert np.max(np.abs(u.values - sample(f, g).values)) <= 1e-10


@pytest.mark.parametrize("v", [0.25, 1.0, 4.0])
def test_manufactured_linear_exact_n3(v):
    g = cube_grid(13, t_nodes=9)
    f = lambda x, y2, y3, t: x + v * t
    u = solve_ivbp(IVBProblem(model_coefficients(v, 3), initial=f, lateral=f), g)
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
    "random_c": random_coefficients(5, 3),
    "time_dependent": coefficients_from_expressions(
        {"a11": "1 + 0.5*t", "b1": "1 + t*y2", "b3": "0.5*t - 0.2"}, 3),
    "cross_terms": coefficients_from_expressions(
        {"a23": "0.3 + 0.1*y2", "a12": "0.1", "b2": "0.4"}, 3),
    # |b2| h >= 2 a22 on 9 nodes: the preconditioner drops the y2-drift
    "strong_y_drift": coefficients_from_expressions(
        {"a22": "0.1", "b2": "0.9"}, 3, lam=0.05),
}


@pytest.mark.parametrize("nodes", [9, 13])
@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_step_solve_matches_sparse_direct_solve_n3(case, nodes):
    step = assemble_step_matrix(IVBProblem(coeffs=STEP_CASES[case]), cube_grid(nodes),
                                dt=1 / 16, t_eval=0.75)
    rhs = np.random.default_rng(nodes).uniform(-1, 1, step.A.shape[0])
    u = step.solve(rhs, x0=np.zeros_like(rhs))
    assert np.max(np.abs(u - spsolve(step.A.tocsc(), rhs))) <= 1e-8


def test_preconditioner_is_exact_for_the_model_operator(monkeypatch):
    # one BiCGStab iteration suffices for the model operator; variable
    # coefficients stay within 15.  Unequal node counts per axis catch a
    # mode transform applied along the wrong y-axis.
    for nodes in ((17, 17, 17), (13, 9, 11), (9, 7, 8, 6)):
        n = len(nodes)
        g = Grid.uniform((0, 1, nodes[0]), [(-1, 1, k) for k in nodes[1:]], (0, 1, 5))
        rhs = np.random.default_rng(3).uniform(-1, 1, math.prod(nodes))
        for coeffs, max_iter in ((model_coefficients(2.0, n), 1),
                                 (random_coefficients(7, n), 15)):
            monkeypatch.setattr(solver, "KRYLOV_MAX_ITER", max_iter)
            step = assemble_step_matrix(IVBProblem(coeffs=coeffs), g, dt=1 / 16)
            u = step.solve(rhs, x0=np.zeros_like(rhs))
            assert np.max(np.abs(step.A @ u - rhs)) <= 1e-8, nodes


def test_a_krylov_solve_past_its_budget_is_refused(monkeypatch):
    # variable coefficients need more than the one iteration left here
    monkeypatch.setattr(solver, "KRYLOV_MAX_ITER", 1)
    step = assemble_step_matrix(IVBProblem(coeffs=random_coefficients(7, 3)), cube_grid(9),
                                dt=1 / 16)
    rhs = np.random.default_rng(3).uniform(-1, 1, 9 ** 3)
    with pytest.raises(RuntimeError, match=re.escape("iterative linear solve failed (info=1)")):
        step.solve(rhs, x0=np.zeros_like(rhs))


def test_step_matrix_is_freed_without_the_cycle_collector():
    # the solver closure must not refer back to its StepMatrix, or the
    # sparse blocks it holds outlive the solve until a gc pass
    gc.disable()
    try:
        step = assemble_step_matrix(IVBProblem(coeffs=model_coefficients(2.0, 3)),
                                    cube_grid(9), dt=0.1)
        ref = weakref.ref(step)
        del step
        assert ref() is None
    finally:
        gc.enable()


def nan_at_interior_node(x, y, t):
    return np.where((x == 0.25) & (y == 0.0), np.nan, 0.0 * x)


def nan_at(s_index, y_index):
    """Zero array data on unit_grid(9)'s spatial nodes but one NaN."""
    values = np.zeros((9, 9))
    values[s_index, y_index] = np.nan
    return values


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
    # array data is read once, and refused where the march uses it
    "initial_array_interior_nan": (nan_at(4, 4), np.zeros((9, 9)), None,
                                   "initial data is non-finite at node (0.5, 0.0, 0.0)"),
    "lateral_array_dirichlet_nan": (np.zeros((9, 9)), nan_at(8, 4), None,
                                    "lateral data is non-finite at node (1.0, 0.0, 0.0)"),
    "forcing_array_interior_nan": (np.zeros((9, 9)), np.zeros((9, 9)), nan_at(4, 4),
                                   "forcing is non-finite at node (0.5, 0.0, 0.125)"),
}


@pytest.mark.filterwarnings("ignore:divide by zero")
@pytest.mark.parametrize("case", sorted(NON_FINITE_DATA))
def test_non_finite_data_is_refused_by_name(case):
    initial, lateral, forcing, message = NON_FINITE_DATA[case]
    prob = IVBProblem(coeffs=model_coefficients(1.0, 2), forcing=forcing, initial=initial,
                      lateral=lateral)
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


def refined(grid, dt):
    """grid with its t-axis cut into steps of at most dt; the grid itself for None."""
    if dt is None:
        return grid
    t = np.linspace(grid.t[0], grid.t[-1], math.ceil((grid.t[-1] - grid.t[0]) / dt) + 1)
    return Grid(grid.s, grid.y, t)


@pytest.mark.parametrize("dt", [None, 0.03])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batch_march_equals_one_march_per_member(case, dt):
    coeffs, grid = BATCH_CASES[case]
    grid = refined(grid, dt)  # dt = 0.03: 17 steps of 1/34 over t in [0, 0.5]
    problems = [IVBProblem(coeffs=coeffs, **data) for data in members()]
    batch = _march(problems, grid)
    for prob, u in zip(problems, batch):
        alone = solve_ivbp(prob, grid)
        assert np.array_equal(u.values, alone.values)
        assert u.step_residuals == alone.step_residuals
    assert len(batch[0].step_residuals) == len(grid.t) - 1


def steady_members(grid):
    """Three time-independent members as callables, and as arrays on grid's spatial nodes."""
    def data(k):
        return lambda x, *coords: k + x - 0.5 * x * coords[0] + coords[0] * coords[0]

    def forcing(k):
        return lambda x, *coords: k * (1 - x) + 0.25 * coords[0]

    def on_nodes(f):
        return np.broadcast_to(f(*grid.spatial_x_meshes(), 0.0), grid.shape[:-1]).copy()

    callables = [dict(initial=data(k), lateral=data(k), forcing=forcing(k)) for k in range(3)]
    arrays = [{key: on_nodes(f) for key, f in member.items()} for member in callables]
    return callables, arrays


@pytest.mark.parametrize("which", ["initial", "lateral", "forcing"])
@pytest.mark.parametrize("case", ["n2_lu", "n3_krylov"])
def test_array_data_marches_bitwise_as_its_time_independent_callable(case, which):
    coeffs, grid = BATCH_CASES[case]
    (called, *_), (arrays, *_) = steady_members(grid)
    given = solve_ivbp(IVBProblem(coeffs=coeffs, **{**called, which: arrays[which]}),
                       grid)
    evaluated = solve_ivbp(IVBProblem(coeffs=coeffs, **called), grid)
    assert np.array_equal(given.values, evaluated.values)
    assert given.step_residuals == evaluated.step_residuals


@pytest.mark.parametrize("case", ["n2_lu", "n3_krylov"])
def test_batch_of_array_and_callable_members_equals_one_march_per_member(case):
    coeffs, grid = BATCH_CASES[case]
    called, arrays = steady_members(grid)
    # a time-dependent member, an array member, and one of mixed kinds
    data = [members()[1], arrays[1], {**called[2], "lateral": arrays[2]["lateral"]}]
    problems = [IVBProblem(coeffs=coeffs, **d) for d in data]
    grid = refined(grid, 0.03)
    batch = _march(problems, grid)
    for prob, u in zip(problems, batch, strict=True):
        alone = solve_ivbp(prob, grid)
        assert np.array_equal(u.values, alone.values)
        assert u.step_residuals == alone.step_residuals


@pytest.mark.parametrize("which, name", [("initial", "initial data"),
                                         ("lateral", "lateral data"), ("forcing", "forcing")])
@pytest.mark.parametrize("shape", [(8, 9), (9, 9, 9), (81,), ()])
def test_array_data_of_another_shape_is_refused_by_name(which, name, shape):
    f = lambda x, y, t: x + y
    data = {"initial": f, "lateral": f, which: np.zeros(shape)}
    with pytest.raises(ValueError, match=re.escape(
            f"{name} has shape {shape}, but the spatial grid has shape (9, 9)")):
        solve_ivbp(IVBProblem(coeffs=model_coefficients(1.0, 2), **data), unit_grid(9))


@pytest.mark.parametrize("which, name", [("initial", "initial data"),
                                         ("lateral", "lateral data"), ("forcing", "forcing")])
@pytest.mark.parametrize("value, kind", [("x + y", "str"), ({}, "dict")])
def test_data_neither_callable_nor_array_is_refused_by_name(which, name, value, kind):
    f = lambda x, y, t: x + y
    data = {"initial": f, "lateral": f, which: value}
    with pytest.raises(TypeError, match=re.escape(
            f"{name} must be a callable f(x, y..., t) or an array of values on the "
            f"spatial nodes, got {kind}")):
        solve_ivbp(IVBProblem(coeffs=model_coefficients(1.0, 2), **data), unit_grid(9))


@pytest.mark.parametrize("which, name", [("initial", "initial data"),
                                         ("lateral", "lateral data"), ("forcing", "forcing")])
@pytest.mark.parametrize("kind", ["callable", "array"])
def test_complex_data_is_refused_by_name(which, name, kind):
    f = lambda x, y, t: x + 0 * y + 0 * t
    complex_data = ((lambda x, y, t: x + 1j * y + 0 * t) if kind == "callable"
                    else np.full((9, 9), 1 + 1j))
    data = {"initial": f, "lateral": f, which: complex_data}
    with pytest.raises(ValueError, match=re.escape(
            f"{name} is complex; only real values are accepted")):
        solve_ivbp(IVBProblem(coeffs=model_coefficients(1.0, 2), **data),
                   unit_grid(9, t_nodes=5))


@pytest.mark.parametrize("which, name, returned, want", [
    ("initial", "initial data", (7,), "(9, 9), the spatial grid's shape"),
    ("forcing", "forcing", (3, 3), "(9, 9), the spatial grid's shape"),
    ("lateral", "lateral data", (7,), "(25,), one value per node read")], ids=["initial", "forcing", "lateral"])
def test_callable_data_of_another_shape_is_refused_by_name(which, name, returned, want):
    f = lambda x, y, t: 1.0 + 0 * x
    data = {"initial": f, "lateral": f, which: lambda x, y, t: np.ones(returned)}
    with pytest.raises(ValueError, match=re.escape(
            f"{name} returned values of shape {returned}, which do not broadcast to {want}")):
        solve_ivbp(IVBProblem(coeffs=model_coefficients(1.0, 2), **data), unit_grid(9))


def test_array_lateral_data_is_read_on_the_dirichlet_nodes_only():
    # a NaN at a free node is never used, so it is not refused
    u = solve_ivbp(IVBProblem(coeffs=model_coefficients(1.0, 2), initial=np.ones((9, 9)),
                              lateral=np.where(nan_at(4, 4) == 0, 1.0, np.nan)), unit_grid(9))
    assert np.max(np.abs(u.values - 1.0)) <= 1e-12


@pytest.mark.parametrize("other", [dict(coeffs=model_coefficients(2.0, 2)),
                                   dict(coeffs=coefficients_from_expressions(CROSS_TERMS[2], 2, lam=0.3)),
                                   dict(coeffs=model_coefficients(1.0, 2))])
def test_batch_march_refuses_a_second_operator(other):
    # one operator is one CoefficientField object: an equal copy is refused too
    data = members()[0]
    coeffs = model_coefficients(1.0, 2)
    first = IVBProblem(coeffs=coeffs, **data)
    second = IVBProblem(**{"coeffs": coeffs, **data, **other})
    with pytest.raises(ValueError, match="one operator"):
        _march([first, second], unit_grid(9))


def test_batch_march_refuses_non_finite_data_of_a_later_member():
    initial, lateral, forcing, message = NON_FINITE_DATA["lateral_nan_after_0.3"]
    coeffs = model_coefficients(1.0, 2)
    good = IVBProblem(coeffs=coeffs, initial=initial, lateral=initial)
    bad = IVBProblem(coeffs=coeffs, initial=initial, lateral=lateral, forcing=forcing)
    with pytest.raises(ValueError, match=re.escape(message)):
        _march([good, bad, good], unit_grid(9))


def march_step_by_step(coeffs, data, grid):
    """Oracle of the march for members of array data: one step at a time, written out.

    One `assemble_step_matrix` for the grid's one step size, then per step
    the right side formed as the march forms it, one `StepMatrix.solve` for
    all members and the residual max |A U - rhs| / tau; every step's
    solution is kept.  Returns (values, step_residuals) per member.
    """
    dirichlet = solver._dirichlet_mask(grid).ravel()
    U = np.empty((dirichlet.size, len(data)), order="F")
    forcing = np.zeros_like(U)
    for i, d in enumerate(data):
        U[:, i] = d["initial"].ravel()
        forcing[:, i] = d["forcing"].ravel()
    lateral = U[dirichlet]
    tau = grid.t[1] - grid.t[0]
    sm = assemble_step_matrix(IVBProblem(coeffs=coeffs), grid, tau, float(grid.t[1]))
    slices, residuals = [U], []
    for k in range(len(grid.t) - 1):
        assert grid.t[k + 1] - grid.t[k] == tau
        rhs = U + tau * forcing
        rhs[dirichlet] = lateral
        U = sm.solve(rhs, x0=U)
        residuals.append(np.max(np.abs(sm.A @ U - rhs), axis=0) / tau)
        slices.append(U)
    values = np.stack(slices, axis=-1)  # (nodes, members, t)
    return [(values[:, i].reshape(grid.shape), tuple(float(r[i]) for r in residuals))
            for i in range(len(data))]


def dyadic_steps(grid, steps):
    """grid's spatial axes with `steps` steps of exactly 1/64 from t = 0."""
    return Grid(grid.s, grid.y, np.arange(steps + 1) / 64)


def block_steps(grid, members):
    """The march's block length B on grid for a batch of `members`, before the step cap."""
    per_step = math.prod(grid.shape[:-1]) * members * 8
    return max(1, min(solver._BLOCK_STEPS, solver._BLOCK_BYTES // per_step))


def assert_marches_as_the_oracle(coeffs, grid, members):
    data = steady_members(grid)[1][:members]
    problems = [IVBProblem(coeffs=coeffs, **d) for d in data]
    marched = _march(problems, grid) if members > 1 else [solve_ivbp(problems[0], grid)]
    for u, (values, residuals) in zip(marched, march_step_by_step(coeffs, data, grid),
                                      strict=True):
        assert np.array_equal(u.values, values)
        assert u.step_residuals == residuals


# a grid needs 3 time nodes, so 2 steps is the fewest; B = 16 on these grids
@pytest.mark.parametrize("steps", [2, 15, 16, 17, 35])
@pytest.mark.parametrize("members", [1, 3])
def test_the_march_copies_every_block_of_steps_as_the_per_step_oracle(steps, members):
    coeffs, grid = BATCH_CASES["n2_lu"]
    assert block_steps(grid, members) == 16
    assert_marches_as_the_oracle(coeffs, dyadic_steps(grid, steps), members)


def test_the_march_copies_blocks_the_byte_budget_caps_as_the_per_step_oracle():
    grid = Grid.uniform((0, 1, 9), [(-1, 1, 31)] * 2, (0, 1, 3))
    block = block_steps(grid, 3)
    assert block < 16
    assert_marches_as_the_oracle(model_coefficients(1.0, 3), dyadic_steps(grid, 2 * block + 3), 3)


def counting(monkeypatch, name):
    calls = []
    original = getattr(solver, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, name, counted)
    return calls


def ensemble_counts(monkeypatch, name):
    # linspace(0, 0.5, 201) has 9 distinct float spacings, all equal to
    # 12 significant digits
    grid = Grid.uniform((0, 1, 9), [(-1, 1, 9)], (0, 0.5, 201))
    calls = counting(monkeypatch, name)
    random_positive_solution_ensemble(1, 20, model_coefficients(1.0, 2), grid)
    return len(calls)


def test_ensemble_assembles_once_per_step_size(monkeypatch):
    assert ensemble_counts(monkeypatch, "assemble_step_matrix") == 1


def test_ensemble_validates_its_coefficients_once(monkeypatch):
    assert ensemble_counts(monkeypatch, "validate_coefficients") == 1


def test_ensemble_evaluates_each_members_plane_waves_once(monkeypatch):
    # evaluating the data at every step made 3 + 200 calls per member: 4060
    calls = []
    original = solver.plane_waves

    def counted_plane_waves(*args):
        f = original(*args)

        def counted(*coords):
            calls.append(coords)
            return f(*coords)
        return counted

    monkeypatch.setattr(solver, "plane_waves", counted_plane_waves)
    assert ensemble_counts(monkeypatch, "_march") == 1
    assert len(calls) == 20


@pytest.mark.parametrize("count", [0, -1, 2.5, True, math.nan, "3"])
def test_ensemble_refuses_a_count_that_is_not_a_positive_integer(count):
    # before the refusal, 2.5 died in numpy and True marched one member
    with pytest.raises(ValueError, match=re.escape(
            f"count must be an integer >= 1, got {count!r}")):
        random_positive_solution_ensemble(1, count, model_coefficients(1.0, 2), unit_grid(5))


def test_batched_ensemble_matches_each_member_marched_alone(monkeypatch):
    # the multi-column LU solve rounds differently from one solve per
    # member: measured 1.1e-16 in values and 0 in residuals at this seed
    grid = Grid.uniform((0, 1, 33), [(-1, 1, 33)], (0, 0.5, 201))
    batches = counting(monkeypatch, "_march")
    ensemble = random_positive_solution_ensemble(7, 20, model_coefficients(1.0, 2), grid)
    (problems, *_), = batches
    for prob, u in zip(problems, ensemble, strict=True):
        alone = solve_ivbp(prob, grid)
        assert np.max(np.abs(u.values - alone.values)) <= 1e-13
        assert np.max(np.abs(np.subtract(u.step_residuals, alone.step_residuals))) <= 1e-12


def test_step_sizes_share_a_matrix_only_to_12_significant_digits(monkeypatch):
    # spacings 1e-13, 4e-13 and 4e-13 (up to rounding): two matrices, so
    # the key is relative, not round(tau, 12)
    grid = Grid(np.linspace(0, 1, 9), (np.linspace(-1, 1, 9),),
                np.array([0.0, 1e-13, 5e-13, 9.000000000000001e-13]))
    assert np.diff(grid.t)[1] != np.diff(grid.t)[2]
    calls = counting(monkeypatch, "assemble_step_matrix")
    f = lambda x, y, t: x + y
    solve_ivbp(IVBProblem(coeffs=model_coefficients(1.0, 2), initial=f, lateral=f), grid)
    assert [tau for _, _, tau, *_ in calls] == pytest.approx([1e-13, 4e-13], rel=1e-12)


def test_lateral_data_is_evaluated_on_the_dirichlet_nodes_only():
    grid = unit_grid(9, t_nodes=21)
    dirichlet = 2 * 9 + (9 - 2)  # both y-faces and s = s_max; s = 0 is free
    sizes = []

    def lateral(x, y, t):
        sizes.append(np.broadcast(x, y).size)
        return x + t

    f = lambda x, y, t: x + t
    u = solve_ivbp(IVBProblem(coeffs=model_coefficients(1.0, 2), initial=f, lateral=lateral), grid)
    assert sizes == [dirichlet] * (1 + len(u.step_residuals))
    assert np.max(np.abs(u.values - sample(f, grid).values)) <= 1e-10


@pytest.mark.parametrize("s_lo", [0.0, 0.5], ids=["s0", "clipped"])
@pytest.mark.parametrize("n", [2, 3])
def test_dirichlet_nodes_are_the_barrier_parabolic_boundary_after_t0(n, s_lo):
    g = Grid.uniform((s_lo, 1, 7), [(-1, 1, 6)] * (n - 1), (0, 1, 4))
    A = assemble_step_matrix(IVBProblem(coeffs=model_coefficients(1.0, n)), g, 0.1).A.toarray()
    dirichlet = solver._dirichlet_mask(g)
    identity_rows = np.all(A == np.eye(A.shape[0]), axis=1)
    assert np.array_equal(identity_rows.reshape(dirichlet.shape), dirichlet)
    boundary = barriers._boundary_mask(g)
    assert boundary[..., 0].all()
    assert np.array_equal(boundary[..., 1:],
                          np.broadcast_to(dirichlet[..., None], boundary[..., 1:].shape))
    # the degenerate edge s = 0 is free; a clipped box's low-s face is not
    assert np.count_nonzero(~dirichlet[0]) == (0 if s_lo > 0 else 4 ** (n - 1))
