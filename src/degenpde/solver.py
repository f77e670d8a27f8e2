"""Implicit finite-difference solver for u_t = Lu + g on half-space boxes.

Space is a uniform-s tensor grid; time marches by implicit Euler,

    (I - dt L_h) u^{m+1} = u^m + dt g^{m+1},

with Dirichlet rows on the lateral edges that `fields.Grid.interior_box`
defines: M = I - dt P_free L_h, P_free zeroing those rows, which
are the one-sided edge rows of L_h.  L_h is `operators.operator_matrix`,
the one discrete operator, which `operators.apply_L` applies too.  With
diagonal coefficient matrices every row of M is an M-matrix row and the
discrete maximum principle holds to rounding.

Linear solves: with one tangential dimension the step matrix is factored
once by sparse LU.  For n >= 3 the Dirichlet rows are eliminated and
BiCGStab runs on the free-node system A_ff u_f = rhs_f - A_fd u_d, A_ff
sliced from M once and A_fd u_d read off M times the Dirichlet values, to
the relative residual `KRYLOV_TOL` within `KRYLOV_MAX_ITER` iterations; a
solve that misses it is refused.  Its preconditioner is a
fast-diagonalization solve of the same step with averaged coefficients:
y-averaged a11(s), b1(s) on the s-axis and the means of a_jj, b_j on each
y-axis, whose free-node matrix is a Kronecker sum.  One application is a
matrix product per y-axis into the y-modes, a tridiagonal sweep per mode
and the products back, all on the C-ordered free-box array without a
copy.  It is exact for the model operator; for variable coefficients
BiCGStab typically needs under ten iterations per step.  Mixed and cross
terms are left to the Krylov iteration.

One march serves a batch of problems that share an operator (one
CoefficientField): `solve_ivbp` is a batch of one, and the random
ensemble marches all its members at once.  The batch is one array with a
column per member, so each step is one linear solve for the whole batch.
The march takes one step per output slice, tau = t[k+1] - t[k]: the
time grid is the step sequence, and the solver has no settings.  The
coefficients are validated once per batch, and with static coefficients
there is one step matrix per step size up to relative rounding (12
significant digits), assembled and factored once and reused by every
member and every step of that size.  Each member's data is
evaluated where the march uses it: initial and forcing data on the full
grid, lateral data on the Dirichlet nodes only.  Data given as an array of
values on the spatial nodes is time-independent and is read once, before
the first step; only callable data is evaluated at every step.  Non-finite
data is refused by name.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, bicgstab, splu

from .fields import Grid, ScalarField, _real_array
from .operators import (CoefficientField, _axis_matrices, operator_matrix, plane_waves,
                        validate_coefficients)

COMPATIBILITY_TOL = 1e-8
KRYLOV_TOL = 1e-10  # relative residual of the n >= 3 iterative step solve
KRYLOV_MAX_ITER = 5000  # BiCGStab iteration budget per column and step
# the march copies its output into the (..., t) array a block of steps at a
# time: at most _BLOCK_STEPS steps, and at most _BLOCK_BYTES of them
_BLOCK_STEPS = 16
_BLOCK_BYTES = 1 << 21


@dataclass
class IVBProblem:
    """Initial/boundary-value problem for u_t = Lu + g.

    coeffs is the CoefficientField of L; the model operator with velocity v
    is `model_coefficients(v, n)`.  forcing/initial/lateral are each a
    callable f(x, y..., t) or an array of values on the spatial nodes
    (shape `grid.shape[:-1]`), which is time-independent data; forcing may
    also be None (no forcing).
    """

    coeffs: CoefficientField
    forcing: object = None
    initial: object = None
    lateral: object = None

    def __post_init__(self):
        if not isinstance(self.coeffs, CoefficientField):
            raise TypeError(f"coeffs must be a CoefficientField, got "
                            f"{type(self.coeffs).__name__}; use model_coefficients(v, n)")


def _eval_spatial(data, name: str, coords: list, nodes, shape: tuple,
                  t: float) -> np.ndarray:
    """The named data at time t on some spatial nodes, as a flat array.

    shape is the spatial grid's shape; nodes is None for all of its nodes
    in C order, or the flat indices of some; coords are those nodes'
    coordinates (x = s^2, y...).  A callable is evaluated as
    data(*coords, t); anything else must be an array of values on the
    spatial grid, which is time-independent data, and is read at nodes.
    Complex values, and a callable's values that do not broadcast to the
    nodes, are refused by name.
    """
    if callable(data):
        val = _real_array(data(*coords, t), name)
        want = shape if nodes is None else nodes.shape
        try:
            return np.broadcast_to(val, want).ravel()
        except ValueError:
            what = "the spatial grid's shape" if nodes is None else "one value per node read"
            raise ValueError(f"{name} returned values of shape {val.shape}, which do not "
                             f"broadcast to {want}, {what}") from None
    try:
        values = np.asarray(data)
        if not np.iscomplexobj(values):  # a complex array is refused below, by name
            values = values.astype(float, copy=False)
    except (TypeError, ValueError):
        raise TypeError(f"{name} must be a callable f(x, y..., t) or an array of values "
                        f"on the spatial nodes, got {type(data).__name__}") from None
    values = _real_array(values, name)
    if values.shape != shape:
        raise ValueError(f"{name} has shape {values.shape}, but the spatial grid has "
                         f"shape {shape}")
    return values.ravel() if nodes is None else values.ravel()[nodes]


def _non_finite(name: str, grid: Grid, flat: int, t: float) -> ValueError:
    """Refusal naming the data and the node (s, y..., t); flat is its raveled spatial index."""
    node = grid.node(np.unravel_index(flat, grid.shape[:-1])) + (float(t),)
    return ValueError(f"{name} is non-finite at node {node}")


def _dirichlet_mask(grid: Grid) -> np.ndarray:
    """The spatial nodes on a lateral edge (`Grid.interior_box`)."""
    mask = np.ones(grid.shape[:-1], dtype=bool)
    mask[grid.interior_box(1)] = False
    return mask


def _fast_diagonalization(A: np.ndarray, B: np.ndarray, grid: Grid, dt: float):
    """Direct solver for the free-node step matrix of averaged coefficients.

    On the free box the operator with the y-averaged a11(s), b1(s) and the
    free-node means of a_jj, b_j (j >= 2) is a Kronecker sum
    L_s (+) L_y2 (+) ... (Lynch, Rice & Thomas 1964).  Each 1-D L_yj is
    diagonalized once, V_j Lambda_j V_j^-1, through a diagonal similarity
    and `eigh`; where |b_j| h_j >= 2 a_jj no real similarity exists and the
    y-drift is left out.  Per y-mode a tridiagonal s-system remains; all are
    factored here and solved together by one vectorized Thomas sweep.  The
    mode transforms act on each y-axis where it lies in the C-ordered
    array, so neither they nor the sweep copy or transpose it.  Mixed
    and cross terms are left out.  L_s is read from the s-axis matrices of
    `operators._axis_matrices`, sliced to the free box.  Returns
    r -> P^-1 r on raveled free-box vectors, for use as a Krylov
    preconditioner (Concus & Golub 1973).
    """
    box = grid.interior_box(1)
    m = len(grid.y)
    shape = tuple(sl.stop - sl.start for sl in box)
    y_axes = tuple(range(1, m + 1))

    # tridiagonal L_s on the free s-nodes; couplings to Dirichlet nodes drop
    a_s = A[0, 0][box].mean(axis=y_axes)
    b_s = B[0][box].mean(axis=y_axes)
    free_s = box[0]
    s_axis = _axis_matrices(grid)[0]
    xx, x1, fwd = (mat[free_s, free_s] for mat in s_axis[:3])
    w = s_axis[3][free_s]
    L_s = (sparse.diags(a_s) @ xx + sparse.diags(w * b_s) @ x1
           + sparse.diags((1 - w) * b_s) @ fwd)
    ns = shape[0]
    sub = np.append(0.0, L_s.diagonal(-1))
    mid = L_s.diagonal()
    sup = np.append(L_s.diagonal(1), 0.0)

    lam = np.zeros(())
    to_modes, from_modes = [], []
    for j in range(m):
        a = float(A[1 + j, 1 + j][box].mean())
        b = float(B[1 + j][box].mean())
        h = grid.hy(j)
        if abs(b) * h >= 2 * a:
            b = 0.0  # drift left out of the preconditioner only
        lo, up = a / h ** 2 - b / (2 * h), a / h ** 2 + b / (2 * h)
        # D^-1 T D is symmetric for D = diag(q^k), q = sqrt(lo / up); k is
        # centred to halve the range of D
        ny = shape[1 + j]
        d = math.sqrt(lo / up) ** (np.arange(ny) - (ny - 1) / 2)
        off = np.full(ny - 1, math.sqrt(lo * up))
        ev, Q = np.linalg.eigh(np.diag(np.full(ny, -2 * a / h ** 2))
                               + np.diag(off, 1) + np.diag(off, -1))
        to_modes.append(Q.T / d)
        from_modes.append(d[:, None] * Q)
        lam = np.add.outer(lam, ev)

    lower, upper = -dt * sub, -dt * sup
    diag = (1.0 - dt * mid)[:, None] - dt * lam.ravel()
    inv = np.empty_like(diag)
    cp = np.empty_like(diag)
    inv[0] = 1.0 / diag[0]
    cp[0] = upper[0] * inv[0]
    for k in range(1, ns):
        inv[k] = 1.0 / (diag[k] - lower[k] * cp[k - 1])
        cp[k] = upper[k] * inv[k]
    del diag

    def transform(z, mats):
        # mats[j] along y-axis j + 1 of the C-ordered z, read where it lies:
        # on the last axis as one GEMM, on any other as a stack of GEMMs
        # over the axes in front of it
        for axis, mat in enumerate(mats, start=1):
            if axis == m:
                z = z.reshape(-1, len(mat)) @ mat.T
            else:
                z = np.matmul(mat, z.reshape(-1, len(mat), math.prod(shape[axis + 1:])))
        return z

    def apply(r):
        z = transform(r.reshape(shape), to_modes).reshape(ns, -1)
        z[0] *= inv[0]
        for k in range(1, ns):
            z[k] -= lower[k] * z[k - 1]
            z[k] *= inv[k]
        for k in range(ns - 2, -1, -1):
            z[k] -= cp[k] * z[k + 1]
        return transform(z, from_modes).ravel()

    return apply


def _krylov_solver(M: sparse.csr_matrix, free: np.ndarray, precond):
    """BiCGStab on the free-node rows of M; Dirichlet values go to the right side.

    The Dirichlet rows of M are identity rows, so u_d = rhs_d and the free
    values solve A_ff u_f = rhs_f - (M v)_f, A_ff = M[free][:, free] and v
    the column with zeros on the free nodes.  A free row of M sums its
    entries in stored order and a zero term adds nothing, so (M v)_f is
    M[free][:, ~free] u_d bitwise, a block that is never built.
    """
    inner = np.flatnonzero(free)
    A_ff = M[inner][:, inner]
    P = LinearOperator(A_ff.shape, matvec=precond, dtype=float)

    def solve(rhs, x0):
        # one BiCGStab per column of rhs, started from that column of x0
        u = rhs.copy(order="F")
        starts = x0.reshape(len(x0), -1, order="F").T
        for col, start in zip(u.reshape(len(u), -1, order="F").T, starts):
            b = col[inner] - (M @ np.where(free, 0.0, col))[inner]
            sol, info = bicgstab(A_ff, b, x0=start[inner], rtol=KRYLOV_TOL, atol=0.0,
                                 maxiter=KRYLOV_MAX_ITER, M=P)
            if info != 0:
                raise RuntimeError(f"iterative linear solve failed (info={info})")
            col[inner] = sol
        return u

    return solve


@dataclass
class StepMatrix:
    """One implicit-Euler step: A u_new = u_old + dt*g_new (+ Dirichlet rows).

    _solve(rhs, x0) is the linear solver built with A: a sparse LU for one
    tangential dimension, otherwise preconditioned BiCGStab on the free
    nodes.  rhs and x0 are (N,) or (N, k), one problem per column: the LU
    solves all columns in one call, BiCGStab runs once per column from that
    column of x0.  It holds no reference back to the StepMatrix.
    """

    A: sparse.csr_matrix
    diagonally_dominant: bool
    max_positive_offdiag: float
    _solve: Callable = dc_field(repr=False)

    def solve(self, rhs: np.ndarray, x0: np.ndarray) -> np.ndarray:
        return self._solve(rhs, x0)


def _step_from_operator(L: sparse.csr_matrix, dt: float, free: np.ndarray):
    """M = I - dt P_free L as canonical CSR, computed on L's arrays.

    Every entry is the one the sparse product and sum I - diag(dt P_free) L
    gives, bitwise: -(dt L_ij) off the diagonal and 1 - dt L_ii on it in a
    free row, a row of L without a diagonal entry taking L_ii = 0; a
    Dirichlet row is an identity row.  The zeros those operations drop are
    dropped here too, and the rows are sorted.
    """
    n = L.shape[0]

    def rows(indptr):
        return np.repeat(np.arange(n, dtype=L.indices.dtype), np.diff(indptr))

    row = rows(L.indptr)
    lacks = np.ones(n, dtype=bool)
    lacks[row[L.indices == row]] = False
    del row
    missing = np.flatnonzero(lacks)
    at = L.indptr[missing]  # a missing diagonal entry goes first in its row
    indices = np.insert(L.indices, at, missing)
    data = np.insert(L.data, at, 0.0)
    indptr = L.indptr.copy()
    indptr[1:] += np.cumsum(lacks, dtype=indptr.dtype)
    row = rows(indptr)
    on_diag = indices == row  # one per row
    data *= dt
    data *= free[row]  # a Dirichlet row's entries become zeros
    del row
    diag = data[on_diag]
    np.negative(data, out=data)
    data[on_diag] = 1.0 - diag
    M = sparse.csr_matrix((data, indices, indptr), shape=L.shape)
    M.eliminate_zeros()
    M.sort_indices()
    return M


def _m_matrix_flags(M: sparse.csr_matrix):
    """(diagonally_dominant, max_positive_offdiag) of a canonical CSR M, from its arrays.

    Row i is dominant when |M_ii| >= sum_j!=i |M_ij| - 1e-12; each row's sum
    is `np.add.reduceat` over its off-diagonal entries in column order, the
    sum `M.sum(axis=1)` takes.  M stores no zero, so a row holds a diagonal
    entry exactly when M_ii != 0.
    """
    n = M.shape[0]
    diag = M.diagonal()
    off = M.indices != np.repeat(np.arange(n, dtype=M.indices.dtype), np.diff(M.indptr))
    values = M.data[off]
    del off
    max_pos_off = float(values.max()) if values.size else 0.0
    starts = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.diff(M.indptr) - (diag != 0), out=starts[1:])
    rows = np.flatnonzero(np.diff(starts))
    row_off_abs = np.zeros(n)
    row_off_abs[rows] = np.add.reduceat(np.abs(values, out=values), starts[rows])
    return bool(np.all(np.abs(diag) >= row_off_abs - 1e-12)), max_pos_off


def assemble_step_matrix(problem: IVBProblem, grid: Grid, dt: float,
                         t_eval: float | None = None) -> StepMatrix:
    """Assemble I - dt P_free L_h, L_h of `operators.operator_matrix` at t_eval.

    M is formed on L_h's arrays (`_step_from_operator`), and L_h is released
    before the n >= 3 solver slices M's free-node block A_ff
    (`_krylov_solver`), as are the coefficient arrays once the
    preconditioner is built.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if t_eval is None:
        t_eval = float(grid.t[-1])

    L, A, B = operator_matrix(problem.coeffs, grid, t_eval)
    free = ~_dirichlet_mask(grid).ravel()
    M = _step_from_operator(L, dt, free)
    del L
    dominant, max_pos_off = _m_matrix_flags(M)

    if grid.n >= 3:
        precond = _fast_diagonalization(A, B, grid, dt)
        del A, B
        solve = _krylov_solver(M, free, precond)
    else:
        lu = splu(M.tocsc())

        def solve(rhs, x0):
            return lu.solve(rhs)
    return StepMatrix(M, dominant, max_pos_off, solve)


@dataclass(frozen=True)
class SolvedField(ScalarField):
    """A solved space-time field and the residuals of the solve.

    step_residuals holds max |u_t - L_h u - g| over the nodes of each
    implicit-Euler step, in time order: one per output slice after the first.
    """

    step_residuals: tuple = ()


def _march(problems: list, grid: Grid) -> list:
    """March implicit Euler for problems that share one operator (one CoefficientField).

    The coefficients are validated once, and the batch is one (N, members)
    array with a contiguous column per member: each step, from t[k] to
    t[k+1] with tau = t[k+1] - t[k], takes one `StepMatrix.solve` for the
    whole batch, one residual product A U - RHS and one finiteness check.
    Static coefficients get one step matrix per step size tau up to
    relative rounding (tau to 12 significant digits), assembled and
    factored with the first such tau; time-dependent ones get one per
    step.  Initial and forcing data are evaluated on spatial meshes built
    once, lateral data only at the Dirichlet nodes; array data is read once
    before the first step, so a step evaluates only the callable members'
    lateral and forcing data.
    A batch of one is the march `solve_ivbp` takes; in a larger batch the
    multi-column LU solve rounds differently from one solve per member, by
    a few units in the last place.  The members' values are slices of one
    array.  Time is its last axis, so one step's values lie one per row of
    it; each step is copied into a step-major block buffer instead, and
    every B steps, and at the last step, the block goes into the output at
    once, B contiguous time values per row.  B = min(_BLOCK_STEPS, steps,
    _BLOCK_BYTES // bytes per step), at least 1: the buffer's fixed budget
    is 2 MiB.  The buffer is an anonymous memory map, outside the malloc
    heap, so the march's heap allocations are those of a march without it.
    """
    first = problems[0]
    if any(p.coeffs is not first.coeffs for p in problems[1:]):
        raise ValueError("a batch march needs one operator: one CoefficientField object")
    coeffs = first.coeffs
    report = validate_coefficients(coeffs, grid)
    if not report.passed:
        raise ValueError(f"coefficient conditions violated: {report.margins}")
    if any(p.initial is None or p.lateral is None for p in problems):
        raise ValueError("problem needs initial and lateral data")

    shape = grid.shape[:-1]
    everywhere = grid.spatial_x_meshes()
    dirichlet = _dirichlet_mask(grid)
    dir_flat = dirichlet.ravel()
    dir_index = np.flatnonzero(dir_flat)
    on_dirichlet = [np.broadcast_to(m, shape)[dirichlet] for m in everywhere]

    t0 = float(grid.t[0])
    # one allocation for the whole batch: one array per member fragmented
    # the heap across back-to-back ensembles and raised their peak RSS 13%
    outs = np.empty((len(problems),) + grid.shape)
    U = np.empty((dir_flat.size, len(problems)), order="F")
    forcing = np.zeros_like(U)  # columns without forcing stay zero
    lateral = np.empty((len(dir_index), len(problems)), order="F")
    for i, p in enumerate(problems):
        u = U[:, i]
        u[:] = _eval_spatial(p.initial, "initial data", everywhere, None, shape, t0)
        lateral[:, i] = _eval_spatial(p.lateral, "lateral data", on_dirichlet, dir_index,
                                      shape, t0)
        if p.forcing is not None and not callable(p.forcing):
            forcing[:, i] = _eval_spatial(p.forcing, "forcing", everywhere, None, shape, t0)
        bad = np.flatnonzero(~np.isfinite(u))
        if len(bad):
            raise _non_finite("initial data", grid, bad[0], t0)
        bad = np.flatnonzero(~np.isfinite(lateral[:, i]))
        if len(bad):
            raise _non_finite("lateral data", grid, dir_index[bad[0]], t0)
        mismatch = float(np.max(np.abs(u[dir_flat] - lateral[:, i])))
        if not mismatch <= COMPATIBILITY_TOL:
            raise ValueError(
                f"initial and lateral data disagree on shared edges by {mismatch:g}"
            )
    outs[..., 0] = U.T.reshape(outs.shape[:-1])
    residuals = []
    # array data was read above; only callables are evaluated per step
    timed_forcing = [i for i, p in enumerate(problems) if callable(p.forcing)]
    timed_lateral = [i for i, p in enumerate(problems) if callable(p.lateral)]

    steps = len(grid.t) - 1
    block = max(1, min(_BLOCK_STEPS, steps, _BLOCK_BYTES // U.nbytes))
    # a heap buffer left the heap laid out so that n = 3 marches followed by
    # ABP checks peaked up to 16 MB higher
    buffer = np.frombuffer(mmap.mmap(-1, block * U.nbytes)).reshape((block,) + U.T.shape)
    rows = outs.reshape(-1, len(grid.t))  # a view: one row per member and node

    static = not coeffs.time_dependent
    cache: dict[str, StepMatrix] = {}

    def step_matrix(tau: float, t_next: float) -> StepMatrix:
        if not static:
            return assemble_step_matrix(first, grid, tau, t_next)
        key = f"{tau:.11e}"
        if key not in cache:
            cache[key] = assemble_step_matrix(first, grid, tau, t_next)
        return cache[key]

    for k in range(steps):
        tn = float(grid.t[k + 1])
        tau = tn - float(grid.t[k])
        sm = step_matrix(tau, tn)
        for i in timed_forcing:
            forcing[:, i] = _eval_spatial(problems[i].forcing, "forcing", everywhere,
                                          None, shape, tn)
        for i in timed_lateral:
            lateral[:, i] = _eval_spatial(problems[i].lateral, "lateral data",
                                          on_dirichlet, dir_index, shape, tn)
        rhs = U + tau * forcing
        rhs[dir_index] = lateral
        finite = np.isfinite(rhs)
        if not finite.all():
            member = np.flatnonzero(~finite.all(axis=0))[0]
            bad = np.flatnonzero(~finite[:, member])[0]
            raise _non_finite("lateral data" if dir_flat[bad] else "forcing", grid, bad, tn)
        U = sm.solve(rhs, x0=U)
        if not np.isfinite(U).all():
            raise FloatingPointError(f"non-finite solution at step t={tn:g}")
        residuals.append(np.max(np.abs(sm.A @ U - rhs), axis=0) / tau)
        j = k % block
        buffer[j] = U.T
        if j == block - 1 or k == steps - 1:
            rows[:, k - j + 1:k + 2] = buffer[:j + 1].reshape(j + 1, -1).T

    per_member = np.array(residuals).reshape(-1, len(problems)).T.tolist()
    return [SolvedField(grid, out, tuple(r)) for out, r in zip(outs, per_member)]


def solve_ivbp(problem: IVBProblem, grid: Grid) -> SolvedField:
    """March implicit Euler over the grid's time axis, one step per output slice.

    Returns the full space-time field with the residual of each step
    (`SolvedField.step_residuals`); a finer time step is a finer t-grid.  Data given
    as an array of values on the spatial nodes is read once, as
    time-independent data; an array of another shape is refused.  Data that
    is not finite where the march uses it is refused by name: initial data
    anywhere and lateral data on the Dirichlet nodes at t0, forcing and
    lateral data in each step's right-hand side.  A solution that turns
    non-finite raises FloatingPointError naming the step.
    """
    return _march([problem], grid)[0]


def random_positive_solution_ensemble(seed: int, count: int, coeffs: CoefficientField,
                                      grid: Grid) -> list:
    """Seeded ensemble of nonnegative solutions of the homogeneous equation.

    Each member solves g = 0 with strictly positive time-independent data: a
    low-frequency random trigonometric polynomial rescaled into [0.1, 1],
    used as both initial and lateral data (compatibility is automatic).  The
    polynomial is evaluated once per member, on the spatial nodes, and that
    array of values is the member's data, which the march reads once.  The
    members share one operator, so they march together: one validation, one
    assembly and factorization per step size for the whole ensemble.
    count must be an integer >= 1.  Each member's values agree with
    those of its own `solve_ivbp` to 1e-13: the multi-column LU solve rounds
    differently, by 3.3e-16 at most on the 20-member ensemble on 33 x 33
    nodes and 201 slices at seeds 1, 2, 3, 7, 11 and 20250823.  The discrete
    maximum principle keeps every output >= 0; a negative value is an
    internal error.
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    rng = np.random.default_rng(seed)
    meshes = grid.spatial_x_meshes()
    problems = []
    for _ in range(count):
        nmodes = 3
        w = rng.uniform(0.2, 0.9, size=(nmodes, grid.n))
        ph = rng.uniform(0, 2 * math.pi, size=nmodes)
        c = rng.uniform(0.3, 1.0, size=nmodes)
        raw = plane_waves(w, ph, c, lambda phase: np.cos(math.pi * phase))

        sample0 = np.broadcast_to(raw(*meshes, grid.t[0]), grid.shape[:-1])
        lo, hi = float(np.min(sample0)), float(np.max(sample0))
        span = hi - lo if hi > lo else 1.0
        data = 0.1 + 0.9 * (sample0 - lo) / span
        problems.append(IVBProblem(coeffs=coeffs, forcing=None,
                                   initial=data, lateral=data))
    fields = _march(problems, grid)
    if any(float(np.min(sol.values)) < 0.0 for sol in fields):
        raise RuntimeError(
            "maximum-principle violation in ensemble member (scheme bug)"
        )
    return fields
