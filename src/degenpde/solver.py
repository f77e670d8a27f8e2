"""Implicit finite-difference solver for u_t = Lu + c u + g on half-space boxes.

Space is a uniform-s tensor grid; time marches by implicit Euler,

    (I - dt (L_h + c)) u^{m+1} = u^m + dt g^{m+1},

with Dirichlet rows on the lateral (nondegenerate) boundaries -- the y-faces,
s = s_max, and s = s[0] when a clipped box starts at s[0] > 0 -- and an
interior-like limit row at s = 0: the equation there degenerates to
u_t = b1 u_x + sum a_ij u_{y_i y_j} + sum b_j u_{y_j}, so no boundary
condition is imposed at the degenerate edge; the transport term b1 > 0
carries information outward.

The x-direction terms are discretized on the nonuniform x-nodes x_i = s_i^2
with 3-point stencils that are exact for data quadratic in x.  The transport
term b1 u_x (b1 > 0 by the structure conditions) uses the forward difference
(u_{i+1} - u_i)/(x_{i+1} - x_i) at the first interior nodes -- exact for
data linear in x and monotone -- blended linearly into the central stencil
beyond 4 cells, where the x-diffusion dominates it.  With diagonal
coefficient matrices every row is then an M-matrix row and the discrete
maximum principle holds to rounding.

Linear solves: with one tangential dimension the step matrix is factored
once by sparse LU.  For n >= 3 the Dirichlet rows are eliminated and
BiCGStab runs on the free-node system A_ff u_f = rhs_f - A_fd u_d, to the
relative residual `KRYLOV_TOL`.  Its preconditioner is a
fast-diagonalization solve of the same step with averaged coefficients:
y-averaged a11(s), b1(s) on the s-axis and the means of a_jj, b_j on each
y-axis, whose free-node matrix is a Kronecker sum.  It is exact for the
model operator; for variable coefficients BiCGStab typically needs under
ten iterations per step.  Mixed and cross terms are left to the Krylov
iteration.

One march serves a batch of problems that share an operator (the same
coefficients and c): `solve_ivbp` is a batch of one, and the random
ensemble marches all its members at once.  The coefficients are validated
once per batch, and the step matrix for each distinct substep size is
assembled and factored once per batch and reused by every member.  Each
member's data is evaluated where the march uses it: initial and forcing
data on the full grid, lateral data on the Dirichlet nodes only.
Non-finite data is refused by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, bicgstab, splu

from .fields import Grid, ScalarField
from .operators import (CoefficientField, model_coefficients, plane_waves,
                        validate_coefficients)

COMPATIBILITY_TOL = 1e-8
KRYLOV_TOL = 1e-10  # relative residual of the n >= 3 iterative step solve


@dataclass
class SolverConfig:
    dt: float | None = None  # substep size between output slices; None = slice spacing
    max_iter: int = 5000

    def __post_init__(self):
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass
class IVBProblem:
    """Initial/boundary-value problem for u_t = Lu + c u + g.

    coeffs: CoefficientField, or a positive float v for the model operator.
    forcing/initial/lateral are callables f(x, y..., t); forcing may also
    be None (no forcing).
    """

    coeffs: object
    forcing: object = None
    initial: object = None
    lateral: object = None
    c: float = 0.0

    def coefficient_field(self, n: int) -> CoefficientField:
        if isinstance(self.coeffs, CoefficientField):
            return self.coeffs
        return model_coefficients(float(self.coeffs), n)


def _spatial_meshes(grid: Grid):
    axes = [grid.s] + list(grid.y)
    return np.meshgrid(*axes, indexing="ij", sparse=True)


def _eval_spatial(fn, coords: list, shape: tuple, t: float) -> np.ndarray:
    """fn(x, y..., t) on the nodes whose coordinates (x = s^2) broadcast to shape."""
    val = fn(*coords, t)
    return np.broadcast_to(np.asarray(val, dtype=float), shape).copy()


def _non_finite(name: str, grid: Grid, flat: int, t: float) -> ValueError:
    """Refusal naming the data and the node (s, y..., t); flat is its raveled spatial index."""
    axes = [grid.s] + list(grid.y)
    idx = np.unravel_index(flat, tuple(len(ax) for ax in axes))
    node = tuple(float(ax[i]) for ax, i in zip(axes, idx)) + (float(t),)
    return ValueError(f"{name} is non-finite at node {node}")


def _free_box(grid: Grid) -> tuple:
    """Index box of the free nodes: every spatial node off a Dirichlet face.

    The Dirichlet faces are both ends of every y-axis, s = s_max, and
    s = s[0] when s[0] > 0 (a clipped box).  The degenerate edge s = 0 is
    free: the equation needs no boundary condition there.
    """
    s_lo = 1 if grid.s[0] > 0 else 0
    return (slice(s_lo, len(grid.s) - 1), *(slice(1, len(y) - 1) for y in grid.y))


def _dirichlet_mask(grid: Grid) -> np.ndarray:
    mask = np.ones(tuple(len(ax) for ax in [grid.s] + list(grid.y)), dtype=bool)
    mask[_free_box(grid)] = False
    return mask


def _x_stencils(s: np.ndarray):
    """3-point stencils on the nonuniform x-nodes x_i = s_i^2, per s-node.

    Returns (xx, x1, fwd, w).  xx and x1 are (minus, centre, plus) weight
    vectors, zero at both s-ends: x times the central second difference
    (exact for quadratics in x) and the central first difference.  fwd is
    the plus weight of the forward first difference (its centre weight is
    -fwd).  The transport stencil is w x1 + (1 - w) fwd.
    """
    xv = s ** 2

    def vec(interior):
        full = np.zeros(len(s))
        full[1:-1] = interior
        return full

    dm = xv[1:-1] - xv[:-2]
    dp = xv[2:] - xv[1:-1]
    x_here = xv[1:-1]
    xx = (vec(2.0 / (dm * (dm + dp)) * x_here), vec(-2.0 / (dm * dp) * x_here),
          vec(2.0 / (dp * (dm + dp)) * x_here))
    x1 = (vec(-dp / (dm * (dm + dp))), vec((dp - dm) / (dm * dp)),
          vec(dm / (dp * (dm + dp))))
    # forward difference near x = 0 (monotone, exact on x-linear data),
    # blended to the central stencil beyond 4 cells
    w = np.clip((np.arange(len(s)) - 1) / 4.0, 0.0, 1.0)
    return xx, x1, vec(1.0 / dp), w


def _fast_diagonalization(A: np.ndarray, B: np.ndarray, grid: Grid, dt: float,
                          c: float):
    """Direct solver for the free-node step matrix of averaged coefficients.

    On the free box the operator with the y-averaged a11(s), b1(s) and the
    free-node means of a_jj, b_j (j >= 2) is a Kronecker sum
    L_s (+) L_y2 (+) ... (Lynch, Rice & Thomas 1964).  Each 1-D L_yj is
    diagonalized once, V_j Lambda_j V_j^-1, through a diagonal similarity
    and `eigh`; where |b_j| h_j >= 2 a_jj no real similarity exists and the
    y-drift is left out.  Per y-mode a tridiagonal s-system remains; all are
    factored here and solved together by one vectorized Thomas sweep.  Mixed
    and cross terms are left out.  Returns r -> P^-1 r on raveled free-box
    vectors, for use as a Krylov preconditioner (Concus & Golub 1973).
    """
    box = _free_box(grid)
    m = len(grid.y)
    shape = tuple(sl.stop - sl.start for sl in box)
    y_axes = tuple(range(1, m + 1))

    # tridiagonal L_s on the free s-nodes; couplings to Dirichlet nodes drop
    a_s = A[0, 0][box].mean(axis=y_axes)
    b_s = B[0][box].mean(axis=y_axes)
    xx, x1, fwd, w = _x_stencils(grid.s)
    ns = shape[0]
    i = np.arange(box[0].start, box[0].stop)
    sub = a_s * xx[0][i] + w[i] * b_s * x1[0][i]
    mid = a_s * xx[1][i] + w[i] * b_s * x1[1][i] - (1 - w[i]) * b_s * fwd[i]
    sup = a_s * xx[2][i] + w[i] * b_s * x1[2][i] + (1 - w[i]) * b_s * fwd[i]
    if box[0].start == 0:  # the s = 0 limit row: b1 u_x, two-point stencil
        x_1 = grid.s[1] ** 2
        mid[0], sup[0] = -b_s[0] / x_1, b_s[0] / x_1

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
    diag = (1.0 - dt * c - dt * mid)[:, None] - dt * lam.ravel()
    inv = np.empty_like(diag)
    cp = np.empty_like(diag)
    inv[0] = 1.0 / diag[0]
    cp[0] = upper[0] * inv[0]
    for k in range(1, ns):
        inv[k] = 1.0 / (diag[k] - lower[k] * cp[k - 1])
        cp[k] = upper[k] * inv[k]
    del diag

    def transform(z, mats):
        for axis, mat in enumerate(mats, start=1):
            z = np.moveaxis(np.tensordot(mat, z, axes=(1, axis)), 0, axis)
        return z

    def apply(r):
        z = np.ascontiguousarray(transform(r.reshape(shape), to_modes))
        z = z.reshape(ns, -1)
        z[0] *= inv[0]
        for k in range(1, ns):
            z[k] -= lower[k] * z[k - 1]
            z[k] *= inv[k]
        for k in range(ns - 2, -1, -1):
            z[k] -= cp[k] * z[k + 1]
        return transform(z.reshape(shape), from_modes).ravel()

    return apply


def _krylov_solver(M: sparse.csr_matrix, free: np.ndarray, precond, max_iter: int):
    """BiCGStab on the free-node rows of M; Dirichlet values go to the right side.

    The Dirichlet rows of M are identity rows, so u_d = rhs_d and the free
    values solve A_ff u_f = rhs_f - A_fd u_d.
    """
    inner = np.flatnonzero(free)
    fixed = np.flatnonzero(~free)
    rows = M[inner]
    A_ff, A_fd = rows[:, inner], rows[:, fixed]
    P = LinearOperator(A_ff.shape, matvec=precond, dtype=float)

    def solve(rhs, x0):
        u = rhs.copy()
        b = rhs[inner] - A_fd @ rhs[fixed]
        sol, info = bicgstab(A_ff, b, x0=x0[inner], rtol=KRYLOV_TOL, atol=0.0,
                             maxiter=max_iter, M=P)
        if info != 0:
            raise RuntimeError(f"iterative linear solve failed (info={info})")
        u[inner] = sol
        return u

    return solve


@dataclass
class StepMatrix:
    """One implicit-Euler step: A u_new = u_old + dt*g_new (+ Dirichlet rows).

    _solve(rhs, x0) is the linear solver built with A: a sparse LU for one
    tangential dimension, otherwise preconditioned BiCGStab on the free
    nodes.  It holds no reference back to the StepMatrix.
    """

    A: sparse.csr_matrix
    dirichlet: np.ndarray  # boolean, raveled spatial shape
    dt: float
    diagonally_dominant: bool
    max_positive_offdiag: float
    _solve: Callable = dc_field(repr=False)

    def solve(self, rhs: np.ndarray, x0: np.ndarray) -> np.ndarray:
        return self._solve(rhs, x0)


def assemble_step_matrix(problem: IVBProblem, grid: Grid, dt: float,
                         t_eval: float | None = None,
                         config: SolverConfig | None = None) -> StepMatrix:
    """Assemble (I - dt (L_h + c)) with Dirichlet rows on lateral boundaries."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    config = config or SolverConfig()
    coeffs = problem.coefficient_field(grid.n)
    if t_eval is None:
        t_eval = float(grid.t[-1])

    meshes = _spatial_meshes(grid)
    sp_shape = tuple(len(ax) for ax in [grid.s] + list(grid.y))
    N = int(np.prod(sp_shape))
    xm = [meshes[0] ** 2, *meshes[1:], t_eval]
    A = coeffs.eval_a(xm, sp_shape)
    B = coeffs.eval_b(xm, sp_shape)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise ValueError("non-finite coefficient values on the grid")

    hs = grid.hs
    m = len(grid.y)
    hy = [grid.hy(i) for i in range(m)]
    strides = [int(np.prod(sp_shape[k + 1:])) for k in range(len(sp_shape))]
    lin = np.arange(N).reshape(sp_shape)
    dirichlet = _dirichlet_mask(grid)
    free = ~dirichlet

    s_idx = np.arange(sp_shape[0]).reshape((-1,) + (1,) * m)
    interior_s = free & np.broadcast_to(s_idx >= 1, sp_shape)
    zero_s = free & np.broadcast_to(s_idx == 0, sp_shape)

    rows, cols, vals = [], [], []

    def add(mask, shift, coeff):
        r = lin[mask]
        offset = sum(sh * st for sh, st in zip(shift, strides))
        rows.append(r)
        cols.append(r + offset)
        vals.append(np.broadcast_to(coeff, sp_shape)[mask])

    def unit(axis, sign):
        sh = [0] * len(sp_shape)
        sh[axis] = sign
        return tuple(sh)

    # x-direction terms on the nonuniform x-nodes x_i = s_i^2
    def on_s(v):
        return v.reshape((-1,) + (1,) * m)

    xx, x1, fwd, w_s = _x_stencils(grid.s)
    c2m, c20, c2p = map(on_s, xx)
    c1m, c10, c1p = map(on_s, x1)
    fwd = on_s(fwd)
    w = np.broadcast_to(on_s(w_s), sp_shape)
    add(interior_s, unit(0, -1), A[0, 0] * c2m)
    add(interior_s, unit(0, 0), A[0, 0] * c20)
    add(interior_s, unit(0, +1), A[0, 0] * c2p)

    # transport b1 u_x: blend of the central and forward stencils
    add(interior_s, unit(0, -1), w * B[0] * c1m)
    add(interior_s, unit(0, 0), w * B[0] * c10)
    add(interior_s, unit(0, +1), w * B[0] * c1p)
    add(interior_s, unit(0, +1), (1 - w) * B[0] * fwd)
    add(interior_s, unit(0, 0), -(1 - w) * B[0] * fwd)

    # s = 0 limit row: b1 u_x with the monotone two-point x-stencil
    if grid.s[0] == 0.0:
        x1_node = grid.s[1] ** 2
        add(zero_s, unit(0, +1), B[0] / x1_node)
        add(zero_s, unit(0, 0), -B[0] / x1_node)

    # tangential diffusion, drift, and cross terms
    for j in range(m):
        dyy = A[1 + j, 1 + j] / (hy[j] * hy[j])
        add(free, unit(1 + j, -1), dyy)
        add(free, unit(1 + j, 0), -2 * dyy)
        add(free, unit(1 + j, +1), dyy)
        drift = B[1 + j] / (2 * hy[j])
        add(free, unit(1 + j, +1), drift)
        add(free, unit(1 + j, -1), -drift)
        # mixed term 2 sqrt(x) a1j u_{x y_j} (zero for the bundled presets)
        if np.any(A[0, 1 + j] != 0):
            sqx = on_s(np.sqrt(grid.s ** 2))
            base = 2.0 * A[0, 1 + j] * sqx / (2 * hy[j])
            for ss, cx in ((-1, c1m), (0, c10), (+1, c1p)):
                for sy in (+1, -1):
                    sh = [0] * len(sp_shape)
                    sh[0], sh[1 + j] = ss, sy
                    add(interior_s, tuple(sh), sy * base * cx)
    for i in range(m):
        for j in range(i + 1, m):
            cross = 2 * A[1 + i, 1 + j] / (4 * hy[i] * hy[j])
            if np.any(cross != 0):
                for si in (+1, -1):
                    for sj in (+1, -1):
                        sh = [0] * len(sp_shape)
                        sh[1 + i], sh[1 + j] = si, sj
                        add(free, tuple(sh), si * sj * cross)

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    L = sparse.coo_matrix((vals, (rows, cols)), shape=(N, N)).tocsr()

    free_flat = free.ravel()
    diag_extra = np.where(free_flat, dt * problem.c, 0.0)
    scale = sparse.diags(np.where(free_flat, dt, 0.0))
    M = sparse.identity(N, format="csr") - scale @ L - sparse.diags(diag_extra)
    M = M.tocsr()
    M.sum_duplicates()

    diag = M.diagonal()
    off = M - sparse.diags(diag)
    row_off_abs = np.asarray(np.abs(off).sum(axis=1)).ravel()
    dominant = bool(np.all(np.abs(diag) >= row_off_abs - 1e-12))
    max_pos_off = float(off.data.max()) if off.nnz else 0.0

    if m >= 2:
        precond = _fast_diagonalization(A, B, grid, dt, problem.c)
        solve = _krylov_solver(M, free_flat, precond, config.max_iter)
    else:
        lu = splu(M.tocsc())

        def solve(rhs, x0):
            return lu.solve(rhs)
    return StepMatrix(M, dirichlet.ravel(), dt, dominant, max_pos_off, solve)


@dataclass(frozen=True)
class SolvedField(ScalarField):
    """A solved space-time field and the residuals of the solve.

    step_residuals holds max |u_t - L_h u - c u - g| over the nodes of each
    implicit-Euler substep, in time order.
    """

    step_residuals: tuple = ()


def _march(problems: list, grid: Grid,
           config: SolverConfig | None = None) -> list:
    """March implicit Euler for problems that share one operator (coeffs and c).

    The coefficients are validated once and each substep size tau is
    assembled and factored once for the whole batch (once per substep when
    the coefficients depend on t).  Initial and forcing data are evaluated on
    spatial meshes built once, lateral data only at the Dirichlet nodes.
    Each member takes the vector operations of a march of its own, so its
    values and residuals do not depend on the batch.  The members' values
    are slices of one array.
    """
    config = config or SolverConfig()
    first = problems[0]
    if any(p.coeffs != first.coeffs or p.c != first.c for p in problems[1:]):
        raise ValueError("a batch march needs one operator: the same coeffs and c")
    coeffs = first.coefficient_field(grid.n)
    report = validate_coefficients(coeffs, grid)
    if not report.passed:
        raise ValueError(f"coefficient conditions violated: {report.margins}")
    if any(p.initial is None or p.lateral is None for p in problems):
        raise ValueError("problem needs initial and lateral data")

    shape = tuple(len(ax) for ax in [grid.s] + list(grid.y))
    meshes = _spatial_meshes(grid)
    everywhere = [meshes[0] ** 2, *meshes[1:]]
    dir_flat = _dirichlet_mask(grid).ravel()
    dir_index = np.flatnonzero(dir_flat)
    idx = np.unravel_index(dir_index, shape)
    on_dirichlet = [grid.s[idx[0]] ** 2, *(y[i] for y, i in zip(grid.y, idx[1:]))]
    zero = np.zeros(dir_flat.size)

    t0 = float(grid.t[0])
    # one allocation for the whole batch: one array per member fragmented
    # the heap across back-to-back ensembles and raised their peak RSS 13%
    outs = np.empty((len(problems),) + grid.shape)
    us = []
    for p, out in zip(problems, outs):
        u = _eval_spatial(p.initial, everywhere, shape, t0).ravel()
        lateral0 = _eval_spatial(p.lateral, on_dirichlet, dir_index.shape, t0)
        bad = np.flatnonzero(~np.isfinite(u))
        if len(bad):
            raise _non_finite("initial data", grid, bad[0], t0)
        bad = np.flatnonzero(~np.isfinite(lateral0))
        if len(bad):
            raise _non_finite("lateral data", grid, dir_index[bad[0]], t0)
        mismatch = float(np.max(np.abs(u[dir_flat] - lateral0)))
        if not mismatch <= COMPATIBILITY_TOL:
            raise ValueError(
                f"initial and lateral data disagree on shared edges by {mismatch:g}"
            )
        out[..., 0] = u.reshape(shape)
        us.append(u)
    residuals = [[] for _ in problems]

    static = not coeffs.time_dependent
    cache: dict[float, StepMatrix] = {}

    def step_matrix(tau: float, t_next: float) -> StepMatrix:
        if static and tau in cache:
            return cache[tau]
        sm = assemble_step_matrix(first, grid, tau, t_next, config)
        if static:
            cache[tau] = sm
        return sm

    for k in range(len(grid.t) - 1):
        T0, T1 = float(grid.t[k]), float(grid.t[k + 1])
        span = T1 - T0
        if config.dt is None:
            nsub = 1
        else:
            nsub = max(1, int(math.ceil(span / config.dt - 1e-12)))
        tau = span / nsub
        for j in range(1, nsub + 1):
            tn = T1 if j == nsub else T0 + j * tau
            sm = step_matrix(tau, tn)
            for i, p in enumerate(problems):
                g = (zero if p.forcing is None
                     else _eval_spatial(p.forcing, everywhere, shape, tn).ravel())
                rhs = us[i] + tau * g
                rhs[dir_index] = _eval_spatial(p.lateral, on_dirichlet, dir_index.shape, tn)
                if not np.isfinite(rhs).all():
                    bad = np.flatnonzero(~np.isfinite(rhs))[0]
                    raise _non_finite("lateral data" if dir_flat[bad] else "forcing",
                                      grid, bad, tn)
                u = sm.solve(rhs, x0=us[i])
                if not np.all(np.isfinite(u)):
                    raise RuntimeError(f"non-finite solution at step t={tn:g}")
                res = sm.A @ u - rhs
                residuals[i].append(float(np.max(np.abs(res))) / tau)
                us[i] = u
        for out, u in zip(outs, us):
            out[..., k + 1] = u.reshape(shape)

    return [SolvedField(grid, out, tuple(r)) for out, r in zip(outs, residuals)]


def solve_ivbp(problem: IVBProblem, grid: Grid,
               config: SolverConfig | None = None) -> SolvedField:
    """March implicit Euler over the grid's time axis.

    Returns the full space-time field with the residual of each substep
    (`SolvedField.step_residuals`); a step between output slices takes
    ceil(span / config.dt) substeps, one when config.dt is None.  Data that
    is not finite where the march uses it is refused by name: initial data
    anywhere and lateral data on the Dirichlet nodes at t0, forcing and
    lateral data in each substep's right-hand side.
    """
    return _march([problem], grid, config)[0]


def solve_model(v, g, f0, boundary, grid: Grid,
                config: SolverConfig | None = None, c: float = 0.0) -> SolvedField:
    """Model-operator specialization: a = I, b = (v, 0, ..., 0), optional c."""
    problem = IVBProblem(coeffs=v, forcing=g, initial=f0, lateral=boundary, c=c)
    return solve_ivbp(problem, grid, config)


def random_positive_solution_ensemble(seed: int, count: int, coeffs, grid: Grid,
                                      config: SolverConfig | None = None) -> list:
    """Seeded ensemble of nonnegative solutions of the homogeneous equation.

    Each member solves g = 0 with strictly positive time-independent data: a
    low-frequency random trigonometric polynomial rescaled into [0.1, 1],
    used as both initial and lateral data (compatibility is automatic).  The
    members share one operator, so they march together: one validation, one
    assembly and factorization per substep size for the whole ensemble, and
    lateral data evaluated on the Dirichlet nodes only.  Each member's
    values are those of its own `solve_ivbp`, bit for bit.  The discrete
    maximum principle keeps every output >= 0; a negative value is an
    internal error.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    meshes = _spatial_meshes(grid)
    x_mesh = meshes[0] ** 2
    problems = []
    for _ in range(count):
        nmodes = 3
        w = rng.uniform(0.2, 0.9, size=(nmodes, grid.n))
        ph = rng.uniform(0, 2 * math.pi, size=nmodes)
        c = rng.uniform(0.3, 1.0, size=nmodes)
        raw = plane_waves(w, ph, c, lambda phase: np.cos(math.pi * phase))

        sample0 = np.broadcast_to(raw(x_mesh, *meshes[1:], grid.t[0]),
                                  tuple(len(ax) for ax in [grid.s] + list(grid.y)))
        lo, hi = float(np.min(sample0)), float(np.max(sample0))
        span = hi - lo if hi > lo else 1.0

        def data(x, *coords, _raw=raw, _lo=lo, _span=span):
            return 0.1 + 0.9 * (_raw(x, *coords) - _lo) / _span

        problems.append(IVBProblem(coeffs=coeffs, forcing=None,
                                   initial=data, lateral=data))
    fields = _march(problems, grid, config)
    if any(float(np.min(sol.values)) < 0.0 for sol in fields):
        raise RuntimeError(
            "maximum-principle violation in ensemble member (scheme bug)"
        )
    return fields
