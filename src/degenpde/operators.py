"""The operator L in x-form, the parabolic operator u_t - Lu, and coefficients.

L acts on the half-space x >= 0:

    Lu = x a11 u_xx + 2 sqrt(x) sum_j a1j u_{x y_j}
         + sum_{ij} a_ij u_{y_i y_j} + b1 u_x + sum_j b_j u_{y_j},

with ellipticity a xi.xi >= lambda |xi|^2, bounds |a_ij|, |b_i| <= 1/lambda,
and the transport condition 2 b1 / a11 >= nu > 0 that makes x = 0 an
outflow characteristic (no boundary condition needed there).  Every
estimate is stated for the parabolic operator (script L in the paper)

    LLu = u_t - Lu,

which `apply_parabolic` evaluates.  L0 is LL for the constant-coefficient
model `model_coefficients(v, n)`: L0 f = f_t - (x f_xx + sum f_{y_i y_i}
+ v f_x) with transport velocity v > 0.
"""

from __future__ import annotations

import ast
import math
import re
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .expressions import compile_expression
from .fields import Grid, ScalarField, _d1, _d2, _uniform_spacing, x_stencils
from .fields import fd_derivatives  # noqa: F401 perfbench/tracing.py binds this name


@dataclass(frozen=True)
class EllipticityParams:
    lam: float
    nu: float

    def __post_init__(self):
        if not 0 < self.lam < 1:
            raise ValueError("lambda must lie in (0, 1)")
        if not 0 < self.nu < 1:
            raise ValueError("nu must lie in (0, 1)")


def _const(c: float):
    c = float(c)

    def f(x, *coords):
        return np.full(np.broadcast(x, *coords).shape, c) if np.ndim(x) or coords else c

    return f


class CoefficientField:
    """Coefficient functions a_ij(x, y, t), b_i(x, y, t) with (1.2)-style bounds.

    a and b entries are callables f(x, y2, ..., t) broadcasting over meshes.
    Index 1 is the degenerate (x) direction.
    """

    def __init__(self, n: int, a, b, params: EllipticityParams,
                 time_dependent: bool = False):
        if n < 2:
            raise ValueError("dimension n must be >= 2")
        self.n = n
        self.a = a
        self.b = b
        self.params = params
        self.time_dependent = time_dependent
        if len(a) != n or any(len(row) != n for row in a):
            raise ValueError("a must be n x n")
        if len(b) != n:
            raise ValueError("b must have n entries")

    def eval_a(self, meshes, shape):
        """Array of shape (n, n) + shape with a evaluated on the meshes.

        Here and in eval_b a non-finite entry is refused by name and node index.
        """
        return np.array([[_evaluate(f, f"a{i + 1}{j + 1}", meshes, shape)
                          for j, f in enumerate(row)] for i, row in enumerate(self.a)], float)

    def eval_b(self, meshes, shape):
        return np.array([_evaluate(f, f"b{i + 1}", meshes, shape)
                         for i, f in enumerate(self.b)], float)


def _evaluate(f, name: str, meshes, shape) -> np.ndarray:
    values = np.broadcast_to(f(*meshes), shape)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"coefficient {name} is non-finite at node index "
                         f"{tuple(map(int, bad[0]))}")
    return values


@dataclass
class CoefficientValidation:
    margins: dict
    passed: bool


def _check_dimension(coeffs: CoefficientField, grid: Grid) -> None:
    if coeffs.n != grid.n:
        raise ValueError(f"coefficient dimension does not match grid: the coefficients "
                         f"have n = {coeffs.n}, the grid n = {grid.n}")


def validate_coefficients(coeffs: CoefficientField, grid: Grid) -> CoefficientValidation:
    """Worst-case margins of the ellipticity/bound/transport conditions on grid samples.

    Coefficients with time_dependent=False are sampled on the first time
    slice only.  That flag promises the same values at every t, the same
    contract the solver's step-matrix cache relies on, so the margins are
    those of the full space-time grid.  Coefficients whose dimension n is
    not the grid's are refused.
    """
    _check_dimension(coeffs, grid)
    *space, t = grid.x_meshes()
    if not coeffs.time_dependent:
        t = t[..., :1]
    meshes = (*space, t)
    shape = grid.shape[:-1] + t.shape[-1:]
    A = coeffs.eval_a(meshes, shape)
    B = coeffs.eval_b(meshes, shape)
    asym = float(np.max(np.abs(A - np.swapaxes(A, 0, 1))))
    if asym > 1e-12:
        raise ValueError(f"coefficient matrix a is not symmetric (max |a_ij - a_ji| = {asym:g})")
    lam, nu = coeffs.params.lam, coeffs.params.nu
    At = np.moveaxis(A, (0, 1), (-2, -1))
    eigs = np.linalg.eigvalsh(At)
    margins = {
        "ellipticity": float(np.min(eigs) - lam),
        "bound_a": float(1.0 / lam - np.max(np.abs(A))),
        "bound_b": float(1.0 / lam - np.max(np.abs(B))),
        "transport": float(np.min(2.0 * B[0] / A[0, 0]) - nu),
    }
    passed = all(m >= 0 for m in margins.values())
    return CoefficientValidation(margins, passed)


# the transport blend weight w of L_h reaches 1 at this s-index; from it on
# L_h is exact for fields quadratic in x
BLEND_END = 5


def _axis_matrices(grid: Grid):
    """The 1-D difference matrices of L_h: ((xx, x1, fwd, w), [(dy, dyy) per y-axis]).

    On the s-nodes x d2/dx2 and d/dx of `fields.x_stencils`, the forward
    difference and the transport blend weight w; on each y-axis the
    unscaled stencils of `fields._d1` and `_d2`.  Every row has a consistent
    stencil, one-sided at the ends, exact for data linear in x and y.  A
    non-uniform s-axis is refused.
    """
    _uniform_spacing(grid.s, "s")
    xv = grid.x
    idx, d1, d2 = x_stencils(xv)
    rows = np.repeat(np.arange(len(xv)), 3)
    xx, x1 = (sparse.csr_matrix((wt.ravel(), (rows, idx.ravel())))
              for wt in (d2 * xv[:, None], d1))
    inv_h = 1.0 / np.diff(xv)
    fwd = sparse.diags([-inv_h, inv_h], [0, 1], shape=(len(xv) - 1, len(xv)), format="csr")
    fwd = sparse.vstack([fwd, fwd[-1]], format="csr")  # the last row backward: row N-2 again
    w = np.clip((np.arange(len(xv)) - 1) / (BLEND_END - 1.0), 0.0, 1.0)  # 0 at nodes 0 and 1
    # _d1 and _d2 applied to the identity are their matrices; 2h = h^2 = 1 leaves them unscaled
    y_axes = [(sparse.csr_matrix(_d1(np.eye(len(y)), 0.5, 0)),
               sparse.csr_matrix(_d2(np.eye(len(y)), 1.0, 0)))
              for y in grid.y]
    return (xx, x1, fwd, w), y_axes


def operator_matrix(coeffs: CoefficientField, grid: Grid, t: float):
    """L_h at time t on the spatial nodes (C order): (L_h, A, B), A and B the coefficients.

    The one discrete L: coefficients times Kronecker products of the 1-D
    matrices of `_axis_matrices` (the identity on the other axes),

        L_h = diag(a11) XX + diag(w b1) X1 + diag((1 - w) b1) F
              + sum_j [diag(a_jj / h_j^2) Dyy_j + diag(b_j / 2h_j) Dy_j
                       + diag(2 sqrt(x) a1j / 2h_j) X1 Dy_j]
              + sum_{i<j} diag(2 a_ij / 4 h_i h_j) Dy_i Dy_j.

    The transport b1 u_x (b1 > 0) blends the x-stencil X1 with the monotone
    forward difference F, w = 0 at the first two s-nodes and 1 from s-index
    5 on.  At s = 0 (x = 0, w = 0) the row is the limit equation's b1 u_x +
    sum a_ij u_{y_i y_j} + sum b_j u_{y_j}: its outflow needs no boundary data.
    """
    _check_dimension(coeffs, grid)
    xm = [*grid.spatial_x_meshes(), t]
    sp_shape = grid.shape[:-1]
    N = math.prod(sp_shape)
    A = coeffs.eval_a(xm, sp_shape)
    B = coeffs.eval_b(xm, sp_shape)

    m = len(grid.y)
    (xx, x1, fwd, w), y_axes = _axis_matrices(grid)
    w = w.reshape((-1,) + (1,) * m)
    hy = [grid.hy(j) for j in range(m)]

    def on_axis(mat, k):
        # I (x) mat (x) I: mat on spatial axis k, the identity on the others,
        # built from mat's entries without sparse.kron's per-call overhead
        coo = mat.tocoo()
        lead = np.arange(math.prod(sp_shape[:k]))[:, None, None] * mat.shape[0]
        trail = np.arange(math.prod(sp_shape[k + 1:]))
        rows, cols = ((lead + i[:, None]) * trail.size + trail for i in (coo.row, coo.col))
        data = np.broadcast_to(coo.data[:, None], rows.shape)
        return sparse.csr_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(N, N))

    def term(coeff, K):
        return sparse.diags(np.broadcast_to(coeff, sp_shape).ravel()) @ K

    # x a11 u_xx + b1 u_x; at s = 0 (x = 0, w = 0) b1 times the forward difference
    X1 = on_axis(x1, 0)
    L = (term(A[0, 0], on_axis(xx, 0)) + term(w * B[0], X1)
         + term((1 - w) * B[0], on_axis(fwd, 0)))
    Y1 = [on_axis(dy, 1 + j) for j, (dy, _) in enumerate(y_axes)]
    for j, (_, dyy) in enumerate(y_axes):
        L = (L + term(A[1 + j, 1 + j] / (hy[j] * hy[j]), on_axis(dyy, 1 + j))
             + term(B[1 + j] / (2 * hy[j]), Y1[j]))
        # mixed term 2 sqrt(x) a1j u_{x y_j} (zero for diagonal coefficients)
        if np.any(A[0, 1 + j] != 0):
            L = L + term(2.0 * A[0, 1 + j] * np.sqrt(xm[0]) / (2 * hy[j]), X1 @ Y1[j])
    for i in range(m):
        for j in range(i + 1, m):
            if np.any(A[1 + i, 1 + j] != 0):
                L = L + term(2 * A[1 + i, 1 + j] / (4 * hy[i] * hy[j]), Y1[i] @ Y1[j])
    return L, A, B


def apply_L(coeffs: CoefficientField, field: ScalarField) -> ScalarField:
    """Lu on the field's grid: L_h of `operator_matrix`, the solver's, slice by slice.

    Lateral-edge nodes take the one-sided edge rows of `_axis_matrices`.  Lu
    is exact for fields linear in x and y at every node, and for fields
    quadratic in x past s-index 4 (inside, the transport blends in the
    forward difference).  Static coefficients take one matrix for all
    slices, time-dependent ones one per slice.
    """
    g = field.grid
    u = field.values.reshape(-1, len(g.t))  # a column per time slice
    if not coeffs.time_dependent:
        return ScalarField(g, (operator_matrix(coeffs, g, g.t[0])[0] @ u).reshape(g.shape))
    out = np.column_stack([operator_matrix(coeffs, g, t)[0] @ col for t, col in zip(g.t, u.T)])
    return ScalarField(g, out.reshape(g.shape))


def model_coefficients(v, n: int = 2) -> CoefficientField:
    """a = I, b = (v, 0, ..., 0); v must be a positive finite real, and a bool is refused."""
    if isinstance(v, bool) or not (math.isfinite(v) and v > 0):
        raise ValueError(f"transport velocity must be positive and finite, got {v!r}")
    lam = min(0.5, 1.0 / max(1.0, v))
    nu = min(0.5, v)
    a = [[_const(1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    b = [_const(v)] + [_const(0.0) for _ in range(n - 1)]
    return CoefficientField(n, a, b, EllipticityParams(lam, nu))


def plane_waves(w, ph, c, wave):
    """Time-independent f(x, y..., t) = sum_k c_k wave(w_k . (x, y) + ph_k)."""

    def f(x, *coords):
        out = 0.0
        for wk, phk, ck in zip(w, ph, c):
            phase = wk[0] * x + phk
            for wi, yi in zip(wk[1:], coords[:-1]):
                phase = phase + wi * yi
            out = out + ck * wave(phase)
        return out

    return f


def random_coefficients(seed: int, n: int = 2) -> CoefficientField:
    """Smooth randomized coefficients satisfying the structure conditions.

    Diagonal a with entries in [0.6, 1.5], b1 in [0.5, 1.1] (so
    2 b1/a11 >= 2*0.5/1.5 > nu), tangential drifts in [-0.5, 0.5]; all
    low-frequency trigonometric functions of (x, y), time-independent.
    The ellipticity parameters are lambda = 0.5 and nu = 0.25.
    Deterministic per seed.
    """
    rng = np.random.default_rng(seed)

    def smooth_unit():
        # two random plane-wave modes, total amplitude 1, values in [-1, 1]
        w = rng.uniform(0.3, 1.5, size=(2, n))
        ph = rng.uniform(0, 2 * math.pi, size=2)
        c = rng.uniform(0.2, 1.0, size=2)
        return plane_waves(w, ph, c / np.sum(c), np.sin)

    def shifted(base, mid, amp):
        def f(x, *coords):
            return mid + amp * base(x, *coords)

        return f

    a = [[_const(0.0) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        a[i][i] = shifted(smooth_unit(), 1.05, 0.45)
    b = [shifted(smooth_unit(), 0.8, 0.3)]
    for _ in range(n - 1):
        b.append(shifted(smooth_unit(), 0.0, 0.5))
    return CoefficientField(n, a, b, EllipticityParams(0.5, 0.25))


def coefficients_from_expressions(entries: dict, n: int = 2,
                                  lam: float = 0.5, nu: float = 0.25) -> CoefficientField:
    """Build coefficients from expression strings keyed 'a11', 'a12', ..., 'b1', ...

    Missing diagonal a-entries default to 1, everything else to 0.  A pair
    a_ij / a_ji may be given once; giving both requires the same parsed
    expression.  A key outside a11..a{n}{n} and b1..b{n} is refused.
    """
    indices = range(1, n + 1)
    known = [f"a{i}{j}" for i in indices for j in indices] + [f"b{i}" for i in indices]
    for key in entries:
        if key not in known:
            raise ValueError(f"unknown coefficient key {key!r} (known: {', '.join(known)})")
    exprs = {key: compile_expression(text) for key, text in entries.items()}
    a = [[None] * n for _ in indices]
    for i in indices:
        for j in indices:
            eij, eji = exprs.get(f"a{i}{j}"), exprs.get(f"a{j}{i}")
            if eij and eji and ast.dump(eij.node) != ast.dump(eji.node):
                raise ValueError(f"conflicting entries for a{i}{j}/a{j}{i}")
            a[i - 1][j - 1] = eij or eji or _const(1.0 if i == j else 0.0)
    b = [exprs.get(f"b{i}", _const(0.0)) for i in indices]
    return CoefficientField(n, a, b, EllipticityParams(lam, nu),
                            time_dependent=any(e.time_dependent for e in exprs.values()))


COEFFICIENT_PRESETS = {
    "identity": "a = I, b = (1, 0, ...)",
    "model:v=<v>": "model operator: a = I, b = (v, 0, ...), v > 0",
    "random:seed=<u64>": "randomized smooth coefficients satisfying the structure conditions",
}


def parse_coefficient_preset(text: str, n: int = 2) -> CoefficientField:
    text = text.strip()
    if text == "identity":
        return model_coefficients(1.0, n)
    m = re.fullmatch(r"model:v=([0-9.eE+-]+)", text)
    if m:
        return model_coefficients(float(m.group(1)), n)
    m = re.fullmatch(r"random:seed=(\d+)", text)
    if m:
        return random_coefficients(int(m.group(1)), n)
    raise ValueError(f"unknown coefficient preset {text!r}")


def apply_parabolic(coeffs: CoefficientField, field: ScalarField) -> ScalarField:
    """The parabolic operator LLu = u_t - Lu on the field's grid."""
    g = field.grid
    u_t = _d1(field.values, g.ht, len(g.axes) - 1)
    return ScalarField(g, u_t - apply_L(coeffs, field).values)


def apply_L0(v, field: ScalarField) -> ScalarField:
    """Model operator L0 f = f_t - (x f_xx + sum f_yiyi + v f_x)."""
    return apply_parabolic(model_coefficients(v, field.grid.n), field)


def apply_L_exact(coeffs: CoefficientField, coords, grad, hess):
    """Lu at the points coords = (x, y2, ..., t) from exact derivatives of u there.

    grad[i] is u_i and hess[i, j] (i <= j) is u_ij, index 0 the x-direction;
    the coefficients are read through eval_a and eval_b.
    """
    x, n = coords[0], coeffs.n
    shape = np.broadcast(*coords).shape
    A = coeffs.eval_a(coords, shape)
    B = coeffs.eval_b(coords, shape)
    lu = A[0, 0] * x * hess[0, 0]
    for j in range(1, n):
        lu = lu + 2.0 * A[0, j] * np.sqrt(x) * hess[0, j]
    for i in range(1, n):
        lu = lu + A[i, i] * hess[i, i]
        for j in range(i + 1, n):
            lu = lu + 2.0 * A[i, j] * hess[i, j]
    for i in range(n):
        lu = lu + B[i] * grad[i]
    return lu


def exact_forcing(coeffs: CoefficientField, solution):
    """g(x, y..., t) = u_t - Lu of the expression u = `solution`, from its own derivatives."""
    names = ["x"] + [f"y{i}" for i in range(2, coeffs.n + 1)]
    grad = [solution.derivative(name) for name in names]
    hess = {(i, j): grad[i].derivative(names[j])
            for i in range(coeffs.n) for j in range(i, coeffs.n)}
    u_t = solution.derivative("t")

    def g(*coords):
        lu = apply_L_exact(coeffs, coords, [d(*coords) for d in grad],
                           {key: d(*coords) for key, d in hess.items()})
        return u_t(*coords) - lu

    return g


# f is a CompiledExpression, g the callable exact_forcing of f; both take (x, y..., t)
ManufacturedSolution = namedtuple("ManufacturedSolution", "name f g")


def manufactured_solutions(v) -> list:
    """Exact solutions f of f_t = x f_xx + sum f_yiyi + v f_x + g, g = `exact_forcing` of f."""
    coeffs = model_coefficients(v, 2)
    v = repr(float(v))
    texts = {"linear": f"x + {v}*t",
             "caloric_quadratic": f"x^2 + 2*(1 + {v})*x*t + {v}*(1 + {v})*t^2",
             "tangential_quadratic": "y2^2 + 2*t",
             "forced_linear": "x"}
    return [ManufacturedSolution(name, f, exact_forcing(coeffs, f))
            for name, f in zip(texts, map(compile_expression, texts.values()))]
