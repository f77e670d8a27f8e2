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

    def eval_a(self, meshes, shape, origin=None):
        """Array of shape (n, n) + shape with a evaluated on the meshes.

        Here and in eval_b a non-finite entry is refused by name and node
        index.  When the meshes are a block of a larger grid, origin is the
        index of the block's first node there, and the index named is the
        grid's.
        """
        return np.array([[_evaluate(f, f"a{i + 1}{j + 1}", meshes, shape, origin)
                          for j, f in enumerate(row)] for i, row in enumerate(self.a)], float)

    def eval_b(self, meshes, shape, origin=None):
        return np.array([_evaluate(f, f"b{i + 1}", meshes, shape, origin)
                         for i, f in enumerate(self.b)], float)


def _evaluate(f, name: str, meshes, shape, origin=None) -> np.ndarray:
    values = np.broadcast_to(f(*meshes), shape)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        at = bad[0] if origin is None else bad[0] + origin
        raise ValueError(f"coefficient {name} is non-finite at node index "
                         f"{tuple(map(int, at))}")
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
    those of the full space-time grid.  Time-dependent ones are sampled one
    time slice at a time, and each margin and the symmetry defect is folded
    over the slices by np.min or np.max, which is exact: the margins are
    those of the whole space-time arrays, which are never built.  A
    non-finite value is refused at the earliest slice that holds one.
    Coefficients whose dimension n is not the grid's are refused.
    """
    _check_dimension(coeffs, grid)
    *space, t = grid.x_meshes()
    shape = grid.shape[:-1] + (1,)
    folds = []
    for k in range(len(grid.t) if coeffs.time_dependent else 1):
        meshes, origin = (*space, t[..., k:k + 1]), (0,) * (len(shape) - 1) + (k,)
        A = coeffs.eval_a(meshes, shape, origin)
        B = coeffs.eval_b(meshes, shape, origin)
        folds.append((np.max(np.abs(A - np.swapaxes(A, 0, 1))),
                      np.min(np.linalg.eigvalsh(np.moveaxis(A, (0, 1), (-2, -1)))),
                      np.max(np.abs(A)), np.max(np.abs(B)), np.min(2.0 * B[0] / A[0, 0])))
    asym, eig_min, a_max, b_max, transport = (
        fold(values) for fold, values in zip((np.max, np.min, np.max, np.max, np.min),
                                             zip(*folds)))
    if asym > 1e-12:
        raise ValueError(f"coefficient matrix a is not symmetric "
                         f"(max |a_ij - a_ji| = {float(asym):g})")
    lam, nu = coeffs.params.lam, coeffs.params.nu
    margins = {
        "ellipticity": float(eig_min - lam),
        "bound_a": float(1.0 / lam - a_max),
        "bound_b": float(1.0 / lam - b_max),
        "transport": float(transport - nu),
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


def _embed(mat, k: int, shape: tuple):
    """I (x) mat (x) I as CSR: the 1-D CSR mat on axis k of shape, the identity on the others.

    Built from mat's entries directly, a run of rows with equal entry
    counts at a time.  Each row lists its entries in descending column
    order (mat's rows are ascending), the order in which the product
    diag(c) @ K of an ascending K emits them; see `_operator_assembly`.
    """
    lead, size, trail = math.prod(shape[:k]), shape[k], math.prod(shape[k + 1:])
    counts = np.diff(mat.indptr)
    # mat's entries, each row from its last
    last = np.repeat(mat.indptr[:-1] + mat.indptr[1:] - 1, counts) - np.arange(mat.nnz)
    index = np.int32 if lead * mat.nnz * trail < 2 ** 31 else np.int64
    data, cols = [], []
    ends = [*(np.flatnonzero(np.diff(counts)) + 1), size]
    for lo, hi in zip([0, *ends[:-1]], ends):
        # rows lo..hi-1 of mat, each repeated for the trail's nodes
        run = last[mat.indptr[lo]:mat.indptr[hi]].reshape(hi - lo, 1, -1)
        data.append(np.broadcast_to(mat.data[run], (hi - lo, trail, run.shape[2])).ravel())
        cols.append((mat.indices[run].astype(index) * trail
                     + np.arange(trail, dtype=index)[:, None]).ravel())
    cols = np.concatenate(cols) + (np.arange(lead, dtype=index) * (size * trail))[:, None]
    indptr = np.zeros(lead * size * trail + 1, index)
    np.cumsum(np.tile(np.repeat(counts, trail), lead), out=indptr[1:])
    return sparse.csr_matrix((np.tile(np.concatenate(data), lead), cols.ravel(), indptr),
                             shape=(len(indptr) - 1,) * 2)


def _operator_assembly(grid: Grid, keep: bool):
    """L_h on grid as a function of the coefficient arrays: (A, B) -> L_h.

    Each term is a coefficient times an embedding K, scaled through K's
    data, and the terms are summed in the order of `operator_matrix` by
    sparse addition.  With keep, each embedding is kept after its first use
    (calls at several times on one grid); without, one is alive at a time.
    The products X1 Dy_j and Dy_i Dy_j are formed only for a mixed or cross
    coefficient that is non-zero somewhere.  `apply_L` sums each row of
    L_h u in stored order, so every term stores what diag(c) @ K stored: its
    non-zero entries (scipy orders a sum's row one way when both operands'
    rows are sorted and another way otherwise), single-axis terms in
    descending column order (`_embed`), products in ascending order, which
    is how the descending factors' product comes out.
    """
    shape = grid.shape[:-1]
    m = len(grid.y)
    (xx, x1, fwd, w), y_axes = _axis_matrices(grid)
    w = w.reshape((-1,) + (1,) * m)
    hy = [grid.hy(j) for j in range(m)]
    sqrt_x = np.sqrt(grid.spatial_x_meshes()[0])
    mats = {"xx": (xx, 0), "x1": (x1, 0), "fwd": (fwd, 0)}
    for j, (dy, dyy) in enumerate(y_axes):
        mats[f"dy{j}"], mats[f"dyy{j}"] = (dy, 1 + j), (dyy, 1 + j)
    kept = {}

    def embedding(keys):
        # the product of the named embeddings
        if keys in kept:
            return kept[keys]
        K = _embed(*mats[keys[0]], shape) if len(keys) == 1 else (
            embedding(keys[:1]) @ embedding(keys[1:]))
        if keep:
            kept[keys] = K
        return K

    def terms(A, B):
        # (coefficient, embedding) of each term, in the order of the sum;
        # x a11 u_xx + b1 u_x, at s = 0 (x = 0, w = 0) b1 times the forward difference
        yield A[0, 0], ("xx",)
        yield w * B[0], ("x1",)
        yield (1 - w) * B[0], ("fwd",)
        for j in range(m):
            yield A[1 + j, 1 + j] / (hy[j] * hy[j]), (f"dyy{j}",)
            yield B[1 + j] / (2 * hy[j]), (f"dy{j}",)
            # mixed term 2 sqrt(x) a1j u_{x y_j} (zero for diagonal coefficients)
            if np.any(A[0, 1 + j] != 0):
                yield 2.0 * A[0, 1 + j] * sqrt_x / (2 * hy[j]), ("x1", f"dy{j}")
        for i in range(m):
            for j in range(i + 1, m):
                if np.any(A[1 + i, 1 + j] != 0):
                    yield 2 * A[1 + i, 1 + j] / (4 * hy[i] * hy[j]), (f"dy{i}", f"dy{j}")

    def assemble(A, B):
        L = None
        for coeff, keys in terms(A, B):
            K = embedding(keys)
            data = np.repeat(np.broadcast_to(coeff, shape).ravel(), np.diff(K.indptr))
            data *= K.data
            # an embedding that is not kept hands its index arrays to the term
            indices, indptr = (K.indices.copy(), K.indptr.copy()) if keep else (K.indices, K.indptr)
            term = sparse.csr_matrix((data, indices, indptr), shape=K.shape)
            # K's data, and index arrays that eliminate_zeros replaces, go before the sum
            del K, indices, indptr
            term.eliminate_zeros()
            L = term if L is None else L + term
        # a sum is stored on a buffer sized for both operands and sliced to
        # its nnz; L_h gets arrays of its own size
        return L.copy()

    return assemble


def _coefficients(coeffs: CoefficientField, grid: Grid, t: float):
    """(A, B): the coefficients at time t on the spatial nodes."""
    xm = [*grid.spatial_x_meshes(), t]
    shape = grid.shape[:-1]
    return coeffs.eval_a(xm, shape), coeffs.eval_b(xm, shape)


def operator_matrix(coeffs: CoefficientField, grid: Grid, t: float):
    """L_h at time t on the spatial nodes (C order): (L_h, A, B), A and B the coefficients.

    The one discrete L: coefficients times Kronecker products of the 1-D
    matrices of `_axis_matrices` (the identity on the other axes),

        L_h = diag(a11) XX + diag(w b1) X1 + diag((1 - w) b1) F
              + sum_j [diag(a_jj / h_j^2) Dyy_j + diag(b_j / 2h_j) Dy_j
                       + diag(2 sqrt(x) a1j / 2h_j) X1 Dy_j]
              + sum_{i<j} diag(2 a_ij / 4 h_i h_j) Dy_i Dy_j,

    summed left to right; an entry whose sum is zero is not stored.  The
    transport b1 u_x (b1 > 0) blends the x-stencil X1 with the monotone
    forward difference F, w = 0 at the first two s-nodes and 1 from s-index
    5 on.  At s = 0 (x = 0, w = 0) the row is the limit equation's b1 u_x +
    sum a_ij u_{y_i y_j} + sum b_j u_{y_j}: its outflow needs no boundary data.
    """
    _check_dimension(coeffs, grid)
    A, B = _coefficients(coeffs, grid, t)
    return _operator_assembly(grid, keep=False)(A, B), A, B


def apply_L(coeffs: CoefficientField, field: ScalarField) -> ScalarField:
    """Lu on the field's grid: L_h of `operator_matrix`, the solver's, slice by slice.

    Lateral-edge nodes take the one-sided edge rows of `_axis_matrices`.  Lu
    is exact for fields linear in x and y at every node, and for fields
    quadratic in x past s-index 4 (inside, the transport blends in the
    forward difference).  Static coefficients take one matrix for all
    slices.  Time-dependent ones take one per slice, from embeddings built
    once per call: per slice only the coefficients, their scaling and the
    sum are redone.
    """
    g = field.grid
    u = field.values.reshape(-1, len(g.t))  # a column per time slice
    if not coeffs.time_dependent:
        return ScalarField(g, (operator_matrix(coeffs, g, g.t[0])[0] @ u).reshape(g.shape))
    _check_dimension(coeffs, g)
    assemble = _operator_assembly(g, keep=True)
    out = np.column_stack([assemble(*_coefficients(coeffs, g, t)) @ col
                           for t, col in zip(g.t, u.T)])
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
