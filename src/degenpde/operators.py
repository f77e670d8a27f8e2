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
from dataclasses import dataclass

import numpy as np

from .expressions import compile_expression
from .fields import Grid, ScalarField, _d1, fd_derivatives


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
        """Array of shape (n, n) + shape with a evaluated on the meshes."""
        out = np.empty((self.n, self.n) + shape)
        for i in range(self.n):
            for j in range(self.n):
                out[i, j] = np.broadcast_to(self.a[i][j](*meshes), shape)
        return out

    def eval_b(self, meshes, shape):
        out = np.empty((self.n,) + shape)
        for i in range(self.n):
            out[i] = np.broadcast_to(self.b[i](*meshes), shape)
        return out


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


def apply_L(coeffs: CoefficientField, field: ScalarField) -> ScalarField:
    """Lu on the field's grid.

    The x-derivatives are `FieldDerivatives.u_x` and `x_times_u_xx`: the
    3-point weights of `fields.x_stencils` that the solver assembles, exact
    for fields quadratic in x.  At s = 0 the x and sqrt(x) factors vanish,
    so Lu there is the limit form b1 u_x + sum a_ij u_{y_i y_j} +
    sum b_j u_{y_j}.
    """
    g = field.grid
    _check_dimension(coeffs, g)
    d = fd_derivatives(field)
    meshes = g.x_meshes()
    shape = g.shape
    A = coeffs.eval_a(meshes, shape)
    B = coeffs.eval_b(meshes, shape)
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
    return ScalarField(g, out)


def model_coefficients(v, n: int = 2) -> CoefficientField:
    """a = I, b = (v, 0, ..., 0)."""
    if not (math.isfinite(v) and v > 0):
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


@dataclass(frozen=True)
class ManufacturedSolution:
    name: str
    f: object  # callable (x, y..., t)
    g: object  # callable (x, y..., t)


def manufactured_solutions(v) -> list:
    """Exact solutions of f_t = x f_xx + sum f_yiyi + v f_x + g.

    Each pair is certified at construction by symbolic differentiation.
    """
    import sympy as sp

    X, Y2, T = sp.symbols("x y2 t")
    catalog = [
        ("linear", X + v * T, sp.Integer(0)),
        ("caloric_quadratic",
         X ** 2 + 2 * (1 + v) * X * T + v * (1 + v) * T ** 2, sp.Integer(0)),
        ("tangential_quadratic", Y2 ** 2 + 2 * T, sp.Integer(0)),
        ("forced_linear", X, sp.Rational(-1) * v),
    ]
    out = []
    for name, fsym, gsym in catalog:
        residual = sp.simplify(
            sp.diff(fsym, T)
            - (X * sp.diff(fsym, X, 2) + sp.diff(fsym, Y2, 2) + v * sp.diff(fsym, X))
            - gsym
        )
        if residual != 0:
            raise RuntimeError(f"manufactured solution {name} failed its self-check: {residual}")
        fl = sp.lambdify((X, Y2, T), fsym, "numpy")
        gl = sp.lambdify((X, Y2, T), gsym, "numpy")
        out.append(ManufacturedSolution(name, _wrap_xy2t(fl), _wrap_xy2t(gl)))
    return out


def _wrap_xy2t(fn):
    """Adapt a lambdified f(x, y2, t) to the f(x, y..., t) calling convention."""

    def f(x, *coords):
        t = coords[-1]
        y2 = coords[0] if len(coords) > 1 else 0.0
        val = fn(x, y2, t)
        return np.broadcast_to(np.asarray(val, dtype=float),
                               np.broadcast(x, *coords).shape)

    return f
