"""Explicit barrier functions and their certificates.

Two families:

* A Gaussian-kernel space-time barrier for comparison arguments on the big
  box K = B x (0, 18 rho^2): with theta = d_bar^2 the weighted squared
  distance to a base point, omega = (18 - theta) Lambda(theta, t) where
  Lambda is the heat-kernel profile e^(-theta/t)/(4 pi t).  The barrier is
  v = e^(-m t) omega^l(., t + tau0) - M(tau0), shifted by the sup of
  omega^l at time tau0 over {d_bar >= 1/2} so that v <= 0 on the parabolic
  boundary of K away from the inner cube.  Normalizing by the inf over the
  later comparison cube gives phi with phi >= 1 there, phi <= 0 on the
  outer boundary, and L phi - phi_t >= 0 off the inner cube.  Its
  certificate samples these properties on a grid.

* A rational wall barrier for the model operator,
  phi = 1/((x + b |y|^2) |y|^2), satisfying the differential inequality
  phi_t > x phi_xx + sum phi_{y_i y_i} + v phi_x - C x phi^2 + c phi^(3/2)
  for suitable constants (b, c, C).  It holds wherever a polynomial
  residual in (x, |y|^2) is positive (exactly there for c = 0; for c > 0
  this is only sufficient).  The residual is a binary quadratic form, which
  certify_barrier_residual decides exactly; the translated two-term form is
  not one and is checked on a grid.

Closed-form derivatives of both families are cross-checked against
Richardson-extrapolated central differences.  Certificates serialize to a
plain-text report.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import Grid, ScalarField, _d1, _d2
from .geometry import ParabolicCube, Point, d_bar_sq
from .operators import CoefficientField, apply_L_exact

CERT_TOL = 1e-12

# The working set a Harnack barrier certificate may allocate: 512 MiB.  The
# n = 3 search on 33 nodes per axis has a traced peak of 356 MiB, so it fits
# with a margin of 1.4; the n = 4 search would need about 18 GiB, and is
# refused instead of running the host out of memory.
HARNACK_BUDGET_BYTES = 512 * 2 ** 20


# ---------------------------------------------------------------------------
# certificates


@dataclass
class BarrierCertificate:
    """Worst-case margins of a barrier's defining inequalities, on a grid or exact."""

    name: str
    params_text: str
    grid_text: str
    margins: dict
    info: dict
    passed: bool

    def to_text(self) -> str:
        lines = [
            f"barrier certificate: {self.name}",
            f"parameters: {self.params_text}",
            f"grid: {self.grid_text}",
        ]
        for key in sorted(self.margins):
            lines.append(f"margin {key}: {self.margins[key]:.17g}")
        for key in sorted(self.info):
            lines.append(f"info {key}: {self.info[key]:.17g}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Gaussian-kernel barrier


def lambda_kernel(theta, t):
    """Heat-kernel profile e^(-theta/t) / (4 pi t), theta >= 0, t > 0."""
    theta = np.asarray(theta, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("lambda_kernel needs t > 0")
    val = np.exp(-theta / t) / (4.0 * math.pi * t)
    if val.ndim == 0 and theta.ndim == 0:
        return float(val)
    return val


def omega_from_theta(theta, t):
    """(18 - theta) * lambda_kernel(theta, t)."""
    theta = np.asarray(theta, dtype=float)
    return (18.0 - theta) * lambda_kernel(theta, t)


def _base_pair(base):
    x0, y0 = base
    return float(x0), np.atleast_1d(np.asarray(y0, dtype=float))


def _power_l(w, l: float):
    """w^l, refusing non-integer powers of negative bases."""
    w = np.asarray(w, dtype=float)
    if abs(l - round(l)) < 1e-12:
        return w ** int(round(l))
    if np.any(w < 0):
        raise ValueError(
            "omega is negative somewhere on the evaluation region and the "
            f"exponent l = {l:g} is not an integer"
        )
    return w ** l


def _refuse_non_finite(params, names):
    for name in names:
        if not math.isfinite(getattr(params, name)):
            raise ValueError(f"{name} must be finite, got {getattr(params, name)!r}")


@dataclass(frozen=True)
class HarnackBarrierParams:
    """Free parameters of the Gaussian-kernel barrier.

    gamma weights the tangential part of the distance, tau0 > 0 shifts the
    kernel time, m is the exponential decay rate, l the kernel power, and
    M_tau0 the sup offset that forces nonpositivity on the outer boundary.
    The parameters are validated structurally here; whether they actually
    produce a barrier is the job of certify_harnack_barrier.
    """

    gamma: float
    tau0: float
    m: float
    l: float
    M_tau0: float
    base: tuple  # (x0, y0-array)

    def __post_init__(self):
        _refuse_non_finite(self, ("gamma", "tau0", "m", "l", "M_tau0"))
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not 0 < self.tau0 < 1:
            raise ValueError("tau0 must lie in (0, 1)")
        if self.m <= 1 or self.l <= 1:
            raise ValueError("need m > 1 and l > 1")
        if self.M_tau0 < 0:
            raise ValueError("M_tau0 must be nonnegative")
        x0, y0 = _base_pair(self.base)
        object.__setattr__(self, "base", (x0, y0))

    def describe(self) -> str:
        x0, y0 = self.base
        ytxt = ",".join(f"{v:g}" for v in y0)
        return (f"gamma={self.gamma:g} tau0={self.tau0:g} m={self.m:g} "
                f"l={self.l:g} M_tau0={self.M_tau0:.17g} base=({x0:g};{ytxt})")


def compute_sup_offset(tau0: float, l: float) -> float:
    """sup of omega^l(., tau0) over {d_bar >= 1/2}, in closed form: omega(1/4, tau0)^l.

    With theta = d_bar^2, d omega / d theta = -(1 + (18 - theta)/tau0)
    e^(-theta/tau0) / (4 pi tau0) is negative on [0, 18 + tau0], so omega
    decreases there, and past 18 + tau0 it rises back towards 0 while
    staying negative.  For odd l, omega^l is then at most omega(1/4)^l on
    [1/4, 18] and negative beyond.  For even l, omega^l = |omega|^l, and past
    18 |omega| is at most the dip's depth tau0 e^(-1 - 18/tau0) / (4 pi tau0),
    below omega(1/4) for tau0 in (0, 1): the supremum is the same.  A
    non-integer l leaves omega^l undefined past 18 (the barrier refuses it
    there), and this is its supremum over [1/4, 18].
    """
    return float(_power_l(omega_from_theta(0.25, tau0), l))


def _v_from_theta(theta, t, params: HarnackBarrierParams):
    """e^(-m t) omega^l(theta, t + tau0) - M_tau0, at unit scale."""
    theta = np.asarray(theta, dtype=float)
    t = np.asarray(t, dtype=float)
    w = omega_from_theta(theta, t + params.tau0)
    return np.exp(-params.m * t) * _power_l(w, params.l) - params.M_tau0


def harnack_barrier_v(point: Point, t: float, params: HarnackBarrierParams) -> float:
    """The unnormalized barrier at a half-space point and time t >= 0."""
    x0, y0 = params.base
    theta = d_bar_sq(point.x, list(point.y), x0, y0, params.gamma)
    return float(_v_from_theta(theta, t, params))


def _theta_derivatives(x, ys, base, gamma: float):
    """theta = d_bar^2 to the base point and its first/second derivatives.

    theta_x = (x + 3 x0)(x - x0)/(x + x0)^2 and theta_xx = 8 x0^2/(x + x0)^3
    for x0 > 0; for x0 = 0 these reduce to the limits 1 and 0.
    """
    x0, y0 = _base_pair(base)
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(yi, dtype=float) for yi in ys]
    theta = d_bar_sq(x, ys, x0, y0, gamma)
    if x0 == 0.0:
        theta_x = np.ones_like(x)
        theta_xx = np.zeros_like(x)
    else:
        theta_x = (x + 3.0 * x0) * (x - x0) / (x + x0) ** 2
        theta_xx = 8.0 * x0 * x0 / (x + x0) ** 3
    theta_y = [2.0 * gamma * gamma * (yi - y0i) for yi, y0i in zip(ys, y0)]
    theta_yy = 2.0 * gamma * gamma
    return theta, theta_x, theta_xx, theta_y, theta_yy


def harnack_v_derivatives(x, ys, t, params: HarnackBarrierParams) -> dict:
    """Closed-form v = e^(-mt) omega^l - M and all its space-time partials.

    With T = t + tau0, Lam = e^(-theta/T)/(4 pi T), omega = (18 - theta) Lam:

        omega_t  = omega (theta/T^2 - 1/T)
        omega_i  = -((18 - theta)/T + 1) Lam theta_i
        omega_ij = -((18 - theta)/T + 1) Lam theta_ij
                   + (1/T)((18 - theta)/T + 2) Lam theta_i theta_j

    and the chain rule for omega^l.  Keys: v, v_t, grad (the list v_x,
    v_y2, ...) and hess ({(i, j): v_ij} for i <= j, index 0 the x-direction),
    the forms `operators.apply_L_exact` reads.
    """
    m, l, tau0 = params.m, params.l, params.tau0
    t = np.asarray(t, dtype=float)
    theta, th_x, th_xx, th_y, th_yy = _theta_derivatives(x, ys, params.base, params.gamma)
    T = t + tau0
    lam = lambda_kernel(theta, T)
    w = (18.0 - theta) * lam
    g1 = (18.0 - theta) / T + 1.0
    g2 = (18.0 - theta) / T + 2.0
    w_t = w * (theta / (T * T) - 1.0 / T)
    th, axes = [th_x, *th_y], range(len(th_y) + 1)
    w_i = [-g1 * lam * th_i for th_i in th]
    w_ij = {(i, j): (g2 / T) * lam * th[i] * th[j] for i in axes for j in axes if i <= j}
    for i in axes:  # theta's mixed second partials vanish
        w_ij[i, i] = -g1 * lam * (th_yy if i else th_xx) + w_ij[i, i]

    emt = np.exp(-m * t)
    wl = _power_l(w, l)
    wl1 = _power_l(w, l - 1)
    wl2 = _power_l(w, l - 2)
    return {
        "v": emt * wl - params.M_tau0,
        "v_t": -m * emt * wl + emt * l * wl1 * w_t,
        "grad": [emt * l * wl1 * wi for wi in w_i],
        "hess": {(i, j): emt * l * (wl1 * wij + (l - 1.0) * wl2 * w_i[i] * w_i[j])
                 for (i, j), wij in w_ij.items()},
    }


def harnack_region_grid(base, rho: float, n: int = 2, nodes: int = 33) -> Grid:
    """Uniform-s grid covering K = B x (0, 18 rho^2) around the base point."""
    x0, y0 = _base_pair(base)
    if y0.size != n - 1:
        raise ValueError("base dimension does not match n")
    r2 = 18.0 * rho * rho
    s_lo = math.sqrt(max(x0 - r2, 0.0))
    s_hi = math.sqrt(x0 + r2)
    half = 3.0 * math.sqrt(2.0) * rho
    return Grid(
        np.linspace(s_lo, s_hi, nodes),
        tuple(np.linspace(y0i - half, y0i + half, nodes) for y0i in y0),
        np.linspace(0.0, r2, nodes),
    )


def _inner_outer_cubes(base, rho: float):
    x0, y0 = _base_pair(base)
    q1 = ParabolicCube("Q_rho", Point(x0, y0, rho * rho / 4.0), rho / 2.0)
    q2 = ParabolicCube("Q_rho", Point(x0, y0, 10.0 * rho * rho / 4.0), 3.0 * rho / 2.0)
    return q1, q2


def harnack_phi_field(params: HarnackBarrierParams, rho: float, grid: Grid):
    """The normalized barrier phi on a grid, with its normalizer.

    The rho-scale barrier is the unit-scale one evaluated at theta/rho^2
    and t/rho^2, normalized by its inf over the later comparison cube
    Q2 = Q_(3 rho/2)(base, 10 rho^2/4).
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    x0, y0 = params.base
    x, *ys, t = grid.x_meshes()
    theta = d_bar_sq(x, ys, x0, y0, params.gamma)
    num = _v_from_theta(theta / (rho * rho), t / (rho * rho), params)
    num = np.broadcast_to(num, grid.shape).copy()
    _, q2 = _inner_outer_cubes(params.base, rho)
    mask2 = q2.node_mask(grid)
    if not np.any(mask2):
        raise ValueError("comparison cube contains no grid nodes")
    inf_v = float(np.min(num[mask2]))
    if inf_v <= 0:
        raise ValueError(
            f"barrier normalization failed: inf over the comparison cube is "
            f"{inf_v:g} <= 0 (parameters inadequate)"
        )
    return ScalarField(grid, num / inf_v), inf_v


def _boundary_mask(grid: Grid) -> np.ndarray:
    """Parabolic boundary of the box: the t = 0 slice and the lateral edges."""
    mask = np.ones(grid.shape, dtype=bool)
    mask[grid.interior_box(1) + (slice(1, None),)] = False
    return mask


def _measure_c11(params: HarnackBarrierParams, rho: float, normalizer: float,
                 nodes: int = 33) -> float:
    """sup |phi| + |D phi| + |D^2 phi| on an x-uniform sampling of K.

    Measured with plain central differences on uniform x, y, t axes (the
    barrier is smooth in x, so no metric-adapted stencils are needed).
    """
    x0, y0 = params.base
    r2 = 18.0 * rho * rho
    half = 3.0 * math.sqrt(2.0) * rho
    x_ax = np.linspace(max(x0 - r2, 0.0), x0 + r2, nodes)
    y_axes = [np.linspace(y0i - half, y0i + half, nodes) for y0i in y0]
    t_ax = np.linspace(0.0, r2, nodes)
    meshes = np.meshgrid(x_ax, *y_axes, t_ax, indexing="ij", sparse=True)
    theta = d_bar_sq(meshes[0], meshes[1:-1], x0, y0, params.gamma)
    vals = _v_from_theta(theta / (rho * rho), meshes[-1] / (rho * rho), params)
    vals = np.broadcast_to(vals, tuple(nodes for _ in range(len(y0) + 2))).copy()
    vals /= normalizer
    axes = [x_ax, *y_axes, t_ax]
    total = float(np.max(np.abs(vals)))
    firsts = []
    for k, ax in enumerate(axes):
        h = float(ax[1] - ax[0])
        firsts.append(_d1(vals, h, k))
        total = max(total, float(np.max(np.abs(firsts[-1]))))
    nspace = len(axes) - 1
    for k in range(nspace):
        h = float(axes[k][1] - axes[k][0])
        total = max(total, float(np.max(np.abs(_d2(vals, h, k)))))
        for j in range(k + 1, nspace):
            hj = float(axes[j][1] - axes[j][0])
            total = max(total, float(np.max(np.abs(_d1(firsts[k], hj, j)))))
    return total


def _scaled_params(params: HarnackBarrierParams, rho: float) -> HarnackBarrierParams:
    """Unit-scale parameters whose barrier, read at (x/rho^2, y0+(y-y0)/rho,
    t/rho^2), equals the rho-scale barrier at (x, y, t)."""
    if rho == 1.0:
        return params
    x0, y0 = params.base
    return HarnackBarrierParams(params.gamma, params.tau0, params.m, params.l,
                                params.M_tau0, (x0 / (rho * rho), y0))


def harnack_supersolution_residual(params: HarnackBarrierParams,
                                   coeffs: CoefficientField, rho: float,
                                   grid: Grid, normalizer: float) -> np.ndarray:
    """(L phi - phi_t) on the grid from closed-form barrier derivatives.

    Coefficients are evaluated at the physical nodes; the barrier's
    derivatives come from the unit-scale closed forms at the scaled point,
    with the chain-rule powers of rho attached per derivative order, and
    `apply_L_exact` applies L to them.
    """
    x0, y0 = params.base
    up = _scaled_params(params, rho)
    x, *ys, t = grid.x_meshes()
    r2 = rho * rho
    ys_scaled = [y0i + (yi - y0i) / rho for yi, y0i in zip(ys, y0)]
    d = harnack_v_derivatives(x / r2, ys_scaled, t / r2, up)
    scale = [r2] + [rho] * len(ys)  # the rho-power of each axis
    grad = [v_i / w_i for v_i, w_i in zip(d["grad"], scale)]
    hess = {(i, j): v_ij / (scale[i] * scale[j]) for (i, j), v_ij in d["hess"].items()}
    lphi = apply_L_exact(coeffs, (x, *ys, t), grad, hess)
    diff = (lphi - d["v_t"] / r2) / normalizer
    return np.broadcast_to(diff, grid.shape).copy()


def _fd_deviation(value, coords, partials, h: float, scale) -> float:
    """Max relative deviation of closed-form partials from central differences.

    `value` maps a list of coordinate arrays to the function's values there.
    `partials` pairs each closed-form partial at `coords` with the axes it
    differentiates along: (k,) first, (k, k) second, (j, k) mixed.  Each
    central difference is Richardson-extrapolated to fourth order from the
    steps h and h/2, and each error is taken relative to |exact| + scale.
    """
    def at(*moves):
        shifted = list(coords)
        for k, step in moves:
            shifted[k] = shifted[k] + step
        return value(shifted)

    def central(axes, step):
        j, k = axes[0], axes[-1]
        if len(axes) == 1:
            return (at((k, step)) - at((k, -step))) / (2 * step)
        if j == k:
            return (at((k, step)) - 2 * at() + at((k, -step))) / (step * step)
        return (at((j, step), (k, step)) - at((j, step), (k, -step))
                - at((j, -step), (k, step)) + at((j, -step), (k, -step))) / (4 * step * step)

    devs = []
    for exact, axes in partials:
        fd = (4.0 * central(axes, h / 2) - central(axes, h)) / 3.0
        devs.append(np.max(np.abs(fd - exact) / (np.abs(exact) + scale + 1e-30)))
    return float(np.max(devs))


def _harnack_fd_check(params: HarnackBarrierParams, n: int) -> float:
    """FD deviation of the unit-scale barrier's partials at random points of K.

    Relative to |partial| + |v + M_tau0| + M_tau0: the partials share the
    kernel prefactor, so this stays meaningful where everything is tiny.
    """
    rng = np.random.default_rng(0)
    x0, y0 = params.base
    x = rng.uniform(x0 + 0.3, x0 + 6.0, 200)
    ys = [rng.uniform(y0i - 2.0, y0i + 2.0, 200) for y0i in y0]
    t = rng.uniform(0.1, 2.0, 200)
    d = harnack_v_derivatives(x, ys, t, params)

    def value(c):
        return _v_from_theta(d_bar_sq(c[0], c[1:-1], x0, y0, params.gamma), c[-1], params)

    partials = ([(d["v_t"], (n,))] + [(v_i, (i,)) for i, v_i in enumerate(d["grad"])]
                + [(v_ij, key) for key, v_ij in d["hess"].items()])
    scale = np.abs(d["v"] - (-params.M_tau0)) + params.M_tau0
    return _fd_deviation(value, [x, *ys, t], partials, 3e-4, scale)


def _refuse_oversized_grid(n: int, nodes: int) -> None:
    """Refuse a verification grid whose working set exceeds HARNACK_BUDGET_BYTES.

    The estimate is 20 (n + 1)^2 bytes per node of the nodes^(n + 1) grid:
    `certify_harnack_barrier` on 33 nodes per axis peaks at 181 B per node
    at n = 2 and 315 B at n = 3 (traced).
    """
    count = nodes ** (n + 1)
    need = 20 * (n + 1) ** 2 * count
    if need > HARNACK_BUDGET_BYTES:
        raise ValueError(
            f"Harnack barrier verification grid refused: {nodes} nodes per axis at n = {n} "
            f"is {count:,} nodes, an estimated {need / 2 ** 20:,.1f} MiB working set, over "
            f"the {HARNACK_BUDGET_BYTES / 2 ** 20:,.1f} MiB budget (HARNACK_BUDGET_BYTES)")


def certify_harnack_barrier(params: HarnackBarrierParams, coeffs: CoefficientField,
                            rho: float = 1.0, nodes: int = 33,
                            measure_c11: bool = True,
                            fd_check: bool = True) -> BarrierCertificate:
    """Check the barrier's defining properties on a grid over K.

    Margins (all must be nonnegative up to rounding):
      inner_lower_bound   min over Q2 of (phi - 1); zero at the argmin by
                          construction of the normalizer
      boundary_sign       -max of phi over the parabolic boundary of K
                          minus the inner cube Q1
      supersolution       min of (L phi - phi_t) over K minus Q1, from the
                          closed-form derivatives (cross-checked against
                          pointwise finite differences)

    The C^(1,1) size, sup of |phi| and its first and second derivatives
    times rho^2, is reported as information (bounded, not asserted).  A
    grid whose estimated working set exceeds HARNACK_BUDGET_BYTES is
    refused before any grid array is built.
    """
    n = coeffs.n
    x0, y0 = params.base
    if y0.size != n - 1:
        raise ValueError("base dimension does not match the coefficients")
    _refuse_oversized_grid(n, nodes)
    grid = harnack_region_grid(params.base, rho, n, nodes)
    phi, inf_v = harnack_phi_field(params, rho, grid)
    q1, q2 = _inner_outer_cubes(params.base, rho)
    mask1 = q1.node_mask(grid)
    mask2 = q2.node_mask(grid)

    margin_inner = float(np.min(phi.values[mask2]) - 1.0)

    bmask = _boundary_mask(grid) & ~mask1
    margin_boundary = -float(np.max(phi.values[bmask]))

    diff = harnack_supersolution_residual(params, coeffs, rho, grid, inf_v)
    region = ~mask1
    margin_super = float(np.min(diff[region]))
    scale_super = float(np.max(np.abs(diff[region])))

    margins = {
        "inner_lower_bound": margin_inner,
        "boundary_sign": margin_boundary,
        "supersolution": margin_super,
    }
    info = {
        "normalizer_inf_v": inf_v,
        "supersolution_scale": scale_super,
        "rho": rho,
    }
    if fd_check:
        info["fd_derivative_deviation"] = _harnack_fd_check(
            _scaled_params(params, rho), n)
    if measure_c11:
        info["c11_times_rho2"] = _measure_c11(params, rho, inf_v, nodes) * rho * rho
    passed = (
        margin_inner >= -CERT_TOL
        and margin_boundary >= -CERT_TOL
        and margin_super >= -CERT_TOL * max(1.0, scale_super)
        and info.get("fd_derivative_deviation", 0.0) <= 1e-6
    )
    grid_text = (f"K(base=({x0:g}), rho={rho:g}) {nodes} nodes/axis, n={n}")
    return BarrierCertificate(
        "gaussian-kernel barrier", params.describe(), grid_text, margins, info, passed
    )


def search_harnack_barrier_params(coeffs: CoefficientField) -> HarnackBarrierParams:
    """Scan m until a parameter set certifies on a verification grid.

    The base is the origin, gamma = 1, l = 3 and tau0 = 0.005; m runs
    through 16, 24, 32, 48, 64 and each candidate is certified at rho = 1 on
    33 nodes per axis.  Odd integer powers l keep the barrier negative on
    the lateral faces of the region, where the distance squared exceeds 18
    and the kernel factor turns negative; even powers there are positive and
    only beat the sup offset by accident of the grid. The returned
    parameters should still be re-certified at the caller's resolution; the
    certificate, not the search path, is the contract.  A verification grid
    over the working-set budget of `certify_harnack_barrier` (n >= 4) is
    refused first.
    """
    n = coeffs.n
    _refuse_oversized_grid(n, 33)
    base = (0.0, (0.0,) * (n - 1))
    gamma, tau0, l = 1.0, 0.005, 3.0
    # At the spatial base point the residual sign for times past the excluded
    # cube needs roughly m/l >= 2 gamma^2 (n-1)/(1/4 + tau0) + (2 gamma^2
    # (n-1) + 1)/18; values far below that floor cannot certify on any grid
    # that samples near the base point, so skip them (with slack for the
    # roughness of the estimate).
    g2 = 2.0 * gamma * gamma * (n - 1)
    m_floor = 0.95 * l * (g2 / (0.25 + tau0) + (g2 + 1.0) / 18.0)
    offset = compute_sup_offset(tau0, l)
    failures = []
    for m in (16.0, 24.0, 32.0, 48.0, 64.0):
        if m < m_floor:
            failures.append(f"tau0={tau0:g} m={m:g}: below floor {m_floor:g}, skipped")
            continue
        params = HarnackBarrierParams(gamma, tau0, m, l, offset, base)
        try:
            cert = certify_harnack_barrier(params, coeffs, rho=1.0, nodes=33,
                                           measure_c11=False, fd_check=False)
        except ValueError as exc:
            failures.append(f"tau0={tau0:g} m={m:g}: {exc}")
            continue
        if cert.passed:
            return params
        worst = min(cert.margins, key=lambda k: cert.margins[k])
        failures.append(f"tau0={tau0:g} m={m:g}: {worst}={cert.margins[worst]:g}")
    raise ValueError(
        "no parameter set certified on the verification grid; attempts:\n  "
        + "\n  ".join(failures)
    )


# ---------------------------------------------------------------------------
# rational wall barrier for the model operator


@dataclass(frozen=True)
class ModelBarrierParams:
    """Constants (v, b, c, C) of the rational barrier inequality."""

    v: float
    b: float
    c: float
    C: float

    def __post_init__(self):
        _refuse_non_finite(self, ("v", "b", "c", "C"))
        if self.v <= 0 or self.b <= 0:
            raise ValueError("need v > 0 and b > 0")
        if self.c < 0 or self.C < 0:
            raise ValueError("need c >= 0 and C >= 0")

    def describe(self) -> str:
        return f"v={self.v:g} b={self.b:.17g} c={self.c:.17g} C={self.C:.17g}"


def barrier_condition_residual(params: ModelBarrierParams, x, S, n: int):
    """Polynomial residual of the barrier inequality in (x, S = |y|^2).

    residual = v (x + bS) S + C x (x + bS)
               - [2 x S + (10 - 2n + c b^(-1/2)) (x + bS)^2
                  + (10 - 2n) b (x + bS) S + 8 b^2 S^2]

    The differential inequality for phi = 1/((x + bS) S) holds wherever
    this polynomial is positive: exactly there for c = 0, while for c > 0
    the bound S <= (x + bS)/b on c phi^(3/2) makes it only sufficient.
    certify_barrier_residual decides its sign exactly.
    """
    x = np.asarray(x, dtype=float)
    S = np.asarray(S, dtype=float)
    b, c, C, v = params.b, params.c, params.C, params.v
    P = x + b * S
    lhs = (2.0 * x * S + (10.0 - 2.0 * n + c / math.sqrt(b)) * P * P
           + (10.0 - 2.0 * n) * b * P * S + 8.0 * b * b * S * S)
    return v * P * S + C * x * P - lhs


def certify_barrier_residual(params: ModelBarrierParams, n: int) -> BarrierCertificate:
    """Decide exactly whether the barrier residual is positive for all x, S.

    barrier_condition_residual is the binary quadratic form
    alpha x^2 + beta x S + gamma S^2 with K = 10 - 2n + c/sqrt(b) and

        alpha = C - K
        beta  = v + C b - 2 - 2 b K - (10 - 2n) b
        gamma = b (v - b (28 - 4n) - c sqrt(b)),

    positive on the closed quadrant minus the origin exactly when alpha > 0,
    gamma > 0, and beta >= 0 or beta^2 < 4 alpha gamma (strict copositivity;
    Hadeler, Linear Algebra Appl. 49, 1983).  The verdict is decided in
    rationals over the float parameters, with sqrt(b) enclosed between two
    rationals and each coefficient taken at its worst end.  Margins: alpha,
    gamma, and cross = beta if beta >= 0, else 4 alpha gamma - beta^2.
    """
    v, b, c, C = (Fraction(val) for val in (params.v, params.b, params.c, params.C))
    # sqrt(b) = sqrt(p q 2^256) / (q 2^128) lies in [root / den, (root + 1) / den)
    root, den = math.isqrt(b.numerator * b.denominator << 256), b.denominator << 128
    K = 10 - 2 * n + c * den / root
    alpha = C - K
    beta = v + C * b - 2 - 2 * b * K - (10 - 2 * n) * b
    gamma = b * (v - b * (28 - 4 * n) - c * Fraction(root + 1, den))
    cross = beta if beta >= 0 else 4 * alpha * gamma - beta * beta
    margins = {"alpha": _float(alpha), "gamma": _float(gamma), "cross": _float(cross)}
    return BarrierCertificate(
        "rational wall barrier residual", params.describe(),
        f"none; exact over x >= 0, |y|^2 > 0, n={n}", margins,
        {"beta": _float(beta)}, alpha > 0 and gamma > 0 and cross > 0,
    )


def _float(q: Fraction) -> float:
    """q rounded to a float, +-inf beyond the float range."""
    if abs(q) <= sys.float_info.max:
        return float(q)
    return math.inf if q > 0 else -math.inf


def find_barrier_params(v, n: int = 2) -> ModelBarrierParams:
    """Constants (b, c, C) whose barrier residual is certified positive.

    b starts at v/16 and halves until the b-quadratic terms are dominated
    at x = 0; c is then fixed small relative to v and sqrt(b); C doubles
    from 16/b until certify_barrier_residual passes.  gamma does not depend
    on C, and alpha and beta grow with it, so the doubling ends; a b whose
    float test rounds past a tie, leaving gamma <= 0 exactly, is refused,
    and so is a v so small that 16/b leaves the float range.
    """
    v = float(v)
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"transport velocity must be finite and positive, got {v!r}")
    if n < 2:
        raise ValueError("n must be >= 2")
    b = v / 16.0
    c = v * math.sqrt(b) / 8.0
    # x = 0 requirement: v - b(28 - 4n) - c sqrt(b) > 0
    while v - b * (28.0 - 4.0 * n) - c * math.sqrt(b) <= 0:
        b /= 2.0
        c = v * math.sqrt(b) / 8.0
    if b < 16.0 / sys.float_info.max:
        raise ValueError(f"transport velocity {v!r} is too small: b = {b!r} "
                         "puts C = 16/b beyond the float range")
    params = ModelBarrierParams(v, b, c, 16.0 / b)
    cert = certify_barrier_residual(params, n)
    while not cert.passed:
        if cert.margins["gamma"] <= 0:  # C cannot help; the float b test rounded a tie
            raise ValueError(f"gamma = {cert.margins['gamma']:.3g} <= 0 in exact "
                             f"arithmetic with {params.describe()}, n={n}")
        params = ModelBarrierParams(v, b, c, 2.0 * params.C)
        cert = certify_barrier_residual(params, n)
    return params


def model_barrier_derivatives(b: float, x, ys):
    """Closed-form phi and its derivatives for phi = 1/((x + bS) S).

    Returns a dict with phi, phi_x, phi_xx, phi_y (list), phi_yy (list of
    diagonal entries), and sum_phi_yy.
    """
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(yi, dtype=float) for yi in ys]
    n = 1 + len(ys)
    S = sum(yi * yi for yi in ys)
    P = x + b * S
    phi = 1.0 / (P * S)
    phi_x = -1.0 / (P * P * S)
    phi_xx = 2.0 / (P ** 3 * S)
    phi_y = [-2.0 * b * yi / (P * P * S) - 2.0 * yi / (P * S * S) for yi in ys]
    phi_yy = [
        8.0 * b * b * yi * yi / (P ** 3 * S)
        + 8.0 * b * yi * yi / (P * P * S * S)
        - 2.0 * b / (P * P * S)
        - 2.0 / (P * S * S)
        + 8.0 * yi * yi / (P * S ** 3)
        for yi in ys
    ]
    sum_phi_yy = (8.0 * b * b / P ** 3
                  + (10.0 - 2.0 * n) * b / (P * P * S)
                  + (10.0 - 2.0 * n) / (P * S * S))
    return {
        "phi": phi, "phi_x": phi_x, "phi_xx": phi_xx,
        "phi_y": phi_y, "phi_yy": phi_yy, "sum_phi_yy": sum_phi_yy,
    }


def _translated_pair_derivatives(b: float, x, ys):
    """Closed-form derivatives of the two-term translated barrier: the centred
    one at z = 1 - y plus the centred one at z = 1 + y."""
    lo, hi = (model_barrier_derivatives(b, x, [1.0 + sign * yi for yi in ys])
              for sign in (-1.0, 1.0))
    out = {key: lo[key] + hi[key] for key in ("phi", "phi_x", "phi_xx", "sum_phi_yy")}
    out["phi_y"] = [-a + c for a, c in zip(lo["phi_y"], hi["phi_y"])]  # dz/dy = -1 in lo
    out["phi_yy"] = [a + c for a, c in zip(lo["phi_yy"], hi["phi_yy"])]
    return out


_PHI_FORMS = ("centered", "translated")


def _phi_derivatives(phi_form: str, b: float, x, ys):
    if phi_form == "centered":
        return model_barrier_derivatives(b, x, ys)
    if phi_form == "translated":
        return _translated_pair_derivatives(b, x, ys)
    raise ValueError(f"unknown barrier form {phi_form!r}; use one of {_PHI_FORMS}")


def _fd_derivative_check(phi_form: str, b: float, n: int) -> float:
    """FD deviation of the wall barrier's partials, relative to |exact| + 1."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0.5, 3.0, 1000)
    # at least 0.2 away from every pole hyperplane of both barrier forms
    ys = [rng.uniform(0.2, 0.6, 1000) for _ in range(n - 1)]
    d = _phi_derivatives(phi_form, b, x, ys)
    partials = [(d["phi_x"], (0,)), (d["phi_xx"], (0, 0))]
    for i in range(1, n):
        partials += [(d["phi_y"][i - 1], (i,)), (d["phi_yy"][i - 1], (i, i))]
    return _fd_deviation(lambda c: _phi_derivatives(phi_form, b, c[0], c[1:])["phi"],
                         [x, *ys], partials, 4e-4, 1.0)


def certify_barrier_inequality(phi_form: str, params: ModelBarrierParams,
                               n: int = 2) -> BarrierCertificate:
    """Grid check of phi_t > x phi_xx + sum phi_yy + v phi_x - C x phi^2 + c phi^(3/2).

    phi is time-independent, so the requirement is that the right side is
    strictly negative on the region {0 <= x <= 4, 0 < y_i < 2} (off the
    poles), sampled on 33 nodes per axis.  Both sides use the closed-form
    derivatives, which are cross-checked against central finite differences
    at random pole-free points.
    """
    v, b, c, C = params.v, params.b, params.c, params.C
    x_ax = np.linspace(0.0, 4.0, 33)
    y_ax = np.linspace(0.0, 2.0, 34)[1:]  # open at 0
    if phi_form == "translated":
        # keep clear of the interior pole at y_i = 1
        y_ax = y_ax[np.abs(y_ax - 1.0) > 1e-9]
    meshes = np.meshgrid(x_ax, *([y_ax] * (n - 1)), indexing="ij", sparse=True)
    x, ys = meshes[0], meshes[1:]
    d = _phi_derivatives(phi_form, b, x, ys)
    phi = d["phi"]
    expr = (x * d["phi_xx"] + d["sum_phi_yy"] + v * d["phi_x"]
            - C * x * phi * phi + c * phi ** 1.5)
    margin = -float(np.max(expr))
    fd_dev = _fd_derivative_check(phi_form, b, n)
    margins = {"inequality": margin}
    info = {"fd_derivative_deviation": fd_dev, "min_phi": float(np.min(phi))}
    passed = margin > 0 and fd_dev <= 1e-6
    grid_text = f"x in [0,4], y_i in (0,2], 33 nodes/axis, n={n}"
    return BarrierCertificate(
        f"rational wall barrier ({phi_form})", params.describe(), grid_text,
        margins, info, passed,
    )
