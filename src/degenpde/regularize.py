"""Metric-adapted smoothing on the half-space.

The mollifier averages h over kernel displacements that are of size
sqrt(eps) in the singular metric s = sqrt(x), so nondifferentiable-but-
metric-Lipschitz data (such as sqrt(x) itself) smooths at rate sqrt(eps)
in the sup norm while staying evaluable on x >= 0.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .fields import Grid, ScalarField


class BumpKernel:
    """Product of one-dimensional bumps exp(-1/(1 - r^2)) on the unit box.

    n is the total spatial dimension (1 + number of tangential directions);
    the kernel has one normal variable u and n - 1 tangential variables v.
    The normalization is computed with the same 8-point Gauss-Legendre rule
    that smooth_field uses, so constants are exact fixed points of smoothing.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("dimension n must be >= 2")
        self.n = n
        nodes, weights = np.polynomial.legendre.leggauss(8)
        self.nodes = nodes
        self.weights = weights
        one_d = float(np.sum(weights * _bump_1d(nodes)))
        self.normalization = one_d ** n

    def profile(self, u, *vs):
        """Normalized kernel value; zero outside the open unit box."""
        if len(vs) != self.n - 1:
            raise ValueError(f"kernel expects {self.n - 1} tangential arguments")
        out = _bump_1d(np.asarray(u, dtype=float))
        for v in vs:
            out = out * _bump_1d(np.asarray(v, dtype=float))
        return out / self.normalization

    def check_normalization(self) -> float:
        """Quadrature integral of the normalized profile; should be 1."""
        grids = np.meshgrid(*([self.nodes] * self.n), indexing="ij", sparse=True)
        w = 1.0
        for k in range(self.n):
            shape = [1] * self.n
            shape[k] = -1
            w = w * self.weights.reshape(shape)
        return float(np.sum(w * self.profile(grids[0], *grids[1:])))


def _bump_1d(r: np.ndarray) -> np.ndarray:
    inside = np.abs(r) < 1.0
    safe = np.where(inside, 1.0 - r * r, 1.0)
    return np.where(inside, np.exp(-1.0 / safe), 0.0)


def m_epsilon(P, Q, eps: float):
    """Displaced evaluation point ((sqrt(x+2 eps) + sqrt(eps) u)^2, y + sqrt(eps) v).

    P = (x, y_tuple), Q = (u, v_tuple) in the unit box, eps finite and
    positive. The first output coordinate is always nonnegative because
    sqrt(x + 2 eps) > sqrt(eps) >= sqrt(eps)|u|, and the displacement in the
    singular metric satisfies |sqrt(xi) - sqrt(x + 2 eps)| = sqrt(eps)|u|.
    """
    x, y = P
    u, v = Q
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps:g}")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if abs(u) > 1.0:
        raise ValueError("|u| must be <= 1")
    if any(abs(vi) > 1.0 for vi in v):
        raise ValueError(f"every |v_i| must be <= 1, got v = {tuple(map(float, v))}")
    root = np.sqrt(x + 2.0 * eps) + np.sqrt(eps) * u
    xi = root * root
    zeta = tuple(yi + np.sqrt(eps) * vi for yi, vi in zip(y, v))
    return (xi, zeta)


def smooth_field(h, eps: float, kernel: BumpKernel, grid: Grid) -> ScalarField:
    """Mollified field h_eps on the grid nodes.

    h_eps(P) is the kernel-weighted average of h at the displaced points
    m_epsilon(P, (u, v), eps) over the unit box, computed with a tensor
    Gauss-Legendre rule. h takes (x, y..., t) array arguments.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps:g}")
    if kernel.n != grid.n:
        raise ValueError("kernel dimension does not match the grid")
    x, *ys, t = grid.x_meshes()
    nodes = kernel.nodes
    weights = kernel.weights
    sq = np.sqrt(eps)
    out = np.zeros(grid.shape)
    root0 = np.sqrt(x + 2.0 * eps)
    # loop over quadrature nodes of the normal variable, vectorize the rest
    for iu, u in enumerate(nodes):
        xi = (root0 + sq * u) ** 2
        wu = weights[iu] * _bump_1d(np.asarray(u))
        partial = _tangential_average(h, xi, ys, t, sq, nodes, weights,
                                      len(ys), grid.shape)
        out = out + wu * partial
    out = out / kernel.normalization
    if not np.all(np.isfinite(out)):
        raise ValueError("smoothing quadrature produced non-finite values")
    return ScalarField(grid, out)


def _tangential_average(h, xi, ys, t, sq, nodes, weights, m, shape):
    acc = np.zeros(shape)
    for combo in itertools.product(range(nodes.size), repeat=m):
        w = 1.0
        shifted = []
        for k, i in enumerate(reversed(combo)):  # the first axis' index varies fastest
            w *= weights[i] * _bump_1d(np.asarray(nodes[i]))
            shifted.append(ys[k] + sq * nodes[i])
        acc = acc + w * np.broadcast_to(np.asarray(h(xi, *shifted, t), dtype=float), shape)
    return acc


def smoothing_rate(h, exact, eps_list, kernel: BumpKernel, grid: Grid):
    """Sup-norm errors ||h_eps - h||_inf and the log-log rate exponent."""
    errors = []
    exact_field = np.asarray(exact, dtype=float)
    for eps in eps_list:
        he = smooth_field(h, eps, kernel, grid)
        errors.append(float(np.max(np.abs(he.values - exact_field))))
    logs_e = np.log(np.asarray(eps_list))
    logs_err = np.log(np.asarray(errors))
    slope = float(np.polyfit(logs_e, logs_err, 1)[0])
    return errors, slope
