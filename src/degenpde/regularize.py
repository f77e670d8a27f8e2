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

from .fields import Grid, ScalarField, _real_array


class BumpKernel:
    """Product of one-dimensional bumps exp(-1/(1 - r^2)) on the unit box.

    n is the total spatial dimension (1 + number of tangential directions);
    the kernel has one normal variable u and n - 1 tangential variables v.
    Each variable is integrated by the 8-point Gauss-Legendre rule: weights
    holds a node's rule weight times the bump at that node, and the
    normalization sum(weights)^n is taken with the same rule, so constants
    are exact fixed points of smoothing.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("dimension n must be >= 2")
        self.n = n
        self.nodes, weights = np.polynomial.legendre.leggauss(8)
        self.weights = weights * _bump_1d(self.nodes)
        self.normalization = float(np.sum(self.weights)) ** n


def _bump_1d(r: np.ndarray) -> np.ndarray:
    inside = np.abs(r) < 1.0
    safe = np.where(inside, 1.0 - r * r, 1.0)
    return np.where(inside, np.exp(-1.0 / safe), 0.0)


def m_epsilon(P, Q, eps: float):
    """Displaced evaluation point ((sqrt(x+2 eps) + sqrt(eps) u)^2, y + sqrt(eps) v).

    P = (x, y_tuple), Q = (u, v_tuple) in the unit box, eps finite and
    positive; x and each y_i may be arrays, displaced elementwise.  A
    non-finite coordinate is refused by its name: x, y2, ..., u, v2, ...,
    numbered as the grid's axes.  The first output coordinate is always
    nonnegative because sqrt(x + 2 eps) > sqrt(eps) >= sqrt(eps)|u|, and
    the displacement in the singular metric satisfies
    |sqrt(xi) - sqrt(x + 2 eps)| = sqrt(eps)|u|.
    """
    x, y = P
    u, v = Q
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps:g}")
    coords = [("x", x), *((f"y{i + 2}", yi) for i, yi in enumerate(y)),
              ("u", u), *((f"v{i + 2}", vi) for i, vi in enumerate(v))]
    for name, value in coords:
        bad = ~np.isfinite(value)
        if np.any(bad):
            raise ValueError(f"{name} must be finite, got {np.asarray(value)[bad].flat[0]}")
    if np.any(np.less(x, 0)):
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
    m_epsilon(P, (u, v), eps) over the unit box, computed with the kernel's
    tensor Gauss-Legendre rule. h takes (x, y..., t) array arguments and
    returns real values; complex ones are refused.
    """
    if kernel.n != grid.n:
        raise ValueError("kernel dimension does not match the grid")
    x, *ys, t = grid.x_meshes()
    nodes, weights = kernel.nodes, kernel.weights
    out = np.zeros(grid.shape)
    # one normal node at a time; the tangential nodes sum into partial
    for u, wu in zip(nodes, weights):
        partial = np.zeros(grid.shape)
        for combo in itertools.product(range(nodes.size), repeat=len(ys)):
            idx = combo[::-1]  # the first tangential axis' node varies fastest
            xi, zeta = m_epsilon((x, ys), (u, nodes[list(idx)]), eps)
            w = 1.0
            for i in idx:
                w *= weights[i]
            partial = partial + w * np.broadcast_to(_real_array(h(xi, *zeta, t), "h"),
                                                    grid.shape)
        out = out + wu * partial
    out = out / kernel.normalization
    if not np.all(np.isfinite(out)):
        raise ValueError("smoothing quadrature produced non-finite values")
    return ScalarField(grid, out)


def smoothing_rate(h, exact, eps_list, kernel: BumpKernel, grid: Grid):
    """Sup-norm errors ||h_eps - h||_inf and the log-log rate exponent.

    The exponent is the least-squares slope of log error against log eps,
    so eps_list needs at least two values, all distinct; exact holds h on
    the grid's nodes, and every error must be positive.
    """
    if len(eps_list) < 2 or len(set(eps_list)) < len(eps_list):
        raise ValueError("the rate needs at least two distinct eps values, got "
                         f"{list(map(float, eps_list))}")
    exact_field = _real_array(exact, "exact")
    if exact_field.shape != grid.shape:
        raise ValueError(f"exact has shape {exact_field.shape}, but the grid has shape "
                         f"{grid.shape}")
    errors = []
    for eps in eps_list:
        he = smooth_field(h, eps, kernel, grid)
        errors.append(float(np.max(np.abs(he.values - exact_field))))
        if errors[-1] == 0.0:
            raise ValueError(f"the error at eps = {eps:g} is 0, so the rate has no log-log fit")
    logs_e = np.log(np.asarray(eps_list))
    logs_err = np.log(np.asarray(errors))
    slope = float(np.polyfit(logs_e, logs_err, 1)[0])
    return errors, slope
