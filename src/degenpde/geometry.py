"""Singular metric, parabolic cubes, and the weighted volume measure.

The degenerate direction x >= 0 carries the metric ds^2 = dx^2/x + sum dy_i^2,
under which distances scale like |sqrt(x1) - sqrt(x2)|.  Everything here works
in the variable s = sqrt(x) where convenient.  Volumes are weighted by the
density s^(nu - 1) ds dy with nu in (0, 1), normalized so that the measure of
the standard cube Q_rho(s0, y0, t0) has the closed form

    |Q_rho|_mu = [(s0 + rho)^nu - max(s0 - rho, 0)^nu] * rho^n.

The closed form is the normalized density integrated over s in
[max(s0 - rho, 0), s0 + rho] and slabs of half-width rho in every
tangential coordinate and in time (normalization nu / 2^n).  On a grid the
measure of a node set is the node-dual quadrature `node_measure`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# slack for closed (<=) cube membership on floating-point grids
MEMBERSHIP_TOL = 1e-12


def _as_y(y) -> np.ndarray:
    return np.atleast_1d(np.asarray(y, dtype=float))


def _require_finite(**coords):
    for name, value in coords.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Point:
    """Point in the half-space, x-coordinates: x >= 0, y in R^(n-1), time t."""

    x: float
    y: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "y", _as_y(self.y))
        _require_finite(x=self.x, y=self.y, t=self.t)
        if self.x < 0:
            raise ValueError(f"x must be nonnegative, got {self.x}")

    @property
    def n(self) -> int:
        return 1 + self.y.size

    @property
    def s(self) -> float:
        return math.sqrt(self.x)

    @classmethod
    def at_s(cls, s: float, y, t: float = 0.0) -> "Point":
        """The point with s = sqrt(x) given: x = s * s."""
        y = _as_y(y)
        _require_finite(s=s, y=y, t=t)
        if s < 0:
            raise ValueError(f"s must be nonnegative, got {s}")
        return cls(s * s, y, t)


def d_bar_sq(x, y, x0: float, y0, gamma: float):
    """d_bar^2 = (x - x0)^2 / (x + x0) + gamma^2 |y - y0|^2 to the fixed point (x0, y0).

    The first term is 0 at x = x0 = 0 (its limit).  x: array; y: sequence
    of n-1 arrays broadcastable against x.
    """
    x = np.asarray(x, dtype=float)
    denom = x + x0
    safe = np.where(denom > 0, denom, 1.0)
    first = np.where(denom > 0, (x - x0) ** 2 / safe, 0.0)
    dy2 = sum((np.asarray(yi, dtype=float) - y0i) ** 2 for yi, y0i in zip(y, y0))
    return first + gamma * gamma * dy2


def rho_nu(s0: float, rho: float, nu: float) -> float:
    """The scaling factor (s0 + rho)^(2 - nu) - s0^(2 - nu)."""
    if not (0 <= s0 < math.inf and 0 < rho < math.inf):
        raise ValueError(f"need finite s0 >= 0 and rho > 0, got s0={s0:g}, rho={rho:g}")
    if not 0 < nu < 1:
        raise ValueError("nu must lie in (0, 1)")
    return (s0 + rho) ** (2.0 - nu) - s0 ** (2.0 - nu)


@dataclass(frozen=True)
class WeightedMeasure:
    """Volume measure with density s^(nu - 1) ds dy, normalized by nu / 2^n."""

    nu: float

    def __post_init__(self):
        if not 0 < self.nu < 1:
            raise ValueError("nu must lie in (0, 1)")


_CUBE_KINDS = ("B_eta", "C_rho", "Q_rho")


@dataclass(frozen=True)
class ParabolicCube:
    """One of the three cube flavors, all intersected with x >= 0.

    kind        spatial membership (base x0, y0; radius r)
    ----        -------------------------------------------
    B_eta       |x - x0| <= r^2,  |y_i - y0_i| <= r per coordinate
    C_rho       |x - x0| <= r,    |y - y0|_2 <= r
    Q_rho       |s - s0| <= r,    |y - y0|_2 <= r

    Time extent is r^2, looking backward from base.t:
    base.t - r^2 <= t <= base.t.
    Membership is closed with a small absolute slack so grid nodes sitting
    exactly on a face count as inside.
    """

    kind: str
    base: Point
    radius: float

    def __post_init__(self):
        if self.kind not in _CUBE_KINDS:
            raise ValueError(f"unknown cube kind {self.kind!r}")
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be finite and positive, got {self.radius:g}")

    @property
    def n(self) -> int:
        return self.base.n

    def time_interval(self) -> tuple[float, float]:
        return (self.base.t - self.radius ** 2, self.base.t)

    def contains_s(self, s, y, t):
        """Vectorized membership for coordinates given in (s, y, t) form.

        s, t: arrays (broadcastable); y: sequence of n-1 arrays.
        """
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        ys = [np.asarray(yi, dtype=float) for yi in y]
        if len(ys) != self.base.y.size:
            raise ValueError("tangential dimension mismatch")
        x = s * s
        x0, s0, y0 = self.base.x, self.base.s, self.base.y
        r, tol = self.radius, MEMBERSHIP_TOL

        if self.kind == "B_eta":
            spatial = np.abs(x - x0) <= r * r + tol
            for yi, y0i in zip(ys, y0):
                spatial = spatial & (np.abs(yi - y0i) <= r + tol)
        else:
            dy2 = sum((yi - y0i) ** 2 for yi, y0i in zip(ys, y0))
            if self.kind == "C_rho":
                spatial = (np.abs(x - x0) <= r + tol) & (dy2 <= r * r + tol)
            else:  # Q_rho
                spatial = (np.abs(s - s0) <= r + tol) & (dy2 <= r * r + tol)

        t_lo, t_hi = self.time_interval()
        return spatial & (t >= t_lo - tol) & (t <= t_hi + tol)

    def node_mask(self, grid) -> np.ndarray:
        """Boolean mask of grid nodes inside the cube, full grid shape."""
        s, *ys, t = grid.meshes()
        return np.broadcast_to(self.contains_s(s, ys, t), grid.shape).copy()


def cube_nodes(cube: ParabolicCube, grid, label: str = "cube") -> np.ndarray:
    """The cube's node mask, refused when it selects no node of the grid."""
    mask = cube.node_mask(grid)
    if not np.any(mask):
        raise ValueError(f"{label} contains no grid nodes")
    return mask


def dual_edges(nodes: np.ndarray) -> np.ndarray:
    """Edges of the node-centered dual cells, clipped to the axis extent."""
    edges = np.empty(nodes.size + 1)
    edges[1:-1] = (nodes[:-1] + nodes[1:]) / 2.0
    edges[0] = nodes[0]
    edges[-1] = nodes[-1]
    return edges


def weighted_volumes(edges, nu: float) -> np.ndarray:
    """Unnormalized weighted volume of every cell of a tensor partition.

    edges: per-axis cell edges, s first.  Each cell carries the exact
    integral of s^(nu - 1) over its s-interval times its lengths along the
    other axes; the result broadcasts against the cell array.
    """
    s = edges[0]
    w = ((s[1:] ** nu - s[:-1] ** nu) / nu).reshape((-1,) + (1,) * (len(edges) - 1))
    for k, e in enumerate(edges[1:], start=1):
        shape = [1] * len(edges)
        shape[k] = -1
        w = w * np.diff(e).reshape(shape)
    return w


def cube_measure(cube: ParabolicCube, mu: WeightedMeasure) -> float:
    """Weighted measure of a Q_rho cube: [(s0 + rho)^nu - max(s0 - rho, 0)^nu] * rho^n."""
    if cube.kind != "Q_rho":
        raise ValueError("measure bookkeeping is defined for Q_rho cubes")
    s0, r = cube.base.s, cube.radius
    return ((s0 + r) ** mu.nu - max(s0 - r, 0.0) ** mu.nu) * r ** cube.n


def node_measure(mask, grid, mu: WeightedMeasure) -> float:
    """Weighted measure of the grid nodes marked by `mask`, by the node-dual quadrature.

    Each node carries the exact integral of the density s^(nu - 1) over its
    dual s-cell (`dual_edges`, clipped to the axis) times the dual lengths
    of the other axes (`weighted_volumes`); the total carries the
    normalization nu / 2^n.  Over a cube's nodes it is nu / 2^n times
    `fields.lp_norm_weighted` of the constant 1, the quadrature every
    estimate's forcing norm uses.  mask: boolean array of the grid's shape.
    """
    w = weighted_volumes([dual_edges(ax) for ax in grid.axes], mu.nu)
    return float(np.sum(w * mask)) * mu.nu / 2.0 ** grid.n
