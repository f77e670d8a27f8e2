"""Grids, sampled scalar fields, discrete derivatives, and discrete norms.

Grids are uniform in s = sqrt(x), not in x: the operator written in
s-coordinates is uniformly parabolic up to a 1/s drift, so uniform-s grids
equidistribute resolution with respect to the singular metric.  A field is a
value per (s, y..., t) node.  Norms and seminorms (oscillation, weighted L^p,
Hoelder and second-order Hoelder norms) are all measured against that metric.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (ParabolicCube, WeightedMeasure, cube_nodes, dual_edges,
                       weighted_volumes)


def _uniform_spacing(nodes: np.ndarray, name: str) -> float:
    d = np.diff(nodes)
    if d.size == 0:
        raise ValueError(f"axis {name} needs at least 2 nodes")
    h = float(d[0])
    if np.max(np.abs(d - h)) > 1e-12 * max(1.0, abs(h)):
        raise ValueError(f"axis {name} is not uniformly spaced")
    return h


@dataclass(frozen=True)
class Grid:
    """Tensor grid: s-axis (nonnegative), n-1 tangential y-axes, time axis."""

    s: np.ndarray
    y: tuple
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float))
        object.__setattr__(self, "y", tuple(np.asarray(a, dtype=float) for a in self.y))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        for name, ax in zip(self.axis_names, self.axes):
            if ax.size < 3:
                raise ValueError(f"axis {name} needs at least 3 nodes")
            if not np.all(np.isfinite(ax)):
                raise ValueError(f"axis {name} must be finite")
            if np.any(np.diff(ax) <= 0):
                raise ValueError(f"axis {name} must be strictly increasing")
        if self.s[0] < 0:
            raise ValueError("s-axis must be nonnegative")

    @classmethod
    def uniform(cls, s_extent, y_extents, t_extent) -> "Grid":
        """Build from (lo, hi, count) triples, count an integer; y_extents lists triples."""

        def ax(triple, name):
            lo, hi, count = triple
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise ValueError(f"axis {name} needs an integer node count, got {count!r}")
            with np.errstate(invalid="ignore"):  # a non-finite axis is refused below
                return np.linspace(lo, hi, count)

        y = tuple(ax(e, f"y{i + 2}") for i, e in enumerate(y_extents))
        return cls(ax(s_extent, "s"), y, ax(t_extent, "t"))

    @property
    def n(self) -> int:
        return 1 + len(self.y)

    @property
    def axes(self) -> list:
        return [self.s, *self.y, self.t]

    @property
    def axis_names(self) -> list:
        return ["s", *[f"y{i + 2}" for i in range(len(self.y))], "t"]

    @property
    def shape(self) -> tuple:
        return tuple(len(ax) for ax in self.axes)

    @property
    def hs(self) -> float:
        return _uniform_spacing(self.s, "s")

    @property
    def ht(self) -> float:
        return _uniform_spacing(self.t, "t")

    def hy(self, i: int) -> float:
        return _uniform_spacing(self.y[i], f"y{i + 2}")

    @property
    def x(self) -> np.ndarray:
        """The x-coordinates x = s^2 of the s-nodes."""
        return self.s * self.s

    def meshes(self) -> tuple:
        """Sparse (s, y..., t) node meshes."""
        return np.meshgrid(*self.axes, indexing="ij", sparse=True)

    def x_meshes(self) -> tuple:
        """Sparse (x, y..., t) node meshes."""
        return np.meshgrid(self.x, *self.y, self.t, indexing="ij", sparse=True)

    def spatial_x_meshes(self) -> tuple:
        """Sparse (x, y...) meshes of the spatial nodes."""
        return np.meshgrid(self.x, *self.y, indexing="ij", sparse=True)

    def node(self, idx) -> tuple:
        """Coordinates (s, y..., t) of the node at idx; (s, y...) for a spatial idx."""
        return tuple(float(ax[i]) for ax, i in zip(self.axes, idx))

    def interior_box(self, margin: int, t_margin: int | None = None) -> tuple:
        """Index box of the nodes `margin` cells inside every lateral edge.

        The lateral edges are both ends of each y-axis, s = s_max, and
        s = s[0] when s[0] > 0 (a clipped box).  The degenerate edge s = 0 is
        not one: the transport condition makes it need no boundary data, so
        it is not part of the parabolic boundary.  The box is spatial unless
        t_margin is given, which trims both ends of the time axis.
        """
        box = (slice(margin if self.s[0] > 0 else 0, len(self.s) - margin),
               *(slice(margin, len(y) - margin) for y in self.y))
        if t_margin is None:
            return box
        return box + (slice(t_margin, len(self.t) - t_margin),)

    def same_axes(self, other: "Grid") -> bool:
        return (
            len(self.axes) == len(other.axes)
            and all(a.shape == b.shape and np.array_equal(a, b)
                    for a, b in zip(self.axes, other.axes))
        )


def _real_array(values, name: str) -> np.ndarray:
    """values as a float array; a complex one is refused by name, not cast to its real part."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValueError(f"{name} is complex; only real values are accepted")
    return values.astype(float, copy=False)


@dataclass(frozen=True)
class ScalarField:
    """Grid-sampled space-time function; complex values are refused."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = _real_array(self.values, "field")
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            idx = np.argwhere(~np.isfinite(vals))[0]
            raise ValueError(f"non-finite value at node index {tuple(map(int, idx))}")
        object.__setattr__(self, "values", vals)


def sample(f, grid: Grid) -> ScalarField:
    """Evaluate f(x, y..., t) at every node (x = s^2); complex values are refused."""
    with np.errstate(all="ignore"):  # a non-finite value is refused below
        vals = _real_array(f(*grid.x_meshes()), "sampled function")
    vals = np.broadcast_to(vals, grid.shape).copy()
    bad = ~np.isfinite(vals)
    if np.any(bad):
        node = grid.node(np.argwhere(bad)[0])
        raise ValueError(f"sampling produced non-finite value at node {node}")
    return ScalarField(grid, vals)


def _flat_neighbours(v: np.ndarray, axis: int):
    """(values, out, k): v C-ordered, a fresh C-ordered out and the flat stride of axis.

    On the flattened arrays the neighbours of an inner node along `axis`
    lie k entries away, so a central difference is one contiguous pass over
    flat[k:-k]; it also writes the end nodes of the axis, which the caller
    then overwrites.  Each node's arithmetic is the same as on the axis.
    """
    v = np.ascontiguousarray(v, dtype=float)
    return v, np.empty(v.shape), v.strides[axis] // v.itemsize


def _d1(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order first derivative: central interior, one-sided at ends."""
    v, out, k = _flat_neighbours(v, axis)
    flat, inner = v.reshape(-1), out.reshape(-1)[k:-k]
    np.subtract(flat[2 * k:], flat[:-2 * k], out=inner)
    inner /= 2 * h
    v, ends = np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0)
    ends[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
    ends[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return out


def x_stencils(xv: np.ndarray):
    """Per-node 3-point weights for d/dx and d2/dx2 on the nodes xv.

    Node i uses the quadratic through (x_{i-1}, x_i, x_{i+1}) evaluated at
    x_i, and each end node the triple next to it, so every weight is exact
    for quadratics in x.  Returns (idx, d1, d2), each of shape
    (len(xv), 3): the three node indices and their d/dx and d2/dx2 weights.
    Inside, the columns are the (minus, centre, plus) neighbours.
    """
    k = np.clip(np.arange(xv.size) - 1, 0, xv.size - 3)
    idx = k[:, None] + np.arange(3)
    p, q, r = xv[idx].T
    dens = [(p - q) * (p - r), (q - p) * (q - r), (r - p) * (r - q)]
    d1 = np.stack([(2 * xv - q - r) / dens[0], (2 * xv - p - r) / dens[1],
                   (2 * xv - p - q) / dens[2]], axis=1)
    d2 = np.stack([2.0 / den for den in dens], axis=1)
    return idx, d1, d2


def _d2(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order second derivative: central interior, one-sided at ends."""
    v, out, k = _flat_neighbours(v, axis)
    flat, inner = v.reshape(-1), out.reshape(-1)[k:-k]
    np.multiply(flat[k:-k], 2, out=inner)
    np.subtract(flat[2 * k:], inner, out=inner)
    inner += flat[:-2 * k]
    inner /= h * h
    v, ends = np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0)
    if v.shape[0] >= 4:
        ends[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / (h * h)
        ends[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / (h * h)
    else:
        ends[0] = ends[1]
        ends[-1] = ends[-2]
    return out


class FieldDerivatives:
    """Finite-difference derivatives of a field on its own grid.

    The s-form derivatives (u_s, u_ss, u_sy, u_y, u_yy, u_t) are arrays on
    uniform axes.  The x-derivatives u_x(), u_xx() and x_times_u_xx() take
    the 3-point weights of `x_stencils` on the nodes x = s^2, the ones the
    solver assembles, so they are exact for fields quadratic in x and
    defined at every node, s = 0 included.

    `rows`, a slice of consecutive s-indices (the whole grid by default),
    restricts every array to those s-rows, and their values are bitwise the
    whole grid's there.  The s-differences run on the rows plus one halo row
    on each side, widened to at least 4 s-nodes so that `_d2` takes its
    4-point end rows wherever the rows meet a grid end, with the spacing of
    the whole s-axis (a sub-axis' first difference may differ in the last
    bit); the y- and t-differences run on the rows alone.  A block of rows
    then holds about 10 arrays of its own size at n = 3, whatever the grid.
    """

    def __init__(self, field: ScalarField, rows: slice = slice(None)):
        self.field = field
        g = field.grid
        ns = len(g.s)
        lo, hi, step = rows.indices(ns)
        if step != 1 or lo >= hi:
            raise ValueError(f"rows must be a nonempty run of s-indices, got {rows!r}")
        self.rows = slice(lo, hi)
        start, stop = max(lo - 1, 0), min(hi + 1, ns)
        stop = min(max(stop, start + 4), ns)
        start = max(min(start, stop - 4), 0)
        halo = field.values[start:stop]
        own = slice(lo - start, hi - start)
        v = field.values[self.rows]
        self.u_s = _d1(halo, g.hs, 0)[own]
        self.u_ss = _d2(halo, g.hs, 0)[own]
        self.u_t = _d1(v, g.ht, len(g.axes) - 1)
        self.u_y = [_d1(v, g.hy(i), 1 + i) for i in range(len(g.y))]
        self.u_sy = [_d1(self.u_s, g.hy(i), 1 + i) for i in range(len(g.y))]
        self.u_yy = [[None] * len(g.y) for _ in range(len(g.y))]
        for i in range(len(g.y)):
            for j in range(len(g.y)):
                if i == j:
                    self.u_yy[i][j] = _d2(v, g.hy(i), 1 + i)
                elif j > i:
                    self.u_yy[i][j] = _d1(self.u_y[i], g.hy(j), 1 + j)
                else:
                    self.u_yy[i][j] = self.u_yy[j][i]

    def _along_x(self, which: int) -> np.ndarray:
        """The field's values combined by x_stencils' weights[which] (0: d1, 1: d2)."""
        idx, *weights = x_stencils(self.field.grid.x)
        idx, w = idx[self.rows], weights[which][self.rows]
        v = self.field.values
        w = w.reshape((-1, 3) + (1,) * (v.ndim - 1))
        return v[idx[:, 0]] * w[:, 0] + v[idx[:, 1]] * w[:, 1] + v[idx[:, 2]] * w[:, 2]

    def u_x(self) -> np.ndarray:
        """du/dx by the weights of `x_stencils`."""
        return self._along_x(0)

    def u_xx(self) -> np.ndarray:
        """d2u/dx2 by the weights of `x_stencils`."""
        return self._along_x(1)

    def x_times_u_xx(self) -> np.ndarray:
        """x * u_xx(), exactly 0 at s = 0."""
        return self.field.grid.x_meshes()[0][self.rows] * self.u_xx()

    # perfbench/tracing.py binds these two names with getattr
    u_x_xgrid = u_x
    u_xx_xgrid = u_xx


def fd_derivatives(field: ScalarField, rows: slice = slice(None)) -> FieldDerivatives:
    return FieldDerivatives(field, rows)


def osc(field: ScalarField, cube: ParabolicCube) -> float:
    """max - min of the field over grid nodes inside the cube."""
    vals = field.values[cube_nodes(cube, field.grid)]
    return float(np.max(vals) - np.min(vals))


# nodes per block of whole s-rows in which `lp_norm_weighted` applies the weights
_LP_BLOCK = 1 << 16


def lp_norm_weighted(field: ScalarField, p: float, cube: ParabolicCube,
                     mu: WeightedMeasure) -> float:
    """(sum |u|^p s^(nu-1) d(cell))^(1/p) over nodes inside the cube.

    Node-dual quadrature: each node carries the exact integral of the
    singular density over its dual s-cell times the dual lengths of the
    other axes.  No normalization prefactor (it would cancel in every
    measured constant anyway).  One full-grid buffer is filled in place:
    |u|, its p-th power, the weights of `weighted_volumes` a block of whole
    s-rows (about _LP_BLOCK nodes) at a time, then the cube's mask; one
    np.sum over the buffer gives the total.
    """
    if not np.isfinite(p) or p < 1:
        raise ValueError("p must be a finite real >= 1")
    g = field.grid
    mask = cube_nodes(cube, g)
    edges = [dual_edges(ax) for ax in g.axes]
    terms = np.abs(field.values)
    terms **= p
    step = max(1, _LP_BLOCK // math.prod(g.shape[1:]))
    for lo in range(0, len(g.s), step):
        terms[lo:lo + step] *= weighted_volumes([edges[0][lo:lo + step + 1], *edges[1:]], mu.nu)
    terms *= mask
    return float(np.sum(terms) ** (1.0 / p))


# pair-sampling rule for Hoelder seminorms: all pairs up to this many nodes,
# a fixed-seed random sample of 10^6 pairs above.  A sampled maximum is a
# lower bound of the supremum over node pairs (up to 2.2% low on the 33^3
# Schauder unit box), not the supremum itself.
_HOLDER_ALL_PAIRS_LIMIT = 2000
_HOLDER_SAMPLED_PAIRS = 1_000_000

# pairs per block of the Hoelder kernel: the pairs are produced a block at a
# time, so a walk holds one block's indices and temporaries, a few hundred
# KB, whatever the pair count; the whole sampled set's two index arrays
# would take 16 MB
_HOLDER_BLOCK = 1 << 14


def _pair_blocks(npts: int):
    """The region's node pairs (i, j) as index blocks of at most _HOLDER_BLOCK pairs.

    Up to _HOLDER_ALL_PAIRS_LIMIT nodes, the pairs i < j in the row order
    of np.triu_indices(npts, k=1), each block located by its pair numbers;
    above, the pairs of default_rng(0).integers(0, npts, N) twice, ii then
    jj, N = _HOLDER_SAMPLED_PAIRS.  The jj draws follow all N ii draws in the
    generator's stream, so a copy of the generator is first moved past them
    by drawing blocks it throws away; drawing in blocks yields the one-call
    draws bit for bit, the generator buffering its spare 32-bit half.
    """
    if npts <= _HOLDER_ALL_PAIRS_LIMIT:
        per_row = np.arange(npts - 1, -1, -1)  # node i pairs with the nodes after it
        first = np.cumsum(per_row) - per_row  # the pair number of (i, i + 1)
        total = npts * (npts - 1) // 2
        for lo in range(0, total, _HOLDER_BLOCK):
            pair = np.arange(lo, min(lo + _HOLDER_BLOCK, total))
            i = np.searchsorted(first, pair, side="right") - 1
            yield i, pair - first[i] + i + 1
        return
    draw_i = np.random.default_rng(0)
    draw_j = copy.deepcopy(draw_i)
    sizes = [min(_HOLDER_BLOCK, _HOLDER_SAMPLED_PAIRS - lo)
             for lo in range(0, _HOLDER_SAMPLED_PAIRS, _HOLDER_BLOCK)]
    for size in sizes:
        draw_j.integers(0, npts, size)
    for size in sizes:
        yield draw_i.integers(0, npts, size), draw_j.integers(0, npts, size)


def _ratio_maxes(grid: Grid, mask: np.ndarray, alpha: float, rows: np.ndarray) -> np.ndarray:
    """max |row[i] - row[j]| / dist(i, j)^alpha over the region's node pairs, per row.

    `rows` is (k, npts): one row per field, its columns the masked nodes in
    mask order.  The pairs depend on the region alone: all pairs up to
    _HOLDER_ALL_PAIRS_LIMIT nodes, else the fixed-seed sample of
    _HOLDER_SAMPLED_PAIRS.  One walk over the blocks of `_pair_blocks`
    computes each pair's distance |ds| + |dy| + sqrt|dt| once for all rows;
    no array holds the whole pair set.  A sampled pair may draw a node
    twice; distinct grid nodes differ in some strictly increasing axis, so
    such a self-pair is the only one at distance 0; it is weighted inf and
    adds a ratio of 0.  A row's maximum is 0.0 when there are no pairs.
    """
    coords = [ax[k] for ax, k in zip(grid.axes, np.nonzero(mask))]
    s, *ys, t = coords
    out = np.zeros(len(rows))
    for i, j in _pair_blocks(s.size):
        dist = np.abs(s[i] - s[j])
        dy2 = np.zeros_like(dist)
        for yk in ys:
            dy2 += (yk[i] - yk[j]) ** 2
        dist = dist + np.sqrt(dy2) + np.sqrt(np.abs(t[i] - t[j]))
        w = dist ** alpha
        w[dist == 0] = np.inf
        ratio = rows.take(i, axis=1)
        ratio -= rows.take(j, axis=1)
        np.abs(ratio, out=ratio)
        ratio /= w
        np.maximum(out, ratio.max(axis=1), out=out)
    return out


def holder_seminorm(field: ScalarField, alpha: float, region: ParabolicCube) -> float:
    """Hoelder-alpha seminorm |u(P)-u(Q)| / s_distance(P,Q)^alpha over node pairs.

    The supremum over all node pairs in the region up to 2000 nodes; above
    that, the maximum over a fixed sample of 10^6 pairs, a lower bound of
    the supremum.  A bool alpha is refused.
    """
    if isinstance(alpha, bool) or not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    mask = cube_nodes(region, field.grid, "region")
    if np.count_nonzero(mask) < 2:
        raise ValueError("region must contain at least 2 grid nodes")
    rows = field.values[mask][np.newaxis]
    return float(_ratio_maxes(field.grid, mask, alpha, rows)[0])


def c0_norm(field: ScalarField, region: ParabolicCube | None = None) -> float:
    if region is None:
        return float(np.max(np.abs(field.values)))
    return float(np.max(np.abs(field.values[cube_nodes(region, field.grid, "region")])))


def _check_region_interior(grid: Grid, mask: np.ndarray):
    """Require 2-cell margins against every lateral grid edge and both ends of t.

    The degenerate edge s = 0 is exempt: it is not a lateral edge, and the
    x-derivatives there take the one-sided triple of `x_stencils`, exact
    for quadratics in x like the central ones; x u_xx is 0 there.
    """
    idx = np.argwhere(mask)
    lo, hi = idx.min(axis=0), idx.max(axis=0)
    box = grid.interior_box(2, t_margin=2)
    edges = [("s-top", hi[0] >= box[0].stop), ("s-bottom", lo[0] < box[0].start)]
    edges += [(name, lo[k] < box[k].start or hi[k] >= box[k].stop)
              for k, name in enumerate(grid.axis_names[1:], start=1)]
    problems = [name for name, hit in edges if hit]
    if problems:
        raise ValueError(
            "region touches grid edges (" + ", ".join(problems) +
            "); one-sided stencils would pollute the seminorm"
        )


def cs_norm_2_alpha(field: ScalarField, alpha: float, region: ParabolicCube) -> float:
    """Second-order Hoelder norm adapted to the singular metric.

    C0 norm of u plus C0 norms and Hoelder-alpha seminorms of the scaled
    derivatives that enter the model operator: u_t, x*u_xx, u_{y_i y_j},
    u_x, u_{y_i}.  The region must sit at least 2 cells inside every
    lateral grid edge and both ends of the time axis.  One kernel call draws
    the region's node pairs and walks them once for every piece; above 2000
    region nodes the seminorms are maxima over a fixed sample of pairs, so
    the norm is a lower bound of the supremum-based norm.  A bool alpha is
    refused.
    """
    if isinstance(alpha, bool) or not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    g = field.grid
    mask = cube_nodes(region, g, "region")
    _check_region_interior(g, mask)
    d = fd_derivatives(field)
    pieces = [d.u_t, d.x_times_u_xx(), d.u_x()]
    pieces.extend(d.u_y)
    for i in range(len(g.y)):
        for j in range(i, len(g.y)):
            pieces.append(d.u_yy[i][j])
    rows = np.stack([arr[mask] for arr in pieces])
    ratios = _ratio_maxes(g, mask, alpha, rows)
    total = float(np.max(np.abs(field.values[mask])))
    for sup, ratio in zip(np.max(np.abs(rows), axis=1), ratios):
        total += float(sup)
        total += float(ratio)
    return total
