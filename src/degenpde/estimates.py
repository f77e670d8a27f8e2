"""Verification harness for the a-priori estimates.

Every check measures the quantities of one estimate on a given field and
reports the left side, the named right-side components, the measured
constant lhs / (constant-free rhs), and pass/fail margins. Constants are
reported, never compared against theoretical values; pass criteria are
budgets, refinement stability and scale robustness chosen by the caller.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fields import (
    Grid,
    ScalarField,
    _interior_region,
    _ratio_maxes,
    c0_norm,
    cs_norm_2_alpha,
    fd_derivatives,
    holder_seminorm,
    lp_norm_weighted,
    osc,
)
from .geometry import (
    ParabolicCube,
    Point,
    WeightedMeasure,
    cube_box,
    cube_nodes,
    node_measure,
    rho_nu,
)
from .operators import (BLEND_END, CoefficientField, _check_dimension, apply_L0,
                        apply_parabolic)

# tie tolerance for the closed contact-set conditions, applied relative to
# the magnitude of each tested quantity so membership is scale invariant
CONTACT_TOL = 1e-10

# selected nodes per block of the contact-set matrix tests; it bounds their
# working memory to a few MB whatever the grid size
CONTACT_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# reports


@dataclass
class EstimateReport:
    """Measured quantities of one estimate check.

    passed is true exactly when every margin is >= 0; measured_constant is
    lhs divided by the constant-free right side, 0 when both vanish and
    inf when only the right side does.
    """

    name: str
    lhs: float
    rhs_components: dict
    measured_constant: float
    margins: dict
    passed: bool
    provenance: str

    def _pairs(self, verdict: tuple) -> list:
        """(key, text) of every field in report order, the verdict before provenance."""
        return [("name", self.name), ("lhs", _fmt(self.lhs)),
                *((f"rhs.{k}", _fmt(v)) for k, v in self.rhs_components.items()),
                ("measured_constant", _fmt(self.measured_constant)),
                *((f"margin.{k}", _fmt(v)) for k, v in self.margins.items()),
                verdict, ("provenance", self.provenance)]

    def to_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in
                       self._pairs(("result", "PASS" if self.passed else "FAIL")))

    def to_record(self) -> str:
        """One-line structured dump: tab-separated key=value pairs."""
        return "\t".join(f"{k}={v}" for k, v in self._pairs(("pass", int(self.passed))))


def _fmt(val) -> str:
    if isinstance(val, str):
        return val
    return f"{float(val):.17g}"


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


def _budget(name: str, value: float, hi: float = math.inf) -> None:
    """Refuse a pass budget outside (0, hi], NaN included, naming it."""
    if not 0 < value <= hi:
        raise ValueError(f"{name} must lie in (0, {hi:g}], got {value:g}")


def _finite_positive(name: str, value: float) -> None:
    """Refuse a value that is not a finite positive real, NaN included, naming it."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value:g}")


def _finish(name, lhs, rhs_components, constant, margins, grid,
            *details) -> EstimateReport:
    """The report; its provenance line is the grid, then the details."""
    passed = all(m >= 0 for m in margins.values())
    prov = "; ".join([_grid_text(grid), *details])
    return EstimateReport(name, float(lhs), rhs_components, float(constant),
                          margins, passed, prov)


def _cube_text(cube: ParabolicCube) -> str:
    b = cube.base
    ys = ",".join(f"{v:g}" for v in b.y)
    return (f"{cube.kind}(r={cube.radius:g}, base s={b.s:g} y=({ys}) "
            f"t={b.t:g}, backward)")


def _grid_text(grid: Grid) -> str:
    return "grid " + "x".join(str(k) for k in grid.shape)


def write_series(path, xs, ys) -> None:
    """Two-column plain-text series for external plotting."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError("series columns must have equal length")
    with open(path, "w") as fh:
        for xv, yv in zip(xs, ys):
            fh.write(f"{xv:.17g} {yv:.17g}\n")


def _on_grid(g, grid: Grid):
    """The forcing g, refused unless it lives on the solution's grid."""
    if not g.grid.same_axes(grid):
        raise ValueError("forcing must live on the solution's grid")
    return g


def _forcing(g, grid: Grid, cube: ParabolicCube, nu: float, s0: float,
             rho: float) -> tuple[float, float]:
    """Scale and norm of the forcing term rho^(n/(n+1)) rho_nu^(1/(n+1)) ||g||.

    rho_nu is the scaling factor of `geometry.rho_nu` at (s0, rho), and the
    norm is the weighted L^(n+1) norm of g over the cube.  g = None is no
    forcing: its norm is exactly 0.0, after the empty-cube refusal the norm
    makes.
    """
    n = grid.n
    scale = rho ** (n / (n + 1.0)) * rho_nu(s0, rho, nu) ** (1.0 / (n + 1.0))
    if g is None:
        cube_box(cube, grid)
        return scale, 0.0
    return scale, lp_norm_weighted(_on_grid(g, grid), n + 1, cube, WeightedMeasure(nu))


# ---------------------------------------------------------------------------
# contact sets and the ABP estimate


@dataclass
class ContactSetResult:
    """The lower contact set of a field over a cube, the one ABP integrates over.

    gamma_minus is a full-grid boolean mask.  Nodes on the s = 0 line are
    excluded (the map to z = s^(2-nu)/(2-nu) is singular there); their
    count is reported.  `contact_sets` states the rule that decides the
    mask.
    """

    gamma_minus: np.ndarray
    excluded_s_zero: int


def contact_sets(u: ScalarField, nu: float, cube: ParabolicCube) -> ContactSetResult:
    """The discrete lower contact set from the (z, y)-Hessian sign conditions.

    Only the lower set is computed: `abp_check` integrates (g-)^(n+1) over
    it and over nothing else.  In the variable z = s^(2-nu)/(2-nu) the
    Hessian of u in (z, y) is congruent to the matrix E with entries
    E_11 = u_ss + ((nu-1)/s) u_s, E_1i = u_{s y_i}, E_ij = u_{y_i y_j}, so
    the sign conditions are conditions on E.  Conditions are closed: ties
    within a relative tolerance count as membership.  A selected node is in
    the lower set when u_z >= -tol_z, u_t >= -tol_t and E >= -tau I, decided
    by one test:

        ||E||_inf <= tau, or every unpivoted LDL^T pivot of E + tau I is
        finite and > 0.

    The first clause implies lambda_min(E) >= -tau (Gershgorin) and settles
    E = 0 with tau = 0; the second is lambda_min(E) > -tau as the
    factorization rounds it.  ||E||_inf sums each row's magnitudes in
    column order.  Each tolerance is CONTACT_TOL times the largest value of
    its quantity over the selected nodes: ||E||_inf for tau, |u_z| for
    tol_z and |u_t| for tol_t.  A selected node where E (through
    ||E||_inf), u_z or u_t is not finite is refused by name and node index.

    The grid is walked in blocks of whole s-rows, about 4 CONTACT_CHUNK
    nodes each (at least one row), twice, and each block builds its own
    `fd_derivatives(u, rows)`: one halo row on each side, at least 4 s-nodes
    and the whole axis' spacing make its values bitwise the whole grid's.
    Pass 1 (`_tolerances`) folds each block into the three maxima.  Pass 2
    (`_members_of_block`) rebuilds each block's derivatives and tests the
    nodes whose u_z and u_t conditions hold, E gathered CONTACT_CHUNK nodes
    at a time.  So the working set is one block's derivatives (about 10
    arrays of its size at n = 3), a few full-grid boolean masks and one
    chunk of E, whatever the field.  No (..., n, n) array and no z or u_z
    over the grid is built.
    """
    if not 0 < nu < 1:
        raise ValueError("nu must lie in (0, 1)")
    grid = u.grid
    if any(k < 5 for k in grid.shape):
        raise ValueError("contact sets need at least 5 nodes per axis")
    mask = cube_nodes(cube, grid, "contact-set cube")
    s_col = grid.meshes()[0]
    s_pos = np.broadcast_to(s_col > 0, grid.shape)
    excluded = int(np.count_nonzero(mask & ~s_pos))
    sel = mask & s_pos
    gamma_minus = np.zeros(grid.shape, dtype=bool)
    blocks = _row_blocks(sel)
    if blocks:
        # s^(nu-1) of u_z = s^(nu-1) u_s, taken once on the whole s-axis
        z_scale = np.where(s_col > 0, s_col, 1.0) ** (nu - 1.0)
        tols = _tolerances(u, nu, sel, blocks, z_scale)
        for rows in blocks:
            gamma_minus[rows] = _members_of_block(u, nu, rows, sel[rows], tols, z_scale)
    return ContactSetResult(gamma_minus, excluded)


def _row_blocks(sel: np.ndarray) -> list:
    """Slices of whole s-rows, about 4 CONTACT_CHUNK nodes each, over the rows sel meets."""
    rows = math.prod(sel.shape[1:])
    step = max(1, 4 * CONTACT_CHUNK // rows)
    hit = np.flatnonzero(sel.reshape(len(sel), -1).any(axis=1))
    if hit.size == 0:
        return []
    starts = range(int(hit[0]), int(hit[-1]) + 1, step)
    return [slice(lo, min(lo + step, int(hit[-1]) + 1)) for lo in starts
            if sel[lo:lo + step].any()]


def _block_quantities(u: ScalarField, nu: float, rows: slice, z_scale: np.ndarray):
    """E, u_z and u_t of `contact_sets` on the s-rows `rows`.

    E is an (n, n) nest of arrays over the rows, the symmetric entries one
    array; at s = 0 its E_11 is not that of the set, and no s = 0 node is
    selected.
    """
    d = fd_derivatives(u, rows)
    n = u.grid.n
    s = u.grid.meshes()[0][rows]
    E = [[None] * n for _ in range(n)]
    E[0][0] = d.u_ss + ((nu - 1.0) / np.where(s > 0, s, 1.0)) * d.u_s
    for i in range(n - 1):
        E[0][1 + i] = E[1 + i][0] = d.u_sy[i]
        for j in range(n - 1):
            E[1 + i][1 + j] = d.u_yy[i][j]
    return E, z_scale[rows] * d.u_s, d.u_t


def _gather(E, at: np.ndarray) -> np.ndarray:
    """Entry-major (n, n, k) matrices of a nest E at its flat node indices `at`."""
    n = len(E)
    out = np.empty((n, n, at.size))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = out[j, i] = E[i][j].ravel()[at]
    return out


def _row_norm(E) -> np.ndarray:
    """||E||_inf per matrix of an (n, n) nest or array of entry arrays.

    Each row sums its entries' magnitudes in column order, whatever the
    layout.
    """
    n = len(E)
    norm = None
    for i in range(n):
        row = np.abs(E[i][0])
        for j in range(1, n):
            row += np.abs(E[i][j])
        norm = row if norm is None else np.maximum(norm, row, out=norm)
    return norm


def _tolerances(u: ScalarField, nu: float, sel: np.ndarray, blocks: list,
                z_scale: np.ndarray) -> tuple[float, float, float]:
    """(tau, tol_z, tol_t) of `contact_sets`: pass 1 over the blocks.

    CONTACT_TOL times max ||E||_inf, max |u_z| and max |u_t| over the
    selected nodes.
    """
    top = np.max([_block_maxima(u, nu, rows, sel[rows], z_scale) for rows in blocks], axis=0)
    return tuple(CONTACT_TOL * float(value) for value in top)


def _block_maxima(u: ScalarField, nu: float, rows: slice, here: np.ndarray,
                  z_scale: np.ndarray) -> list:
    """max ||E||_inf, |u_z| and |u_t| over the selected nodes `here` of the s-rows `rows`.

    The first selected node where one of them is not finite is refused,
    naming the quantity and the node's grid index.
    """
    E, u_z, u_t = _block_quantities(u, nu, rows, z_scale)
    top = []
    for name, value in (("E", _row_norm(E)), ("u_z", u_z), ("u_t", u_t)):
        value = np.abs(value[here])
        top.append(np.max(value))
        if not np.isfinite(top[-1]):  # inf and nan both reach the max
            node = np.argwhere(here)[np.argmin(np.isfinite(value))]
            node[0] += rows.start
            raise ValueError(f"contact sets: {name} is not finite at node "
                             f"{tuple(int(k) for k in node)}")
    return top


def _members_of_block(u: ScalarField, nu: float, rows: slice, here: np.ndarray, tols,
                      z_scale: np.ndarray) -> np.ndarray:
    """One block of pass 2: the lower set on the s-rows `rows`, tols = (tau, tol_z, tol_t)."""
    tau, tol_z, tol_t = tols
    E, u_z, u_t = _block_quantities(u, nu, rows, z_scale)
    minus = here & (u_z >= -tol_z) & (u_t >= -tol_t)
    at = np.flatnonzero(minus)
    for start in range(0, at.size, CONTACT_CHUNK):
        chunk = at[start:start + CONTACT_CHUNK]
        E_at = _gather(E, chunk)
        minus.flat[chunk] = (_row_norm(E_at) <= tau) | _pivots_positive(E_at, tau)
    return minus


def _pivots_positive(E: np.ndarray, shift: float) -> np.ndarray:
    """Whether every unpivoted LDL^T pivot of each E + shift I is finite and > 0.

    E is entry-major (n, n, k); the factorization reads its lower triangle
    and overwrites it.
    """
    positive = np.ones(E.shape[-1], dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(len(E)):
            E[k, k] += shift
            pivot = E[k, k]
            positive &= (pivot > 0.0) & (pivot < np.inf)
            col = E[k + 1:, k]
            E[k + 1:, k + 1:] -= col[:, None] * (col / pivot)[None, :]
    return positive


def _spatial_boundary(mask: np.ndarray, grid: Grid) -> np.ndarray:
    """In-cube nodes on the cube's lateral faces or earliest time slab."""
    spat = mask.any(axis=-1)
    core = spat
    for ax in range(spat.ndim):
        pad = [(0, 0)] * spat.ndim
        pad[ax] = (1, 1)
        padded = np.pad(spat, pad, constant_values=False)
        if ax == 0 and grid.interior_box(1)[0].start == 0:
            # the degenerate edge s = 0 is not a lateral face (Grid's rule)
            padded[0] = padded[1]
        lo = tuple(slice(0, -2) if k == ax else slice(None)
                   for k in range(spat.ndim))
        hi = tuple(slice(2, None) if k == ax else slice(None)
                   for k in range(spat.ndim))
        core = core & padded[lo] & padded[hi]
    lateral = (spat & ~core)[..., None] & mask
    t_in = mask.any(axis=tuple(range(mask.ndim - 1)))
    k_first = int(np.argmax(t_in))
    bottom = np.zeros_like(mask)
    bottom[..., k_first] = mask[..., k_first]
    return lateral | bottom


def abp_check(u: ScalarField, g, cube: ParabolicCube, nu: float,
              c_max: float = math.inf) -> EstimateReport:
    """Measured constant of the maximum bound sup u+ <= C * forcing term.

    Hypothesis u <= 0 on the cube's parabolic boundary is checked first;
    the right side integrates (g-)^(n+1) over the lower contact set with
    the singular weight, and that set is all `contact_sets` computes.  The
    budget c_max must lie in (0, inf].
    """
    _budget("c_max", c_max)
    grid = u.grid
    if g is not None:
        _on_grid(g, grid)
    mask = cube_nodes(cube, grid)
    boundary = _spatial_boundary(mask, grid)
    u_max = float(np.max(u.values, where=mask, initial=0.0))  # max u+ over the cube
    scale = max(u_max, -float(np.min(u.values, where=mask, initial=0.0)))
    btol = 1e-12 * max(1.0, scale)
    worst_boundary = float(np.max(u.values, where=boundary, initial=-math.inf))
    if worst_boundary > btol:
        raise ValueError(
            "boundary hypothesis violated: max u on the parabolic boundary "
            f"is {worst_boundary:g} > 0")

    lhs = max(0.0, u_max)
    contact = contact_sets(u, nu, cube)
    if g is not None:  # (g-)^(n+1) counts on the lower contact set only
        g_minus = np.negative(g.values)
        np.clip(g_minus, 0.0, None, out=g_minus)
        g_minus *= contact.gamma_minus
        g = ScalarField(grid, g_minus)
    prefac, integral = _forcing(g, grid, cube, nu, cube.base.s, cube.radius)
    rhs = prefac * integral
    constant = _ratio(lhs, rhs)
    margins = {"constant_budget": c_max - constant}
    if math.isinf(constant):
        margins["estimate_violated"] = -1.0
    rhs_components = {
        "prefactor": prefac,
        "forcing_integral": integral,
        "gamma_minus_nodes": float(np.count_nonzero(contact.gamma_minus & mask)),
        "excluded_s_zero": float(contact.excluded_s_zero),
    }
    return _finish("abp", lhs, rhs_components, constant, margins, grid,
                   _cube_text(cube), f"nu={nu:g}")


# ---------------------------------------------------------------------------
# Harnack quotient and the growth lemma


def harnack_quotient(u: ScalarField, g, s0: float, y0, t0: float, rho: float,
                     nu: float, c_max: float = math.inf) -> EstimateReport:
    """sup over the earlier half-cube against inf over the later one.

    The budget c_max must lie in (0, inf].
    """
    _budget("c_max", c_max)
    grid = u.grid
    later = ParabolicCube("Q_rho", Point.at_s(s0, y0, t0), rho / 2.0)
    earlier = ParabolicCube(
        "Q_rho", Point.at_s(s0, y0, t0 - 3.0 * rho * rho / 4.0), rho / 2.0)
    on_cubes = []
    for cube in (earlier, later):
        box, inside = cube_box(cube, grid)
        vals = u.values[box][inside]
        umin = float(np.min(vals))
        if umin < -1e-12 * max(1.0, float(np.max(np.abs(vals)))):
            raise ValueError(f"u must be nonnegative on the cubes (min {umin:g})")
        on_cubes.append(vals)
    sup_early = float(np.max(on_cubes[0]))
    inf_late = float(np.min(on_cubes[1]))
    prefac, g_norm = _forcing(g, grid, later, nu, s0, rho)
    forcing = prefac * g_norm
    constant = _ratio(sup_early, inf_late + forcing)
    margins = {"constant_budget": c_max - constant}
    if math.isinf(constant):
        margins["counterexample"] = -1.0
    rhs_components = {"inf_later": inf_late, "forcing": forcing}
    return _finish("harnack_quotient", sup_early, rhs_components, constant,
                   margins, grid, f"s0={s0:g} t0={t0:g} rho={rho:g} nu={nu:g}")


def growth_lemma_check(u: ScalarField, g, base, rho: float, K: float,
                       nu: float, k_min: float = 0.1,
                       eps0: float = 0.1) -> EstimateReport:
    """Measure fraction of the sublevel set {u <= K} in the base cube.

    base is the (s0, y0, t_anchor) anchor of the region B x (0, 18 rho^2);
    the comparison cube sits at time anchor + 10 rho^2/4, the sublevel cube
    at anchor + rho^2/4. If the hypotheses (inf over the comparison cube
    <= 1 and forcing at most eps0) fail, the report is marked not applicable
    and passes vacuously.  The budget k_min must lie in (0, 1], the level K
    must be finite and eps0 finite and nonnegative.
    """
    if not 0 < k_min <= 1:
        raise ValueError(f"k_min must lie in (0, 1], got {k_min:g}")
    if not math.isfinite(K):
        raise ValueError(f"K must be finite, got {K:g}")
    if not 0 <= eps0 < math.inf:
        raise ValueError(f"eps0 must be finite and nonnegative, got {eps0:g}")
    grid = u.grid
    s0, y0, t_anchor = base
    q2 = ParabolicCube(
        "Q_rho", Point.at_s(s0, y0, t_anchor + 10.0 * rho * rho / 4.0),
        3.0 * rho / 2.0)
    sub_cube = ParabolicCube(
        "Q_rho", Point.at_s(s0, y0, t_anchor + rho * rho / 4.0), rho)
    norm_cube = ParabolicCube(
        "Q_rho", Point.at_s(s0, y0, t_anchor + 18.0 * rho * rho),
        3.0 * math.sqrt(2.0) * rho)
    inf_q2 = float(np.min(u.values[cube_nodes(q2, grid, "comparison cube")]))
    prefac, g_norm = _forcing(g, grid, norm_cube, nu, s0, rho)
    forcing = prefac * g_norm

    mask = cube_nodes(sub_cube, grid, "sublevel cube")
    sub_mask = mask & (u.values <= K)
    mu = WeightedMeasure(nu)
    fraction = node_measure(sub_mask, grid, mu) / node_measure(mask, grid, mu)
    rhs_components = {
        "hypothesis_inf": inf_q2,
        "hypothesis_forcing": forcing,
        "fraction": fraction,
        "level": K,
    }
    if inf_q2 > 1.0 or forcing > eps0:
        rhs_components["applicable"] = "no"
        margins = {"not_applicable": 0.0}
    else:
        rhs_components["applicable"] = "yes"
        margins = {"fraction_budget": fraction - k_min}
    return _finish("growth_lemma", fraction, rhs_components, fraction / k_min,
                   margins, grid, f"rho={rho:g} K={K:g} nu={nu:g}")


# ---------------------------------------------------------------------------
# oscillation decay and the Hoelder bound


def oscillation_decay(u: ScalarField, base, rho: float, levels: int, g,
                      nu: float, theta_max: float = 0.95) -> EstimateReport:
    """Per-halving oscillation ratios and the implied Hoelder exponent.

    theta_hat_j = [osc over Q at radius rho/2^(j+1) minus the level's
    forcing term] / osc at radius rho/2^j; the summary ratio is the max
    over levels and alpha_hat = log2(1/theta_hat). Zero oscillation at any
    level reports the exact-constant sentinel and passes.  The budget
    theta_max must lie in (0, 1].
    """
    _budget("theta_max", theta_max, 1.0)
    if not isinstance(levels, (int, np.integer)) or levels < 2:
        raise ValueError(f"levels must be an integer >= 2, got {levels!r}")
    grid = u.grid
    s0, y0, t0 = base
    radii = [rho / 2.0 ** j for j in range(levels + 1)]
    cubes = [ParabolicCube("Q_rho", Point.at_s(s0, y0, t0), r) for r in radii]
    oscs = [osc(u, c) for c in cubes]
    rhs_components = {}
    theta_hats = []
    sentinel = False
    for j in range(levels):
        rhs_components[f"osc_{j}"] = oscs[j]
        if oscs[j] == 0.0:
            sentinel = True
            break
        prefac, g_norm = _forcing(g, grid, cubes[j], nu, s0, radii[j])
        forcing = prefac * g_norm
        theta_j = (oscs[j + 1] - forcing) / oscs[j]
        theta_hats.append(theta_j)
        rhs_components[f"theta_hat_{j}"] = theta_j
        rhs_components[f"forcing_{j}"] = forcing
    if sentinel or not theta_hats:
        rhs_components["sentinel"] = "zero oscillation, exact constant"
        theta_hat, alpha_hat = 0.0, math.inf
        margins = {"theta_budget": theta_max}
    else:
        theta_hat = max(theta_hats)
        alpha_hat = math.inf if theta_hat <= 0 else math.log2(1.0 / theta_hat)
        margins = {"theta_budget": theta_max - theta_hat}
    return _finish("oscillation_decay", theta_hat, rhs_components, alpha_hat, margins,
                   grid, f"rho={rho:g} levels={levels} nu={nu:g}")


def holder_bound_check(u: ScalarField, g, base, r: float, rho: float,
                       nu: float, alpha: float) -> EstimateReport:
    """Hoelder norm on the inner cube against sup norm plus forcing.

    Nested cubes C_r in C_rho in C_1 share the base point; the left side
    is the sup plus the metric-adapted Hoelder-alpha seminorm on C_r.  Above
    2000 nodes in C_r that seminorm is a maximum over a fixed sample of node
    pairs (`fields.holder_seminorm`), a lower bound of the supremum.
    """
    if not 0 < r < rho <= 1.0:
        raise ValueError("need 0 < r < rho <= 1")
    grid = u.grid
    s0, y0, t0 = base
    anchor = Point.at_s(s0, y0, t0)
    c_r = ParabolicCube("C_rho", anchor, r)
    c_rho = ParabolicCube("C_rho", anchor, rho)
    c_one = ParabolicCube("C_rho", anchor, 1.0)
    sup_inner = c0_norm(u, c_r)
    semi = holder_seminorm(u, alpha, c_r)
    lhs = sup_inner + semi
    sup_outer = c0_norm(u, c_one)
    _, g_norm = _forcing(g, grid, c_rho, nu, s0, rho)
    rhs = sup_outer + g_norm
    constant = _ratio(lhs, rhs)
    margins = {"finite": 0.0 if math.isfinite(constant) else -1.0}
    rhs_components = {"sup_outer": sup_outer, "forcing_integral": g_norm,
                      "seminorm": semi}
    return _finish("holder_bound", lhs, rhs_components, constant, margins,
                   grid, f"r={r:g} rho={rho:g} alpha={alpha:g} nu={nu:g}")


# ---------------------------------------------------------------------------
# model-equation interior estimates


def gradient_bound_check(f: ScalarField, v, B: float, r: float,
                         gamma_frac: float, base=None) -> EstimateReport:
    """Interior gradient bound |f_x|, |f_yi| <= C B / r^2 on the inner box.

    The bound B and the transport velocity v must be finite and positive.
    """
    _finite_positive("B", B)
    _finite_positive("v", v)
    if not 0 < gamma_frac < 1:
        raise ValueError("gamma_frac must lie in (0, 1)")
    grid = f.grid
    if base is None:
        base = Point(0.0, np.zeros(grid.n - 1), r * r)
    outer = ParabolicCube("B_eta", base, r)
    inner = ParabolicCube("B_eta", base, gamma_frac * r)
    outer_mask = outer.node_mask(grid)
    inner_mask = cube_nodes(inner, grid, "inner box")
    sup_f = float(np.max(np.abs(f.values[outer_mask])))
    if sup_f > B * (1.0 + 1e-12):
        raise ValueError(f"hypothesis |f| <= B fails: sup |f| = {sup_f:g} > {B:g}")
    d = fd_derivatives(f)
    max_fx = float(np.max(np.abs(d.u_x()[inner_mask])))
    grads = {"max_fx": max_fx}
    worst = max_fx
    for i, u_yi in enumerate(d.u_y):
        gi = float(np.max(np.abs(u_yi[inner_mask])))
        grads[f"max_fy{i + 2}"] = gi
        worst = max(worst, gi)
    constant = worst * r * r / B
    margins = {"bound_hypothesis": B - sup_f}
    return _finish("gradient_bound", worst, grads, constant, margins, grid,
                   f"B={B:g} r={r:g} gamma={gamma_frac:g} v={v:g}")


def bernstein_quantity_check(f: ScalarField, v, A: float,
                             tol: float = 1e-6) -> EstimateReport:
    """Differential inequalities of X = (A+f^2) f_x^2 and Y = (A+f^2) f_yi^2.

    For solutions of the homogeneous model equation, X satisfies
    X_t <= x X_xx + sum X_yiyi + (v+1) X_x and each Y satisfies
    Y_t <= x Y_xx + sum Y_yiyi + v Y_x - Y^2/(4A^2) up to discretization
    error; the check normalizes residuals by 1 plus the local derivative
    magnitudes and requires them below tol at interior nodes.  The input is
    refused unless it solves the model equation: max |L0 f| over the
    interior nodes from s-index `operators.BLEND_END` on, past the transport
    blend zone, where L_h is exact for fields quadratic in x, must lie below
    100 tol (1 + max |f|).  A must be finite and >= 8, tol finite and
    positive.
    """
    if not (math.isfinite(A) and A >= 8.0):
        raise ValueError(f"A must be finite and >= 8, got {A:g}")
    _finite_positive("tol", tol)
    grid = f.grid
    residual_l0 = apply_L0(v, f)
    interior = grid.interior_box(2, t_margin=2)
    past_blend = (slice(max(interior[0].start, BLEND_END), interior[0].stop), *interior[1:])
    gated = residual_l0.values[past_blend]
    if gated.size == 0:
        raise ValueError(f"grid has no interior node from s-index {BLEND_END} on, "
                         "where the L0 gate reads")
    l0_max = float(np.max(np.abs(gated)))
    f_scale = 1.0 + c0_norm(f)
    if l0_max > tol * 100.0 * f_scale:
        raise ValueError(
            f"input is not a model-equation solution (max |L0 f| = {l0_max:g})")

    d = fd_derivatives(f)
    fx = d.u_x()
    pre = A + f.values ** 2

    def normalized_residual(q_values, drift, extra=0.0):
        q = ScalarField(grid, q_values)
        dq = fd_derivatives(q)
        xq_xx, q_x = dq.x_times_u_xx(), dq.u_x()
        ell = xq_xx + drift * q_x
        mags = np.abs(dq.u_t) + np.abs(xq_xx) + abs(drift) * np.abs(q_x)
        for i in range(len(grid.y)):
            ell = ell + dq.u_yy[i][i]
            mags = mags + np.abs(dq.u_yy[i][i])
        res = dq.u_t - (ell + extra)
        return float(np.max((res / (1.0 + mags + np.abs(extra)))[interior]))

    X = pre * fx * fx
    worst_x = normalized_residual(X, v + 1.0)
    margins = {"X_inequality": tol - worst_x}
    rhs_components = {"X_residual": worst_x, "L0_residual": l0_max}
    worst = worst_x
    for i, u_yi in enumerate(d.u_y):
        Y = pre * u_yi * u_yi
        worst_y = normalized_residual(Y, v, extra=-(Y * Y) / (4.0 * A * A))
        margins[f"Y{i + 2}_inequality"] = tol - worst_y
        rhs_components[f"Y{i + 2}_residual"] = worst_y
        worst = max(worst, worst_y)
    return _finish("bernstein_quantity", worst, rhs_components, _ratio(worst, tol),
                   margins, grid, f"A={A:g} v={v:g} tol={tol:g}")


# ---------------------------------------------------------------------------
# polynomial approximation and the Schauder quotient


def _axis_index(ax: np.ndarray, value: float, name: str) -> int:
    hits = np.nonzero(np.abs(ax - value) <= 1e-12)[0]
    if hits.size == 0:
        raise ValueError(f"grid has no {name}-node at {value:g}")
    return int(hits[0])


def poly_approx_check(f: ScalarField, L0f: ScalarField, s_outer: float,
                      r_list, ratio_max: float = math.inf) -> EstimateReport:
    """Taylor-polynomial remainder against the cube-shrinking bound.

    The polynomial has degree 1 in x and t and degree 2 in y with
    coefficients from finite differences at (x, y, t) = (0, 0, 1); for each
    r the remainder sup over the parabolic box of size r is compared with
    (r/s)^3 |f|_s + s^2 |L0 f|_s.  The budget ratio_max must lie in
    (0, inf].
    """
    _budget("ratio_max", ratio_max)
    grid = f.grid
    if not L0f.grid.same_axes(grid):
        raise ValueError("L0f must live on f's grid")
    r_list = [float(r) for r in r_list]
    if not r_list or any(r <= 0 or r > s_outer for r in r_list):
        raise ValueError("radii must lie in (0, s_outer]")
    if grid.s[0] != 0.0:
        raise ValueError("Taylor stencil exceeds grid: no x = 0 line")
    i0 = 0
    j0 = [_axis_index(ax, 0.0, f"y{k + 2}") for k, ax in enumerate(grid.y)]
    k1 = _axis_index(grid.t, 1.0, "t")
    if k1 < 2 or any(j < 2 or j > len(ax) - 3 for j, ax in zip(j0, grid.y)):
        raise ValueError("Taylor stencil exceeds grid")

    d = fd_derivatives(f)
    point = (i0, *j0, k1)
    f0 = float(f.values[point])
    fx = float(d.u_x()[point])
    ft = float(d.u_t[point])
    fy = [float(d.u_y[i][point]) for i in range(len(grid.y))]
    fyy = [[float(d.u_yy[i][j][point]) for j in range(len(grid.y))]
           for i in range(len(grid.y))]

    x, *ys, t = grid.x_meshes()
    p = f0 + fx * x + ft * (t - 1.0)
    for i, yi in enumerate(ys):
        p = p + fy[i] * yi
        for j, yj in enumerate(ys):
            p = p + 0.5 * fyy[i][j] * yi * yj
    remainder = np.abs(f.values - np.broadcast_to(p, grid.shape))

    anchor = Point(0.0, np.zeros(grid.n - 1), 1.0)
    outer_mask = cube_nodes(ParabolicCube("B_eta", anchor, s_outer), grid, "outer box")
    f_outer = float(np.max(np.abs(f.values[outer_mask])))
    l0_outer = float(np.max(np.abs(L0f.values[outer_mask])))
    rhs_components = {"f_norm_outer": f_outer, "L0f_norm_outer": l0_outer}
    worst = 0.0
    for r in r_list:
        mask = cube_nodes(ParabolicCube("B_eta", anchor, r), grid, "box")
        err = float(np.max(remainder[mask]))
        bound = (r / s_outer) ** 3 * f_outer + s_outer ** 2 * l0_outer
        ratio = _ratio(err, bound)
        worst = max(worst, ratio)
        rhs_components[f"err_r={r:g}"] = err
        rhs_components[f"ratio_r={r:g}"] = ratio
    margins = {"ratio_budget": ratio_max - worst if math.isfinite(worst) else -1.0}
    return _finish("poly_approx", worst, rhs_components, worst, margins, grid,
                   f"s={s_outer:g} radii=" + ",".join(f"{r:g}" for r in r_list))


def schauder_ratio(f: ScalarField, coeffs: CoefficientField, r: float, alpha: float,
                   base: Point) -> EstimateReport:
    """Second-order Hoelder norm on the inner box over data norms on the unit box.

    The data term is f_t - L f for the coefficients' operator L, so any
    member of the class is measured, the model operator L0 among them; L f
    is `apply_L`, the L_h the solver marches with.  The right side is the
    sup of f plus the C^alpha norm (sup plus seminorm) of the data term on
    the unit box.  The coefficients' size, the largest C^alpha norm of an
    entry a_ij (i <= j) or b_i on the unit box, is reported as
    `coefficient_norm` but not summed into the right side.  Both boxes sit
    at `base`, which has no default: the inner box needs two grid cells of
    margin on every side but s = 0.  The unit box is not checked against
    the grid edges: it may hold lateral-edge nodes, where L_h takes its
    one-sided edge rows, and the first time slice, where f_t is one-sided
    (on the bundled 33^3 spec it holds every spatial node).  Above 2000
    nodes in a box its Hoelder seminorms are maxima over a fixed sample of
    node pairs, so the inner norm and the unit-box norms are lower bounds of
    their suprema (up to 2.2% low at 33^3) and the ratio is not a bound in
    either direction.  One kernel call draws the unit box's pairs and walks
    them once for the data term and every non-constant entry together; a
    constant one's seminorm is 0.0.  A non-finite entry is refused by name (`CoefficientField.eval_a`,
    `eval_b`) before the operator is applied.  The inner box is refused
    before any unit-box work.  The two boxes' pair walks share nothing, so
    they run concurrently: the unit box's on one worker thread, joined
    before the return, while the calling thread takes the inner norm; each
    is the serial walk over its own pairs, bitwise.
    """
    if not 0 < r < 1:
        raise ValueError("r must lie in (0, 1)")
    grid = f.grid
    inner = ParabolicCube("B_eta", base, r)
    _interior_region(grid, alpha, inner)
    unit = cube_nodes(ParabolicCube("B_eta", base, 1.0), grid, "region")
    if np.count_nonzero(unit) < 2:
        raise ValueError("region must contain at least 2 grid nodes")
    _check_dimension(coeffs, grid)
    meshes = grid.x_meshes()
    A = coeffs.eval_a(meshes, grid.shape)
    B = coeffs.eval_b(meshes, grid.shape)
    n = grid.n
    data = apply_parabolic(coeffs, f).values
    # row 0 is the data term, then the entries a_ij (i <= j) and b_i
    rows = np.stack([data[unit]] + [A[i, j][unit] for i in range(n) for j in range(i, n)]
                    + [b[unit] for b in B])
    norms = np.max(np.abs(rows), axis=1)
    varying = np.ptp(rows, axis=1) != 0  # a constant row's seminorm is 0.0
    walked = rows[varying]
    del A, B, data, rows  # the whole-grid arrays are not kept through the walks
    with ThreadPoolExecutor(max_workers=1) as pool:
        walk = pool.submit(_ratio_maxes, grid, unit, alpha, walked) if walked.size else None
        lhs = cs_norm_2_alpha(f, alpha, inner)
        if walk is not None:
            norms[varying] += walk.result()
    rhs_sup = float(np.max(np.abs(f.values[unit])))
    rhs_data = float(norms[0])
    coeff_norm = float(np.max(norms[1:]))
    rhs = rhs_sup + rhs_data
    constant = _ratio(lhs, rhs)
    margins = {"finite": 0.0 if math.isfinite(constant) else -1.0}
    rhs_components = {"sup_unit": rhs_sup, "data_norm": rhs_data,
                      "coefficient_norm": coeff_norm}
    return _finish("schauder_ratio", lhs, rhs_components, constant, margins,
                   grid, f"r={r:g} alpha={alpha:g}")
