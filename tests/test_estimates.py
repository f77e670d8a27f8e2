import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from degenpde import estimates, fields
from degenpde.estimates import (
    CONTACT_TOL,
    _forcing,
    abp_check,
    bernstein_quantity_check,
    contact_sets,
    gradient_bound_check,
    growth_lemma_check,
    harnack_quotient,
    holder_bound_check,
    oscillation_decay,
    poly_approx_check,
    schauder_ratio,
    write_series,
)
from degenpde.fields import Grid, ScalarField, fd_derivatives, lp_norm_weighted, sample
from degenpde.geometry import (ParabolicCube, Point, WeightedMeasure, cube_nodes,
                               dual_edges, weighted_volumes)
from degenpde.operators import (apply_L0, manufactured_solutions, model_coefficients,
                                random_coefficients)
from degenpde.solver import IVBProblem, solve_ivbp


def unit_grid(nodes=17):
    return Grid.uniform((0, 1, nodes), [(-1, 1, nodes)], (0, 1, nodes))


def test_contact_sets_constant_field():
    g = unit_grid()
    u = sample(lambda x, y, t: 1.0 + 0 * x, g)
    cube = ParabolicCube("Q_rho", Point.at_s(0.5, [0.0], 1.0), 0.4)
    res = contact_sets(u, 0.5, cube)
    sel = cube.node_mask(g) & (g.s.reshape(-1, 1, 1) > 0)
    assert np.all(res.gamma_minus[sel])


def test_contact_sets_convex_field_in_lower_set():
    nu = 0.5
    g = Grid.uniform((0.4, 1.6, 25), [(-1, 1, 25)], (0, 1, 9))

    def f(x, y, t):
        z = np.sqrt(x) ** (2.0 - nu) / (2.0 - nu)
        return z + z * z + y * y + t

    u = sample(f, g)
    cube = ParabolicCube("Q_rho", Point.at_s(1.0, [0.0], 1.0), 0.4)
    res = contact_sets(u, nu, cube)
    sel = cube.node_mask(g)
    assert np.all(res.gamma_minus[sel])


def test_contact_sets_concave_peak_not_in_lower_set():
    # u_z = 0 and u_t > 0 at the peak, so only lambda_min(E) = -2 keeps it out
    g = Grid.uniform((0.5, 1.5, 33), [(-1, 1, 33)], (0, 1, 9))
    u = sample(lambda x, y, t: -(np.sqrt(x) - 1.0) ** 2 - y * y - 0.1 * (1.0 - t), g)
    cube = ParabolicCube("Q_rho", Point.at_s(1.0, [0.0], 1.0), 0.4)
    res = contact_sets(u, 0.5, cube)
    peak = (16, 16, g.shape[-1] - 1)  # node at s = 1, y = 0, t = 1
    assert cube.node_mask(g)[peak]
    assert not res.gamma_minus[peak]


def _contact_sets_by_eigvalsh(u, nu, cube):
    """Reference lower contact set: eigvalsh of the full (n, n) matrix E at every node.

    tau = CONTACT_TOL max ||E||_inf, each row of E summed in column order,
    and a node is in when lambda_min(E) >= -tau.  Also gives the s-index of
    a node of largest ||E||_inf, the one that sets tau.
    """
    grid = u.grid
    n = grid.n
    mask = cube.node_mask(grid)
    s_col = grid.s.reshape((-1,) + (1,) * n)
    s_pos = np.broadcast_to(s_col > 0, grid.shape)
    sel = mask & s_pos
    d = fd_derivatives(u)
    safe_s = np.where(s_col > 0, s_col, 1.0)
    u_z = np.where(s_pos, safe_s ** (nu - 1.0) * d.u_s, 0.0)
    E = np.zeros(grid.shape + (n, n))
    E[..., 0, 0] = d.u_ss + ((nu - 1.0) / safe_s) * d.u_s
    for i in range(n - 1):
        E[..., 0, 1 + i] = E[..., 1 + i, 0] = d.u_sy[i]
        for j in range(n - 1):
            E[..., 1 + i, 1 + j] = d.u_yy[i][j]
    eigs = np.linalg.eigvalsh(E[sel])
    uz, ut = u_z[sel], d.u_t[sel]
    row = np.max(sum(np.abs(E[sel, :, j]) for j in range(n)), axis=-1)
    tol_e = CONTACT_TOL * np.max(row)
    tol_z = CONTACT_TOL * np.max(np.abs(uz))
    tol_t = CONTACT_TOL * np.max(np.abs(ut))
    minus = np.zeros(grid.shape, dtype=bool)
    minus[sel] = (eigs[:, 0] >= -tol_e) & (uz >= -tol_z) & (ut >= -tol_t)
    return SimpleNamespace(
        minus=minus, excluded=int(np.count_nonzero(mask & ~s_pos)),
        peak_row=int(np.argwhere(sel)[np.argmax(row)][0]))


def _sampled(f):
    return lambda grid, rng: sample(f, grid)


def _smooth(grid, rng):
    a = rng.uniform(-2.0, 2.0, grid.n + 1)

    def f(x, *rest):
        arg = a[0] * x + sum(ak * c for ak, c in zip(a[1:], rest))
        return np.sin(arg) * np.cos(rest[0] - x) + x * rest[-1]
    return sample(f, grid)


# fields of (x, y2, ..., yn, t) for every n
CONTACT_FIELDS = {
    "constant": _sampled(lambda x, *rest: 1.0 + 0 * x),
    "t": _sampled(lambda x, *rest: rest[-1] + 0 * x),
    "y2_squared": _sampled(lambda x, *rest: rest[0] ** 2 + 0 * x),
    "minus_y2_squared_plus_t": _sampled(lambda x, *rest: rest[-1] - rest[0] ** 2),
    # for n >= 3, lambda_min = -3e-10 sits just inside -tau = -1e-10 max (2 (1 + t)),
    # and -5e-10 just outside it
    "tau_edge": _sampled(lambda x, *rest: (1 + rest[-1]) * rest[0] ** 2
                         - 1.5e-10 * rest[-2] ** 2),
    "tau_edge_out": _sampled(lambda x, *rest: (1 + rest[-1]) * rest[0] ** 2
                             - 2.5e-10 * rest[-2] ** 2),
    "noise": lambda grid, rng: ScalarField(grid, rng.standard_normal(grid.shape)),
    "smooth": _smooth,
    # |E| grows with s, so tau is set in the last block and decides
    # membership in the earlier ones
    "growing_in_s": _sampled(lambda x, *rest: np.exp(3 * x) * (rest[0] ** 2 + rest[-1])),
}


def _contact_layouts(n):
    """{name: (CONTACT_CHUNK, grid, cube)}: the block layouts the oracle walks."""
    k = {2: 17, 3: 11, 4: 7}[n]
    ys = [(-1, 1, k)] * (n - 1)
    grid = Grid.uniform((0, 1, k), ys, (0, 1, 5))
    whole = ParabolicCube("B_eta", Point(0.5, np.zeros(n - 1), 1.0), 1.0)
    # x in [0.25, 0.75]: s from 0.5 to 0.87, both ends inside the grid
    inner = ParabolicCube("B_eta", Point(0.5, np.zeros(n - 1), 1.0), 0.5)
    return {
        "several_blocks": (97, grid, whole),
        "cube_inside_the_s_range": (97, grid, inner),
        "five_s_nodes": (97, Grid.uniform((0, 1, 5), ys, (0, 1, 5)), whole),
        # 4 * 21 nodes is less than one s-row holds (85 at n = 2)
        "one_row_blocks": (21, grid, whole),
    }


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("field", list(CONTACT_FIELDS))
def test_contact_sets_match_eigvalsh_at_every_node(monkeypatch, field, n):
    """Bitwise the sets of the brute-force reference, ties included.

    On every layout of `_contact_layouts`: small blocks make every field
    span several, down to blocks of one s-row and an s-axis of 5 nodes, and
    one cube starts and ends inside the s-range.
    """
    for layout, (chunk, grid, cube) in _contact_layouts(n).items():
        monkeypatch.setattr(estimates, "CONTACT_CHUNK", chunk)
        u = CONTACT_FIELDS[field](grid, np.random.default_rng(n))
        res = contact_sets(u, 0.5, cube)
        ref = _contact_sets_by_eigvalsh(u, 0.5, cube)
        assert np.array_equal(res.gamma_minus, ref.minus), layout
        assert res.excluded_s_zero == ref.excluded, layout
        assert (ref.excluded > 0) == (layout != "cube_inside_the_s_range")
        if field == "growing_in_s" and layout != "cube_inside_the_s_range":
            assert ref.peak_row == len(grid.s) - 1  # in the last block
        if field.startswith("tau_edge") and n >= 3:  # the tie test includes and excludes
            assert ref.minus.any() == (field == "tau_edge"), layout


def test_contact_sets_never_call_eigvalsh(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("contact_sets called np.linalg.eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    for n in (2, 3, 4):
        chunk, grid, cube = _contact_layouts(n)["several_blocks"]
        monkeypatch.setattr(estimates, "CONTACT_CHUNK", chunk)
        for make in CONTACT_FIELDS.values():
            contact_sets(make(grid, np.random.default_rng(n)), 0.5, cube)


@pytest.mark.parametrize("name, f, x0, radius, node", [
    # finite and convex, but u_ss overflows at the last selected s-row; the
    # set read 0 of the 360 selected nodes, with only numpy warnings to show
    ("E", lambda x, y, t: 5e307 * (x + y * y + t) / 3, 0.5, 1.0, (7, 0, 4)),
    # u = c s on s = 3/8 and 1/2: E is finite, u_z = c / sqrt(s) is not
    ("u_z", lambda x, y, t: 1.2e308 * np.sqrt(x) + 0 * y, 0.2, 0.3, (3, 3, 4)),
    # 2u fits, 3u does not: only the one-sided end stencil of u_t overflows
    ("u_t", lambda x, y, t: 7e307 * t + 0 * x, 0.2, 0.3, (3, 3, 4)),
])
def test_contact_sets_refuse_a_non_finite_quantity_by_name(name, f, x0, radius, node):
    grid = Grid.uniform((0, 1, 9), [(-1, 1, 9)], (0, 1, 5))
    u = sample(f, grid)
    assert np.all(np.isfinite(u.values))
    cube = ParabolicCube("B_eta", Point(x0, [0.0], 1.0), radius)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match=re.escape(f"{name} is not finite at node {node}")):
        contact_sets(u, 0.5, cube)


def _solved_n3_field():
    """u_t = Lu + 1 with zero data for random n = 3 coefficients, and its ABP cube."""
    grid = Grid.uniform((0, 1, 9), [(-1, 1, 9), (-1, 1, 9)], (0, 1, 5))
    one = lambda x, y2, y3, t: 1.0 + 0 * x  # noqa: E731
    zero = lambda x, y2, y3, t: 0 * x  # noqa: E731
    u = solve_ivbp(IVBProblem(coeffs=random_coefficients(1, 3), forcing=one,
                              initial=zero, lateral=zero), grid)
    return u, ParabolicCube("B_eta", Point(0.5, [0.0, 0.0], 1.0), 1.0)


def test_contact_sets_match_eigvalsh_on_a_solved_field(monkeypatch):
    monkeypatch.setattr(estimates, "CONTACT_CHUNK", 97)
    u, cube = _solved_n3_field()
    res = contact_sets(u, 0.5, cube)
    ref = _contact_sets_by_eigvalsh(u, 0.5, cube)
    assert np.array_equal(res.gamma_minus, ref.minus) and np.any(ref.minus)
    assert res.excluded_s_zero == ref.excluded


def test_abp_check_tests_eigenvalues_once(monkeypatch):
    # the upper contact set, which nothing reads, took a second pass; the
    # membership test runs once on each row block, in one pass
    monkeypatch.setattr(estimates, "CONTACT_CHUNK", 97)
    blocks = []
    original = estimates._members_of_block

    def counted(u, nu, rows, *args):
        blocks.append(rows)
        return original(u, nu, rows, *args)

    monkeypatch.setattr(estimates, "_members_of_block", counted)
    u, cube = _solved_n3_field()
    abp_check(u, ScalarField(u.grid, np.full(u.grid.shape, -1.0)), cube, 0.5)
    sel = cube.node_mask(u.grid) & (u.grid.s.reshape(-1, 1, 1, 1) > 0)
    assert blocks == estimates._row_blocks(sel) and len(blocks) > 1


def _contact_sets_peak(u, cube):
    """Traced peak of contact_sets(u, 0.5, cube), in fields of u's size."""
    tracemalloc.start()
    try:
        contact_sets(u, 0.5, cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / u.values.nbytes


def test_contact_sets_working_set_is_a_few_fields():
    # the whole-grid derivatives took 14.7 times the field here; blocks of
    # s-rows hold one block's arrays and one chunk of E
    grid = Grid.uniform((0, 1, 33), [(-1, 1, 33)] * 2, (0, 1, 65))
    u = sample(lambda x, y2, y3, t: np.exp(-((np.sqrt(x) - 0.5) ** 2 + y2 ** 2 + y3 ** 2)
                                           / (0.1 + t)), grid)
    cube = ParabolicCube("B_eta", Point(0.5, [0.0, 0.0], 1.0), 1.0)
    assert _contact_sets_peak(u, cube) < 5


def test_contact_sets_working_set_where_the_curvature_hardly_varies():
    # a tau of CONTACT_TOL max |lambda| kept E at every node that could set
    # it, about half the selected nodes here, and peaked at 4.3 fields;
    # max ||E||_inf is taken in the fold and keeps nothing
    grid = Grid.uniform((0, 1, 33), [(-1, 1, 33)] * 2, (0, 1, 65))
    u = _smooth(grid, np.random.default_rng(3))
    cube = ParabolicCube("B_eta", Point(0.5, [0.0, 0.0], 1.0), 1.0)
    assert _contact_sets_peak(u, cube) < 3



@pytest.fixture(scope="module")
def solved_n3_33():
    """The n3_abp solve at 33^3 x 17 nodes (random n = 3 coefficients, seed 7)."""
    grid = Grid.uniform((0, 1, 33), [(-1, 1, 33)] * 2, (0, 1, 17))
    one = lambda x, y2, y3, t: 1.0 + 0 * x  # noqa: E731
    zero = lambda x, y2, y3, t: 0 * x  # noqa: E731
    return solve_ivbp(IVBProblem(coeffs=random_coefficients(7, 3), forcing=one,
                                 initial=zero, lateral=zero), grid)


def test_abp_check_forcing_integral_is_computed_in_place(solved_n3_33, monkeypatch):
    # blocks of 4 * 4096 nodes keep contact_sets' own working set small, so
    # the forcing integral's sets the peak: 4.52 fields with the full-grid
    # (g-) 1_Gamma copy, its clip temporary, |u|^p, the weights and the mask
    # product, 2.64 fields with one buffer each for (g-) 1_Gamma and the norm
    monkeypatch.setattr(estimates, "CONTACT_CHUNK", 1 << 12)
    u = solved_n3_33
    g = ScalarField(u.grid, np.full(u.grid.shape, -1.0))
    cube = ParabolicCube("B_eta", Point(0.5, [0.0, 0.0], 1.0), 1.0)
    tracemalloc.start()
    try:
        abp_check(u, g, cube, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * u.values.nbytes


def lp_norm_by_expression(field, p, cube, mu):
    """Reference for lp_norm_weighted: the whole-grid weights times |u|^p times the mask."""
    grid = field.grid
    w = weighted_volumes([dual_edges(ax) for ax in grid.axes], mu.nu)
    total = np.sum((np.abs(field.values) ** p) * w * cube_nodes(cube, grid))
    return float(total ** (1.0 / p))


@pytest.mark.parametrize("p", [1, 2.5, 3, 4])
def test_lp_norm_weighted_equals_the_whole_grid_expression_bitwise(solved_n3_33, p):
    cube = ParabolicCube("B_eta", Point(0.5, [0.0, 0.0], 1.0), 1.0)
    rng = np.random.default_rng(5)
    fields = [solved_n3_33, ScalarField(solved_n3_33.grid,
                                        rng.standard_normal(solved_n3_33.grid.shape))]
    # an s-axis of 200 nodes takes several s-rows per block, 5 nodes one
    for ns, nt in ((200, 9), (5, 7)):
        grid = Grid.uniform((0, 1, ns), [(-1, 1, 9)], (0, 1, nt))
        fields.append(ScalarField(grid, rng.uniform(-3, 3, grid.shape)))
    for field, cube in zip(fields, [cube, cube] + [ParabolicCube(
            "B_eta", Point(0.3, [0.1], 0.5), 0.8)] * 2):
        for nu in (0.25, 0.5):
            mu = WeightedMeasure(nu)
            assert lp_norm_weighted(field, p, cube, mu) == lp_norm_by_expression(
                field, p, cube, mu)

def test_abp_and_harnack_at_n4():
    """The estimates hold in all dimensions: an n = 4 solve, measured as it stands."""
    grid = Grid.uniform((0, 1, 13), [(-1, 1, 13)] * 3, (0, 1, 9))
    one = lambda x, *rest: 1.0 + 0 * x  # noqa: E731
    zero = lambda x, *rest: 0 * x  # noqa: E731
    u = solve_ivbp(IVBProblem(coeffs=random_coefficients(3, 4), forcing=one,
                              initial=zero, lateral=zero), grid)
    cube = ParabolicCube("B_eta", Point(0.5, [0.0, 0.0, 0.0], 1.0), 1.0)
    abp = abp_check(u, ScalarField(grid, np.full(grid.shape, -1.0)), cube, 0.5)
    assert abp.passed
    assert abp.rhs_components["gamma_minus_nodes"] == 28188
    assert abp.measured_constant == pytest.approx(0.2085378451351661, rel=1e-12)
    harnack = harnack_quotient(u, None, 0.5, [0.0, 0.0, 0.0], 1.0, 0.4, 0.5)
    assert harnack.passed
    assert harnack.measured_constant == pytest.approx(1.2774600216878091, rel=1e-12)


def test_contact_sets_refuse_an_empty_cube():
    g = unit_grid()
    u = sample(lambda x, y, t: x + t, g)
    cube = ParabolicCube("Q_rho", Point.at_s(3.0, [0.0], 1.0), 0.4)
    with pytest.raises(ValueError, match="contact-set cube contains no grid nodes"):
        contact_sets(u, 0.5, cube)


def test_abp_scale_invariance_and_boundary_check():
    g = Grid.uniform((0, 1, 25), [(-1, 1, 25)], (0, 1, 13))
    cube = ParabolicCube("Q_rho", Point.at_s(0.5, [0.0], 1.0), 0.45)
    t_lo, _ = cube.time_interval()

    def hump(x, y, t):
        s = np.sqrt(x)
        spatial = np.clip((0.09 - ((s - 0.5) ** 2 + y ** 2)) / 0.09, 0, None) ** 2
        return spatial * np.clip(t - (t_lo + 0.09), 0, None)

    u = sample(hump, g)
    gf = sample(lambda x, y, t: -1.0 + 0 * x, g)
    rep = abp_check(u, gf, cube, 0.5)
    assert rep.lhs > 0
    assert math.isfinite(rep.measured_constant)
    rep2 = abp_check(ScalarField(g, 2 * u.values), ScalarField(g, 2 * gf.values),
                     cube, 0.5)
    assert abs(rep2.measured_constant - rep.measured_constant) <= 1e-8

    bad = sample(lambda x, y, t: 1.0 + 0 * x, g)
    with pytest.raises(ValueError):
        abp_check(bad, gf, cube, 0.5)


def test_abp_zero_positive_part_passes():
    g = unit_grid()
    u = sample(lambda x, y, t: -1.0 - 0 * x, g)
    cube = ParabolicCube("Q_rho", Point.at_s(0.5, [0.0], 1.0), 0.4)
    rep = abp_check(u, None, cube, 0.5)
    assert rep.lhs == 0.0
    assert rep.measured_constant == 0.0
    assert rep.passed


def _spatial_boundary_by_s0(mask, grid):
    """Reference: the boundary rule with its own s = 0 test, not Grid's."""
    spat = mask.any(axis=-1)
    core = spat
    for ax in range(spat.ndim):
        pad = [(0, 0)] * spat.ndim
        pad[ax] = (1, 1)
        padded = np.pad(spat, pad, constant_values=False)
        if ax == 0 and grid.s[0] == 0.0:
            padded[0] = padded[1]
        lo = tuple(slice(0, -2) if k == ax else slice(None) for k in range(spat.ndim))
        hi = tuple(slice(2, None) if k == ax else slice(None) for k in range(spat.ndim))
        core = core & padded[lo] & padded[hi]
    lateral = (spat & ~core)[..., None] & mask
    k_first = int(np.argmax(mask.any(axis=tuple(range(mask.ndim - 1)))))
    bottom = np.zeros_like(mask)
    bottom[..., k_first] = mask[..., k_first]
    return lateral | bottom


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("s_lo", [0.0, 0.25])
def test_abp_boundary_masks_equal_the_reference(n, s_lo):
    grid = Grid.uniform((s_lo, 1, 13), [(-1, 1, 13)] * (n - 1), (0, 1, 9))
    for kind in ("B_eta", "C_rho", "Q_rho"):
        for s0 in (0.0, 0.5):
            cube = ParabolicCube(kind, Point.at_s(s0, [0.0] * (n - 1), 1.0), 0.5)
            mask = cube_nodes(cube, grid)
            got = estimates._spatial_boundary(mask, grid)
            assert np.array_equal(got, _spatial_boundary_by_s0(mask, grid)), (kind, s0)


def test_abp_refuses_a_field_positive_on_a_y_face():
    grid = Grid.uniform((0, 1, 17), [(-1, 1, 17)], (0, 1, 9))
    cube = ParabolicCube("B_eta", Point(0.25, [0.0], 1.0), 0.5)
    _, y, t = grid.meshes()
    face = cube.node_mask(grid) & (y == 0.5) & (t == 1.0)
    assert face.any()
    u = ScalarField(grid, np.where(face, 1.0, -1.0))
    with pytest.raises(ValueError, match="^boundary hypothesis violated: max u on the "
                                         "parabolic boundary is 1 > 0$"):
        abp_check(u, None, cube, 0.5)


def _positive_on_the_lowest_s_row(grid, cube):
    """-1, except +1 at the cube's nodes of its lowest s-row off its y-faces and bottom."""
    mask = cube.node_mask(grid)
    i0 = int(np.argmax(mask.any(axis=(1, 2))))
    row = mask[i0]
    js = np.flatnonzero(row.any(axis=1))
    ks = np.flatnonzero(row.any(axis=0))
    inner = np.zeros_like(mask)
    inner[i0, js[0] + 1:js[-1], ks[0] + 1:] = row[js[0] + 1:js[-1], ks[0] + 1:]
    return ScalarField(grid, np.where(inner, 1.0, -1.0)), int(inner.sum())


def test_abp_s0_row_is_no_lateral_face_only_on_a_grid_from_s0():
    cube = ParabolicCube("B_eta", Point(0.0, [0.0], 1.0), 0.75)
    from_zero = Grid.uniform((0, 1, 17), [(-1, 1, 17)], (0, 1, 9))
    u, count = _positive_on_the_lowest_s_row(from_zero, cube)
    assert count == 44
    assert abp_check(u, None, cube, 0.5).lhs == 1.0
    clipped = Grid.uniform((0.25, 1, 17), [(-1, 1, 17)], (0, 1, 9))
    u, count = _positive_on_the_lowest_s_row(clipped, cube)
    assert count > 0
    with pytest.raises(ValueError, match="^boundary hypothesis violated"):
        abp_check(u, None, cube, 0.5)


def test_harnack_quotient_constant_is_one():
    g = unit_grid(33)
    u = sample(lambda x, y, t: 7.0 + 0 * x, g)
    rep = harnack_quotient(u, None, 0.5, [0.0], 1.0, 0.4, 0.5)
    assert rep.measured_constant == 1.0
    assert rep.passed


def test_harnack_quotient_flags_vanishing_infimum():
    g = unit_grid(33)
    u = sample(lambda x, y, t: np.clip(0.9 - t, 0.0, None) + 0 * x, g)
    rep = harnack_quotient(u, None, 0.5, [0.0], 1.0, 0.4, 0.5)
    assert math.isinf(rep.measured_constant)
    assert not rep.passed


def test_harnack_quotient_rejects_negative_u():
    g = unit_grid(17)
    u = sample(lambda x, y, t: y + 0 * x, g)
    with pytest.raises(ValueError):
        harnack_quotient(u, None, 0.5, [0.0], 1.0, 0.4, 0.5)


def test_growth_lemma_constant_and_not_applicable():
    g = Grid.uniform((0, 2.5, 41), [(-4, 4, 41)], (0, 10, 41))
    u = sample(lambda x, y, t: 0.5 + 0 * x, g)
    rep = growth_lemma_check(u, None, (0.5, [0.0], 0.0), 0.5, 64.0, 0.5)
    assert rep.rhs_components["applicable"] == "yes"
    assert rep.rhs_components["fraction"] == 1.0
    assert rep.passed
    big = sample(lambda x, y, t: 5.0 + 0 * x, g)
    rep = growth_lemma_check(big, None, (0.5, [0.0], 0.0), 0.5, 0.1, 0.5)
    assert rep.rhs_components["applicable"] == "no"
    assert rep.passed


@pytest.mark.parametrize("name, value", [
    ("k_min", 0.0), ("k_min", -0.1), ("k_min", 1.5), ("k_min", math.nan),
    ("K", math.nan), ("K", -math.inf),
    ("eps0", math.nan), ("eps0", math.inf), ("eps0", -0.1),
])
def test_growth_lemma_refuses_a_bad_budget_or_level(name, value):
    g = Grid.uniform((0, 1, 25), [(-1, 1, 25)], (0, 1, 17))
    u = sample(lambda x, y, t: 0.5 + 0 * x, g)
    args = {"K": 2.5, name: value}
    with pytest.raises(ValueError, match=f"^{name} must"):
        growth_lemma_check(u, None, (0.5, [0.0], 0.0), 0.2, nu=0.5, **args)


def constant_on(grid, value=1.0):
    return sample(lambda x, y, t: value + 0 * x, grid)


BUDGETS = {
    # check: (budget, its largest accepted value, the check called with it)
    "abp_check": ("c_max", math.inf, lambda **budget: abp_check(
        constant_on(unit_grid(33), -1.0), None,
        ParabolicCube("Q_rho", Point.at_s(0.5, [0.0], 1.0), 0.4), 0.5, **budget)),
    "harnack_quotient": ("c_max", math.inf, lambda **budget: harnack_quotient(
        constant_on(unit_grid(33)), None, 0.5, [0.0], 1.0, 0.4, 0.5, **budget)),
    "oscillation_decay": ("theta_max", 1.0, lambda **budget: oscillation_decay(
        constant_on(unit_grid(33)), (0.5, [0.0], 1.0), 0.4, 2, None, 0.5, **budget)),
    "poly_approx_check": ("ratio_max", math.inf, lambda **budget: poly_approx_check(
        constant_on(poly_grid()), constant_on(poly_grid(), 0.0), 0.8, [0.8, 0.4], **budget)),
}


@pytest.mark.parametrize("check, value", [
    *[(check, v) for check in sorted(BUDGETS) for v in (math.nan, 0.0, -1.0, -math.inf)],
    ("oscillation_decay", 1.5), ("oscillation_decay", math.inf),
])
def test_a_budget_out_of_range_is_refused_by_name(check, value):
    name, _, run = BUDGETS[check]
    with pytest.raises(ValueError, match=f"^{name} must lie in "):
        run(**{name: value})


@pytest.mark.parametrize("check", sorted(BUDGETS))
def test_the_largest_budget_is_accepted(check):
    name, top, run = BUDGETS[check]
    assert run(**{name: top}).passed


@pytest.mark.parametrize("rho", [math.nan, math.inf])
def test_a_non_finite_radius_is_refused_by_name(rho):
    u = sample(lambda x, y, t: 1.0 + 0 * x, unit_grid())
    with pytest.raises(ValueError, match="radius must be finite and positive"):
        harnack_quotient(u, None, 0.5, [0.0], 1.0, rho, 0.5)
    with pytest.raises(ValueError, match="radius must be finite and positive"):
        oscillation_decay(u, (0.5, [0.0], 1.0), rho, 2, None, 0.5)


@pytest.mark.parametrize("levels", [0, 1, 2.5, math.nan])
def test_a_level_count_that_is_not_an_integer_above_one_is_refused(levels):
    u = sample(lambda x, y, t: 1.0 + 0 * x, unit_grid())
    with pytest.raises(ValueError, match=re.escape(
            f"levels must be an integer >= 2, got {levels!r}")):
        oscillation_decay(u, (0.5, [0.0], 1.0), 0.4, levels, None, 0.5)


def test_oscillation_decay_linear_is_half():
    g = Grid.uniform((0, 1, 33), [(-1, 1, 65)], (0, 1, 17))
    u = sample(lambda x, y, t: y + 0 * x, g)
    rep = oscillation_decay(u, (0.5, [0.0], 1.0), 0.5, 3, None, 0.5)
    for j in range(3):
        assert rep.rhs_components[f"theta_hat_{j}"] == pytest.approx(0.5, abs=0)
    assert rep.measured_constant == pytest.approx(1.0)
    assert rep.passed


def test_oscillation_decay_constant_sentinel():
    g = unit_grid(33)
    u = sample(lambda x, y, t: 2.0 + 0 * x, g)
    rep = oscillation_decay(u, (0.5, [0.0], 1.0), 0.4, 2, None, 0.5)
    assert rep.passed
    assert "sentinel" in rep.rhs_components


def test_holder_bound_constant_and_sqrt():
    g = unit_grid(33)
    u = sample(lambda x, y, t: 1.0 + 0 * x, g)
    rep = holder_bound_check(u, None, (0.5, [0.0], 1.0), 0.3, 0.6, 0.5, 0.5)
    assert rep.measured_constant == pytest.approx(1.0)
    root = sample(lambda x, y, t: np.sqrt(x) + 0 * y, g)
    rep = holder_bound_check(root, None, (0.5, [0.0], 1.0), 0.3, 0.6, 0.5, 1.0)
    assert math.isfinite(rep.lhs)
    assert rep.passed


def _hump_below_zero(x, y, t):
    """Positive inside Q_rho((0.5, 0, 1), 0.45), zero on its parabolic boundary."""
    s = np.sqrt(x)
    spatial = np.clip((0.09 - ((s - 0.5) ** 2 + y ** 2)) / 0.09, 0, None) ** 2
    return spatial * np.clip(t - 0.8875, 0, None)


FORCING_CHECKS = {
    "abp": (_hump_below_zero, lambda u, g: abp_check(
        u, g, ParabolicCube("Q_rho", Point.at_s(0.5, [0.0], 1.0), 0.45), 0.5)),
    "harnack": (None, lambda u, g: harnack_quotient(u, g, 0.5, [0.0], 1.0, 0.4, 0.5)),
    "growth_lemma": (None, lambda u, g: growth_lemma_check(
        u, g, (0.5, [0.0], 0.0), 0.2, 2.5, 0.5)),
    "oscillation": (None, lambda u, g: oscillation_decay(
        u, (0.5, [0.0], 1.0), 0.4, 2, g, 0.5)),
    "holder_bound": (None, lambda u, g: holder_bound_check(
        u, g, (0.5, [0.0], 1.0), 0.3, 0.6, 0.5, 0.5)),
}


@pytest.mark.parametrize("name", list(FORCING_CHECKS))
def test_missing_forcing_reports_like_a_zero_field(name):
    field, check = FORCING_CHECKS[name]
    g = Grid.uniform((0, 1, 25), [(-1, 1, 25)], (0, 1, 17))
    u = sample(field or (lambda x, y, t: 0.5 + x + y * y + t), g)
    zero = ScalarField(g, np.zeros(g.shape))
    assert check(u, None).to_text() == check(u, zero).to_text()


def test_missing_forcing_on_an_empty_cube_is_refused():
    g = unit_grid()
    u = sample(lambda x, y, t: 1.0 + 0 * x, g)
    after_the_grid = ParabolicCube("Q_rho", Point.at_s(0.5, [0.0], 3.0), 0.4)
    for forcing in (None, ScalarField(g, np.zeros(g.shape))):
        with pytest.raises(ValueError, match="^cube contains no grid nodes$"):
            _forcing(forcing, g, after_the_grid, 0.5, 0.5, 0.4)
        with pytest.raises(ValueError, match="^cube contains no grid nodes$"):
            harnack_quotient(u, forcing, 0.5, [0.0], 3.0, 0.4, 0.5)
        with pytest.raises(ValueError, match="^cube contains no grid nodes$"):
            oscillation_decay(u, (0.5, [0.0], 3.0), 0.4, 2, forcing, 0.5)


def full_mask_box(cube, grid, label="cube"):
    """cube_box's (box, inside) as the whole grid and the full mask of cube_nodes."""
    return (slice(None),) * len(grid.shape), cube_nodes(cube, grid, label)


@pytest.mark.parametrize("s0, rho", [(0.5, 0.4), (0.05, 0.8), (0.95, 0.8), (0.5, 1.2)])
def test_box_reads_give_the_reports_of_full_mask_reads(monkeypatch, s0, rho):
    # the cubes at s0 = 0.05 and 0.95 cross an s-edge; at rho = 1.2 the
    # largest crosses every edge of the grid
    g = Grid.uniform((0, 1, 21), [(-1, 1, 19)], (-1, 1, 41))
    u = sample(lambda x, y, t: 2.0 + x + np.sin(3 * y) ** 2 + t * x * y * y, g)

    def reports():
        return [harnack_quotient(u, None, s0, [0.1], 1.0, rho, 0.5).to_text(),
                oscillation_decay(u, (s0, [0.1], 1.0), rho, 2, None, 0.5).to_text()]

    read = reports()
    monkeypatch.setattr(estimates, "cube_box", full_mask_box)
    monkeypatch.setattr(fields, "cube_box", full_mask_box)
    assert read == reports()


def test_gradient_bound_examples():
    g = Grid.uniform((0, 1, 33), [(-1, 1, 33)], (0, 1, 17))
    base = Point(0.0, [0.0], 0.81)
    const = sample(lambda x, y, t: 2.0 + 0 * x, g)
    rep = gradient_bound_check(const, 1.0, 2.0, 0.9, 0.5, base)
    assert rep.lhs <= 1e-12 and rep.passed
    lin = sample(lambda x, y, t: x + 1.0 * t, g)
    rep = gradient_bound_check(lin, 1.0, 2.0, 0.9, 0.5, base)
    assert rep.rhs_components["max_fx"] == pytest.approx(1.0, abs=1e-10)
    bad = sample(lambda x, y, t: 10.0 + 0 * x, g)
    with pytest.raises(ValueError):
        gradient_bound_check(bad, 1.0, 2.0, 0.9, 0.5, base)


def test_bernstein_quantities():
    g = Grid.uniform((0, 1, 33), [(-1, 1, 33)], (0, 1, 17))
    v = 1.0
    const = sample(lambda x, y, t: 3.0 + 0 * x, g)
    rep = bernstein_quantity_check(const, v, 8.0)
    assert rep.passed
    lin = sample(lambda x, y, t: x + v * t, g)
    rep = bernstein_quantity_check(lin, v, 8.0)
    assert rep.passed
    not_solution = sample(lambda x, y, t: x * x + 0 * y, g)
    with pytest.raises(ValueError):
        bernstein_quantity_check(not_solution, v, 8.0)
    with pytest.raises(ValueError):
        bernstein_quantity_check(lin, v, 4.0)


def test_bernstein_gate_accepts_the_exact_caloric_quadratic():
    # L_h blends in a forward difference below s-index 5, where it misses
    # x^2 by O(h) (max |L0 f| = 3.7e-3 there); past it L_h is exact
    g = Grid.uniform((0, 1, 33), [(-1, 1, 33)], (0, 1, 33))
    (quadratic,) = [ms for ms in manufactured_solutions(1.0) if ms.name == "caloric_quadratic"]
    rep = bernstein_quantity_check(sample(quadratic.f, g), 1.0, 8.0)
    assert rep.rhs_components["L0_residual"] <= 1e-10


def test_bernstein_gate_needs_nodes_past_the_blend_zone():
    g = Grid.uniform((0, 1, 7), [(-1, 1, 9)], (0, 1, 9))
    with pytest.raises(ValueError, match="no interior node from s-index 5 on"):
        bernstein_quantity_check(sample(lambda x, y, t: 3.0 + 0 * x, g), 1.0, 8.0)


@pytest.mark.parametrize("name, value", [("B", 0.0), ("B", -2.0), ("B", np.nan), ("B", np.inf),
                                         ("v", 0.0), ("v", -1.0), ("v", np.nan), ("v", np.inf)])
def test_gradient_bound_refuses_a_bound_or_velocity_not_finite_and_positive(name, value):
    # B = 0 divided by zero, B = nan gave a NaN report, B = inf passed
    # vacuously; v is only printed, and nan or -1 passed
    g = Grid.uniform((0, 1, 33), [(-1, 1, 33)], (0, 1, 17))
    const = sample(lambda x, y, t: 2.0 + 0 * x, g)
    args = {"v": 1.0, "B": 2.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        gradient_bound_check(const, args["v"], args["B"], 0.9, 0.5, Point(0.0, [0.0], 0.81))


@pytest.mark.parametrize("A", [np.nan, np.inf])
def test_bernstein_refuses_a_non_finite_A_by_name(A):
    # a non-finite A used to reach the field and be refused as a non-finite node value
    g = Grid.uniform((0, 1, 33), [(-1, 1, 33)], (0, 1, 17))
    with pytest.raises(ValueError, match="A must be finite and >= 8"):
        bernstein_quantity_check(sample(lambda x, y, t: 3.0 + 0 * x, g), 1.0, A)


@pytest.mark.parametrize("tol", [0.0, -1e-6, np.nan, np.inf])
def test_bernstein_refuses_a_tolerance_not_finite_and_positive(tol):
    # tol = nan gave a NaN report; tol <= 0 was refused as "not a model-equation solution"
    g = Grid.uniform((0, 1, 33), [(-1, 1, 33)], (0, 1, 17))
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        bernstein_quantity_check(sample(lambda x, y, t: 3.0 + 0 * x, g), 1.0, 8.0, tol)


def poly_grid():
    return Grid.uniform((0, 0.9, 33), [(-0.9, 0.9, 33)], (0.2, 1.0, 33))


def test_poly_approx_taylor_class_exact():
    g = poly_grid()
    f = sample(lambda x, y, t: 2.0 + 3.0 * x + 1.5 * y + 0.5 * y * y
               - 2.0 * (t - 1.0), g)
    rep = poly_approx_check(f, apply_L0(1.0, f), 0.8, [0.8, 0.4, 0.2, 0.1])
    for r in (0.8, 0.4, 0.2, 0.1):
        assert rep.rhs_components[f"err_r={r:g}"] <= 1e-8


def test_poly_approx_caloric_remainder():
    g = poly_grid()
    v = 1.0
    f = sample(lambda x, y, t: x * x + 2 * (1 + v) * x * t + v * (1 + v) * t * t
               + 0 * y, g)
    rep = poly_approx_check(f, apply_L0(v, f), 0.8, [0.8, 0.4, 0.2, 0.1])
    prev = math.inf
    for r in (0.8, 0.4, 0.2, 0.1):
        err = rep.rhs_components[f"err_r={r:g}"]
        assert err <= 7.0 * r ** 4 + 1e-8
        assert err / r ** 3 < prev
        prev = err / r ** 3


def test_schauder_ratio_constant():
    g = unit_grid(33)
    u = sample(lambda x, y, t: 1.0 + 0 * x, g)
    rep = schauder_ratio(u, model_coefficients(1.0, 2), 0.5, 0.5, Point(0.0, [0.0], 0.9))
    assert rep.measured_constant == pytest.approx(1.0)


def test_schauder_ratio_needs_a_base():
    # a default base at t = 1 would put the inner box on the last slice of this grid
    u = sample(lambda x, y, t: x + t, unit_grid())
    with pytest.raises(TypeError):
        schauder_ratio(u, model_coefficients(1.0, 2), 0.5, 0.5)


def test_schauder_ratio_names_a_non_finite_coefficient_before_applying_the_operator(
        monkeypatch):
    g = unit_grid(17)
    u = sample(lambda x, y, t: x + t, g)
    coeffs = model_coefficients(1.0, 2)

    def a11(x, y, t):
        out = np.ones(np.broadcast(x, y, t).shape)
        out[3, 3, 10] = np.nan
        return out

    coeffs.a[0][0] = a11
    applied = []
    monkeypatch.setattr(estimates, "apply_parabolic", lambda *args: applied.append(args))
    with pytest.raises(ValueError, match=re.escape(
            "coefficient a11 is non-finite at node index (3, 3, 10)")):
        schauder_ratio(u, coeffs, 0.5, 0.5, Point(0.0, [0.0], 0.9))
    assert applied == []


def test_schauder_ratio_on_random_coefficients_is_stable_under_refinement():
    coeffs = random_coefficients(3, 2)
    constants, norms = [], []
    for nodes in (33, 65):
        u = sample(lambda x, y, t: x + t, unit_grid(nodes))
        rep = schauder_ratio(u, coeffs, 0.5, 0.5, Point(0.0, [0.0], 0.9))
        constants.append(rep.measured_constant)
        norms.append(rep.rhs_components["coefficient_norm"])
    assert constants == pytest.approx([1.17488, 1.17479], abs=5e-6)
    assert norms == pytest.approx([1.756, 1.746], abs=5e-4)
    assert abs(constants[1] - constants[0]) / constants[0] < 0.01


def test_holder_bound_check_refuses_a_bool_alpha():
    u = sample(lambda x, y, t: np.sqrt(x) + 0 * y, unit_grid(21))
    with pytest.raises(ValueError, match="got True"):
        holder_bound_check(u, None, (0.5, [0.0], 1.0), 0.3, 0.6, 0.5, True)


def _constant(grid, value):
    return sample(lambda x, y, t: value + 0 * x, grid)


# each check's provenance line on a field the tests above build
PROVENANCE = {
    "abp": (lambda: abp_check(
        _constant(unit_grid(), -1.0), None,
        ParabolicCube("Q_rho", Point.at_s(0.5, [0.0], 1.0), 0.4), 0.5),
        "grid 17x17x17; Q_rho(r=0.4, base s=0.5 y=(0) t=1, backward); nu=0.5"),
    "harnack": (lambda: harnack_quotient(
        _constant(unit_grid(33), 7.0), None, 0.5, [0.0], 1.0, 0.4, 0.5),
        "grid 33x33x33; s0=0.5 t0=1 rho=0.4 nu=0.5"),
    "growth_lemma": (lambda: growth_lemma_check(
        _constant(Grid.uniform((0, 2.5, 41), [(-4, 4, 41)], (0, 10, 41)), 0.5),
        None, (0.5, [0.0], 0.0), 0.5, 64.0, 0.5),
        "grid 41x41x41; rho=0.5 K=64 nu=0.5"),
    "oscillation": (lambda: oscillation_decay(
        _constant(unit_grid(33), 2.0), (0.5, [0.0], 1.0), 0.4, 2, None, 0.5),
        "grid 33x33x33; rho=0.4 levels=2 nu=0.5"),
    "holder_bound": (lambda: holder_bound_check(
        _constant(unit_grid(33), 1.0), None, (0.5, [0.0], 1.0), 0.3, 0.6, 0.5, 0.5),
        "grid 33x33x33; r=0.3 rho=0.6 alpha=0.5 nu=0.5"),
    "gradient_bound": (lambda: gradient_bound_check(
        _constant(Grid.uniform((0, 1, 33), [(-1, 1, 33)], (0, 1, 17)), 2.0),
        1.0, 2.0, 0.9, 0.5, Point(0.0, [0.0], 0.81)),
        "grid 33x33x17; B=2 r=0.9 gamma=0.5 v=1"),
    "bernstein": (lambda: bernstein_quantity_check(
        _constant(Grid.uniform((0, 1, 33), [(-1, 1, 33)], (0, 1, 17)), 3.0), 1.0, 8.0),
        "grid 33x33x17; A=8 v=1 tol=1e-06"),
    "poly_approx": (lambda: poly_approx_check(
        _constant(poly_grid(), 2.0), apply_L0(1.0, _constant(poly_grid(), 2.0)),
        0.8, [0.8, 0.4, 0.2, 0.1]),
        "grid 33x33x33; s=0.8 radii=0.8,0.4,0.2,0.1"),
    "schauder": (lambda: schauder_ratio(
        _constant(unit_grid(33), 1.0), model_coefficients(1.0, 2), 0.5, 0.5,
        Point(0.0, [0.0], 0.9)),
        "grid 33x33x33; r=0.5 alpha=0.5"),
}


@pytest.mark.parametrize("name", list(PROVENANCE))
def test_report_provenance_is_pinned(name):
    check, expected = PROVENANCE[name]
    assert check().to_text().splitlines()[-1] == f"provenance = {expected}"


def test_write_series(tmp_path):
    path = tmp_path / "series.dat"
    write_series(path, [1.0, 2.0], [3.0, 4.5])
    lines = path.read_text().splitlines()
    assert lines == ["1 3", "2 4.5"]


def test_report_serialization():
    g = unit_grid(17)
    u = sample(lambda x, y, t: 1.0 + 0 * x, g)
    rep = harnack_quotient(u, None, 0.5, [0.0], 1.0, 0.4, 0.5)
    text = rep.to_text()
    assert "result = PASS" in text
    assert "measured_constant = 1" in text
    record = rep.to_record()
    assert record.startswith("name=harnack_quotient")
    assert "\t" in record
