import re
import tracemalloc

import numpy as np
import pytest

from degenpde import estimates, fields
from degenpde.fields import (
    Grid,
    ScalarField,
    c0_norm,
    cs_norm_2_alpha,
    fd_derivatives,
    holder_seminorm,
    lp_norm_weighted,
    osc,
    sample,
)
from degenpde.geometry import ParabolicCube, Point, WeightedMeasure, cube_nodes
from degenpde.operators import apply_L, model_coefficients, random_coefficients


def unit_grid(nodes=17):
    return Grid.uniform((0, 1, nodes), [(-1, 1, nodes)], (0, 1, nodes))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", ["s", "y2", "t"])
def test_grid_refuses_a_non_finite_axis_by_name(axis, bad):
    axes = {"s": [0.0, 0.5, 1.0], "y2": [-1.0, 0.0, 1.0], "t": [0.0, 0.5, 1.0]}
    axes[axis][-1] = bad
    with pytest.raises(ValueError, match=f"axis {axis} must be finite"):
        Grid(axes["s"], (axes["y2"],), axes["t"])


def test_sample_examples():
    g = unit_grid()
    assert np.all(sample(lambda x, y, t: 1.0 + 0 * x, g).values == 1.0)
    f = sample(lambda x, y, t: x + 2.0 * t, g)
    s = g.s.reshape(-1, 1, 1)
    t = g.t.reshape(1, 1, -1)
    assert np.max(np.abs(f.values - (s * s + 2.0 * t))) == 0.0
    r = sample(lambda x, y, t: np.sqrt(x) + 0 * y + 0 * t, g)
    assert np.max(np.abs(r.values - np.broadcast_to(s, g.shape))) == 0.0


def test_sample_rejects_non_finite():
    g = unit_grid(5)
    with np.errstate(divide="ignore"), pytest.raises(ValueError):
        sample(lambda x, y, t: 1.0 / (x * 0.0) + 0 * y + 0 * t, g)


def test_scalar_field_names_a_non_finite_node_by_plain_ints():
    g = unit_grid(17)
    vals = np.zeros(g.shape)
    vals[3, 3, 10] = np.nan
    with pytest.raises(ValueError, match=re.escape("non-finite value at node index (3, 3, 10)")):
        ScalarField(g, vals)


def test_complex_values_are_refused_not_cast_to_their_real_part():
    g = Grid.uniform((0, 1, 5), [(-1, 1, 5)], (0, 1, 3))
    with pytest.raises(ValueError, match=re.escape(
            "sampled function is complex; only real values are accepted")):
        sample(lambda x, y, t: x + 1j * y + 0 * t, g)
    with pytest.raises(ValueError, match=re.escape(
            "field is complex; only real values are accepted")):
        ScalarField(g, np.full(g.shape, 1 + 1j))


def test_fd_exact_on_quadratics():
    g = unit_grid(21)
    d = fd_derivatives(sample(lambda x, y, t: x + 0 * y, g))
    s = g.s.reshape(-1, 1, 1)
    assert np.max(np.abs(d.u_s - np.broadcast_to(2 * s, g.shape))) <= 1e-12
    d = fd_derivatives(sample(lambda x, y, t: y * y + 0 * x, g))
    assert np.max(np.abs(d.u_yy[0][0] - 2.0)) <= 1e-12


def test_fd_second_order_in_s():
    def quartic_err(nodes):
        g = unit_grid(nodes)
        d = fd_derivatives(sample(lambda x, y, t: x * x + 0 * y, g))
        s = np.broadcast_to(g.s.reshape(-1, 1, 1), g.shape)
        return np.max(np.abs(d.u_ss[1:-1] - 12.0 * s[1:-1] ** 2))

    ratio = quartic_err(17) / quartic_err(33)
    assert 3.0 <= ratio <= 5.0


def loop_x_stencils(xv):
    """Reference for fields.x_stencils: the quadratic through each node's triple."""
    idx, d1, d2 = np.zeros((xv.size, 3), dtype=int), np.zeros((xv.size, 3)), np.zeros((xv.size, 3))
    for i in range(xv.size):
        k = min(max(i - 1, 0), xv.size - 3)
        p, q, r = xv[k], xv[k + 1], xv[k + 2]
        e = xv[i]
        d1[i] = [(2 * e - q - r) / ((p - q) * (p - r)), (2 * e - p - r) / ((q - p) * (q - r)),
                 (2 * e - p - q) / ((r - p) * (r - q))]
        d2[i] = [2.0 / ((p - q) * (p - r)), 2.0 / ((q - p) * (q - r)),
                 2.0 / ((r - p) * (r - q))]
        idx[i] = [k, k + 1, k + 2]
    return idx, d1, d2


@pytest.mark.parametrize("nodes", [3, 9, 33, 201])
@pytest.mark.parametrize("s_lo", [0.0, 0.3])
def test_x_stencils_equal_the_per_node_loop(nodes, s_lo):
    xv = np.linspace(s_lo, 1.0, nodes) ** 2
    for got, want in zip(fields.x_stencils(xv), loop_x_stencils(xv)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("axis", ["s", "y2", "t"])
@pytest.mark.parametrize("count", [4.7, 5.0, "5", None])
def test_uniform_grid_refuses_a_node_count_that_is_not_an_integer(axis, count):
    # before the refusal a count of 4.7 built 4 nodes without a word
    triples = {name: (0, 1, 5) for name in ("s", "y2", "t")}
    triples[axis] = (0, 1, count)
    with pytest.raises(ValueError, match=re.escape(
            f"axis {axis} needs an integer node count, got {count!r}")):
        Grid.uniform(triples["s"], [triples["y2"]], triples["t"])


def test_x_derivatives_exact_for_quadratics_in_x_at_every_node():
    g = unit_grid(9)
    x, y, t = g.x_meshes()
    d = fd_derivatives(sample(lambda x, y, t: x * x + x * t + y, g))
    assert np.max(np.abs(d.u_x() - (2 * x + t))) <= 1e-12
    assert np.max(np.abs(d.u_xx() - 2.0)) <= 1e-12
    assert np.max(np.abs(d.x_times_u_xx() - 2 * x)) <= 1e-12
    assert np.all(d.x_times_u_xx()[0] == 0.0)
    ux = fd_derivatives(sample(lambda x, y, t: x + 0 * y, g)).u_x()
    assert np.max(np.abs(ux - 1.0)) <= 1e-10


def _d1_along_axis(v, h, axis):
    """Reference first difference: the axis moved first, one slice expression per part."""
    v = np.moveaxis(v, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
    out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return np.moveaxis(out, 0, axis)


def _d2_along_axis(v, h, axis):
    """Reference second difference, laid out like `_d1_along_axis`."""
    v = np.moveaxis(v, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / (h * h)
    if v.shape[0] >= 4:
        out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / (h * h)
        out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / (h * h)
    else:
        out[0] = out[1]
        out[-1] = out[-2]
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("shape", [(3,), (4,), (5, 3), (3, 4, 5), (7, 3, 4, 5)])
def test_flat_pass_differences_equal_the_per_axis_ones_bitwise(shape):
    rng = np.random.default_rng(len(shape))
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape)
    for data in (v, np.moveaxis(v, 0, -1)):  # C-ordered, then not
        for axis in range(-data.ndim, data.ndim):
            for h in (0.1, 1 / 48, 0.5):
                assert np.array_equal(fields._d1(data, h, axis), _d1_along_axis(data, h, axis))
                assert np.array_equal(fields._d2(data, h, axis), _d2_along_axis(data, h, axis))


def _derivative_arrays(d):
    """Every array a FieldDerivatives offers, by name."""
    out = {"u_s": d.u_s, "u_ss": d.u_ss, "u_t": d.u_t, "u_x": d.u_x(), "u_xx": d.u_xx(),
           "x_times_u_xx": d.x_times_u_xx()}
    for i in range(len(d.u_y)):
        out[f"u_y{i}"], out[f"u_sy{i}"] = d.u_y[i], d.u_sy[i]
        for j in range(len(d.u_y)):
            out[f"u_yy{i}{j}"] = d.u_yy[i][j]
    return out


@pytest.mark.parametrize("s_axis", [(0, 1, 11), (0.3, 1.3, 11), (0, 1, 5), (0, 1, 4),
                                    (0.1, 0.7, 3)])
@pytest.mark.parametrize("n", [2, 3])
def test_derivatives_on_rows_are_the_whole_grids_bitwise(s_axis, n):
    # 0.1 steps: the s-differences vary in the last bit along the axis, so a
    # block that took its spacing from its own rows would differ there
    grid = Grid.uniform(s_axis, [(-1, 1, 6)] * (n - 1), (0, 1, 5))
    u = ScalarField(grid, np.random.default_rng(n).standard_normal(grid.shape))
    whole = _derivative_arrays(fd_derivatives(u))
    ns = len(grid.s)
    for lo in range(ns):
        for hi in range(lo + 1, min(lo + 4, ns) + 1):
            part = _derivative_arrays(fd_derivatives(u, slice(lo, hi)))
            for name, arr in whole.items():
                assert np.array_equal(part[name], arr[lo:hi]), (name, lo, hi)


def test_derivatives_refuse_rows_that_are_not_a_run():
    u = sample(lambda x, y, t: x + y, unit_grid(9))
    for rows in (slice(3, 3), slice(0, 9, 2), slice(5, 2)):
        with pytest.raises(ValueError, match="rows must be a nonempty run of s-indices"):
            fd_derivatives(u, rows)


def test_osc_examples():
    g = unit_grid(33)
    cube = ParabolicCube("Q_rho", Point.at_s(0.5, [0.0], 1.0), 0.5)
    half = ParabolicCube("Q_rho", Point.at_s(0.5, [0.0], 1.0), 0.25)
    const = sample(lambda x, y, t: 3.0 + 0 * x, g)
    assert osc(const, cube) == 0.0
    lin = sample(lambda x, y, t: y + 0 * x, g)
    assert osc(lin, cube) == pytest.approx(1.0)
    assert osc(lin, half) / osc(lin, cube) == pytest.approx(0.5)
    assert osc(lin, half) <= osc(lin, cube)


def test_lp_norm_weighted_examples():
    mu = WeightedMeasure(0.5)
    g = unit_grid(65)
    cube = ParabolicCube("Q_rho", Point.at_s(0.5, [0.0], 1.0), 0.4)
    zero = sample(lambda x, y, t: 0.0 * x, g)
    assert lp_norm_weighted(zero, 3, cube, mu) == 0.0
    one = sample(lambda x, y, t: 1.0 + 0 * x, g)
    f = sample(lambda x, y, t: 2.5 + 0 * x, g)
    base = lp_norm_weighted(one, 3, cube, mu)
    assert lp_norm_weighted(f, 3, cube, mu) == pytest.approx(2.5 * base)


def test_lp_norm_weighted_analytic_oracle():
    # integral of s * s^(nu-1) over s in [0, 1] is 2/3 at nu = 0.5
    grid = Grid.uniform((0, 1, 257), [(-0.02, 0.02, 3)], (0.96, 1.0, 3))
    mu = WeightedMeasure(0.5)
    cube = ParabolicCube("Q_rho", Point.at_s(0.5, [0.0], 1.0), 0.5)
    f = sample(lambda x, y, t: np.sqrt(x) + 0 * y, grid)
    val = lp_norm_weighted(f, 1, cube, mu)
    y_len = grid.y[0][-1] - grid.y[0][0]
    t_len = grid.t[-1] - grid.t[0]
    assert val / (y_len * t_len) == pytest.approx(2.0 / 3.0, abs=1e-4)


def test_holder_seminorm_examples():
    g = unit_grid(21)
    cube = ParabolicCube("Q_rho", Point.at_s(0.5, [0.0], 1.0), 0.5)
    const = sample(lambda x, y, t: 2.0 + 0 * x, g)
    assert holder_seminorm(const, 0.5, cube) == 0.0
    root = sample(lambda x, y, t: np.sqrt(x) + 0 * y, g)
    val = root_val = holder_seminorm(root, 1.0, cube)
    assert 0.5 <= root_val <= 2.0
    lin = sample(lambda x, y, t: y + 0 * x, g)
    assert holder_seminorm(lin, 1.0, cube) == pytest.approx(1.0, rel=0.05)
    # subadditivity
    both = ScalarField(g, root.values + lin.values)
    assert holder_seminorm(both, 1.0, cube) <= val + 1.0 + 1e-9


@pytest.mark.parametrize("alpha", [True, False])
def test_hoelder_norms_refuse_a_bool_alpha(alpha):
    f, region = holder_case(2, 17)
    with pytest.raises(ValueError, match=f"got {alpha}"):
        holder_seminorm(f, alpha, region)
    with pytest.raises(ValueError, match=f"got {alpha}"):
        cs_norm_2_alpha(f, alpha, region)


def test_cs_norm_examples():
    g = unit_grid(33)
    region = ParabolicCube("B_eta", Point(0.0, [0.0], 0.9), 0.5)
    const = sample(lambda x, y, t: 4.0 + 0 * x, g)
    assert cs_norm_2_alpha(const, 0.5, region) == pytest.approx(4.0)
    lin = sample(lambda x, y, t: x + 1.0 * t, g)
    v33 = cs_norm_2_alpha(lin, 0.5, region)
    g2 = unit_grid(65)
    v65 = cs_norm_2_alpha(sample(lambda x, y, t: x + 1.0 * t, g2), 0.5, region)
    assert abs(v65 - v33) / v33 <= 0.05


def reference_pairs(coords):
    """The reference's node pairs at positive distance and their distances."""
    npts = coords[0].size
    if npts <= fields._HOLDER_ALL_PAIRS_LIMIT:
        ii, jj = np.triu_indices(npts, k=1)
    else:
        rng = np.random.default_rng(0)
        ii = rng.integers(0, npts, fields._HOLDER_SAMPLED_PAIRS)
        jj = rng.integers(0, npts, fields._HOLDER_SAMPLED_PAIRS)
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]
    s, t = coords[0], coords[-1]
    dist = np.abs(s[ii] - s[jj])
    dy2 = np.zeros_like(dist)
    for yk in coords[1:-1]:
        dy2 += (yk[ii] - yk[jj]) ** 2
    dist = dist + np.sqrt(dy2) + np.sqrt(np.abs(t[ii] - t[jj]))
    pos = dist > 0
    return ii[pos], jj[pos], dist[pos]


def reference_ratio_max(pairs, vals, alpha):
    ii, jj, dist = pairs
    if dist.size == 0:
        return 0.0
    return float(np.max(np.abs(vals[ii] - vals[jj]) / dist ** alpha))


def reference_pair_ratio_max(coords, vals, alpha):
    """The per-field Hoelder search: draws its own pairs for every field."""
    return reference_ratio_max(reference_pairs(coords), vals, alpha)


def _reference_region(field, region):
    mask = cube_nodes(region, field.grid, "region")
    idx = np.argwhere(mask)
    return mask, [ax[idx[:, k]] for k, ax in enumerate(field.grid.axes)]


def reference_holder_seminorm(field, alpha, region):
    mask, coords = _reference_region(field, region)
    return reference_pair_ratio_max(coords, field.values[mask], alpha)


def reference_cs_norm(field, alpha, region):
    mask, coords = _reference_region(field, region)
    d = fd_derivatives(field)
    m = len(field.grid.y)
    pieces = [d.u_t, d.x_times_u_xx(), d.u_x(), *d.u_y]
    pieces += [d.u_yy[i][j] for i in range(m) for j in range(i, m)]
    total = float(np.max(np.abs(field.values[mask])))
    for arr in pieces:
        vals = arr[mask]
        total += float(np.max(np.abs(vals)))
        total += reference_pair_ratio_max(coords, vals, alpha)
    return total


def trig_field(grid, seed):
    """A smooth random sum of cosines in (x, y..., t); no two pieces coincide."""
    rng = np.random.default_rng(seed)
    waves = [(rng.uniform(-3, 3, grid.n + 1), rng.uniform(0, 2 * np.pi), rng.uniform(0.5, 1))
             for _ in range(4)]

    def f(x, *coords):
        return sum(c * np.cos(w[0] * x + sum(wi * ci for wi, ci in zip(w[1:], coords)) + ph)
                   for w, ph, c in waves)

    return sample(f, grid)


# (n, nodes per axis, nodes in the B_eta box of radius 0.5 at t0 = 0.9)
HOLDER_REGIONS = [(2, 33, 2312), (2, 17, 324), (3, 17, 2916), (3, 13, 1029)]


def holder_case(n, nodes):
    g = Grid.uniform((0, 1, nodes), [(-1, 1, nodes)] * (n - 1), (0, 1, nodes))
    region = ParabolicCube("B_eta", Point(0.0, [0.0] * (n - 1), 0.9), 0.5)
    return trig_field(g, 10 * n + nodes), region


@pytest.mark.parametrize("n, nodes, count", HOLDER_REGIONS,
                         ids=["n2_sampled", "n2_all_pairs", "n3_sampled", "n3_all_pairs"])
def test_hoelder_values_equal_the_per_field_search_bitwise(n, nodes, count):
    f, region = holder_case(n, nodes)
    assert np.count_nonzero(cube_nodes(region, f.grid)) == count
    assert holder_seminorm(f, 0.5, region) == reference_holder_seminorm(f, 0.5, region)
    assert holder_seminorm(f, 1.0, region) == reference_holder_seminorm(f, 1.0, region)
    assert cs_norm_2_alpha(f, 0.3, region) == reference_cs_norm(f, 0.3, region)


def test_schauder_report_equals_the_per_field_search():
    f, inner = holder_case(2, 33)
    unit = ParabolicCube("B_eta", inner.base, 1.0)

    def norm(values):
        field = ScalarField(f.grid, np.broadcast_to(values, f.grid.shape))
        return c0_norm(field, unit) + reference_holder_seminorm(field, 0.5, unit)

    for coeffs in (model_coefficients(1.0, 2), random_coefficients(3, 2)):
        rep = estimates.schauder_ratio(f, coeffs, 0.5, 0.5, inner.base)
        assert rep.lhs == reference_cs_norm(f, 0.5, inner)
        assert rep.rhs_components["sup_unit"] == c0_norm(f, unit)
        data = fd_derivatives(f).u_t - apply_L(coeffs, f).values
        assert rep.rhs_components["data_norm"] == norm(data)
        entries = [coeffs.a[0][0], coeffs.a[0][1], coeffs.a[1][1], *coeffs.b]
        assert rep.rhs_components["coefficient_norm"] == max(
            norm(e(*f.grid.x_meshes())) for e in entries)


def test_schauder_builds_one_pair_set_per_box(monkeypatch):
    f, inner = holder_case(2, 17)
    unit = ParabolicCube("B_eta", inner.base, 1.0)
    sizes = []

    def spy(grid, mask, alpha, rows):
        sizes.append(np.count_nonzero(mask))
        return original(grid, mask, alpha, rows)

    original = fields._ratio_maxes
    monkeypatch.setattr(fields, "_ratio_maxes", spy)
    monkeypatch.setattr(estimates, "_ratio_maxes", spy)
    estimates.schauder_ratio(f, random_coefficients(3, 2), 0.5, 0.5, inner.base)
    assert sizes == [np.count_nonzero(cube_nodes(box, f.grid)) for box in (inner, unit)]


@pytest.mark.parametrize("n, nodes, count", HOLDER_REGIONS,
                         ids=["n2_sampled", "n2_all_pairs", "n3_sampled", "n3_all_pairs"])
def test_cs_norm_builds_one_pair_set_per_region(monkeypatch, n, nodes, count):
    f, region = holder_case(n, nodes)
    calls = []
    original = fields._pair_blocks

    def spy(npts):
        calls.append(npts)
        return original(npts)

    monkeypatch.setattr(fields, "_pair_blocks", spy)
    cs_norm_2_alpha(f, 0.5, region)
    assert calls == [count]
    cs_norm_2_alpha(f, 0.5, region)
    assert calls == [count, count]


def first_nodes_region(n, count):
    """A grid and the mask of its first `count` nodes in index order."""
    g = Grid.uniform((0, 1, 15), [(-1, 1, 15)] * (n - 1), (0, 1, 15))
    mask = np.zeros(g.shape, dtype=bool)
    mask.flat[:count] = True
    return g, mask


# case -> (region nodes, the kernel's block size as a function of the pairs drawn)
KERNEL_CASES = {
    "one_node": (1, lambda pairs: fields._HOLDER_BLOCK),
    "below_one_block": (120, lambda pairs: fields._HOLDER_BLOCK),
    "exactly_one_block": (120, lambda pairs: pairs),
    "not_a_multiple": (120, lambda pairs: 1000),
    "all_pairs_at_the_limit": (fields._HOLDER_ALL_PAIRS_LIMIT, lambda pairs: fields._HOLDER_BLOCK),
    "sampled_above_the_limit": (fields._HOLDER_ALL_PAIRS_LIMIT + 1,
                                lambda pairs: fields._HOLDER_BLOCK),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_equals_the_reference_pair_search_bitwise(monkeypatch, n, case):
    count, block = KERNEL_CASES[case]
    g, mask = first_nodes_region(n, count)
    idx = np.argwhere(mask)
    coords = [ax[idx[:, k]] for k, ax in enumerate(g.axes)]
    if count <= fields._HOLDER_ALL_PAIRS_LIMIT:
        drawn, self_pairs = count * (count - 1) // 2, 0
    else:
        rng = np.random.default_rng(0)
        ii = rng.integers(0, count, fields._HOLDER_SAMPLED_PAIRS)
        jj = rng.integers(0, count, fields._HOLDER_SAMPLED_PAIRS)
        drawn, self_pairs = ii.size, np.count_nonzero(ii == jj)
        assert self_pairs > 0
    monkeypatch.setattr(fields, "_HOLDER_BLOCK", block(drawn))
    if case == "below_one_block":
        assert drawn < fields._HOLDER_BLOCK
    if case == "exactly_one_block":
        assert drawn == fields._HOLDER_BLOCK
    if case == "not_a_multiple":
        assert drawn > fields._HOLDER_BLOCK and drawn % fields._HOLDER_BLOCK != 0
    # the reference's distances are drawn once per region and serve every row and alpha
    pairs = reference_pairs(coords)
    assert pairs[2].size == drawn - self_pairs
    rng = np.random.default_rng(count)
    rows = np.vstack([rng.standard_normal((3, count)), np.full((1, count), 2.5)])
    for alpha in (0.3, 0.5, 1.0):
        got = fields._ratio_maxes(g, mask, alpha, rows)
        want = [reference_ratio_max(pairs, row, alpha) for row in rows]
        assert got.tolist() == want
        assert got[-1] == 0.0


def test_each_region_takes_one_kernel_pass_over_its_varying_fields(monkeypatch):
    f, inner = holder_case(2, 17)
    unit = ParabolicCube("B_eta", inner.base, 1.0)
    passes = []

    def spy(grid, mask, alpha, rows):
        passes.append(rows.copy())
        return original(grid, mask, alpha, rows)

    original = fields._ratio_maxes
    monkeypatch.setattr(fields, "_ratio_maxes", spy)
    monkeypatch.setattr(estimates, "_ratio_maxes", spy)
    n_inner, n_unit = (np.count_nonzero(cube_nodes(box, f.grid)) for box in (inner, unit))
    cs_norm_2_alpha(f, 0.5, inner)
    assert [rows.shape for rows in passes] == [(5, n_inner)]
    # the model coefficients are constant: only the data term is walked;
    # of the random ones a12 = 0 is constant and a11, a22, b1, b2 are not
    for coeffs, walked in ((model_coefficients(1.0, 2), 1), (random_coefficients(3, 2), 5)):
        passes.clear()
        estimates.schauder_ratio(f, coeffs, 0.5, 0.5, inner.base)
        assert [rows.shape for rows in passes] == [(5, n_inner), (walked, n_unit)]
        assert np.all(np.ptp(passes[1], axis=1) > 0)


def test_sampled_hoelder_walk_holds_no_per_pair_array_beyond_the_drawn_indices():
    # the 33^3 unit box draws 10^6 pairs; their two int64 index arrays take
    # 16 B a pair, and a per-pair weight array with filtered index copies
    # took 24 B more
    g = Grid.uniform((0, 1, 33), [(-1, 1, 33)], (0, 1, 33))
    f = trig_field(g, 33)
    region = ParabolicCube("B_eta", Point(0.0, [0.0], 0.9), 1.0)
    assert np.count_nonzero(cube_nodes(region, g)) == 31581
    tracemalloc.start()
    try:
        holder_seminorm(f, 0.5, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * fields._HOLDER_SAMPLED_PAIRS


@pytest.mark.parametrize("shape, radius, count", [((33, 33, 33), 1.0, 31581),
                                                   ((39, 20, 39), 0.5, 2000)],
                         ids=["sampled", "all_pairs_at_the_limit"])
def test_hoelder_walk_working_set_does_not_grow_with_the_pair_count(shape, radius, count):
    # the 10^6 sampled pairs and the 1,999,000 pairs of 2000 nodes; their
    # index arrays alone take 16 and 32 MB, a block of pairs 256 KB
    ns, ny, nt = shape
    g = Grid.uniform((0, 1, ns), [(-1, 1, ny)], (0, 1, nt))
    f = trig_field(g, ns)
    region = ParabolicCube("B_eta", Point(0.0, [0.0], 0.9), radius)
    assert np.count_nonzero(cube_nodes(region, g)) == count
    tracemalloc.start()
    try:
        holder_seminorm(f, 0.5, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def joined_pair_blocks(npts):
    """_pair_blocks(npts) joined into two index arrays; each block's size is checked."""
    blocks = list(fields._pair_blocks(npts))
    assert all(i.size == j.size <= fields._HOLDER_BLOCK for i, j in blocks)
    return [np.concatenate([b[k] for b in blocks] or [np.zeros(0, int)]) for k in (0, 1)]


@pytest.mark.parametrize("block", [7, 1000, 1 << 14])
def test_all_pairs_blocks_are_the_upper_triangle_in_order(monkeypatch, block):
    monkeypatch.setattr(fields, "_HOLDER_BLOCK", block)
    for npts in (1, 2, 120, fields._HOLDER_ALL_PAIRS_LIMIT):
        got, want = joined_pair_blocks(npts), np.triu_indices(npts, k=1)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


@pytest.mark.parametrize("block", [1000, 1 << 14, 99991])
def test_sampled_blocks_are_the_one_call_draws(monkeypatch, block):
    monkeypatch.setattr(fields, "_HOLDER_BLOCK", block)
    # above 2^32 nodes the bounded draws take whole 64-bit words, below it
    # 32-bit halves, the spare half kept by the generator between blocks
    for npts in (fields._HOLDER_ALL_PAIRS_LIMIT + 1, 31581, 2 ** 20 + 7, 3 * 10 ** 9):
        rng = np.random.default_rng(0)
        want = [rng.integers(0, npts, fields._HOLDER_SAMPLED_PAIRS) for _ in range(2)]
        got = joined_pair_blocks(npts)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_cs_norm_rejects_edge_region():
    g = unit_grid(17)
    region = ParabolicCube("B_eta", Point(0.0, [0.0], 1.0), 1.0)
    f = sample(lambda x, y, t: x + 0 * y, g)
    with pytest.raises(ValueError):
        cs_norm_2_alpha(f, 0.5, region)


EDGE_GRIDS = {"s0": 0.0, "clipped": 0.5}

# (s, y2, t) node indices of a Q_rho region's base -> the edges it touches on
# the s = 0 grid and on the clipped grid; None = accepted
EDGE_CASES = {
    "two_cells_in_at_the_top": ((15, 15, 28), None, None),
    "two_cells_in_at_the_bottom": ((5, 5, 5), None, None),
    "s_top": ((16, 10, 15), "s-top", "s-top"),
    "s_bottom": ((4, 10, 15), None, "s-bottom"),
    "at_s0": ((0, 10, 15), None, "s-bottom"),
    "y_low": ((10, 4, 15), "y2", "y2"),
    "y_high": ((10, 16, 15), "y2", "y2"),
    "t_late": ((10, 10, 29), "t", "t"),
    "t_early": ((10, 10, 4), "t", "t"),
    "top_corner": ((16, 16, 29), "s-top, y2, t", "s-top, y2, t"),
    "bottom_corner": ((4, 4, 4), "y2, t", "s-bottom, y2, t"),
}


@pytest.mark.parametrize("grid_kind", sorted(EDGE_GRIDS))
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_cs_norm_names_exactly_the_edges_a_region_touches(grid_kind, case):
    s_lo = EDGE_GRIDS[grid_kind]
    # spacings 0.1 in s and y, 0.03 in t: a radius-0.3 Q_rho spans 3 cells
    g = Grid.uniform((s_lo, s_lo + 2.0, 21), [(-1, 1, 21)], (0, 0.9, 31))
    (i, j, k), on_s0, on_clipped = EDGE_CASES[case]
    region = ParabolicCube("Q_rho", Point(g.s[i] ** 2, [g.y[0][j]], g.t[k]), 0.3)
    idx = np.argwhere(cube_nodes(region, g))
    lo, hi = [max(i - 3, 0), j - 3, k - 3], [i + 3, j + 3, k]
    assert idx.min(axis=0).tolist() == lo and idx.max(axis=0).tolist() == hi
    f = sample(lambda x, y, t: x * y + t, g)
    edges = on_s0 if s_lo == 0.0 else on_clipped
    if edges is None:
        assert np.isfinite(cs_norm_2_alpha(f, 0.5, region))
    else:
        with pytest.raises(ValueError, match=re.escape(f"region touches grid edges ({edges})")):
            cs_norm_2_alpha(f, 0.5, region)


def test_c0_norm():
    g = unit_grid(9)
    f = sample(lambda x, y, t: -3.0 + 0 * x, g)
    assert c0_norm(f) == pytest.approx(3.0)
