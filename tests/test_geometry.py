import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenpde.fields import Grid
from degenpde.geometry import (
    MEMBERSHIP_TOL,
    ParabolicCube,
    Point,
    WeightedMeasure,
    cube_box,
    cube_measure,
    cube_nodes,
    node_measure,
    rho_nu,
)


def test_point_rejects_negative_x():
    with pytest.raises(ValueError):
        Point(-1.0, [0.0])


@pytest.mark.parametrize("make, name", [
    (lambda: Point(math.nan, [0.0], 1.0), "x"),
    (lambda: Point(1.0, [0.0, math.inf], 1.0), "y"),
    (lambda: Point(1.0, [0.0], -math.inf), "t"),
    (lambda: Point.at_s(math.inf, [0.0], 1.0), "s"),
    (lambda: Point.at_s(1.0, [math.nan], 1.0), "y"),
    (lambda: Point.at_s(1.0, [0.0], math.nan), "t"),
], ids=["point_x", "point_y", "point_t", "spoint_s", "spoint_y", "spoint_t"])
def test_points_refuse_non_finite_coordinates_by_name(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        make()


def test_point_at_s_refuses_a_negative_s():
    with pytest.raises(ValueError, match=r"^s must be nonnegative, got -0\.5$"):
        Point.at_s(-0.5, [0.0], 1.0)


def test_spoint_round_trip():
    q = Point.at_s(1.7, [0.3], 2.0)
    assert q.x == 1.7 * 1.7
    assert q.s == pytest.approx(1.7, abs=1e-15)


def test_rho_nu_examples():
    for nu in (0.25, 0.5, 0.75):
        assert rho_nu(0.0, 1.0, nu) == pytest.approx(1.0)
    assert rho_nu(1.0, 1.0, 0.5) == pytest.approx(2.0 * math.sqrt(2.0) - 1.0)
    assert rho_nu(1.0, 0.5, 0.5) < rho_nu(1.0, 1.0, 0.5)


@pytest.mark.parametrize("s0, rho", [(0.5, math.nan), (0.5, math.inf), (math.nan, 0.5),
                                     (math.inf, 0.5), (0.5, 0.0), (-0.1, 0.5)])
def test_rho_nu_refuses_a_bad_base_or_radius(s0, rho):
    with pytest.raises(ValueError, match="need finite s0 >= 0 and rho > 0"):
        rho_nu(s0, rho, 0.5)


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -0.5])
def test_cube_refuses_a_bad_radius_by_name(radius):
    with pytest.raises(ValueError, match="radius must be finite and positive"):
        ParabolicCube("Q_rho", Point(0.25, [0.0], 1.0), radius)


def test_cube_measure_examples():
    mu = WeightedMeasure(0.5)
    c = ParabolicCube("Q_rho", Point.at_s(0.0, [0.0], 0.0), 1.0)
    assert cube_measure(c, mu) == pytest.approx(1.0)
    c = ParabolicCube("Q_rho", Point.at_s(0.0, [0.0], 0.0), 0.7)
    assert cube_measure(c, mu) == pytest.approx(0.7 ** (0.5 + 2))
    c = ParabolicCube("Q_rho", Point.at_s(2.0, [0.0], 0.0), 1.0)
    assert cube_measure(c, mu) == pytest.approx(math.sqrt(3.0) - 1.0)


@pytest.mark.parametrize("nodes", [9, 65])
def test_node_measure_of_the_slab_equals_the_closed_form(nodes):
    # the slab s in [0.5, 1.5], |y - 0.5| <= 0.5, |t| <= 0.5 the closed form
    # integrates; the weight is integrated exactly per dual cell, and the
    # dual cells of all nodes tile the grid's box, so the node count does
    # not matter
    mu = WeightedMeasure(0.25)
    c = ParabolicCube("Q_rho", Point.at_s(1.0, [0.5], 0.0), 0.5)
    grid = Grid.uniform((0.5, 1.5, nodes), [(0.0, 1.0, nodes)], (-0.5, 0.5, nodes))
    quad = node_measure(np.ones(grid.shape, bool), grid, mu)
    closed = cube_measure(c, mu)
    assert abs(quad - closed) <= 1e-12 * closed


def test_cube_measure_refuses_a_cube_that_is_not_q_rho():
    # the closed form was once applied to it (0.25 here)
    cube = ParabolicCube("B_eta", Point(0.25, [0.0], 1.0), 0.5)
    with pytest.raises(ValueError, match="defined for Q_rho cubes"):
        cube_measure(cube, WeightedMeasure(0.5))


def test_node_measure_full_cube_and_symmetry():
    mu = WeightedMeasure(0.5)
    cube = ParabolicCube("Q_rho", Point.at_s(1.0, [0.0], 0.0), 0.5)
    grid = Grid.uniform((0.5, 1.5, 64), [(-0.5, 0.5, 65)], (-0.5, 0.5, 64))
    y = grid.meshes()[1]
    full = node_measure(np.ones(grid.shape, bool), grid, mu)
    assert abs(full - cube_measure(cube, mu)) <= 1e-6 * full
    # the y = 0 row of nodes carries the middle dual cell; the halves
    # either side of it mirror each other
    upper, lower, middle = (node_measure(np.broadcast_to(side, grid.shape), grid, mu)
                            for side in (y > 0, y < 0, y == 0))
    assert upper == pytest.approx(lower, rel=1e-12)
    assert upper + middle + lower == pytest.approx(full, rel=1e-12)
    assert middle == pytest.approx(full / 64, rel=1e-12)
    assert node_measure(np.zeros(grid.shape, bool), grid, mu) == 0.0


def test_cube_membership_kinds():
    base = Point(1.0, [0.0], 1.0)
    b = ParabolicCube("B_eta", base, 0.5)
    assert b.contains_s(math.sqrt(1.25), [0.5], 0.75)
    assert not b.contains_s(math.sqrt(1.3), [0.0], 1.0)
    q = ParabolicCube("Q_rho", base, 0.5)
    assert q.contains_s(1.5, [0.3], 1.0)
    assert not q.contains_s(1.51, [0.0], 1.0)
    c = ParabolicCube("C_rho", base, 0.5)
    assert c.contains_s(math.sqrt(1.5), [0.5], 0.8)
    assert not c.contains_s(math.sqrt(1.6), [0.0], 1.0)


def test_cube_time_orientation():
    # every cube looks backward in time from its base
    cube = ParabolicCube("Q_rho", Point(1.0, [0.0], 1.0), 0.5)
    assert cube.time_interval() == (0.75, 1.0)


@st.composite
def cubes_on_grids(draw):
    """A random grid and a cube of any kind on it.

    The radius is any, one past every edge of the grid, or one that puts a
    face on a node within a few MEMBERSHIP_TOL.  For a face on a node, the
    base is that node moved along one axis (s, one y-axis or t), and the
    face is the cube's condition on that axis, so the node sits on the
    box's edge; otherwise the base is a node or any point around the grid.
    """
    n = draw(st.sampled_from([2, 3]))

    def axis(lo_min, lo_max):
        lo = draw(st.floats(lo_min, lo_max))
        return lo, lo + draw(st.floats(0.1, 2.0)), draw(st.integers(3, 9))

    grid = Grid.uniform(axis(0, 1), [axis(-1, 1) for _ in range(n - 1)], axis(-1, 1))
    kind = draw(st.sampled_from(["B_eta", "C_rho", "Q_rho"]))
    how = draw(st.sampled_from(["any", "past_every_edge", "face_on_node"]))
    node = grid.node([draw(st.integers(0, len(ax) - 1)) for ax in grid.axes])
    if how == "face_on_node":
        along = draw(st.integers(0, n))  # s, y2.., t
        base = list(node)
        base[along] += draw(st.floats(-1, 1))
        base[0] = abs(base[0])
        s0, *y0, t0 = base
    elif draw(st.booleans()):
        s0, *y0, t0 = node
    else:
        s0 = draw(st.floats(0, grid.s[-1] + 1))
        y0 = [draw(st.floats(y[0] - 1, y[-1] + 1)) for y in grid.y]
        t0 = draw(st.floats(grid.t[0] - 1, grid.t[-1] + 1))
    if how == "past_every_edge":
        t0 = grid.t[-1] + draw(st.floats(0, 1))
    base = Point.at_s(s0, y0, t0)
    if how == "any":
        r = draw(st.floats(0.01, 1.5))
    elif how == "past_every_edge":
        r = draw(st.floats(20, 30))
    else:
        s, *ys, t = node
        if along == 0:
            r = {"B_eta": math.sqrt(abs(s * s - base.x)), "C_rho": abs(s * s - base.x),
                 "Q_rho": abs(s - base.s)}[kind]
        elif along < n:
            r = abs(ys[along - 1] - base.y[along - 1])
        else:
            r = math.sqrt(abs(base.t - t))
        r += draw(st.sampled_from([-2, -1, -0.5, 0, 0.5, 1, 2])) * MEMBERSHIP_TOL
        if not r > 0:
            r = MEMBERSHIP_TOL
    return grid, ParabolicCube(kind, base, r)


# tier-1 cost: 300 derandomized examples on grids of at most 9^4 nodes, about 0.8 s
@settings(max_examples=300, derandomize=True, deadline=None)
@given(cubes_on_grids())
def test_cube_nodes_are_contains_s_over_the_full_meshes(grid_and_cube):
    grid, cube = grid_and_cube
    s, *ys, t = grid.meshes()
    expected = np.broadcast_to(cube.contains_s(s, ys, t), grid.shape)
    assert np.array_equal(cube.node_mask(grid), expected)
    if not expected.any():
        with pytest.raises(ValueError, match="^cube contains no grid nodes$"):
            cube_nodes(cube, grid)
        with pytest.raises(ValueError, match="^inner box contains no grid nodes$"):
            cube_box(cube, grid, "inner box")
        return
    assert np.array_equal(cube_nodes(cube, grid), expected)
    # the box read gives the full-mask read's values, in the same order
    values = np.arange(expected.size, dtype=float).reshape(grid.shape)
    box, inside = cube_box(cube, grid)
    assert np.array_equal(values[box][inside], values[expected])
