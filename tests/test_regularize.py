import itertools
import math
import re

import numpy as np
import pytest

from degenpde.fields import Grid, sample
from degenpde.regularize import (
    BumpKernel,
    m_epsilon,
    smooth_field,
    smoothing_rate,
)


def test_kernel_normalization():
    for n in (2, 3):
        k = BumpKernel(n)
        assert np.all(k.weights > 0) and np.all(np.abs(k.nodes) < 1.0)
        total = sum(math.prod(k.weights[list(idx)])
                    for idx in itertools.product(range(k.nodes.size), repeat=n))
        assert abs(total / k.normalization - 1.0) <= 1e-10


def test_kernel_validation():
    with pytest.raises(ValueError):
        BumpKernel(1)


def test_m_epsilon_examples():
    xi, _ = m_epsilon((0.0, (0.0,)), (0.0, (0.0,)), 0.01)
    assert xi == pytest.approx(0.02, abs=0)
    xi, zeta = m_epsilon((0.3, (0.5,)), (0.0, (1.0,)), 0.01)
    assert xi == pytest.approx(0.32)
    assert zeta[0] == pytest.approx(0.5 + 0.1)
    with pytest.raises(ValueError):
        m_epsilon((-0.1, (0.0,)), (0.0, (0.0,)), 0.01)
    with pytest.raises(ValueError):
        m_epsilon((0.1, (0.0,)), (1.5, (0.0,)), 0.01)


@pytest.mark.parametrize("v", [(1.5,), (0.5, -1.25)])
def test_m_epsilon_refuses_a_tangential_displacement_outside_the_unit_box(v):
    with pytest.raises(ValueError, match=re.escape(
            f"every |v_i| must be <= 1, got v = {v}")):
        m_epsilon((1.0, (0.0,) * len(v)), (0.0, v), 0.1)


@pytest.mark.parametrize("P, Q, name", [
    ((math.nan, (0.0,)), (0.0, (0.0,)), "x"),
    ((math.inf, (0.0,)), (0.0, (0.0,)), "x"),
    ((0.5, (0.0, -math.inf)), (0.0, (0.0, 0.0)), "y3"),
    ((0.5, (0.0,)), (math.nan, (math.nan,)), "u"),
    ((0.5, (0.0,)), (0.0, (math.nan,)), "v2"),
    ((np.array([0.5, math.nan]), (np.zeros(2),)), (0.0, (0.0,)), "x"),
    ((np.array([0.5, 1.0]), (np.array([[0.0], [-math.inf]]),)), (0.0, (0.0,)), "y2"),
], ids=["x_nan", "x_inf", "y3_inf", "u_nan", "v2_nan", "x_array_nan", "y2_array_inf"])
def test_m_epsilon_refuses_a_non_finite_coordinate_by_name(P, Q, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        m_epsilon(P, Q, 0.1)


def test_displacement_identity():
    rng = np.random.default_rng(0)
    for _ in range(500):
        x = rng.uniform(0, 3)
        u = rng.uniform(-1, 1)
        eps = 10.0 ** rng.uniform(-5, -1)
        xi, _ = m_epsilon((x, (0.0,)), (u, (0.0,)), eps)
        assert xi >= 0.0
        disp = abs(math.sqrt(xi) - math.sqrt(x + 2 * eps))
        assert disp == pytest.approx(math.sqrt(eps) * abs(u), abs=1e-12)


def test_m_epsilon_displaces_arrays_as_it_displaces_each_point():
    x = np.array([[0.0], [0.3], [2.0]])
    y = np.array([[-1.0, 0.25]])
    xi, (zeta,) = m_epsilon((x, (y,)), (-0.5, (0.75,)), 0.01)
    for i, j in np.ndindex(3, 2):
        xi_ij, (zeta_ij,) = m_epsilon((float(x[i, 0]), (float(y[0, j]),)), (-0.5, (0.75,)), 0.01)
        assert xi[i, 0] == xi_ij and zeta[0, j] == zeta_ij


def smoothing_grid():
    return Grid.uniform((0, 1, 21), [(-1, 1, 21)], (0, 1, 3))


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.01])
def test_bad_eps_is_refused_by_name(eps):
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        m_epsilon((0.1, (0.0,)), (0.0, (0.0,)), eps)
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        smooth_field(lambda x, y, t: 1.0 + 0 * x, eps, BumpKernel(2), smoothing_grid())


def test_constants_are_fixed_points():
    grid3 = Grid.uniform((0, 1, 9), [(-1, 1, 7), (-1, 1, 5)], (0, 1, 3))
    for n, g in ((2, smoothing_grid()), (3, grid3)):
        he = smooth_field(lambda x, *yt: 3.5 + 0 * x, 0.01, BumpKernel(n), g)
        assert np.max(np.abs(he.values - 3.5)) <= 1e-8


def test_odd_linear_exact():
    g = smoothing_grid()
    k = BumpKernel(2)
    he = smooth_field(lambda x, y, t: y + 0 * x, 0.01, k, g)
    exact = sample(lambda x, y, t: y + 0 * x, g)
    assert np.max(np.abs(he.values - exact.values)) <= 1e-8


def test_linearity_and_positivity():
    g = smoothing_grid()
    k = BumpKernel(2)
    f1 = lambda x, y, t: np.abs(y) + 0 * x
    f2 = lambda x, y, t: np.sqrt(x) + 0 * y
    h1 = smooth_field(f1, 0.01, k, g)
    h2 = smooth_field(f2, 0.01, k, g)
    combo = smooth_field(lambda x, y, t: 2 * f1(x, y, t) + f2(x, y, t), 0.01, k, g)
    assert np.max(np.abs(combo.values - 2 * h1.values - h2.values)) <= 1e-12
    assert np.min(h1.values) >= 0.0


def test_sqrt_rate():
    g = smoothing_grid()
    k = BumpKernel(2)
    exact = sample(lambda x, y, t: np.sqrt(x) + 0 * y, g)
    errors, slope = smoothing_rate(lambda x, y, t: np.sqrt(x) + 0 * y + 0 * t,
                                   exact.values, [1e-2, 1e-3, 1e-4, 1e-5], k, g)
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert slope >= 0.45


def test_complex_h_is_refused_by_name():
    # cast to its real part, this h smoothed to a maximum of 1.0216 with a ComplexWarning
    with pytest.raises(ValueError, match="^h is complex; only real values are accepted"):
        smooth_field(lambda x, y, t: x + 1j * y, 0.01, BumpKernel(2),
                     Grid.uniform((0, 1, 5), [(-1, 1, 5)], (0, 1, 3)))


def sqrt_rate(eps_list, exact=None):
    g = smoothing_grid()
    if exact is None:
        exact = sample(lambda x, y, t: np.sqrt(x) + 0 * y, g).values
    return smoothing_rate(lambda x, y, t: np.sqrt(x) + 0 * y + 0 * t, exact, eps_list,
                          BumpKernel(2), g)


@pytest.mark.parametrize("eps_list", [[1e-2], [1e-3, 1e-3]], ids=["one", "repeated"])
def test_smoothing_rate_refuses_eps_values_with_no_slope(eps_list):
    # polyfit gave slope 0.212 with a RankWarning
    with pytest.raises(ValueError, match=re.escape(
            f"the rate needs at least two distinct eps values, got {eps_list}")):
        sqrt_rate(eps_list)


def test_smoothing_rate_refuses_an_exact_array_not_of_the_grid_shape():
    with pytest.raises(ValueError, match=re.escape(
            "exact has shape (3,), but the grid has shape (21, 21, 3)")):
        sqrt_rate([1e-2, 1e-3], exact=np.ones(3))


def test_smoothing_rate_refuses_an_error_of_zero():
    # h = 0 smooths to exactly 0, whose log gave slope nan with a divide-by-zero warning
    g = smoothing_grid()
    with pytest.raises(ValueError, match="^the error at eps = 0.01 is 0, so the rate has no "):
        smoothing_rate(lambda x, y, t: 0.0 * x, np.zeros(g.shape), [1e-2, 1e-3],
                       BumpKernel(2), g)
