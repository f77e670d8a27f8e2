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
        assert abs(k.check_normalization() - 1.0) <= 1e-10


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
], ids=["x_nan", "x_inf", "y3_inf", "u_nan", "v2_nan"])
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


def smoothing_grid():
    return Grid.uniform((0, 1, 21), [(-1, 1, 21)], (0, 1, 3))


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.01])
def test_bad_eps_is_refused_by_name(eps):
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        m_epsilon((0.1, (0.0,)), (0.0, (0.0,)), eps)
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        smooth_field(lambda x, y, t: 1.0 + 0 * x, eps, BumpKernel(2), smoothing_grid())


def test_constants_are_fixed_points():
    g = smoothing_grid()
    k = BumpKernel(2)
    he = smooth_field(lambda x, y, t: 3.5 + 0 * x, 0.01, k, g)
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
