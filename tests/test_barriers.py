import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import degenpde
from degenpde import barriers
from degenpde.barriers import (
    HarnackBarrierParams,
    ModelBarrierParams,
    barrier_condition_residual,
    certify_barrier_inequality,
    certify_barrier_residual,
    certify_harnack_barrier,
    compute_sup_offset,
    find_barrier_params,
    harnack_region_grid,
    harnack_barrier_expression,
    lambda_kernel,
    omega_from_theta,
    search_harnack_barrier_params,
    wall_barrier_expression,
)
from degenpde.geometry import Point, d_bar_sq
from degenpde.operators import model_coefficients


def harnack_params(n=2, m=None):
    base = (0.0, (0.0,) * (n - 1))
    gamma, tau0, l = 1.0, 0.005, 3.0
    if m is None:
        m = 24.0 if n == 2 else 48.0
    M = compute_sup_offset(tau0, l)
    return HarnackBarrierParams(gamma, tau0, m, l, M, base)


def test_lambda_kernel_examples():
    assert lambda_kernel(0.0, 1.0) == pytest.approx(1.0 / (4.0 * math.pi))
    assert lambda_kernel(1.0, 1.0) == pytest.approx(math.exp(-1.0) / (4.0 * math.pi))
    assert lambda_kernel(1e6, 1.0) == pytest.approx(0.0, abs=1e-300)
    with pytest.raises(ValueError):
        lambda_kernel(1.0, 0.0)


def test_omega_examples():
    assert omega_from_theta(0.0, 2.0) == pytest.approx(18.0 / (8.0 * math.pi))
    # theta = 18 zeroes omega
    assert omega_from_theta(18.0, 1.0) == pytest.approx(0.0, abs=1e-300)
    assert omega_from_theta(20.0, 1.0) < 0.0


def test_harnack_barrier_v_basic_properties():
    params = harnack_params(2)
    v = harnack_barrier_expression(params)
    # on the far set at t = 0 the sup offset dominates by construction
    assert v(1.0, 0.0, 0.0) <= 0.0
    # positive at the base point at t = 0
    assert v(0.0, 0.0, 0.0) > 0.0
    # decays to the negative offset for large time
    assert v(0.0, 0.0, 200.0) == pytest.approx(-params.M_tau0, abs=1e-280)


@pytest.mark.parametrize("l", [2.0, 3.0, 4.0, 5.0])
@pytest.mark.parametrize("tau0", [0.005, 0.1, 0.9])
def test_sup_offset_is_the_supremum_over_the_far_set(tau0, l):
    theta = np.concatenate([np.linspace(0.25, 18.0 + 4 * tau0, 200001), [18.0 + tau0]])
    sampled = np.max(omega_from_theta(theta, tau0) ** l)
    assert compute_sup_offset(tau0, l) == sampled == omega_from_theta(0.25, tau0) ** l


@pytest.mark.parametrize("n", [2, 3])
def test_searched_barrier_is_nonpositive_just_outside_the_inner_set(n):
    # d_bar^2 = 0.2502 and 0.25020001 at t = 0; the sup offset sampled on
    # 129 points per axis lay 25% low, and v read +0.189 M_tau0 at both
    params = searched(n)
    v = harnack_barrier_expression(params)
    for point in (Point(0.2502, [0.0] * (n - 1)), Point(0.0001, [0.5001] + [0.0] * (n - 2))):
        assert v(point.x, *point.y, 0.0) <= 0.0


# what the search returns for the model operator with v = 1
SEARCHED = {
    2: "gamma=1 tau0=0.005 m=24 l=3 M_tau0=1.6176448580790521e-58 base=(0;0)",
    3: "gamma=1 tau0=0.005 m=48 l=3 M_tau0=1.6176448580790521e-58 base=(0;0,0)",
}


@functools.cache
def searched_and_certified(n):
    """The search's parameters for the model operator with v = 1 and the certificate
    that accepted them (rho = 1, 33 nodes per axis), from one search per n."""
    certificates = []
    certify = barriers.certify_harnack_barrier

    def record(*args, **kwargs):
        certificates.append(certify(*args, **kwargs))
        return certificates[-1]

    barriers.certify_harnack_barrier = record
    try:
        params = search_harnack_barrier_params(model_coefficients(1.0, n))
    finally:
        barriers.certify_harnack_barrier = certify
    return params, certificates[-1]


def searched(n):
    return searched_and_certified(n)[0]


@pytest.mark.parametrize("n", sorted(SEARCHED))
def test_harnack_search_is_pinned(n):
    assert searched(n).describe() == SEARCHED[n]


def test_harnack_search_returns_certifiable_params():
    coeffs = model_coefficients(1.0, 2)
    params, cert = searched_and_certified(2)
    assert params.l == 3.0
    assert params.m == 24.0
    assert cert.passed
    # refinement does not flip the certificate
    finer = certify_harnack_barrier(params, coeffs, nodes=65)
    assert finer.passed


def test_harnack_certificate_scaling():
    coeffs = model_coefficients(1.0, 2)
    params = harnack_params(2)
    c1 = certify_harnack_barrier(params, coeffs, rho=1.0, nodes=33)
    c2 = certify_harnack_barrier(params, coeffs, rho=0.5, nodes=33)
    assert c1.passed and c2.passed
    # measured C^{1,1} size times rho^2 is scale invariant
    assert c2.info["c11_times_rho2"] == pytest.approx(
        c1.info["c11_times_rho2"], rel=1e-8)


def test_harnack_small_m_negative_control():
    coeffs = model_coefficients(1.0, 2)
    params = harnack_params(2, m=8.0)
    cert = certify_harnack_barrier(params, coeffs, nodes=33)
    assert not cert.passed
    assert cert.margins["supersolution"] < 0


def test_harnack_n3_regime():
    params, cert = searched_and_certified(3)
    assert params.m == 48.0
    assert cert.passed


def test_harnack_certificate_over_the_working_set_budget_is_refused(monkeypatch):
    # 17^3 nodes at n = 2 are estimated at 20 * 9 B each, 0.84 MiB
    monkeypatch.setattr(barriers, "HARNACK_BUDGET_BYTES", 2 ** 19)
    with pytest.raises(ValueError, match=re.escape(
            "Harnack barrier verification grid refused: 17 nodes per axis at n = 2 is "
            "4,913 nodes, an estimated 0.8 MiB working set, over the 0.5 MiB budget")):
        certify_harnack_barrier(harnack_params(2), model_coefficients(1.0, 2), nodes=17)
    monkeypatch.setattr(barriers, "HARNACK_BUDGET_BYTES", 2 ** 20)
    assert certify_harnack_barrier(harnack_params(2), model_coefficients(1.0, 2),
                                   nodes=17).margins


def test_harnack_search_at_n4_is_refused_before_any_grid_array(monkeypatch):
    # it was killed by the kernel on an 8 GB host: 33^5 nodes, 313 MB per
    # array; should the refusal break, the grids fail here instead of filling memory
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(barriers, "compute_sup_offset", no_grid)
    monkeypatch.setattr(barriers, "harnack_region_grid", no_grid)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                "33 nodes per axis at n = 4 is 39,135,393 nodes, an estimated 18,661.2 MiB "
                "working set, over the 512.0 MiB budget (HARNACK_BUDGET_BYTES)")):
            search_harnack_barrier_params(model_coefficients(1.0, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20

def test_harnack_certificate_refuses_a_fractional_power_of_a_negative_omega():
    # the corners of K have theta > 18, where omega < 0 and numpy's power gives nan
    params = HarnackBarrierParams(1.0, 0.005, 24.0, 2.5, compute_sup_offset(0.005, 2.5),
                                  (0.0, (0.0,)))
    with pytest.raises(ValueError, match="exponent l = 2.5 is not an integer"):
        certify_harnack_barrier(params, model_coefficients(1.0, 2), nodes=17)


def test_harnack_base_outside_the_half_space_is_refused():
    with pytest.raises(ValueError, match="the base must lie in x >= 0, got x0 = -0.5"):
        HarnackBarrierParams(1.0, 0.005, 24.0, 3.0, 1.0, (-0.5, (0.0,)))


def test_harnack_certificate_working_set_is_within_its_estimate():
    # _refuse_oversized_grid estimates 20 (n + 1)^2 B per node; with hand-written
    # derivatives and a separate C^(1,1) grid the n = 2 certificate took 181
    coeffs = model_coefficients(1.0, 2)
    certify_harnack_barrier(harnack_params(2), coeffs, nodes=9)
    tracemalloc.start()
    try:
        certify_harnack_barrier(harnack_params(2), coeffs, nodes=33)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 3 ** 2 * 33 ** 3


# Closed forms of the barriers' partials, the references the expression
# partials are held to.

def _theta_derivatives(x, ys, base, gamma):
    """theta = d_bar^2 to the base and its partials: theta_x = (x + 3 x0)(x - x0)/(x + x0)^2,
    theta_xx = 8 x0^2/(x + x0)^3 (the limits 1 and 0 at x0 = 0), theta_yj = 2 gamma^2
    (y_j - y0_j), theta_yjyj = 2 gamma^2."""
    x0, y0 = base
    theta = d_bar_sq(x, ys, x0, y0, gamma)
    if x0 == 0.0:
        theta_x, theta_xx = np.ones_like(x), np.zeros_like(x)
    else:
        theta_x = (x + 3.0 * x0) * (x - x0) / (x + x0) ** 2
        theta_xx = 8.0 * x0 * x0 / (x + x0) ** 3
    theta_y = [2.0 * gamma * gamma * (yi - y0i) for yi, y0i in zip(ys, y0)]
    return theta, theta_x, theta_xx, theta_y, 2.0 * gamma * gamma


def harnack_v_derivatives(x, ys, t, params):
    """v = e^(-mt) omega^l - M at unit scale and its partials, by the chain rule.

    With T = t + tau0, Lam = e^(-theta/T)/(4 pi T), omega = (18 - theta) Lam:
    omega_t = omega (theta/T^2 - 1/T), omega_i = -((18 - theta)/T + 1) Lam theta_i,
    omega_ij = -((18 - theta)/T + 1) Lam theta_ij + (1/T)((18 - theta)/T + 2) Lam
    theta_i theta_j.  Returns v, v_t, grad and hess ({(i, j): v_ij}, i <= j).
    """
    m, l, tau0 = params.m, params.l, params.tau0
    theta, th_x, th_xx, th_y, th_yy = _theta_derivatives(x, ys, params.base, params.gamma)
    T = t + tau0
    lam = lambda_kernel(theta, T)
    w = (18.0 - theta) * lam
    g1 = (18.0 - theta) / T + 1.0
    g2 = (18.0 - theta) / T + 2.0
    w_t = w * (theta / (T * T) - 1.0 / T)
    th, axes = [th_x, *th_y], range(len(th_y) + 1)
    w_i = [-g1 * lam * th_i for th_i in th]
    w_ij = {(i, j): (g2 / T) * lam * th[i] * th[j] for i in axes for j in axes if i <= j}
    for i in axes:  # theta's mixed second partials vanish
        w_ij[i, i] = -g1 * lam * (th_yy if i else th_xx) + w_ij[i, i]
    emt, k = np.exp(-m * t), int(l)
    return {
        "v": emt * w ** k - params.M_tau0,
        "v_t": -m * emt * w ** k + emt * l * w ** (k - 1) * w_t,
        "grad": [emt * l * w ** (k - 1) * wi for wi in w_i],
        "hess": {(i, j): emt * l * (w ** (k - 1) * wij + (l - 1.0) * w ** (k - 2) * w_i[i] * w_i[j])
                 for (i, j), wij in w_ij.items()},
    }


def harnack_v_derivatives_at_scale(x, ys, t, params, rho):
    """The rho-scale partials: the unit-scale ones at (x/rho^2, y0 + (y - y0)/rho,
    t/rho^2) for the base (x0/rho^2, y0), divided by rho^2 per x or t and rho per y."""
    (x0, y0), r2 = params.base, rho * rho
    unit = HarnackBarrierParams(params.gamma, params.tau0, params.m, params.l,
                                params.M_tau0, (x0 / r2, y0))
    d = harnack_v_derivatives(x / r2, [y0i + (yi - y0i) / rho for yi, y0i in zip(ys, y0)],
                              t / r2, unit)
    scale = [r2] + [rho] * len(ys)
    return {"v": d["v"], "v_t": d["v_t"] / r2,
            "grad": [g / w for g, w in zip(d["grad"], scale)],
            "hess": {(i, j): h / (scale[i] * scale[j]) for (i, j), h in d["hess"].items()}}


def model_barrier_derivatives(b, x, ys):
    """phi = 1/((x + bS)S), S = |y|^2, with phi_x, phi_xx, phi_y and phi_yy (lists)."""
    S = sum(yi * yi for yi in ys)
    P = x + b * S
    return {
        "phi": 1.0 / (P * S), "phi_x": -1.0 / (P * P * S), "phi_xx": 2.0 / (P ** 3 * S),
        "phi_y": [-2.0 * b * yi / (P * P * S) - 2.0 * yi / (P * S * S) for yi in ys],
        "phi_yy": [8.0 * b * b * yi * yi / (P ** 3 * S) + 8.0 * b * yi * yi / (P * P * S * S)
                   - 2.0 * b / (P * P * S) - 2.0 / (P * S * S) + 8.0 * yi * yi / (P * S ** 3)
                   for yi in ys],
    }


def wall_barrier_derivatives(form, b, x, ys):
    """The centred closed forms, or the translated pair: the centred barrier at
    z = 1 - y plus the centred one at z = 1 + y."""
    if form == "centered":
        return model_barrier_derivatives(b, x, ys)
    lo, hi = (model_barrier_derivatives(b, x, [1.0 + sign * yi for yi in ys])
              for sign in (-1.0, 1.0))
    return {"phi": lo["phi"] + hi["phi"], "phi_x": lo["phi_x"] + hi["phi_x"],
            "phi_xx": lo["phi_xx"] + hi["phi_xx"],
            "phi_y": [-a + c for a, c in zip(lo["phi_y"], hi["phi_y"])],  # dz/dy = -1 in lo
            "phi_yy": [a + c for a, c in zip(lo["phi_yy"], hi["phi_yy"])]}


def _assert_relative_close(got, want, rel):
    """|got - want| <= rel max(|got|, |want|) where both are finite, with the same
    non-finite set; a magnitude below the normal floats counts as the smallest normal."""
    got, want = np.broadcast_arrays(got, want)
    finite = np.isfinite(got)
    assert np.array_equal(finite, np.isfinite(want))
    size = np.maximum(np.maximum(np.abs(got), np.abs(want)), np.finfo(float).tiny)
    assert np.all(np.abs(got - want)[finite] <= rel * size[finite])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("rho", [1.0, 0.5])
@pytest.mark.parametrize("x0", [0.0, 0.5])
def test_harnack_partials_equal_the_closed_forms(x0, rho, n):
    # x0 > 0 takes the general text (x - x0)^2/(x + x0) of d_bar^2
    base = (x0, (0.25 * x0,) * (n - 1))
    params = HarnackBarrierParams(1.0, 0.005, 24.0 * (n - 1), 3.0,
                                  compute_sup_offset(0.005, 3.0), base)
    x, *ys, t = harnack_region_grid(params.base, rho, n, 17).x_meshes()
    v, v_t, grad, hess = harnack_barrier_expression(params, rho).partials(n)(x, *ys, t)
    want = harnack_v_derivatives_at_scale(x, ys, t, params, rho)
    _assert_relative_close(v, want["v"], 1e-10)
    _assert_relative_close(v_t, want["v_t"], 1e-10)
    for got, ref in zip(grad, want["grad"], strict=True):
        _assert_relative_close(got, ref, 1e-10)
    assert hess.keys() == want["hess"].keys()
    for key, got in hess.items():
        _assert_relative_close(got, want["hess"][key], 1e-10)


@pytest.mark.parametrize("form", ["centered", "translated"])
@pytest.mark.parametrize("n", [2, 3])
def test_wall_partials_equal_the_closed_forms(form, n):
    # on the grid certify_barrier_inequality samples
    y_ax = np.linspace(0.0, 2.0, 34)[1:]
    if form == "translated":
        y_ax = y_ax[np.abs(y_ax - 1.0) > 1e-9]
    x, *ys = np.meshgrid(np.linspace(0.0, 4.0, 33), *([y_ax] * (n - 1)),
                         indexing="ij", sparse=True)
    b = find_barrier_params(1.0, n).b
    phi, phi_t, grad, hess = wall_barrier_expression(form, b, n).partials(n)(x, *ys, 0.0)
    want = wall_barrier_derivatives(form, b, x, ys)
    assert phi_t == 0.0
    _assert_relative_close(phi, want["phi"], 1e-10)
    _assert_relative_close(grad[0], want["phi_x"], 1e-10)
    _assert_relative_close(hess[0, 0], want["phi_xx"], 1e-10)
    for i in range(1, n):
        _assert_relative_close(grad[i], want["phi_y"][i - 1], 1e-10)
        _assert_relative_close(hess[i, i], want["phi_yy"][i - 1], 1e-10)


def _fd_deviation(value, coords, partials, h, scale):
    """Max relative deviation of partials from central differences of value.

    `value` maps a list of coordinate arrays to the function's values there.
    `partials` pairs each partial at `coords` with the axes it differentiates
    along: (k,) first, (k, k) second, (j, k) mixed.  Each central difference
    is Richardson-extrapolated to fourth order from the steps h and h/2, and
    each error is taken relative to |partial| + scale.
    """
    def at(*moves):
        shifted = list(coords)
        for k, step in moves:
            shifted[k] = shifted[k] + step
        return value(shifted)

    def central(axes, step):
        j, k = axes[0], axes[-1]
        if len(axes) == 1:
            return (at((k, step)) - at((k, -step))) / (2 * step)
        if j == k:
            return (at((k, step)) - 2 * at() + at((k, -step))) / (step * step)
        return (at((j, step), (k, step)) - at((j, step), (k, -step))
                - at((j, -step), (k, step)) + at((j, -step), (k, -step))) / (4 * step * step)

    devs = []
    for exact, axes in partials:
        fd = (4.0 * central(axes, h / 2) - central(axes, h)) / 3.0
        devs.append(np.max(np.abs(fd - exact) / (np.abs(exact) + scale + 1e-30)))
    return float(np.max(devs))


@pytest.mark.parametrize("n", [2, 3])
def test_harnack_partials_match_finite_differences(n):
    # 200 random points of K at unit scale, relative to |partial| + |v + M| + M: the
    # partials share the kernel prefactor, so this stays meaningful where all are tiny
    params = searched(n)
    rng = np.random.default_rng(0)
    x0, y0 = params.base
    x = rng.uniform(x0 + 0.3, x0 + 6.0, 200)
    ys = [rng.uniform(y0i - 2.0, y0i + 2.0, 200) for y0i in y0]
    t = rng.uniform(0.1, 2.0, 200)
    v, v_t, grad, hess = harnack_barrier_expression(params).partials(n)(x, *ys, t)

    def value(c):
        omega = omega_from_theta(d_bar_sq(c[0], c[1:-1], x0, y0, params.gamma), c[-1] + params.tau0)
        return np.exp(-params.m * c[-1]) * omega ** params.l - params.M_tau0

    partials = ([(v_t, (n,))] + [(v_i, (i,)) for i, v_i in enumerate(grad)]
                + [(v_ij, key) for key, v_ij in hess.items()])
    scale = np.abs(v + params.M_tau0) + params.M_tau0
    assert _fd_deviation(value, [x, *ys, t], partials, 3e-4, scale) <= 1e-6


@pytest.mark.parametrize("form", ["centered", "translated"])
@pytest.mark.parametrize("n", [2, 3])
def test_wall_partials_match_finite_differences(form, n):
    b = find_barrier_params(1.0, n).b
    rng = np.random.default_rng(0)
    x = rng.uniform(0.5, 3.0, 1000)
    # at least 0.2 away from every pole hyperplane of both barrier forms
    ys = [rng.uniform(0.2, 0.6, 1000) for _ in range(n - 1)]
    _, _, grad, hess = wall_barrier_expression(form, b, n).partials(n)(x, *ys, 0.0)
    partials = [(grad[0], (0,)), (hess[0, 0], (0, 0))]
    for i in range(1, n):
        partials += [(grad[i], (i,)), (hess[i, i], (i, i))]
    deviation = _fd_deviation(lambda c: wall_barrier_derivatives(form, b, c[0], c[1:])["phi"],
                              [x, *ys], partials, 4e-4, 1.0)
    assert deviation <= 1e-6


def test_harnack_region_grid_shape():
    g = harnack_region_grid((0.0, (0.0,)), 1.0, n=2, nodes=21)
    assert g.shape == (21, 21, 21)
    assert g.s[0] == 0.0
    assert g.t[0] == 0.0 and g.t[-1] == pytest.approx(18.0)


def test_model_barrier_phi_examples():
    def phi(x, y):
        return wall_barrier_expression("centered", 0.25, 2)(x, y, 0.0)

    assert phi(0.0, 1.0) == pytest.approx(4.0)
    assert phi(100.0, 1.0) < 0.01
    assert phi(2.0, 0.5) == pytest.approx(phi(2.0, -0.5))


def test_find_barrier_params_and_certify():
    p1 = find_barrier_params(1.0, n=2)
    assert certify_barrier_residual(p1, 2).passed
    cert = certify_barrier_inequality("translated", p1, n=2)
    assert cert.passed


@pytest.mark.parametrize("form, n", [
    ("centered", 2), ("centered", 3), ("translated", 2), ("translated", 3)])
def test_wall_barrier_certificates_pass(form, n):
    assert certify_barrier_inequality(form, find_barrier_params(1.0, n), n).passed


def test_barrier_monotone_in_velocity():
    b_small = find_barrier_params(0.25, n=2).b
    b_large = find_barrier_params(4.0, n=2).b
    assert b_large > b_small


def test_barrier_zero_forcing_negative_control():
    p = find_barrier_params(1.0, n=2)
    cert = certify_barrier_residual(ModelBarrierParams(p.v, p.b, p.c, 0.0), 2)
    assert not cert.passed
    # alpha = C - K = -(10 - 2n + c/sqrt(b)) at C = 0
    assert cert.margins["alpha"] == pytest.approx(-(6.0 + p.c / math.sqrt(p.b)))


@pytest.mark.parametrize("v, n, C", [(50.0, 3, 20.48), (50.0, 5, 10.24), (100.0, 6, 20.48)])
def test_velocities_a_grid_would_miscertify(v, n, C):
    # C/2 passes a 64-node grid, but its residual is negative at (x, |y|^2) = (4, 1e-8)
    p = find_barrier_params(v, n)
    assert p.C == pytest.approx(C, rel=1e-15)
    assert certify_barrier_residual(p, n).passed
    assert barrier_condition_residual(p, 4.0, 1e-8, n) > 0


def test_rounded_tie_in_the_b_rule_is_refused():
    # v - b(28 - 4n) - c sqrt(b) is +9e-13 in floats here but -3e-14 exactly, so
    # gamma <= 0 and no C can make the residual positive
    with pytest.raises(ValueError, match=r"gamma = .* <= 0 in exact arithmetic"):
        find_barrier_params(float.fromhex("0x1.f600000000001p+12"), 2)


@pytest.mark.parametrize("v", [1e-323, 1e-320])
def test_subnormal_velocity_is_refused_by_name(v):
    # b = v/16/2^k underflows, so C = 16/b would divide by zero or overflow
    with pytest.raises(ValueError, match="transport velocity .* is too small"):
        find_barrier_params(v)


def test_residual_margins_beyond_the_float_range_saturate():
    cert = certify_barrier_residual(ModelBarrierParams(1.0, 1.0, 1e300, 1.0), 2)
    assert not cert.passed
    assert cert.margins["cross"] == math.inf and cert.info["beta"] < -1e300


@pytest.mark.parametrize("make, name", [
    (lambda: ModelBarrierParams(math.nan, 0.1, 0.0, 1.0), "v"),
    (lambda: ModelBarrierParams(1.0, math.nan, 0.0, 1.0), "b"),
    (lambda: ModelBarrierParams(1.0, 0.1, 0.0, math.inf), "C"),
    (lambda: find_barrier_params(math.nan), "transport velocity"),
    (lambda: find_barrier_params(math.inf), "transport velocity"),
    (lambda: HarnackBarrierParams(math.nan, 0.005, 24.0, 3.0, 1.0, (0.0, (0.0,))), "gamma"),
    (lambda: HarnackBarrierParams(1.0, 0.005, math.nan, 3.0, 1.0, (0.0, (0.0,))), "m"),
    (lambda: HarnackBarrierParams(1.0, 0.005, 24.0, 3.0, math.nan, (0.0, (0.0,))), "M_tau0"),
], ids=["model_v", "model_b", "model_C_inf", "search_v_nan", "search_v_inf",
        "harnack_gamma", "harnack_m", "harnack_M_tau0"])
def test_non_finite_barrier_parameters_are_refused(make, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make()


@st.composite
def wall_params(draw):
    """Admissible (params, n), scaled so that every verdict branch occurs."""
    v = draw(st.floats(1e-2, 1e2))
    b = v * 2.0 ** -draw(st.integers(0, 12))
    c = draw(st.floats(0.0, 2.0)) * v * math.sqrt(b) / 8.0
    C = draw(st.floats(0.0, 2.0)) * 16.0 / b
    return ModelBarrierParams(v, b, c, C), draw(st.integers(2, 6))


def _term_scale(p, x, S, n):
    """Sum of the residual's term magnitudes, the scale of its rounding."""
    P = x + p.b * S
    return (p.v * P * S + p.C * x * P + 2.0 * x * S
            + abs(10.0 - 2.0 * n + p.c / math.sqrt(p.b)) * P * P
            + abs(10.0 - 2.0 * n) * p.b * P * S + 8.0 * p.b * p.b * S * S)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(wall_params(), st.floats(0.0, 10.0), st.floats(1e-6, 10.0))
def test_residual_is_the_certified_quadratic_form(params_n, x, S):
    p, n = params_n
    cert = certify_barrier_residual(p, n)
    form = (cert.margins["alpha"] * x * x + cert.info["beta"] * x * S
            + cert.margins["gamma"] * S * S)
    residual = barrier_condition_residual(p, x, S, n)
    assert abs(form - residual) <= 1e-12 * _term_scale(p, x, S, n)


_RAYS = np.array([(1.0, 0.0), (0.0, 1.0)] + [(1.0, r) for r in np.logspace(-8, 8, 161)])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(wall_params())
def test_certificate_verdict_matches_the_residual_on_rays(params_n):
    p, n = params_n
    cert = certify_barrier_residual(p, n)
    alpha, beta, gamma = cert.margins["alpha"], cert.info["beta"], cert.margins["gamma"]
    if cert.passed:
        rays = _RAYS
    elif alpha <= 0:
        rays = np.array([(1.0, 0.0)])  # S -> 0, where the residual tends to alpha x^2
    elif gamma <= 0:
        rays = np.array([(0.0, 1.0)])  # x = 0, residual gamma S^2
    else:
        rays = np.array([(1.0, -beta / (2.0 * gamma))])  # the form's minimizing ray
    x, S = rays[:, 0], rays[:, 1]
    residual = barrier_condition_residual(p, x, S, n)
    # a residual within rounding of zero cannot tell the verdict
    assume(np.all(np.abs(residual) > 1e-9 * _term_scale(p, x, S, n)))
    if cert.passed:
        assert np.all(residual > 0)
    else:
        assert residual[0] <= 0


# each demo script and a line its last section prints
DEMOS = {
    "01_manufactured_solutions": "dt = 0.0125",
    "02_harnack_and_hoelder": "worst theta",
    "03_barrier_certificates": "C=0 control alpha -",
}


@pytest.mark.parametrize("name", list(DEMOS))
def test_demo_runs(tmp_path, name):
    demo = Path(__file__).resolve().parents[1] / "demos" / f"{name}.py"
    src = str(Path(degenpde.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert DEMOS[name] in done.stdout
