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
    harnack_barrier_v,
    harnack_region_grid,
    lambda_kernel,
    model_barrier_derivatives,
    omega_from_theta,
    search_harnack_barrier_params,
)
from degenpde.geometry import Point
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
    # on the far set at t = 0 the sup offset dominates by construction
    assert harnack_barrier_v(Point(1.0, [0.0]), 0.0, params) <= 0.0
    # positive at the base point at t = 0
    assert harnack_barrier_v(Point(0.0, [0.0]), 0.0, params) > 0.0
    # decays to the negative offset for large time
    assert harnack_barrier_v(Point(0.0, [0.0]), 200.0, params) == pytest.approx(
        -params.M_tau0, abs=1e-280)


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
    for point in (Point(0.2502, [0.0] * (n - 1)), Point(0.0001, [0.5001] + [0.0] * (n - 2))):
        assert harnack_barrier_v(point, 0.0, params) <= 0.0


# what the search returns for the model operator with v = 1
SEARCHED = {
    2: "gamma=1 tau0=0.005 m=24 l=3 M_tau0=1.6176448580790521e-58 base=(0;0)",
    3: "gamma=1 tau0=0.005 m=48 l=3 M_tau0=1.6176448580790521e-58 base=(0;0,0)",
}


@functools.cache
def searched(n):
    """The search's parameters for the model operator with v = 1, run once per n."""
    return search_harnack_barrier_params(model_coefficients(1.0, n))


@pytest.mark.parametrize("n", sorted(SEARCHED))
def test_harnack_search_is_pinned(n):
    assert searched(n).describe() == SEARCHED[n]


def test_harnack_search_returns_certifiable_params():
    coeffs = model_coefficients(1.0, 2)
    params = searched(2)
    assert params.l == 3.0
    assert params.m == 24.0
    cert = certify_harnack_barrier(params, coeffs, nodes=33)
    assert cert.passed
    assert cert.info["fd_derivative_deviation"] == float.fromhex("0x1.b3109baafa916p-23")
    # refinement does not flip the certificate
    finer = certify_harnack_barrier(params, coeffs, nodes=65,
                                    measure_c11=False, fd_check=False)
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
    cert = certify_harnack_barrier(params, coeffs, nodes=33,
                                   measure_c11=False, fd_check=False)
    assert not cert.passed
    assert cert.margins["supersolution"] < 0


def test_harnack_n3_regime():
    coeffs = model_coefficients(1.0, 3)
    params = searched(3)
    assert params.m == 48.0
    cert = certify_harnack_barrier(params, coeffs, nodes=33, measure_c11=False)
    assert cert.passed
    assert cert.info["fd_derivative_deviation"] == float.fromhex("0x1.b53a961e42a63p-23")



def test_harnack_certificate_over_the_working_set_budget_is_refused(monkeypatch):
    # 17^3 nodes at n = 2 are estimated at 20 * 9 B each, 0.84 MiB
    monkeypatch.setattr(barriers, "HARNACK_BUDGET_BYTES", 2 ** 19)
    with pytest.raises(ValueError, match=re.escape(
            "Harnack barrier verification grid refused: 17 nodes per axis at n = 2 is "
            "4,913 nodes, an estimated 0.8 MiB working set, over the 0.5 MiB budget")):
        certify_harnack_barrier(harnack_params(2), model_coefficients(1.0, 2), nodes=17)
    monkeypatch.setattr(barriers, "HARNACK_BUDGET_BYTES", 2 ** 20)
    assert certify_harnack_barrier(harnack_params(2), model_coefficients(1.0, 2), nodes=17,
                                   measure_c11=False, fd_check=False).margins


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

def test_harnack_region_grid_shape():
    g = harnack_region_grid((0.0, (0.0,)), 1.0, n=2, nodes=21)
    assert g.shape == (21, 21, 21)
    assert g.s[0] == 0.0
    assert g.t[0] == 0.0 and g.t[-1] == pytest.approx(18.0)


def test_model_barrier_phi_examples():
    def phi(x, y):
        return model_barrier_derivatives(0.25, x, [y])["phi"]

    assert phi(0.0, 1.0) == pytest.approx(4.0)
    assert phi(100.0, 1.0) < 0.01
    assert phi(2.0, 0.5) == pytest.approx(phi(2.0, -0.5))


def test_find_barrier_params_and_certify():
    p1 = find_barrier_params(1.0, n=2)
    assert certify_barrier_residual(p1, 2).passed
    cert = certify_barrier_inequality("translated", p1, n=2)
    assert cert.passed
    assert cert.info["fd_derivative_deviation"] <= 1e-6


@pytest.mark.parametrize("form, n, deviation", [
    ("centered", 2, "0x1.d2b122bcc3da2p-26"),
    ("centered", 3, "0x1.16dd04996b436p-25"),
    ("translated", 2, "0x1.8288f350d21b9p-26"),
    ("translated", 3, "0x1.06ebeb63b829ap-25"),
])
def test_wall_barrier_fd_deviation_is_pinned(form, n, deviation):
    cert = certify_barrier_inequality(form, find_barrier_params(1.0, n), n)
    assert cert.passed
    assert cert.info["fd_derivative_deviation"] == float.fromhex(deviation)


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
