"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -v` for the per-criterion verdicts; each test also prints
a summary line with the measured quantities behind the verdict.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from degenpde import fields
from degenpde.barriers import (
    ModelBarrierParams,
    barrier_condition_residual,
    certify_barrier_residual,
    find_barrier_params,
)
from degenpde.cli import main as cli_main
from degenpde.estimates import (
    abp_check,
    harnack_quotient,
    oscillation_decay,
    poly_approx_check,
    schauder_ratio,
)
from degenpde.expressions import CompiledExpression
from degenpde.fields import Grid, ScalarField, lp_norm_weighted, sample
from degenpde.geometry import (
    ParabolicCube,
    Point,
    WeightedMeasure,
    cube_measure,
    node_measure,
)
from degenpde.operators import (
    apply_L0,
    coefficients_from_expressions,
    exact_forcing,
    model_coefficients,
    random_coefficients,
)
from degenpde.regularize import BumpKernel, smooth_field, smoothing_rate
from degenpde.solver import (
    IVBProblem,
    random_positive_solution_ensemble,
    solve_ivbp,
)


def verdict(number, name, ok, detail):
    line = f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def caloric(v):
    return lambda x, y, t: (x * x + 2 * (1 + v) * x * t + v * (1 + v) * t * t
                            + 0 * y)


def test_criterion_01_manufactured_exactness():
    start = time.time()
    worst = 0.0
    grid = Grid.uniform((0, 1, 33), [(-1, 1, 33)], (0, 1, 33))
    for v in (0.25, 1.0, 4.0):
        f = lambda x, y, t: x + v * t
        u = solve_ivbp(IVBProblem(model_coefficients(v, 2), initial=f, lateral=f), grid)
        exact = sample(f, grid)
        worst = max(worst, float(np.max(np.abs(u.values - exact.values))))
    elapsed = time.time() - start
    verdict(1, "manufactured exactness", worst <= 1e-10 and elapsed < 5.0,
            f"max error {worst:.3e} <= 1e-10, {elapsed:.2f}s < 5s")


def test_criterion_02_convergence_order():
    start = time.time()
    v = 1.0
    f = caloric(v)

    def final_err(ns, ny, t_nodes):
        grid = Grid.uniform((0, 1, ns), [(-1, 1, ny)], (0, 1, t_nodes))
        u = solve_ivbp(IVBProblem(model_coefficients(v, 2), initial=f, lateral=f), grid)
        exact = sample(f, grid)
        return float(np.max(np.abs(u.values[..., -1] - exact.values[..., -1])))

    # steps of 0.05 and 0.025; then steps of 1e-4 on 17 and 33 s-nodes
    t_ratio = final_err(65, 9, 21) / final_err(65, 9, 41)
    s_ratio = final_err(17, 9, 10001) / final_err(33, 9, 10001)
    elapsed = time.time() - start
    verdict(2, "convergence order",
            t_ratio >= 1.8 and s_ratio >= 3.5 and elapsed < 120.0,
            f"temporal ratio {t_ratio:.2f} >= 1.8, spatial ratio "
            f"{s_ratio:.2f} >= 3.5, {elapsed:.1f}s < 2min")


def test_criterion_02_convergence_order_for_the_class():
    """Companion to criterion 02 off the model operator: exact forcing.

    g = `exact_forcing` of a time-independent u, so the implicit Euler
    steps carry no time error and the error at the last slice is L_h's
    alone.  Measured: spatial ratios 7.5, 8.3 (random coefficients, n = 2),
    9.9, 11.5 (cross terms a12 and x-dependent a11) and 6.1, 7.8 (random,
    n = 3).
    """
    u2 = "(1 + x + x^2/2)*(1 + y2^2/4) + 0.3*x*y2"
    u3 = "(1 + x + x^2/2)*(1 + y2^2/4 + y3^2/4) + 0.3*x*y2 - 0.2*x*y3"
    cross = coefficients_from_expressions({"a11": "1 + 0.3*x", "a12": "0.2 + 0.1*y2",
                                           "b1": "1"}, n=2, lam=0.3)
    cases = [("random n=2", random_coefficients(3, 2), u2, (17, 33, 65)),
             ("cross terms n=2", cross, u2, (17, 33, 65)),
             ("random n=3", random_coefficients(3, 3), u3, (9, 17, 33))]
    details, ok = [], True
    for name, coeffs, text, nodes in cases:
        u = CompiledExpression(text)
        problem = IVBProblem(coeffs=coeffs, forcing=exact_forcing(coeffs, u),
                             initial=u, lateral=u)
        errs = []
        for k in nodes:
            grid = Grid.uniform((0, 1, k), [(-1, 1, k)] * (coeffs.n - 1), (0, 1, 5))
            errs.append(float(np.max(np.abs(solve_ivbp(problem, grid).values[..., -1]
                                            - sample(u, grid).values[..., -1]))))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        ok = ok and min(ratios) >= 3.5
        details.append(f"{name} ratios " + ", ".join(f"{r:.2f}" for r in ratios))
    verdict(2, "convergence order for the class", ok, "; ".join(details) + " >= 3.5")


def test_criterion_03_maximum_principle():
    worst = -math.inf
    for k in range(10):
        nodes = 49 if k % 2 == 0 else 33
        grid = Grid.uniform((0, 1, nodes), [(-1, 1, nodes)], (0, 1, nodes))
        coeffs = random_coefficients(1000 + k, 2)
        prob = IVBProblem(coeffs=coeffs, forcing=lambda x, y, t: -1.0 + 0 * x,
                          initial=lambda x, y, t: -0.1 + 0 * x,
                          lateral=lambda x, y, t: -0.1 + 0 * x)
        u = solve_ivbp(prob, grid)
        worst = max(worst, float(np.max(u.values)))
    verdict(3, "maximum principle", max(worst, 0.0) <= 1e-12,
            f"sup u+ = {max(worst, 0.0):.3e} <= 1e-12 over 10 random fields")


def _abp_setup(nodes, t_nodes, scale):
    grid = Grid.uniform((0, 1, nodes), [(-1, 1, nodes)], (0, 1, t_nodes))
    zero = lambda x, y, t: 0 * x
    u = solve_ivbp(IVBProblem(model_coefficients(1.0, 2), forcing=lambda x, y, t: scale + 0 * x,
                              initial=zero, lateral=zero), grid)
    g = sample(lambda x, y, t: -scale + 0 * x, grid)
    cube = ParabolicCube("C_rho", Point(0.5, [0.0], 1.0), 1.0)
    return abp_check(u, g, cube, 0.5)


def test_criterion_04_abp_scale_invariance():
    base = _abp_setup(33, 17, 1.0)
    doubled = _abp_setup(33, 17, 2.0)
    dev = abs(doubled.measured_constant - base.measured_constant)
    refined = _abp_setup(65, 33, 1.0)
    drift = refined.measured_constant / base.measured_constant
    ok = dev <= 1e-8 and 0.5 < drift < 2.0
    verdict(4, "abp scale invariance", ok,
            f"g->2g deviation {dev:.2e} <= 1e-8, refinement drift "
            f"{drift:.3f}x < 2x")


def _grid_min_residual(params, n, nodes):
    """Minimum residual on {0 <= x <= 4, 0 < |y|^2 <= 4n}, nodes per axis."""
    x = np.linspace(0.0, 4.0, nodes)
    S = np.linspace(0.0, 4.0 * n, nodes + 1)[1:]
    X, S = np.meshgrid(x, S, indexing="ij")
    return float(np.min(barrier_condition_residual(params, X, S, n)))


def test_criterion_05_barrier_certification():
    details = []
    ok = True
    for v in (0.25, 1.0, 4.0):
        start = time.time()
        for n in (2, 3):
            params = find_barrier_params(v, n)
            b = v / 32.0  # the b rule halves v/16 once, and the first C = 16/b passes
            ok = ok and params == ModelBarrierParams(v, b, v * math.sqrt(b) / 8.0, 16.0 / b)
            control = ModelBarrierParams(params.v, params.b, params.c, 0.0)
            exact, exact0 = (certify_barrier_residual(p, n) for p in (params, control))
            # the C = 0 control has alpha = -K, negative while K = 10 - 2n + c/sqrt(b) > 0
            ok = (ok and exact.passed and not exact0.passed
                  and exact0.margins["alpha"] < 0
                  and _grid_min_residual(params, n, 64) > 0
                  and _grid_min_residual(params, n, 128) > 0
                  and _grid_min_residual(control, n, 64) <= 0)
        elapsed = time.time() - start
        ok = ok and elapsed < 60.0
        details.append(f"v={v:g}: {elapsed:.1f}s")
    verdict(5, "barrier certification", ok,
            "exact certificate passes and agrees with 64- and 128-node grids, "
            "C=0 control fails (alpha < 0), " + ", ".join(details))


@pytest.fixture(scope="module")
def ensemble():
    """The 20-member ensemble that criteria 06 and 07 both measure."""
    grid = Grid.uniform((0, 1, 33), [(-1, 1, 33)], (0, 0.5, 201))
    return grid, random_positive_solution_ensemble(
        20250823, 20, model_coefficients(1.0, 2), grid)


def test_criterion_06_harnack_robustness(ensemble):
    grid, ensemble = ensemble
    rhos = (0.1, 0.2, 0.4)
    max_const = {}
    for rho in rhos:
        worst = 0.0
        for u in ensemble:
            rep = harnack_quotient(u, None, 0.5, [0.0], 0.5, rho, 0.5)
            worst = max(worst, rep.measured_constant)
        max_const[rho] = worst
    finite = all(math.isfinite(c) for c in max_const.values())
    spread = max(max_const.values()) / min(max_const.values())
    const_field = sample(lambda x, y, t: 4.2 + 0 * x, grid)
    unit = harnack_quotient(const_field, None, 0.5, [0.0], 0.5, 0.4, 0.5)
    ok = finite and spread < 2.0 and unit.measured_constant == 1.0
    verdict(6, "harnack robustness", ok,
            f"max constants {[round(max_const[r], 3) for r in rhos]} finite, "
            f"spread {spread:.3f}x < 2x, constant solution gives "
            f"{unit.measured_constant}")


def test_criterion_07_hoelder_content(ensemble):
    grid, ensemble = ensemble
    worst_theta = -math.inf
    for u in ensemble:
        rep = oscillation_decay(u, (0.5, [0.0], 0.5), 0.4, 2, None, 0.5)
        if "sentinel" in rep.rhs_components:
            continue
        worst_theta = max(worst_theta, rep.lhs)
    lin_grid = Grid.uniform((0, 1, 33), [(-1, 1, 65)], (0, 1, 17))
    lin = sample(lambda x, y, t: y + 0 * x, lin_grid)
    lin_rep = oscillation_decay(lin, (0.5, [0.0], 1.0), 0.5, 3, None, 0.5)
    thetas = [lin_rep.rhs_components[f"theta_hat_{j}"] for j in range(3)]
    exact_half = all(th == 0.5 for th in thetas)
    ok = worst_theta <= 0.95 and exact_half
    verdict(7, "hoelder content", ok,
            f"ensemble worst theta {worst_theta:.3f} <= 0.95, linear "
            f"tangential solution thetas {thetas} == 0.5 exactly")


def test_criterion_08_polynomial_approximation():
    grid = Grid.uniform((0, 0.9, 33), [(-0.9, 0.9, 33)], (0.2, 1.0, 33))
    radii = (0.8, 0.4, 0.2, 0.1)
    taylor = sample(lambda x, y, t: 2.0 + 3.0 * x + 1.5 * y + 0.5 * y * y
                    - 2.0 * (t - 1.0), grid)
    rep_t = poly_approx_check(taylor, apply_L0(1.0, taylor), 0.8, radii)
    taylor_exact = all(rep_t.rhs_components[f"err_r={r:g}"] <= 1e-8
                       for r in radii)
    v = 1.0
    f = sample(caloric(v), grid)
    rep = poly_approx_check(f, apply_L0(v, f), 0.8, radii)
    anchor = Point(0.0, [0.0], 1.0)
    remainder_dev = 0.0
    meshes = grid.meshes()
    x = meshes[0] ** 2
    t = meshes[-1]
    closed = np.broadcast_to(np.abs(x * x + 4 * x * (t - 1.0)
                                    + 2 * (t - 1.0) ** 2), grid.shape)
    ratios = []
    for r in radii:
        mask = ParabolicCube("B_eta", anchor, r).node_mask(grid)
        expected = float(np.max(closed[mask]))
        err = rep.rhs_components[f"err_r={r:g}"]
        remainder_dev = max(remainder_dev, abs(err - expected))
        ratios.append(err / r ** 3)
    monotone = all(a > b for a, b in zip(ratios, ratios[1:]))
    ok = taylor_exact and remainder_dev <= 1e-8 and monotone
    verdict(8, "polynomial approximation", ok,
            f"taylor-class error <= 1e-8: {taylor_exact}, caloric remainder "
            f"matches closed form to {remainder_dev:.2e} <= 1e-8, err/r^3 "
            f"monotone {['%.3f' % q for q in ratios]}")


def test_criterion_09_schauder_stability():
    v = 1.0
    vals = []
    for nodes in (33, 65):
        grid = Grid.uniform((0, 1, nodes), [(-1, 1, nodes)], (0, 1, nodes))
        rep = schauder_ratio(sample(caloric(v), grid), model_coefficients(v, 2), 0.5, 0.5,
                             Point(0.0, [0.0], 0.9))
        vals.append(rep.measured_constant)
    drift = abs(vals[1] - vals[0]) / vals[0]
    verdict(9, "schauder stability", drift < 0.10,
            f"constants {vals[0]:.4f} -> {vals[1]:.4f}, drift "
            f"{100 * drift:.2f}% < 10%")


def test_criterion_10_smoothing_rate():
    grid = Grid.uniform((0, 1, 21), [(-1, 1, 21)], (0, 1, 3))
    kernel = BumpKernel(2)
    exact = sample(lambda x, y, t: np.sqrt(x) + 0 * y, grid)
    _, slope = smoothing_rate(lambda x, y, t: np.sqrt(x) + 0 * y + 0 * t,
                              exact.values, [1e-2, 1e-3, 1e-4, 1e-5],
                              kernel, grid)
    const = smooth_field(lambda x, y, t: 2.5 + 0 * x, 1e-3, kernel, grid)
    const_err = float(np.max(np.abs(const.values - 2.5)))
    odd = smooth_field(lambda x, y, t: y + 0 * x, 1e-3, kernel, grid)
    odd_exact = sample(lambda x, y, t: y + 0 * x, grid)
    odd_err = float(np.max(np.abs(odd.values - odd_exact.values)))
    ok = slope >= 0.45 and const_err <= 1e-8 and odd_err <= 1e-8
    verdict(10, "smoothing rate", ok,
            f"log-log exponent {slope:.3f} >= 0.45, constant error "
            f"{const_err:.1e} and odd-linear error {odd_err:.1e} <= 1e-8")


def test_criterion_11_measure_correctness():
    worst = 0.0
    for s0 in (0.0, 1.0, 2.0):
        for rho in (0.5, 1.0):
            for nu in (0.25, 0.5, 0.75):
                mu = WeightedMeasure(nu)
                cube = ParabolicCube("Q_rho", Point.at_s(s0, [0.0], 0.0), rho)
                analytic = cube_measure(cube, mu)
                grid = Grid.uniform(
                    (max(s0 - rho, 0.0), s0 + rho, 65),
                    [(-rho, rho, 65)], (-rho, rho, 65))
                quad = node_measure(np.ones(grid.shape, bool), grid, mu)
                worst = max(worst, abs(quad - analytic) / analytic)
    verdict(11, "measure correctness", worst <= 1e-6,
            f"worst relative deviation {worst:.2e} <= 1e-6 over 18 cases")


def test_criterion_11_disc_measure_converges():
    """Companion to criterion 11 that can fail: a set that is not a box.

    The Q_rho cube at n = 3 has a Euclidean y-disc, with closed-form measure
    (integral of s^(nu-1) ds) * pi r^2 * r^2 * nu / 2^3.  The grid spans its
    s- and t-extents exactly, where `node_measure` integrates each dual cell
    exactly, so the error is the disc's dual cells alone.  It must shrink
    with every refinement of the y-axes and stay below 2 sqrt(2) h / r, the
    annulus that holds every dual cell the circle crosses.  Measured:
    relative errors 8.5e-3, 5.5e-3, 2.3e-3 at 33, 65, 129 cells, order 0.97.
    """
    nu, s0, r, t0 = 0.5, 1.0, 0.5, 1.0
    cube = ParabolicCube("Q_rho", Point.at_s(s0, [0.0, 0.0], t0), r)
    exact = ((s0 + r) ** nu - (s0 - r) ** nu) / nu * math.pi * r ** 4 * nu / 2 ** 3
    cells = (33, 65, 129)
    errs = []
    for k in cells:
        grid = Grid.uniform((s0 - r, s0 + r, 9), [(-r, r, k + 1)] * 2, (t0 - r * r, t0, 9))
        quad = node_measure(cube.node_mask(grid), grid, WeightedMeasure(nu))
        errs.append(abs(quad - exact) / exact)
    order = math.log(errs[0] / errs[-1]) / math.log(cells[-1] / cells[0])
    bounded = all(e <= 2.0 * math.sqrt(2.0) * (2.0 * r / k) / r for e, k in zip(errs, cells))
    ok = errs[0] > errs[1] > errs[2] and bounded
    verdict(11, "disc measure convergence", ok,
            "relative errors " + ", ".join(f"{e:.2e}" for e in errs)
            + f" at {cells} cells per y-axis shrink, order {order:.2f}, "
            "each below the annulus bound 2 sqrt(2) h / r")


@pytest.mark.parametrize("nu", [0.25, 0.5])
@pytest.mark.parametrize("shape, blocks", [((33, 33, 33), 1), ((97, 97, 9), 2),
                                           ((17, 17, 17, 17), 2), ((33, 33, 33, 9), 6)],
                         ids=["33^3", "97^2x9", "17^4", "33^3x9"])
def test_criterion_11_measure_is_the_forcing_norms_quadrature(shape, blocks, nu):
    """node_measure over a cube is nu / 2^n times lp_norm_weighted of 1, bitwise.

    Criterion 11 holds `node_measure` to the closed form; every estimate's
    forcing norm integrates with `lp_norm_weighted`, which applies the same
    node-dual weights `blocks` runs of whole s-rows at a time.
    """
    n = len(shape) - 1
    grid = Grid.uniform((0, 1, shape[0]), [(-1, 1, k) for k in shape[1:-1]], (0, 1, shape[-1]))
    assert math.ceil(shape[0] / (fields._LP_BLOCK // math.prod(shape[1:]))) == blocks
    mu = WeightedMeasure(nu)
    one = ScalarField(grid, np.ones(grid.shape))
    for cube in (ParabolicCube("Q_rho", Point.at_s(0.5, [0.0] * (n - 1), 0.75), 0.4),
                 ParabolicCube("B_eta", Point(0.25, [0.25] * (n - 1), 1.0), 0.8)):
        quad = lp_norm_weighted(one, 1, cube, mu) * mu.nu / 2.0 ** n
        assert node_measure(cube.node_mask(grid), grid, mu) == quad


def test_criterion_12_cli_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli_main(["run", "model_manufactured", "--out", str(out1)]) == 0
    assert cli_main(["run", "model_manufactured", "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
    ok = mismatch == [] and errors == [] and len(match) == len(names)
    verdict(12, "cli determinism", ok,
            f"{len(names)} output files bit-identical across repeated runs")
