import math

import numpy as np
import pytest

from degenpde.fields import Grid, ScalarField, sample
from degenpde.operators import (
    CoefficientField,
    apply_L,
    apply_L0,
    apply_parabolic,
    coefficients_from_expressions,
    manufactured_solutions,
    model_coefficients,
    parse_coefficient_preset,
    random_coefficients,
    validate_coefficients,
)


def unit_grid(nodes=17):
    return Grid.uniform((0, 1, nodes), [(-1, 1, nodes)], (0, 1, nodes))


def test_validate_model_coefficients_pass():
    rep = validate_coefficients(model_coefficients(1.0, 2), unit_grid(9))
    assert rep.passed
    assert rep.margins["transport"] >= 0


def test_validate_zero_transport_fails():
    coeffs = coefficients_from_expressions({"b1": "0"}, n=2, lam=0.5, nu=0.5)
    rep = validate_coefficients(coeffs, unit_grid(9))
    assert not rep.passed
    assert rep.margins["transport"] < 0


def test_validate_ellipticity_margin():
    # constant matrix with eigenvalues 0.4 and 1.0 against lambda = 0.5
    coeffs = coefficients_from_expressions(
        {"a11": "0.7", "a12": "0.3", "a22": "0.7", "b1": "1"},
        n=2, lam=0.5, nu=0.5)
    rep = validate_coefficients(coeffs, unit_grid(9))
    assert not rep.passed
    assert rep.margins["ellipticity"] == pytest.approx(-0.1, abs=1e-12)


@pytest.mark.parametrize("coeffs", [model_coefficients(2.0, 3), random_coefficients(11, 3)],
                         ids=["model", "random"])
def test_static_validation_matches_the_full_spacetime_grid(coeffs):
    g = Grid.uniform((0, 1, 9), [(-1, 1, 9), (-1, 1, 7)], (0, 1, 17))
    full = CoefficientField(coeffs.n, coeffs.a, coeffs.b, coeffs.params,
                            time_dependent=True)
    one_slice = validate_coefficients(coeffs, g)
    assert one_slice.margins == validate_coefficients(full, g).margins
    assert one_slice.passed


@pytest.mark.parametrize("key", ["a13", "b3", "a1", "c", "A11", "a21 "])
def test_expression_coefficients_refuse_an_unknown_key(key):
    with pytest.raises(ValueError, match=f"unknown coefficient key {key!r}"):
        coefficients_from_expressions({"b1": "1", key: "0.5"}, n=2)


def test_a_symmetric_pair_conflicts_only_when_the_parsed_expressions_differ():
    g = unit_grid(9)
    meshes = g.x_meshes()
    coeffs = coefficients_from_expressions({"a12": "x+1", "a21": " (x) + 01 "}, n=2)
    assert np.array_equal(coeffs.eval_a(meshes, g.shape)[0, 1],
                          np.broadcast_to(meshes[0] + 1.0, g.shape))
    with pytest.raises(ValueError, match="conflicting entries for a12/a21"):
        coefficients_from_expressions({"a12": "x+1", "a21": "1+x"}, n=2)


def test_late_loss_of_ellipticity_is_refused():
    # a22 = 1 - 0.6 t drops below lambda = 0.5 only for t > 5/6
    coeffs = coefficients_from_expressions({"a22": "1 - 0.6*t"}, n=2)
    assert coeffs.time_dependent
    rep = validate_coefficients(coeffs, unit_grid(13))
    assert not rep.passed
    assert rep.margins["ellipticity"] == pytest.approx(-0.1, abs=1e-12)


def test_apply_L_examples():
    g = unit_grid(21)
    coeffs = model_coefficients(2.0, 2)
    lu = apply_L(coeffs, sample(lambda x, y, t: x + 2.0 * t, g))
    assert np.max(np.abs(lu.values - 2.0)) <= 1e-10
    lu = apply_L(coeffs, sample(lambda x, y, t: y + 0 * x, g))
    assert np.max(np.abs(lu.values)) <= 1e-10
    lu = apply_L(coeffs, sample(lambda x, y, t: x * x + 0 * y, g))
    x = np.broadcast_to(g.s.reshape(-1, 1, 1) ** 2, g.shape)
    assert np.max(np.abs(lu.values - 2.0 * (1.0 + 2.0) * x)) <= 1e-9


def test_apply_L_linearity():
    g = unit_grid(13)
    coeffs = random_coefficients(5, 2)
    u = sample(lambda x, y, t: np.sin(x) + y * t, g)
    w = sample(lambda x, y, t: np.cos(y) + x * x, g)
    combo = ScalarField(g, 2.0 * u.values - 3.0 * w.values)
    lhs = apply_L(coeffs, combo).values
    rhs = 2.0 * apply_L(coeffs, u).values - 3.0 * apply_L(coeffs, w).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_apply_L0_annihilates_manufactured():
    g = Grid.uniform((0, 1, 33), [(-1, 1, 33)], (0, 1, 33))
    for v in (0.25, 1.0, 4.0):
        for ms in manufactured_solutions(v):
            f = sample(ms.f, g)
            gg = sample(ms.g, g)
            res = apply_L0(v, f).values - gg.values
            interior = res[1:-1, 2:-2, 2:-2]
            assert np.max(np.abs(interior)) <= 1e-10, ms.name


def test_apply_parabolic_is_u_t_minus_L():
    g = unit_grid(13)
    f = sample(lambda x, y, t: np.sin(x + y) * (1 + t * t), g)
    for v in (0.25, 4.0):
        assert np.array_equal(apply_parabolic(model_coefficients(v, 2), f).values,
                              apply_L0(v, f).values)
    # L annihilates a field constant in space; the second-order time
    # difference of t^2 is exact
    t_only = sample(lambda x, y, t: t * t + 0 * x, g)
    t = np.broadcast_to(g.t, g.shape)
    lu = apply_parabolic(random_coefficients(5, 2), t_only).values
    assert np.max(np.abs(lu - 2 * t)) <= 1e-12


def test_manufactured_catalog_contents():
    names = [ms.name for ms in manufactured_solutions(0.7)]
    assert "linear" in names
    assert "caloric_quadratic" in names
    assert len(names) >= 4


def test_presets():
    c = parse_coefficient_preset("model:v=2.5", 2)
    assert validate_coefficients(c, unit_grid(5)).passed
    c = parse_coefficient_preset("identity", 3)
    assert c.n == 3
    c = parse_coefficient_preset("random:seed=11", 2)
    assert validate_coefficients(c, unit_grid(9)).passed
    with pytest.raises(ValueError):
        parse_coefficient_preset("nonsense", 2)


def test_transport_velocity_positive():
    with pytest.raises(ValueError, match="transport velocity must be positive"):
        model_coefficients(0.0, 2)


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
def test_non_finite_velocity_is_refused_by_name(v):
    with pytest.raises(ValueError, match=f"transport velocity must be positive and finite, "
                                         f"got {v!r}"):
        model_coefficients(v, 2)
