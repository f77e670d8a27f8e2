"""Explicit barrier functions and their certificates.

Two families:

* A Gaussian-kernel space-time barrier for comparison arguments on the big
  box K = B x (0, 18 rho^2): with theta = d_bar^2 the weighted squared
  distance to a base point, omega = (18 - theta) Lambda(theta, t) where
  Lambda is the heat-kernel profile e^(-theta/t)/(4 pi t).  The barrier is
  v = e^(-m t) omega^l(., t + tau0) - M(tau0), shifted by the sup of
  omega^l at time tau0 over {d_bar >= 1/2} so that v <= 0 on the parabolic
  boundary of K away from the inner cube.  Normalizing by the inf over the
  later comparison cube gives phi with phi >= 1 there, phi <= 0 on the
  outer boundary, and L phi - phi_t >= 0 off the inner cube.  Its
  certificate samples these properties on a grid.

* A rational wall barrier for the model operator,
  phi = 1/((x + b |y|^2) |y|^2), satisfying the differential inequality
  phi_t > x phi_xx + sum phi_{y_i y_i} + v phi_x - C x phi^2 + c phi^(3/2)
  for suitable constants (b, c, C).  It holds wherever a polynomial
  residual in (x, |y|^2) is positive (exactly there for c = 0; for c > 0
  this is only sufficient).  The residual is a binary quadratic form, which
  certify_barrier_residual decides exactly; the translated two-term form is
  not one and is checked on a grid.

Both families are expression texts (`harnack_barrier_expression`,
`wall_barrier_expression`), and every partial a certificate reads comes
from the expression engine (`CompiledExpression.partials`); there are no
hand-written derivatives.  Certificates serialize to a plain-text report.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .expressions import CompiledExpression
from .fields import Grid
from .geometry import ParabolicCube, Point
from .operators import CoefficientField, apply_L_exact

CERT_TOL = 1e-12

# The working set a Harnack barrier certificate may allocate: 512 MiB.  The
# n = 3 search on 33 nodes per axis has a traced peak of 265 MiB, so it fits
# with a margin of 1.9; the n = 4 search would need about 18 GiB, and is
# refused instead of running the host out of memory.
HARNACK_BUDGET_BYTES = 512 * 2 ** 20


# ---------------------------------------------------------------------------
# certificates


@dataclass
class BarrierCertificate:
    """Worst-case margins of a barrier's defining inequalities, on a grid or exact."""

    name: str
    params_text: str
    grid_text: str
    margins: dict
    info: dict
    passed: bool

    def to_text(self) -> str:
        lines = [
            f"barrier certificate: {self.name}",
            f"parameters: {self.params_text}",
            f"grid: {self.grid_text}",
        ]
        for key in sorted(self.margins):
            lines.append(f"margin {key}: {self.margins[key]:.17g}")
        for key in sorted(self.info):
            lines.append(f"info {key}: {self.info[key]:.17g}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Gaussian-kernel barrier


def lambda_kernel(theta, t):
    """Heat-kernel profile e^(-theta/t) / (4 pi t), theta >= 0, t > 0."""
    theta = np.asarray(theta, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("lambda_kernel needs t > 0")
    val = np.exp(-theta / t) / (4.0 * math.pi * t)
    if val.ndim == 0 and theta.ndim == 0:
        return float(val)
    return val


def omega_from_theta(theta, t):
    """(18 - theta) * lambda_kernel(theta, t)."""
    theta = np.asarray(theta, dtype=float)
    return (18.0 - theta) * lambda_kernel(theta, t)


def _base_pair(base):
    x0, y0 = base
    return float(x0), np.atleast_1d(np.asarray(y0, dtype=float))


def _refuse_non_finite(params, names):
    for name in names:
        if not math.isfinite(getattr(params, name)):
            raise ValueError(f"{name} must be finite, got {getattr(params, name)!r}")


@dataclass(frozen=True)
class HarnackBarrierParams:
    """Free parameters of the Gaussian-kernel barrier.

    gamma weights the tangential part of the distance, tau0 > 0 shifts the
    kernel time, m is the exponential decay rate, l the kernel power, and
    M_tau0 the sup offset that forces nonpositivity on the outer boundary.
    The parameters are validated structurally here; whether they actually
    produce a barrier is the job of certify_harnack_barrier.
    """

    gamma: float
    tau0: float
    m: float
    l: float
    M_tau0: float
    base: tuple  # (x0, y0-array)

    def __post_init__(self):
        _refuse_non_finite(self, ("gamma", "tau0", "m", "l", "M_tau0"))
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not 0 < self.tau0 < 1:
            raise ValueError("tau0 must lie in (0, 1)")
        if self.m <= 1 or self.l <= 1:
            raise ValueError("need m > 1 and l > 1")
        if self.M_tau0 < 0:
            raise ValueError("M_tau0 must be nonnegative")
        x0, y0 = _base_pair(self.base)
        if not x0 >= 0:
            raise ValueError(f"the base must lie in x >= 0, got x0 = {x0!r}")
        object.__setattr__(self, "base", (x0, y0))

    def describe(self) -> str:
        x0, y0 = self.base
        ytxt = ",".join(f"{v:g}" for v in y0)
        return (f"gamma={self.gamma:g} tau0={self.tau0:g} m={self.m:g} "
                f"l={self.l:g} M_tau0={self.M_tau0:.17g} base=({x0:g};{ytxt})")


def compute_sup_offset(tau0: float, l: float) -> float:
    """sup of omega^l(., tau0) over {d_bar >= 1/2}, in closed form: omega(1/4, tau0)^l.

    With theta = d_bar^2, d omega / d theta = -(1 + (18 - theta)/tau0)
    e^(-theta/tau0) / (4 pi tau0) is negative on [0, 18 + tau0], so omega
    decreases there, and past 18 + tau0 it rises back towards 0 while
    staying negative.  For odd l, omega^l is then at most omega(1/4)^l on
    [1/4, 18] and negative beyond.  For even l, omega^l = |omega|^l, and past
    18 |omega| is at most the dip's depth tau0 e^(-1 - 18/tau0) / (4 pi tau0),
    below omega(1/4) for tau0 in (0, 1): the supremum is the same.  A
    non-integer l leaves omega^l undefined past 18 (the barrier refuses it
    there), and this is its supremum over [1/4, 18].
    """
    return float(omega_from_theta(0.25, tau0) ** l)


def _num(value) -> str:
    """A float as expression text that reads back as the same float."""
    return repr(float(value))


def _harnack_texts(params: HarnackBarrierParams, rho: float):
    """Texts of omega and of v = e^(-m t) omega^l(theta, t + tau0) - M_tau0 at the rho-scale.

    theta = d_bar^2 to the base and t enter as theta/rho^2 and t/rho^2, so
    the derivatives carry the chain rule's powers of rho.  At x0 = 0 the
    x-part of d_bar^2 is written x: (x - x0)^2/(x + x0) is 0/0 at x = 0.
    """
    x0, y0 = params.base
    first = "x" if x0 == 0 else f"(x - {_num(x0)})^2/(x + {_num(x0)})"
    tangential = " + ".join(f"(y{j} - {_num(y0j)})^2" for j, y0j in enumerate(y0, 2))
    r2 = _num(rho * rho)
    theta = f"(({first} + {_num(params.gamma * params.gamma)}*({tangential}))/{r2})"
    time = f"(t/{r2} + {_num(params.tau0)})"
    omega = f"(18 - {theta})*exp(-{theta}/{time})/({_num(4.0 * math.pi)}*{time})"
    v = f"exp(-{_num(params.m)}*(t/{r2}))*({omega})^{_num(params.l)} - {_num(params.M_tau0)}"
    return omega, v


def harnack_barrier_expression(params: HarnackBarrierParams, rho: float = 1.0):
    """The rho-scale barrier v(x, y..., t) as a `CompiledExpression`."""
    return CompiledExpression(_harnack_texts(params, rho)[1])


def _refuse_fractional_power(params: HarnackBarrierParams, rho: float, coords) -> None:
    """Refuse a non-integer l where omega < 0, where numpy's power would give nan."""
    if float(params.l).is_integer():
        return
    if np.any(CompiledExpression(_harnack_texts(params, rho)[0])(*coords) < 0):
        raise ValueError(
            "omega is negative somewhere on the evaluation region and the "
            f"exponent l = {params.l:g} is not an integer"
        )


def harnack_barrier_v(point: Point, t: float, params: HarnackBarrierParams) -> float:
    """The unnormalized barrier at a half-space point and time t >= 0."""
    coords = (point.x, *point.y, t)
    _refuse_fractional_power(params, 1.0, coords)
    return float(harnack_barrier_expression(params)(*coords))


def harnack_region_grid(base, rho: float, n: int = 2, nodes: int = 33) -> Grid:
    """Uniform-s grid covering K = B x (0, 18 rho^2) around the base point."""
    x0, y0 = _base_pair(base)
    if y0.size != n - 1:
        raise ValueError("base dimension does not match n")
    r2 = 18.0 * rho * rho
    s_lo = math.sqrt(max(x0 - r2, 0.0))
    s_hi = math.sqrt(x0 + r2)
    half = 3.0 * math.sqrt(2.0) * rho
    return Grid(
        np.linspace(s_lo, s_hi, nodes),
        tuple(np.linspace(y0i - half, y0i + half, nodes) for y0i in y0),
        np.linspace(0.0, r2, nodes),
    )


def _inner_outer_cubes(base, rho: float):
    x0, y0 = _base_pair(base)
    q1 = ParabolicCube("Q_rho", Point(x0, y0, rho * rho / 4.0), rho / 2.0)
    q2 = ParabolicCube("Q_rho", Point(x0, y0, 10.0 * rho * rho / 4.0), 3.0 * rho / 2.0)
    return q1, q2


def _boundary_mask(grid: Grid) -> np.ndarray:
    """Parabolic boundary of the box: the t = 0 slice and the lateral edges."""
    mask = np.ones(grid.shape, dtype=bool)
    mask[grid.interior_box(1) + (slice(1, None),)] = False
    return mask


def _refuse_oversized_grid(n: int, nodes: int) -> None:
    """Refuse a verification grid whose working set exceeds HARNACK_BUDGET_BYTES.

    The estimate is 20 (n + 1)^2 bytes per node of the nodes^(n + 1) grid:
    `certify_harnack_barrier` on 33 nodes per axis peaks at 148 B per node
    at n = 2 and 234 B at n = 3 (traced).
    """
    count = nodes ** (n + 1)
    need = 20 * (n + 1) ** 2 * count
    if need > HARNACK_BUDGET_BYTES:
        raise ValueError(
            f"Harnack barrier verification grid refused: {nodes} nodes per axis at n = {n} "
            f"is {count:,} nodes, an estimated {need / 2 ** 20:,.1f} MiB working set, over "
            f"the {HARNACK_BUDGET_BYTES / 2 ** 20:,.1f} MiB budget (HARNACK_BUDGET_BYTES)")


def certify_harnack_barrier(params: HarnackBarrierParams, coeffs: CoefficientField,
                            rho: float = 1.0, nodes: int = 33) -> BarrierCertificate:
    """Check the barrier's defining properties on a grid over K.

    v is the rho-scale barrier and phi = v / inf_Q2 v, normalized by its
    inf over the later comparison cube Q2 = Q_(3 rho/2)(base, 10 rho^2/4).
    Margins (all must be nonnegative up to rounding):
      inner_lower_bound   min over Q2 of (phi - 1); zero at the argmin by
                          construction of the normalizer
      boundary_sign       -max of phi over the parabolic boundary of K
                          minus the inner cube Q1
      supersolution       min of (L phi - phi_t) over K minus Q1, L applied
                          by `operators.apply_L_exact` to the barrier's
                          exact partials

    Between the nodes of the t = 0 face one rule holds: v(., 0) =
    omega(theta, tau0)^l - M_tau0 depends on theta = d_bar^2/rho^2 alone,
    and is <= 0 wherever theta >= 1/4 when M_tau0 is the supremum of
    omega^l(., tau0) there, the closed form `compute_sup_offset` returns.

    Every partial comes from `harnack_barrier_expression`.  The C^(1,1)
    size `c11_times_rho2`, the max over the grid's nodes of |phi|, |phi_t|,
    |D phi| and the second derivatives as L weighs them (x phi_xx,
    sqrt(x) phi_xy, phi_yy), times rho^2, is reported as information (not
    asserted).  It is a sampled lower bound of the sup over K, not the sup:
    the kernel is far narrower than the node spacing, so it grows with
    refinement (1.1350e37 at 33 nodes, 2.0082e37 at 65 for the searched
    n = 2 barrier).  phi_t, phi_x and these second derivatives each scale
    as rho^-2 under x -> rho^2 x, y -> rho y, t -> rho^2 t.  A non-integer l
    where omega < 0 is refused, and so is a grid whose estimated working set
    exceeds HARNACK_BUDGET_BYTES, before any grid array is built.
    """
    n = coeffs.n
    x0, y0 = params.base
    if y0.size != n - 1:
        raise ValueError("base dimension does not match the coefficients")
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    _refuse_oversized_grid(n, nodes)
    grid = harnack_region_grid(params.base, rho, n, nodes)
    coords = grid.x_meshes()
    _refuse_fractional_power(params, rho, coords)
    q1, q2 = _inner_outer_cubes(params.base, rho)
    mask1 = q1.node_mask(grid)
    mask2 = q2.node_mask(grid)
    if not np.any(mask2):
        raise ValueError("comparison cube contains no grid nodes")
    v, v_t, grad, hess = harnack_barrier_expression(params, rho).partials(n)(*coords)
    v = np.broadcast_to(v, grid.shape)
    inf_v = float(np.min(v[mask2]))
    if inf_v <= 0:
        raise ValueError(
            f"barrier normalization failed: inf over the comparison cube is "
            f"{inf_v:g} <= 0 (parameters inadequate)"
        )
    root_x = np.sqrt(coords[0])
    second = ((root_x if i == 0 else 1.0) * (root_x if j == 0 else 1.0) * v_ij
              for (i, j), v_ij in hess.items())
    c11 = max(float(np.max(np.abs(d))) for d in (v, v_t, *grad, *second)) / inf_v * rho * rho
    diff = (apply_L_exact(coeffs, coords, grad, hess) - v_t) / inf_v
    del v_t, grad, hess
    phi = v / inf_v
    region = ~mask1
    diff = np.broadcast_to(diff, grid.shape)[region]
    margins = {
        "inner_lower_bound": float(np.min(phi[mask2]) - 1.0),
        "boundary_sign": -float(np.max(phi[_boundary_mask(grid) & region])),
        "supersolution": float(np.min(diff)),
    }
    scale_super = float(np.max(np.abs(diff)))
    info = {
        "normalizer_inf_v": inf_v,
        "supersolution_scale": scale_super,
        "rho": rho,
        "c11_times_rho2": c11,
    }
    passed = (
        margins["inner_lower_bound"] >= -CERT_TOL
        and margins["boundary_sign"] >= -CERT_TOL
        and margins["supersolution"] >= -CERT_TOL * max(1.0, scale_super)
    )
    grid_text = (f"K(base=({x0:g}), rho={rho:g}) {nodes} nodes/axis, n={n}")
    return BarrierCertificate(
        "gaussian-kernel barrier", params.describe(), grid_text, margins, info, passed
    )


def search_harnack_barrier_params(coeffs: CoefficientField) -> HarnackBarrierParams:
    """Scan m until a parameter set certifies on a verification grid.

    The base is the origin, gamma = 1, l = 3 and tau0 = 0.005; m runs
    through 16, 24, 32, 48, 64 and each candidate is certified at rho = 1 on
    33 nodes per axis.  Odd integer powers l keep the barrier negative on
    the lateral faces of the region, where the distance squared exceeds 18
    and the kernel factor turns negative; even powers there are positive and
    only beat the sup offset by accident of the grid. The returned
    parameters should still be re-certified at the caller's resolution; the
    certificate, not the search path, is the contract.  A verification grid
    over the working-set budget of `certify_harnack_barrier` (n >= 4) is
    refused first.
    """
    n = coeffs.n
    _refuse_oversized_grid(n, 33)
    base = (0.0, (0.0,) * (n - 1))
    gamma, tau0, l = 1.0, 0.005, 3.0
    # At the spatial base point the residual sign for times past the excluded
    # cube needs roughly m/l >= 2 gamma^2 (n-1)/(1/4 + tau0) + (2 gamma^2
    # (n-1) + 1)/18; values far below that floor cannot certify on any grid
    # that samples near the base point, so skip them (with slack for the
    # roughness of the estimate).
    g2 = 2.0 * gamma * gamma * (n - 1)
    m_floor = 0.95 * l * (g2 / (0.25 + tau0) + (g2 + 1.0) / 18.0)
    offset = compute_sup_offset(tau0, l)
    failures = []
    for m in (16.0, 24.0, 32.0, 48.0, 64.0):
        if m < m_floor:
            failures.append(f"tau0={tau0:g} m={m:g}: below floor {m_floor:g}, skipped")
            continue
        params = HarnackBarrierParams(gamma, tau0, m, l, offset, base)
        try:
            cert = certify_harnack_barrier(params, coeffs, rho=1.0, nodes=33)
        except ValueError as exc:
            failures.append(f"tau0={tau0:g} m={m:g}: {exc}")
            continue
        if cert.passed:
            return params
        worst = min(cert.margins, key=lambda k: cert.margins[k])
        failures.append(f"tau0={tau0:g} m={m:g}: {worst}={cert.margins[worst]:g}")
    raise ValueError(
        "no parameter set certified on the verification grid; attempts:\n  "
        + "\n  ".join(failures)
    )


# ---------------------------------------------------------------------------
# rational wall barrier for the model operator


@dataclass(frozen=True)
class ModelBarrierParams:
    """Constants (v, b, c, C) of the rational barrier inequality."""

    v: float
    b: float
    c: float
    C: float

    def __post_init__(self):
        _refuse_non_finite(self, ("v", "b", "c", "C"))
        if self.v <= 0 or self.b <= 0:
            raise ValueError("need v > 0 and b > 0")
        if self.c < 0 or self.C < 0:
            raise ValueError("need c >= 0 and C >= 0")

    def describe(self) -> str:
        return f"v={self.v:g} b={self.b:.17g} c={self.c:.17g} C={self.C:.17g}"


def barrier_condition_residual(params: ModelBarrierParams, x, S, n: int):
    """Polynomial residual of the barrier inequality in (x, S = |y|^2).

    residual = v (x + bS) S + C x (x + bS)
               - [2 x S + (10 - 2n + c b^(-1/2)) (x + bS)^2
                  + (10 - 2n) b (x + bS) S + 8 b^2 S^2]

    The differential inequality for phi = 1/((x + bS) S) holds wherever
    this polynomial is positive: exactly there for c = 0, while for c > 0
    the bound S <= (x + bS)/b on c phi^(3/2) makes it only sufficient.
    certify_barrier_residual decides its sign exactly.
    """
    x = np.asarray(x, dtype=float)
    S = np.asarray(S, dtype=float)
    b, c, C, v = params.b, params.c, params.C, params.v
    P = x + b * S
    lhs = (2.0 * x * S + (10.0 - 2.0 * n + c / math.sqrt(b)) * P * P
           + (10.0 - 2.0 * n) * b * P * S + 8.0 * b * b * S * S)
    return v * P * S + C * x * P - lhs


def certify_barrier_residual(params: ModelBarrierParams, n: int) -> BarrierCertificate:
    """Decide exactly whether the barrier residual is positive for all x, S.

    barrier_condition_residual is the binary quadratic form
    alpha x^2 + beta x S + gamma S^2 with K = 10 - 2n + c/sqrt(b) and

        alpha = C - K
        beta  = v + C b - 2 - 2 b K - (10 - 2n) b
        gamma = b (v - b (28 - 4n) - c sqrt(b)),

    positive on the closed quadrant minus the origin exactly when alpha > 0,
    gamma > 0, and beta >= 0 or beta^2 < 4 alpha gamma (strict copositivity;
    Hadeler, Linear Algebra Appl. 49, 1983).  The verdict is decided in
    rationals over the float parameters, with sqrt(b) enclosed between two
    rationals and each coefficient taken at its worst end.  Margins: alpha,
    gamma, and cross = beta if beta >= 0, else 4 alpha gamma - beta^2.
    """
    v, b, c, C = (Fraction(val) for val in (params.v, params.b, params.c, params.C))
    # sqrt(b) = sqrt(p q 2^256) / (q 2^128) lies in [root / den, (root + 1) / den)
    root, den = math.isqrt(b.numerator * b.denominator << 256), b.denominator << 128
    K = 10 - 2 * n + c * den / root
    alpha = C - K
    beta = v + C * b - 2 - 2 * b * K - (10 - 2 * n) * b
    gamma = b * (v - b * (28 - 4 * n) - c * Fraction(root + 1, den))
    cross = beta if beta >= 0 else 4 * alpha * gamma - beta * beta
    margins = {"alpha": _float(alpha), "gamma": _float(gamma), "cross": _float(cross)}
    return BarrierCertificate(
        "rational wall barrier residual", params.describe(),
        f"none; exact over x >= 0, |y|^2 > 0, n={n}", margins,
        {"beta": _float(beta)}, alpha > 0 and gamma > 0 and cross > 0,
    )


def _float(q: Fraction) -> float:
    """q rounded to a float, +-inf beyond the float range."""
    if abs(q) <= sys.float_info.max:
        return float(q)
    return math.inf if q > 0 else -math.inf


def find_barrier_params(v, n: int = 2) -> ModelBarrierParams:
    """Constants (b, c, C) whose barrier residual is certified positive.

    b starts at v/16 and halves until the b-quadratic terms are dominated
    at x = 0; c is then fixed small relative to v and sqrt(b); C doubles
    from 16/b until certify_barrier_residual passes.  gamma does not depend
    on C, and alpha and beta grow with it, so the doubling ends; a b whose
    float test rounds past a tie, leaving gamma <= 0 exactly, is refused,
    and so is a v so small that 16/b leaves the float range.
    """
    v = float(v)
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"transport velocity must be finite and positive, got {v!r}")
    if n < 2:
        raise ValueError("n must be >= 2")
    b = v / 16.0
    c = v * math.sqrt(b) / 8.0
    # x = 0 requirement: v - b(28 - 4n) - c sqrt(b) > 0
    while v - b * (28.0 - 4.0 * n) - c * math.sqrt(b) <= 0:
        b /= 2.0
        c = v * math.sqrt(b) / 8.0
    if b < 16.0 / sys.float_info.max:
        raise ValueError(f"transport velocity {v!r} is too small: b = {b!r} "
                         "puts C = 16/b beyond the float range")
    params = ModelBarrierParams(v, b, c, 16.0 / b)
    cert = certify_barrier_residual(params, n)
    while not cert.passed:
        if cert.margins["gamma"] <= 0:  # C cannot help; the float b test rounded a tie
            raise ValueError(f"gamma = {cert.margins['gamma']:.3g} <= 0 in exact "
                             f"arithmetic with {params.describe()}, n={n}")
        params = ModelBarrierParams(v, b, c, 2.0 * params.C)
        cert = certify_barrier_residual(params, n)
    return params


_PHI_FORMS = ("centered", "translated")


def _wall_term(b: float, zs) -> str:
    """Text of 1/((x + bS)S), S the sum of the squares of the texts zs."""
    S = "(" + " + ".join(f"{z}^2" for z in zs) + ")"
    return f"1/((x + {_num(b)}*{S})*{S})"


def wall_barrier_expression(phi_form: str, b: float, n: int) -> CompiledExpression:
    """The wall barrier over x, y2, ..., yn as a `CompiledExpression`.

    'centered' is phi = 1/((x + bS)S) with S = |y|^2; 'translated' is the
    centred one at z = 1 - y plus the centred one at z = 1 + y.
    """
    ys = [f"y{i}" for i in range(2, n + 1)]
    if phi_form == "centered":
        return CompiledExpression(_wall_term(b, ys))
    if phi_form == "translated":
        return CompiledExpression(" + ".join(
            _wall_term(b, [f"(1 {sign} {y})" for y in ys]) for sign in "-+"))
    raise ValueError(f"unknown barrier form {phi_form!r}; use one of {_PHI_FORMS}")


def certify_barrier_inequality(phi_form: str, params: ModelBarrierParams,
                               n: int = 2) -> BarrierCertificate:
    """Grid check of phi_t > x phi_xx + sum phi_yy + v phi_x - C x phi^2 + c phi^(3/2).

    phi is time-independent, so the requirement is that the right side is
    strictly negative on the region {0 <= x <= 4, 0 < y_i < 2} (off the
    poles), sampled on 33 nodes per axis.  phi_x, phi_xx and the phi_yy
    are the partials of `wall_barrier_expression`.
    """
    v, b, c, C = params.v, params.b, params.c, params.C
    expression = wall_barrier_expression(phi_form, b, n)
    x_ax = np.linspace(0.0, 4.0, 33)
    y_ax = np.linspace(0.0, 2.0, 34)[1:]  # open at 0
    if phi_form == "translated":
        # keep clear of the interior pole at y_i = 1
        y_ax = y_ax[np.abs(y_ax - 1.0) > 1e-9]
    x, *ys = np.meshgrid(x_ax, *([y_ax] * (n - 1)), indexing="ij", sparse=True)
    phi, _, grad, hess = expression.partials(n)(x, *ys, 0.0)
    expr = (x * hess[0, 0] + sum(hess[i, i] for i in range(1, n)) + v * grad[0]
            - C * x * phi * phi + c * phi ** 1.5)
    margin = -float(np.max(expr))
    margins = {"inequality": margin}
    info = {"min_phi": float(np.min(phi))}
    grid_text = f"x in [0,4], y_i in (0,2], 33 nodes/axis, n={n}"
    return BarrierCertificate(
        f"rational wall barrier ({phi_form})", params.describe(), grid_text,
        margins, info, margin > 0,
    )
