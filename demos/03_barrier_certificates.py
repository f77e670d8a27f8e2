"""Search barrier parameters and certify their differential inequalities.

Two barrier families are certified. The Gaussian-kernel barrier, checked
on a dense grid, drives the Harnack growth lemma: it is >= 1 on a later
comparison cube, <= 0 on the parabolic boundary of the enclosing region,
and a supersolution of the adjoint inequality away from an inner cube. The
rational wall barrier phi = 1/((x + b|y|^2)|y|^2) satisfies a nonlinear
differential inequality that makes it a gradient-blocking wall for the
model equation; its polynomial residual is a quadratic form in (x, |y|^2)
whose positivity is decided exactly.
"""

from degenpde.barriers import (
    ModelBarrierParams,
    certify_barrier_inequality,
    certify_barrier_residual,
    certify_harnack_barrier,
    find_barrier_params,
    search_harnack_barrier_params,
)
from degenpde.operators import model_coefficients

print("Gaussian-kernel barrier, model coefficients, n = 2")
coeffs = model_coefficients(1.0, 2)
params = search_harnack_barrier_params(coeffs)
print(f"found gamma={params.gamma:g} tau0={params.tau0:g} m={params.m:g} "
      f"l={params.l:g}")
cert = certify_harnack_barrier(params, coeffs, nodes=33)
print(cert.to_text())

print("negative control: too-small decay rate m breaks the supersolution sign")
from degenpde.barriers import HarnackBarrierParams, compute_sup_offset

bad = HarnackBarrierParams(params.gamma, params.tau0, 8.0, params.l,
                           compute_sup_offset(params.tau0, params.l),
                           params.base)
bad_cert = certify_harnack_barrier(bad, coeffs, nodes=33)
print(f"m = 8: passed = {bad_cert.passed}, supersolution margin "
      f"{bad_cert.margins['supersolution']:.3e}")

print()
print("rational wall barrier per transport velocity")
for v in (0.25, 1.0, 4.0):
    p = find_barrier_params(v, n=2)
    m = certify_barrier_residual(p, 2).margins
    control = certify_barrier_residual(ModelBarrierParams(p.v, p.b, p.c, 0.0), 2)
    print(f"v={v:<5g} b={p.b:<10g} c={p.c:<10g} C={p.C:<6g} "
          f"alpha {m['alpha']:.3e} gamma {m['gamma']:.3e} cross {m['cross']:.3e}, "
          f"C=0 control alpha {control.margins['alpha']:.3e}")

print()
print("full certificate for v = 1 (translated form):")
print(certify_barrier_inequality("translated", find_barrier_params(1.0, 2),
                                 n=2).to_text())
