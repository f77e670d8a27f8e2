"""Solve the model equation against exact solutions and measure convergence.

The equation u_t = x u_xx + u_yy + v u_x degenerates at x = 0; no boundary
condition is imposed there because the transport term v u_x carries
information outward. This script checks that the solver reproduces exact
polynomial solutions and converges at the expected orders. The solver has
no settings: it takes one implicit-Euler step per output slice, so the
temporal study refines the t-grid; the n >= 3 Krylov budget is the fixed
`solver.KRYLOV_MAX_ITER`.
"""

import numpy as np

from degenpde.fields import Grid, sample
from degenpde.operators import manufactured_solutions
from degenpde.solver import solve_model

v = 1.0
grid = Grid.uniform((0, 1, 33), [(-1, 1, 33)], (0, 1, 33))

print("exact solutions of the model equation, v = 1, grid 33^3")
print(f"{'solution':24s} {'max error':>12s}")
for ms in manufactured_solutions(v):
    u = solve_model(v, ms.g, ms.f, ms.f, grid)
    exact = sample(ms.f, grid)
    err = float(np.max(np.abs(u.values - exact.values)))
    print(f"{ms.name:24s} {err:12.3e}")

print()
print("temporal convergence on the quadratic solution (implicit Euler, order 1)")
f = lambda x, y, t: x * x + 4 * x * t + 2 * t * t + 0 * y
prev = None
for dt in (0.1, 0.05, 0.025, 0.0125):
    g_t = Grid.uniform((0, 1, 65), [(-1, 1, 9)], (0, 1, round(1 / dt) + 1))
    u = solve_model(v, None, f, f, g_t)
    exact = sample(f, g_t)
    err = float(np.max(np.abs(u.values[..., -1] - exact.values[..., -1])))
    ratio = "" if prev is None else f"  ratio {prev / err:.2f}"
    print(f"dt = {dt:<8g} error {err:.3e}{ratio}")
    prev = err
