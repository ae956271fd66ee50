"""Homotopy continuation from the exact umbilic start to a target.

The deformation starts at t = 0 with the reference prescription, whose
solution is the constant lam with lam cosh^p(lam) = 1, and follows the
family to the target at t = 1 with damped Newton steps and adaptive
increments.  For the model target 0.5 tanh(r) tau^2 the final solution
is again a constant slice with closed-form radius ln(1 + sqrt 2), which
makes the whole path checkable end to end.

The homotopy runs on the coarsest grid of the refinement chain; each
finer grid (level) is one Newton solve at t = 1 from the prolonged
solution of the grid below.
"""

import numpy as np

from dscurv import (SolverConfig, SpaceTiltPower, build_grid, initial_constant,
                    run_homotopy, zeroth_coefficient_at_start)

lam = initial_constant(2.0)
c = zeroth_coefficient_at_start(2.0)
print(f"start radius lam (p = 2): {lam:.12f}, lam cosh^2 lam - 1 = "
      f"{lam * np.cosh(lam) ** 2 - 1:.1e}")
print(f"start linearization zeroth coefficient c = {c:.4f} (< 0: invertible)")

r_star = np.log(1.0 + np.sqrt(2.0))
print()
print("=== S^1, 128 nodes, k = 1, target 0.5 tanh(r) tau^2 ===")
state = run_homotopy(SpaceTiltPower(a0=0.5, a1=0.0, p=2.0),
                     build_grid(1, 128), SolverConfig(k=1, p=2.0))
print(f"{'level':>5} {'t':>7} {'iters':>5} {'residual':>10} {'min u':>9} "
      f"{'max u':>9}")
for rec in state.step_history:
    print(f"{rec.level:>5} {rec.t:7.4f} {rec.iters:>5} {rec.residual:10.2e} "
          f"{rec.min_u:9.6f} {rec.max_u:9.6f}")
print(f"closed-form radius ln(1 + sqrt 2) = {r_star:.12f}")
print(f"max |u - r*| = {np.max(np.abs(state.u - r_star)):.2e}")

print()
print("=== S^2, 32 x 64, k = 2, space-dependent target ===")
state = run_homotopy(SpaceTiltPower(a0=0.5, a1=0.1, p=2.0),
                     build_grid(2, (32, 64)), SolverConfig(k=2, p=2.0))
print(f"{'level':>5} {'t':>7} {'iters':>5} {'residual':>10} {'min u':>9} "
      f"{'max u':>9} {'max tau':>8} {'max |A|':>8}")
for rec in state.step_history:
    print(f"{rec.level:>5} {rec.t:7.4f} {rec.iters:>5} {rec.residual:10.2e} "
          f"{rec.min_u:9.6f} {rec.max_u:9.6f} {rec.max_tau:8.4f} "
          f"{rec.max_abs_A:8.4f}")
m = state.monitor
print(f"final monitors: all_ok = {m.all_ok}, u in [{m.min_u:.4f}, {m.max_u:.4f}] "
      f"within barriers [{m.R1:.4f}, {m.R2:.4f}], "
      f"worst cone margin {m.min_sigma_margin:.4f}")
print("levels: " + ", ".join(f"{level.resolution} ({level.steps} step(s), "
                             f"{level.newton_iters} Newton its)"
                             for level in state.levels))
