"""Finite-difference operators on the sphere and their convergence.

Builds S^1 and S^2 grids, shows the pole-free staggering, and tabulates
the second-order convergence of the gradient and the covariant Hessian.
Tensors put their index axes first: partial_gradient(f)[i] and
covariant_hessian(...)[i, j] are grid-shaped, and the round metric
sigma[i, j] holds one row per ring.
"""

import numpy as np

from dscurv import build_grid, covariant_hessian


def round_hessian(f, grid):
    """Covariant Hessian d_ij f - Gamma^k_ij d_k f in the round metric."""
    return covariant_hessian(grid.partial_hessian(f), grid.partial_gradient(f),
                             grid.christoffel)


g1 = build_grid(1, 64)
g2 = build_grid(2, (32, 64))
print(f"S^1 grid: {g1.node_count} nodes, spacing h = {g1.h:.4f}")
print(f"S^2 grid: {g2.n_lat} x {g2.n_lon} nodes, h = {g2.h:.4f}, "
      f"first ring at phi = {g2.phi[0]:.4f} (poles excluded)")

print()
print("=== convergence: zonal Laplace-Beltrami eigenfunction check ===")
print("field 1.5 cos^2(phi) - 0.5 is a degree-2 harmonic: trace of the")
print("covariant Hessian must equal -6 times the field")
print(f"{'grid':>10} {'sup error':>12} {'ratio':>7}")
prev = None
grid = g2
for _ in range(3):
    phi, _ = grid.coords()
    f = 1.5 * np.cos(phi) ** 2 - 0.5
    lap = np.einsum("ij...,ij...->...", grid.sigma_inv, round_hessian(f, grid))
    err = np.max(np.abs(lap + 6.0 * f))
    ratio = "" if prev is None else f"{prev / err:7.2f}"
    print(f"{grid.n_lat:>5}x{grid.n_lon:<4} {err:12.3e} {ratio:>7}")
    prev = err
    grid = grid.refine()

print()
print("=== S^1 derivatives of cos(theta) ===")
print(f"{'nodes':>6} {'grad error':>12} {'hess error':>12}")
for n in (64, 128, 256):
    g = build_grid(1, n)
    u = np.cos(g.theta)
    eg = np.max(np.abs(g.partial_gradient(u)[0] + np.sin(g.theta)))
    eh = np.max(np.abs(round_hessian(u, g)[0, 0] + np.cos(g.theta)))
    print(f"{n:>6} {eg:12.3e} {eh:12.3e}")
