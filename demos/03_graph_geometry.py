"""Induced geometry of spacelike radial graphs.

A constant graph u = r is the umbilic slice: every closed-form quantity
(tilt cosh r, height sinh r, curvatures tanh r) is reproduced exactly by
the discrete pipeline because all derivatives of constants vanish in the
scheme.  Perturbed graphs show the tilt bound tau >= cosh(u) and the
spacelike guard.
"""

import numpy as np

from dscurv import SpacelikeError, build_grid, induced_geometry

g = build_grid(2, (32, 64))
r = 0.8814

u = np.full(g.shape, r)
geom = induced_geometry(u, g)
print(f"umbilic slice r = {r}")
print(f"  tau   = {geom.tau.max():.12f}   (cosh r = {np.cosh(r):.12f})")
print(f"  eta   = {geom.eta.max():.12f}   (sinh r = {np.sinh(r):.12f})")
print(f"  eigs  = {geom.shape_eigs.min():.12f} .. {geom.shape_eigs.max():.12f}"
      f"   (tanh r = {np.tanh(r):.12f})")
ident = np.einsum("ij...,jk...->ik...", geom.g, geom.g_inv) - np.eye(2)[..., None, None]
print(f"  |g g^-1 - I| = {np.max(np.abs(ident)):.2e}")

print()
phi, theta = g.coords()
u = 0.85 + 0.08 * np.cos(phi) + 0.04 * np.sin(phi) * np.sin(theta)
geom = induced_geometry(u, g)
gap = geom.tau - np.cosh(u)
print("perturbed graph 0.85 + 0.08 cos(phi) + 0.04 sin(phi) sin(theta):")
print(f"  tilt range   [{geom.tau.min():.6f}, {geom.tau.max():.6f}]")
print(f"  tau - cosh u in [{gap.min():.2e}, {gap.max():.2e}]  (never negative)")
print(f"  principal curvatures in "
      f"[{geom.shape_eigs.min():.4f}, {geom.shape_eigs.max():.4f}]")
print(f"  |A| (Frobenius) max = {geom.abs_A.max():.4f}")

print()
g1 = build_grid(1, 64)
steep = 1.0 + 0.9 * np.cos(3 * g1.theta)
try:
    induced_geometry(steep, g1)
except SpacelikeError as exc:
    print(f"steep S^1 profile: not spacelike, {len(exc.nodes)} nodes "
          "violate |grad u| < cosh u")
