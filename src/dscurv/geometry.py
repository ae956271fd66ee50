"""Induced geometry of the radial graph over the sphere.

A graph function u on S^n parametrizes a hypersurface of de Sitter
space through Y(u(xi), xi) = sinh(u) E_1 + cosh(u) xi.  This module
turns u into the per-node geometric bundle: induced metric g and its
closed-form inverse, tilt tau, height eta = sinh(u), second fundamental
form A, and the elementary symmetric functions S_1..S_n of the
principal curvatures in closed form (S_1 = g^{ij} A_ij and, on S^2,
S_2 = det A / det g), which is all the curvature equation and the bound
monitors read.  The principal curvatures themselves (eigenvalues of the
shape operator g^{-1}A) are computed on request, for output and
checks, through a Cholesky-symmetrized eigenproblem so they stay real
and exact at umbilic points.

Tensors are component-first like the grid's: du[i, ...], g[i, j, ...],
A[i, j, ...].  The curvature sums and the principal curvatures are
tuples per node and keep the symmetric functions' trailing axis,
sums[..., j - 1] = S_j.

Spacelike means cosh^2(u) - |grad u|^2 > 0 node-wise; a small relative
guard keeps the tilt finite and the linearized operator well
conditioned near the light cone.  A graph that is not spacelike raises
SpacelikeError carrying the violating node ids.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, SpacelikeError
from .grid import _padded, covariant_hessian

# Relative margin below which a node counts as non-spacelike.
SPACELIKE_GUARD = 1e-8

# Tolerance for the closed-form metric inverse check g . g_inv = I.
METRIC_INVERSE_TOL = 1e-10


@dataclass
class InducedGeometry:
    """Per-node geometric data derived from a spacelike graph function."""

    grid: object
    u: np.ndarray
    du: np.ndarray            # round-metric partials u_i
    du_raised: np.ndarray     # sigma^{ij} u_j
    grad_norm2: np.ndarray    # |grad u|^2 = sigma^{ij} u_i u_j
    g: np.ndarray
    g_inv: np.ndarray
    tau: np.ndarray
    eta: np.ndarray
    A: np.ndarray
    sums: np.ndarray          # S_1..S_n of the principal curvatures, (..., n)

    @property
    def shape_eigs(self):
        """Ascending principal curvatures, (..., n), computed on access."""
        return shape_eigenvalues(self.A, self.g)

    @property
    def abs_A(self):
        """Norm of the shape operator, sqrt(sum lam_i^2) = sqrt(S1^2 - 2 S2)."""
        s2 = self.sums[..., 1] if self.grid.dim == 2 else 0.0
        return np.sqrt(self.sums[..., 0] ** 2 - 2.0 * s2)


def _contract(X, Y):
    """X:Y = X_ij Y_ij per node: the sums over i of each column j, then
    their sum, one fixed order for every such contraction."""
    return np.einsum("ij...,ij...->j...", X, Y).sum(axis=0)


def _check_inverse(g, g_inv):
    ident = np.einsum("ik...,kj...->ij...", g, g_inv)
    n = len(g)
    ident[range(n), range(n)] -= 1.0
    err = np.max(np.abs(ident))
    if err > METRIC_INVERSE_TOL:
        raise InternalConsistencyError(
            f"metric inverse check failed: |g g_inv - I| = {err:.3e}")


def shape_eigenvalues(A, g):
    """Principal curvatures per node, sorted ascending, (..., n) for A
    and g of shape (n, n, ...): the eigenvalues of L^{-1} A L^{-T} for
    the Cholesky factor g = L L^T, a symmetric matrix, so the output is
    real (and exact at umbilic points)."""
    g00 = g[0, 0]
    bad = g00 <= 0.0
    l00 = np.sqrt(np.where(bad, 1.0, g00))
    if len(A) == 2:
        l10 = g[0, 1] / l00
        rest = g[1, 1] - l10 ** 2
        bad |= rest <= 0.0
    if bad.any():
        raise SpacelikeError(np.flatnonzero(bad.ravel()).tolist(),
                             "Cholesky failure: metric not positive definite")
    if len(A) == 1:
        return (A[0, 0] / l00 ** 2)[..., None]
    l11 = np.sqrt(rest)
    i00 = 1.0 / l00
    i10 = -l10 / (l00 * l11)
    i11 = 1.0 / l11
    a00, a01, a11 = A[0, 0], A[0, 1], A[1, 1]
    b00 = i00 * a00
    b01 = i00 * a01
    b10 = i10 * a00 + i11 * a01
    b11 = i10 * a01 + i11 * a11
    m00 = b00 * i00
    m11 = b10 * i10 + b11 * i11
    m_off = 0.5 * (b00 * i10 + b01 * i11 + b10 * i00)
    mean = 0.5 * (m00 + m11)
    disc = np.sqrt((0.5 * (m00 - m11)) ** 2 + m_off ** 2)
    return np.stack([mean - disc, mean + disc], axis=-1)


def _curvature_sums(A, g, g_inv):
    """S_1..S_n of the principal curvatures, (..., n), in closed form:
    S_1 = g^{ij} A_ij and, for n = 2, S_2 = det A / det g."""
    s1 = _contract(g_inv, A)
    if len(A) == 1:
        return s1[..., None]
    det_a = A[0, 0] * A[1, 1] - A[0, 1] ** 2
    det_g = g[0, 0] * g[1, 1] - g[0, 1] ** 2
    return np.stack([s1, det_a / det_g], axis=-1)


def _geometry(u, grid, check_inverse):
    u = grid.check_field(u)
    pad = _padded(u)
    du = grid.partial_gradient(u, pad=pad)
    du_raised = np.einsum("ij...,j...->i...", grid.sigma_inv, du)
    gn2 = np.einsum("i...,i...->...", du, du_raised)
    cosh_u = np.cosh(u)
    margin = cosh_u ** 2 - gn2
    bad = margin <= SPACELIKE_GUARD * cosh_u ** 2
    if bad.any():
        raise SpacelikeError(np.flatnonzero(bad.ravel()).tolist())
    du_du = du[:, None] * du[None, :]
    g = cosh_u ** 2 * grid.sigma - du_du
    g_inv = (grid.sigma_inv / cosh_u ** 2
             + du_raised[:, None] * du_raised[None, :] / (cosh_u ** 2 * margin))
    if check_inverse:
        _check_inverse(g, g_inv)
    tau = cosh_u ** 2 / np.sqrt(margin)
    eta = np.sinh(u)
    hess = covariant_hessian(grid.partial_hessian(u, pad=pad), du,
                             grid.christoffel)
    tanh_u = np.tanh(u)
    A = (tau / cosh_u) * (hess - 2.0 * tanh_u * du_du + eta * cosh_u * grid.sigma)
    if grid.dim == 2:
        # keep symmetry exact down to the last bit
        A[1, 0] = A[0, 1]
    return InducedGeometry(
        grid=grid, u=u, du=du, du_raised=du_raised, grad_norm2=gn2, g=g,
        g_inv=g_inv, tau=tau, eta=eta, A=A, sums=_curvature_sums(A, g, g_inv))


def induced_geometry_unchecked(u, grid):
    """induced_geometry without the metric inverse check: the solver's
    per-iterate evaluation."""
    return _geometry(u, grid, check_inverse=False)


def induced_geometry(u, grid):
    """Full geometric bundle for a spacelike graph, with the closed-form
    metric inverse checked against g.

    Raises SpacelikeError carrying the violating node ids otherwise.
    """
    return _geometry(u, grid, check_inverse=True)
