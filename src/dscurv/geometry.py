"""Induced geometry of the radial graph over the sphere.

A graph function u on S^n parametrizes a hypersurface of de Sitter
space through Y(u(xi), xi) = sinh(u) E_1 + cosh(u) xi.  This module
turns u into the per-node geometric bundle: induced metric g and its
closed-form inverse, tilt tau, height eta = sinh(u), second fundamental
form A, and the principal curvatures (eigenvalues of the shape operator
g^{-1}A, computed through a Cholesky-symmetrized eigenproblem so they
stay real in floating point).

Spacelike means cosh^2(u) - |grad u|^2 > 0 node-wise; a small relative
guard keeps the tilt finite and the linearized operator well
conditioned near the light cone.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError, SpacelikeError

# Relative margin below which a node counts as non-spacelike.
SPACELIKE_GUARD = 1e-8

# Tolerance for the closed-form metric inverse check g . g_inv = I.
METRIC_INVERSE_TOL = 1e-10


class MetricResult(NamedTuple):
    g: np.ndarray
    g_inv: np.ndarray
    spacelike: bool
    violations: list


@dataclass
class InducedGeometry:
    """Per-node geometric data derived from a spacelike graph function."""

    grid: object
    u: np.ndarray
    du: np.ndarray            # round-metric partials u_i
    hess_sigma: np.ndarray    # round-metric covariant Hessian of u
    grad_norm2: np.ndarray    # |grad u|^2 = sigma^{ij} u_i u_j
    g: np.ndarray
    g_inv: np.ndarray
    tau: np.ndarray
    eta: np.ndarray
    A: np.ndarray
    shape_sym: np.ndarray     # L^{-1} A L^{-T} with g = L L^T
    shape_eigs: np.ndarray    # ascending principal curvatures, (..., n)
    spacelike: bool = True
    violations: list = field(default_factory=list)

    @property
    def abs_A(self):
        """Frobenius norm of the symmetrized shape matrix, sqrt(sum lam_i^2)."""
        return np.sqrt(np.sum(self.shape_eigs ** 2, axis=-1))


def _metric_pieces(u, grid):
    u = grid.check_field(u)
    du = grid.partial_gradient(u)
    du_raised = np.einsum("...ij,...j->...i", grid.sigma_inv, du)
    grad_norm2 = np.einsum("...i,...i->...", du, du_raised)
    cosh_u = np.cosh(u)
    margin = cosh_u ** 2 - grad_norm2
    bad = margin <= SPACELIKE_GUARD * cosh_u ** 2
    g = -du[..., :, None] * du[..., None, :] + (cosh_u ** 2)[..., None, None] * grid.sigma
    safe_margin = np.where(bad, 1.0, margin)
    g_inv = (
        grid.sigma_inv / (cosh_u ** 2)[..., None, None]
        + du_raised[..., :, None] * du_raised[..., None, :]
        / (cosh_u ** 2 * safe_margin)[..., None, None]
    )
    return u, du, du_raised, grad_norm2, cosh_u, margin, bad, g, g_inv


def induced_metric(u, grid):
    """Induced metric, closed-form inverse, and the spacelike verdict.

    Never raises on a spacelike violation: returns spacelike=False with
    the offending flat node indices so a line search can reject cheaply.
    """
    u, du, du_r, gn2, cosh_u, margin, bad, g, g_inv = _metric_pieces(u, grid)
    violations = np.flatnonzero(bad.ravel()).tolist()
    if not violations:
        ident = np.einsum("...ij,...jk->...ik", g, g_inv)
        ident -= np.eye(grid.dim)
        err = np.max(np.abs(ident))
        if err > METRIC_INVERSE_TOL:
            raise InternalConsistencyError(
                f"metric inverse check failed: |g g_inv - I| = {err:.3e}")
    return MetricResult(g, g_inv, not violations, violations)


def tilt_and_height(u, grid):
    """Tilt tau = cosh^2(u)/sqrt(cosh^2(u) - |grad u|^2) and height sinh(u).

    tau >= cosh(u) >= 1 with equality exactly where grad u vanishes.
    Raises SpacelikeError (with node ids) if the graph is not spacelike.
    """
    u, _, _, _, cosh_u, margin, bad, _, _ = _metric_pieces(u, grid)
    if bad.any():
        raise SpacelikeError(np.flatnonzero(bad.ravel()).tolist())
    tau = cosh_u ** 2 / np.sqrt(margin)
    return tau, np.sinh(u)


def _cholesky_factors(g, dim):
    if dim == 1:
        g00 = g[..., 0, 0]
        if np.any(g00 <= 0.0):
            raise SpacelikeError(np.flatnonzero((g00 <= 0.0).ravel()).tolist(),
                                 "Cholesky failure: metric not positive definite")
        return (np.sqrt(g00),)
    g00, g01, g11 = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    bad = g00 <= 0.0
    l00 = np.sqrt(np.where(bad, 1.0, g00))
    l10 = g01 / l00
    rest = g11 - l10 ** 2
    bad |= rest <= 0.0
    if bad.any():
        raise SpacelikeError(np.flatnonzero(bad.ravel()).tolist(),
                             "Cholesky failure: metric not positive definite")
    return l00, l10, np.sqrt(rest)


def symmetrized_shape(A, g):
    """L^{-1} A L^{-T} for g = L L^T: a symmetric matrix whose eigenvalues
    are the generalized eigenvalues of (A, g), i.e. the principal
    curvatures."""
    dim = A.shape[-1]
    if dim == 1:
        (l00,) = _cholesky_factors(g, 1)
        return A / (l00 ** 2)[..., None, None]
    l00, l10, l11 = _cholesky_factors(g, 2)
    i00 = 1.0 / l00
    i10 = -l10 / (l00 * l11)
    i11 = 1.0 / l11
    a00, a01, a11 = A[..., 0, 0], A[..., 0, 1], A[..., 1, 1]
    b00 = i00 * a00
    b01 = i00 * a01
    b10 = i10 * a00 + i11 * a01
    b11 = i10 * a01 + i11 * a11
    m00 = b00 * i00
    m01 = b00 * i10 + b01 * i11
    m10 = b10 * i00
    m11 = b10 * i10 + b11 * i11
    m_off = 0.5 * (m01 + m10)
    M = np.empty_like(A)
    M[..., 0, 0] = m00
    M[..., 0, 1] = m_off
    M[..., 1, 0] = m_off
    M[..., 1, 1] = m11
    return M


def _sym_eigenvalues(M):
    dim = M.shape[-1]
    if dim == 1:
        return M[..., 0, 0][..., None]
    a, b, c = M[..., 0, 0], M[..., 0, 1], M[..., 1, 1]
    mean = 0.5 * (a + c)
    disc = np.sqrt((0.5 * (a - c)) ** 2 + b ** 2)
    return np.stack([mean - disc, mean + disc], axis=-1)


def shape_eigenvalues(A, g):
    """Principal curvatures per node, sorted ascending.

    The computation goes through the Cholesky factor of g, which
    guarantees real output.
    """
    return _sym_eigenvalues(symmetrized_shape(A, g))


def induced_geometry_unchecked(u, grid):
    u, du, du_r, gn2, cosh_u, margin, bad, g, g_inv = _metric_pieces(u, grid)
    if bad.any():
        raise SpacelikeError(np.flatnonzero(bad.ravel()).tolist())
    tau = cosh_u ** 2 / np.sqrt(margin)
    eta = np.sinh(u)
    hess = grid.partial_hessian(u) - np.einsum(
        "...kij,...k->...ij", grid.christoffel, du)
    tanh_u = np.tanh(u)
    A = (tau / cosh_u)[..., None, None] * (
        hess
        - 2.0 * tanh_u[..., None, None] * (du[..., :, None] * du[..., None, :])
        + (np.sinh(u) * cosh_u)[..., None, None] * grid.sigma
    )
    if grid.dim == 2:
        # keep symmetry exact down to the last bit
        A[..., 1, 0] = A[..., 0, 1]
    M = symmetrized_shape(A, g)
    eigs = _sym_eigenvalues(M)
    return InducedGeometry(
        grid=grid, u=u, du=du, hess_sigma=hess, grad_norm2=gn2,
        g=g, g_inv=g_inv, tau=tau, eta=eta, A=A,
        shape_sym=M, shape_eigs=eigs,
    )


def induced_geometry(u, grid):
    """Full geometric bundle for a spacelike graph.

    Raises SpacelikeError carrying the violating node ids otherwise;
    use induced_metric() for the non-raising spacelike test.
    """
    metric = induced_metric(u, grid)
    if not metric.spacelike:
        raise SpacelikeError(metric.violations)
    return induced_geometry_unchecked(u, grid)
