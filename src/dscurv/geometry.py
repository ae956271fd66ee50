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

The bundle is 2x2 component arithmetic (sigma = diag(1, sin^2 phi)):
a symmetric tensor is the tuple (x_00, x_01, x_11), or (x_00,) on S^1;
the arrays g[i, j, ...], g_inv and A are built on access.  The
curvature sums and the principal curvatures are tuples per node and
keep the symmetric functions' trailing axis, sums[..., j - 1] = S_j.

Spacelike means cosh^2(u) - |grad u|^2 > 0 node-wise; a small relative
guard keeps the tilt finite and the linearized operator well
conditioned near the light cone.  A graph that is not spacelike raises
SpacelikeError carrying the violating node ids.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, SpacelikeError
from .grid import _padded

# Relative margin below which a node counts as non-spacelike.
SPACELIKE_GUARD = 1e-8

# Tolerance for the closed-form metric inverse check g . g_inv = I.
METRIC_INVERSE_TOL = 1e-10


@dataclass
class InducedGeometry:
    """Per-node geometric data derived from a spacelike graph function."""

    grid: object
    u: np.ndarray
    du: np.ndarray            # round-metric partials p_i = u_i
    q: tuple                  # q_i = sigma^{ij} u_j
    grad_norm2: np.ndarray    # |grad u|^2 = p.q
    cosh_u: np.ndarray
    margin: np.ndarray        # m = cosh^2(u) - |grad u|^2
    tau: np.ndarray
    eta: np.ndarray
    g_comp: tuple
    g_inv_comp: tuple
    A_comp: tuple
    sums: np.ndarray          # S_1..S_n of the principal curvatures, (..., n)

    du_raised = property(lambda self: np.array(self.q))
    g = property(lambda self: _matrix(self.g_comp))
    g_inv = property(lambda self: _matrix(self.g_inv_comp))
    A = property(lambda self: _matrix(self.A_comp))

    @property
    def shape_eigs(self):
        """Ascending principal curvatures, (..., n), computed on access."""
        return _shape_eigenvalues(self.A_comp, self.g_comp)

    @property
    def abs_A(self):
        """Norm of the shape operator, sqrt(sum lam_i^2) = sqrt(S1^2 - 2 S2)."""
        s2 = self.sums[..., 1] if self.grid.dim == 2 else 0.0
        return np.sqrt(self.sums[..., 0] ** 2 - 2.0 * s2)


def _matrix(X):
    """The (n, n, ...) array of the symmetric component tuple X."""
    if len(X) == 1:
        return X[0][None, None]
    return np.array([[X[0], X[1]], [X[1], X[2]]])


def _double_dot(X, Y):
    """X:Y = X_ij Y_ij of two component tuples, column by column."""
    if len(X) == 1:
        return X[0] * Y[0]
    return (X[0] * Y[0] + X[1] * Y[1]) + (X[1] * Y[1] + X[2] * Y[2])


def _times(X, v):
    """The covector X v of a component tuple X and components v_j."""
    if len(X) == 1:
        return [X[0] * v[0]]
    return [X[0] * v[0] + X[1] * v[1], X[1] * v[0] + X[2] * v[1]]


def _check_inverse(g, g_inv):
    # column j of g g^-1 is g times column j of g^-1
    cols = [g_inv[:1]] if len(g) == 1 else [g_inv[:2], g_inv[1:]]
    err = max(np.max(np.abs(x - float(i == j))) for j, col in enumerate(cols)
              for i, x in enumerate(_times(g, col)))
    if err > METRIC_INVERSE_TOL:
        raise InternalConsistencyError(
            f"metric inverse check failed: |g g_inv - I| = {err:.3e}")


def shape_eigenvalues(A, g):
    """Principal curvatures per node, sorted ascending, (..., n) for A
    and g of shape (n, n, ...): the eigenvalues of L^{-1} A L^{-T} for
    the Cholesky factor g = L L^T, a symmetric matrix, so the output is
    real (and exact at umbilic points)."""
    return _shape_eigenvalues(_components(A), _components(g))


def _components(X):
    """The component tuple of the symmetric (n, n, ...) array X."""
    return (X[0, 0],) if len(X) == 1 else (X[0, 0], X[0, 1], X[1, 1])


def _shape_eigenvalues(A, g):
    """shape_eigenvalues of the component tuples A and g."""
    g00 = g[0]
    bad = g00 <= 0.0
    l00 = np.sqrt(np.where(bad, 1.0, g00))
    if len(A) == 3:
        l10 = g[1] / l00
        rest = g[2] - l10 ** 2
        bad |= rest <= 0.0
    if bad.any():
        raise SpacelikeError(np.flatnonzero(bad.ravel()).tolist(),
                             "Cholesky failure: metric not positive definite")
    if len(A) == 1:
        return (A[0] / l00 ** 2)[..., None]
    l11 = np.sqrt(rest)
    i00 = 1.0 / l00
    i10 = -l10 / (l00 * l11)
    i11 = 1.0 / l11
    a00, a01, a11 = A
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


def _cone(u, pad, grid, rings):
    """The light-cone test of the graph on the rings ``rings``, from u and
    its padding (_padded) cut to those rings: (du, q, |grad u|^2,
    cosh u, cosh^2 u, margin, bad), bad marking the nodes that are not
    spacelike."""
    du = grid.partial_gradient(u, pad=pad)
    p0 = du[0]
    if grid.dim == 2:
        q = (p0, grid.sigma_inv[1, 1, rings] * du[1])
        gn2 = p0 * p0 + du[1] * q[1]
    else:
        q = (p0,)
        gn2 = p0 * p0
    cosh_u = np.cosh(u)
    c2 = cosh_u ** 2
    margin = c2 - gn2
    return du, q, gn2, cosh_u, c2, margin, margin <= SPACELIKE_GUARD * c2


def _geometry(u, grid, check_inverse, rings=slice(None), pad=None):
    """The bundle of the graph u on its rings ``rings``, a slice of u's
    first axis (every node by default): each array covers those rings
    only.  ``pad`` is u's padding (_padded), when the caller has it."""
    u = grid.check_field(u)
    if pad is None:
        pad = _padded(u)
    lo, hi, _ = rings.indices(len(u))
    u, pad = u[lo:hi], pad[lo:hi + 2]
    du, q, gn2, cosh_u, c2, margin, bad = _cone(u, pad, grid, rings)
    if bad.any():
        # ids on the whole grid: ring lo starts at node lo * (its size)
        raise SpacelikeError(
            (lo * bad[0].size + np.flatnonzero(bad.ravel())).tolist())
    two = grid.dim == 2
    p0 = du[0]
    hess = grid.partial_hessian(u, pad=pad)
    tau = c2 / np.sqrt(margin)
    eta = np.sinh(u)
    ratio = tau / cosh_u
    two_th = 2.0 * np.tanh(u)
    ec = eta * cosh_u
    cm = c2 * margin
    p00 = p0 * p0
    g = [c2 - p00]
    g_inv = [1.0 / c2 + q[0] * q[0] / cm]
    A = [ratio * (hess[0, 0] - two_th * p00 + ec)]
    if two:
        # sigma = diag(1, sin^2 phi): Hess_01 = H_01 - Gamma^1_01 p_1 and
        # Hess_11 = H_11 - Gamma^0_11 p_0
        p1, sin2 = du[1], grid.sigma[1, 1, rings]
        p01, p11 = p0 * p1, p1 * p1
        g += [-p01, c2 * sin2 - p11]
        g_inv += [q[0] * q[1] / cm,
                  grid.sigma_inv[1, 1, rings] / c2 + q[1] * q[1] / cm]
        gamma = grid.christoffel
        A += [ratio * (hess[0, 1] - gamma[1, 0, 1, rings] * p1 - two_th * p01),
              ratio * (hess[1, 1] - gamma[0, 1, 1, rings] * p0 - two_th * p11
                       + ec * sin2)]
    if check_inverse:
        _check_inverse(g, g_inv)
    # S_1 = g^ij A_ij and, on S^2, S_2 = det A / det g
    sums = [_double_dot(g_inv, A)]
    if two:
        sums.append((A[0] * A[2] - A[1] ** 2) / (g[0] * g[2] - g[1] ** 2))
    return InducedGeometry(
        grid=grid, u=u, du=du, q=q, grad_norm2=gn2, cosh_u=cosh_u,
        margin=margin, tau=tau, eta=eta, g_comp=tuple(g),
        g_inv_comp=tuple(g_inv), A_comp=tuple(A), sums=np.stack(sums, axis=-1))


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
