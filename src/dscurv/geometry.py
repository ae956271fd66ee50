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
a symmetric tensor is the component array (x_00, x_01, x_11), or
(x_00,) on S^1, its first axis; the arrays g[i, j, ...], g_inv and A
are built on access, and _symmetric views a component array as one.
The curvature sums and the principal curvatures are tuples per node and
keep the symmetric functions' trailing axis, sums[..., j - 1] = S_j.
Every array is written with out= into memory the caller's allocator
hands out: a fresh array each (FRESH), or a Workspace's, which the
identity monitor reuses from ring slab to ring slab.  _geometry builds
one bundle, less the sums, for every caller: the public entry points
add the sums, and the monitor gives the bundle's partials, |grad u|^2,
cosh u and margin back to its workspace, as it reads none of them.

Spacelike means cosh^2(u) - |grad u|^2 > 0 node-wise; a small relative
guard keeps the tilt finite and the linearized operator well
conditioned near the light cone.  _geometry runs this light-cone test
once, before anything else, and a graph that is not spacelike raises
SpacelikeError carrying the violating node ids.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, SpacelikeError
from .grid import _padded
from .workspace import FRESH

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
    g_comp: np.ndarray
    g_inv_comp: np.ndarray
    A_comp: np.ndarray
    sums: np.ndarray = None   # S_1..S_n of the principal curvatures, (..., n)

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


def _symmetric(X):
    """The (n, n, ...) view of the contiguous component array X, whose
    entry (i, j) is X[i + j]: its [0, 1] and [1, 0] are one component's
    memory.  (np.lib.stride_tricks.as_strided makes the same view, but
    now and then allocates about 1 MB doing so.)"""
    n = 1 if len(X) == 1 else 2
    return np.ndarray((n, n) + X.shape[1:], X.dtype, X, 0,
                      X.strides[:1] * 2 + X.strides[1:])


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


def _check_inverse(g, g_inv, work=FRESH):
    """Raise unless g g_inv = I to METRIC_INVERSE_TOL, for the component
    tuples g and g_inv."""
    # entry (i, j) of g g^-1 is row i of g times column j of g^-1, whose
    # entry k is component k + j
    rows = [g] if len(g) == 1 else [g[:2], g[1:]]
    product, term = work.take(g[0].shape), work.take(g[0].shape)
    err = 0.0
    for (i, row), j in itertools.product(enumerate(rows), range(len(rows))):
        np.multiply(row[0], g_inv[j], out=product)
        if len(rows) == 2:
            product += np.multiply(row[1], g_inv[1 + j], out=term)
        product -= float(i == j)
        err = max(err, np.max(np.abs(product, out=product)))
    work.give(product, term)
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


def _geometry(u, grid, check_inverse, rings=slice(None), pad=None,
              work=FRESH):
    """The bundle of the graph u on its rings ``rings``, a slice of u's
    first axis (every node by default), with no curvature sums (_with_sums
    adds them): each array covers those rings only.  ``pad`` is u's
    padding (_padded), when the caller has it.  ``work`` hands out every
    array; the bundle's arrays stay taken, the others go back to it.

    The light-cone test comes first and is the only one: SpacelikeError
    names the violating nodes of these rings, by their ids on the grid."""
    u = grid.check_field(u)
    if pad is None:
        pad = _padded(u)
    lo, hi, _ = rings.indices(len(u))
    u, pad = u[lo:hi], pad[lo:hi + 2]
    shape, two = u.shape, grid.dim == 2
    # the arrays a workspace caller keeps come first, so that a workspace
    # holds them below everything given back
    components = (grid.dim * (grid.dim + 1) // 2,) + shape
    A, g_inv, g = (work.take(components) for _ in range(3))
    tau, eta = work.take(shape), work.take(shape)
    du = grid.partial_gradient(u, pad=pad,
                               out=work.take((grid.dim,) + shape))
    p0 = du[0]
    gn2 = np.multiply(p0, p0, out=work.take(shape))
    if two:
        q = (p0, np.multiply(grid.sigma_inv[1, 1, rings], du[1],
                             out=work.take(shape)))
        term = np.multiply(du[1], q[1], out=work.take(shape))
        gn2 += term
        work.give(term)
    else:
        q = (p0,)
    cosh_u = np.cosh(u, out=work.take(shape))
    c2 = np.square(cosh_u, out=work.take(shape))
    margin = np.subtract(c2, gn2, out=work.take(shape))
    guard = np.multiply(SPACELIKE_GUARD, c2, out=work.take(shape))
    bad = np.less_equal(margin, guard, out=work.take(shape, bool))
    work.give(guard)
    if bad.any():
        # ids on the whole grid: ring lo starts at node lo * (its size)
        raise SpacelikeError(
            (lo * bad[0].size + np.flatnonzero(bad.ravel())).tolist())
    work.give(bad)
    # A is built over the partials d_ij u, component by component
    grid.partial_hessian(u, pad=pad, out=_symmetric(A))
    np.sqrt(margin, out=tau)
    np.divide(c2, tau, out=tau)
    np.sinh(u, out=eta)
    ratio = np.divide(tau, cosh_u, out=work.take(shape))
    two_th = np.tanh(u, out=work.take(shape))
    two_th *= 2.0
    ec = np.multiply(eta, cosh_u, out=work.take(shape))
    cm = np.multiply(c2, margin, out=work.take(shape))
    pp, term = work.take(shape), work.take(shape)     # p_i p_j, one term

    np.multiply(p0, p0, out=pp)
    np.subtract(c2, pp, out=g[0])
    entry = g_inv[0]
    np.divide(1.0, c2, out=entry)
    entry += np.divide(np.multiply(q[0], q[0], out=term), cm, out=term)
    entry = A[0]
    entry -= np.multiply(two_th, pp, out=term)
    entry += ec
    entry *= ratio
    if two:
        # sigma = diag(1, sin^2 phi): Hess_01 = H_01 - Gamma^1_01 p_1 and
        # Hess_11 = H_11 - Gamma^0_11 p_0
        p1, sin2, gamma = du[1], grid.sigma[1, 1, rings], grid.christoffel
        np.multiply(p0, p1, out=pp)
        np.negative(pp, out=g[1])
        entry = g_inv[1]
        np.multiply(q[0], q[1], out=entry)
        entry /= cm
        entry = A[1]
        entry -= np.multiply(gamma[1, 0, 1, rings], p1, out=term)
        entry -= np.multiply(two_th, pp, out=term)
        entry *= ratio

        np.multiply(p1, p1, out=pp)
        entry = np.multiply(c2, sin2, out=g[2])
        entry -= pp
        entry = g_inv[2]
        np.divide(grid.sigma_inv[1, 1, rings], c2, out=entry)
        entry += np.divide(np.multiply(q[1], q[1], out=term), cm, out=term)
        entry = A[2]
        entry -= np.multiply(gamma[0, 1, 1, rings], p0, out=term)
        entry -= np.multiply(two_th, pp, out=term)
        entry += np.multiply(ec, sin2, out=term)
        entry *= ratio
    work.give(c2, ratio, two_th, ec, cm, pp, term)
    if check_inverse:
        _check_inverse(g, g_inv, work)
    return InducedGeometry(
        grid=grid, u=u, du=du, q=q, grad_norm2=gn2, cosh_u=cosh_u,
        margin=margin, tau=tau, eta=eta, g_comp=g, g_inv_comp=g_inv, A_comp=A)


def _with_sums(geom):
    """geom with its curvature sums: S_1 = g^ij A_ij and, on S^2,
    S_2 = det A / det g."""
    g, g_inv, A = geom.g_comp, geom.g_inv_comp, geom.A_comp
    sums = [_double_dot(g_inv, A)]
    if len(g) == 3:
        sums.append((A[0] * A[2] - A[1] ** 2) / (g[0] * g[2] - g[1] ** 2))
    geom.sums = np.stack(sums, axis=-1)
    return geom


def induced_geometry_unchecked(u, grid):
    """induced_geometry without the metric inverse check: the solver's
    per-iterate evaluation."""
    return _with_sums(_geometry(u, grid, check_inverse=False))


def induced_geometry(u, grid):
    """Full geometric bundle for a spacelike graph, with the closed-form
    metric inverse checked against g.

    Raises SpacelikeError carrying the violating node ids otherwise.
    """
    return _with_sums(_geometry(u, grid, check_inverse=True))
