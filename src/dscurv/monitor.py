"""Runtime bound monitors and discrete geometric-identity validators.

check_bounds() reports whether a graph sits between its barrier radii,
keeps its tilt under the configured cap, stays node-wise admissible,
and keeps |A| bounded: the discrete analogue of membership in the
bounded solution set the continuation argument relies on.

identity_residuals() validates the discretization against identities
that couple the height eta = sinh(u) and tilt tau to the second
fundamental form through the connection of the *induced* metric g (not
the round-sphere connection: the Christoffel symbols of g are rebuilt
by differencing its components):

    Hess_ij eta = tau A_ij - eta g_ij
    d_j tau     = A^i_j d_i eta
    Hess_ij tau = (grad_k A_ij) g^{kl} d_l eta + tau A^2_ij - eta A_ij
    grad A      totally symmetric in all three indices (Codazzi,
                space-form case)

On umbilic slices every residual cancels exactly (all derivatives of
constants vanish in the scheme and tau A - eta g = 0 in closed form);
for smooth non-constant graphs they decrease at second order in the
spacing.  The first and third identities are implemented with the -eta
terms: with +eta they fail the umbilic anchor by 2 sinh(u) cosh^2(u)
times the metric, which the tests pin down.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import induced_geometry
from .symmetric import normalized_root, normalized_root_gradient


@dataclass
class BoundReport:
    """Per-run snapshot of the a priori bound checks."""

    c0_ok: bool
    tilt_ok: bool
    curv_ok: bool
    min_u: float
    max_u: float
    R1: float
    R2: float
    max_tau: float
    C_tau: float
    max_abs_A: float
    C_A: float
    min_sigma_margin: float     # worst min_j S_j over nodes, j = 1..k
    node_violations: dict = field(default_factory=dict)

    @property
    def all_ok(self):
        return self.c0_ok and self.tilt_ok and self.curv_ok

    def to_dict(self):
        return {
            "all_ok": self.all_ok,
            "c0_ok": self.c0_ok, "tilt_ok": self.tilt_ok, "curv_ok": self.curv_ok,
            "min_u": self.min_u, "max_u": self.max_u,
            "R1": self.R1, "R2": self.R2,
            "max_tau": self.max_tau, "C_tau": self.C_tau,
            "max_abs_A": self.max_abs_A, "C_A": self.C_A,
            "min_sigma_margin": self.min_sigma_margin,
            "node_violations": {k: v for k, v in self.node_violations.items() if v},
        }


@dataclass
class IdentityResiduals:
    """Sup-norms of the identity residuals at grid spacing h."""

    r_eta: float
    r_tau1: float
    r_tau2: float
    codazzi: float
    h: float

    def as_tuple(self):
        return (self.r_eta, self.r_tau1, self.r_tau2, self.codazzi)


def check_bounds(geom, u, barriers, c_tau, c_a, k):
    """Pure report on the graph's a priori bounds; never raises, never
    mutates: the solver decides what to do with a failed flag."""
    u = np.asarray(u, dtype=float)
    r1, r2 = barriers
    min_u, max_u = float(u.min()), float(u.max())
    c0_bad = (u < r1) | (u > r2)
    c0_ok = not bool(c0_bad.any())

    max_tau = float(geom.tau.max())
    tilt_bad = geom.tau > c_tau
    tilt_ok = not bool(tilt_bad.any())

    sig = geom.sums[..., :k]
    member = np.all(sig > 0.0, axis=-1)
    abs_a = geom.abs_A
    max_abs_a = float(abs_a.max())
    curv_bad = (~member) | (abs_a > c_a)
    curv_ok = not bool(curv_bad.any())

    return BoundReport(
        c0_ok=c0_ok, tilt_ok=tilt_ok, curv_ok=curv_ok,
        min_u=min_u, max_u=max_u, R1=float(r1), R2=float(r2),
        max_tau=max_tau, C_tau=float(c_tau),
        max_abs_A=max_abs_a, C_A=float(c_a),
        min_sigma_margin=float(sig.min()),
        node_violations={
            "c0": np.flatnonzero(c0_bad.ravel()).tolist(),
            "tilt": np.flatnonzero(tilt_bad.ravel()).tolist(),
            "curv": np.flatnonzero(curv_bad.ravel()).tolist(),
        },
    )


def _component_parity(i, j=None):
    # A component picks up one sign flip per phi index when read through
    # a pole (coordinate reflection phi -> -phi, theta -> theta + pi).
    flips = int(i == 0) + (int(j == 0) if j is not None else 0)
    return -1.0 if flips % 2 else 1.0


def _tensor_partials(grid, T):
    """d_l T_ij for a symmetric 2-tensor field, parity-aware across poles.

    Returns an array with the derivative index first: out[..., l, i, j].
    """
    n = grid.dim
    out = np.empty(grid.shape + (n, n, n))
    for i in range(n):
        for j in range(i, n):
            d = grid.partial_gradient(T[..., i, j], phi_parity=_component_parity(i, j))
            out[..., :, i, j] = d
            if i != j:
                out[..., :, j, i] = d
    return out


def induced_christoffel(geom):
    """Christoffel symbols of the induced metric, Gamma[..., m, i, j],
    assembled by differencing the metric components."""
    dg = _tensor_partials(geom.grid, geom.g)
    # lowered symbols: 0.5 (d_i g_jk + d_j g_ik - d_k g_ij)
    low = 0.5 * (np.einsum("...ijk->...kij", dg)
                 + np.einsum("...jik->...kij", dg)
                 - np.einsum("...kij->...kij", dg))
    return np.einsum("...mk,...kij->...mij", geom.g_inv, low)


def surface_hessian(geom, scalar, christoffel=None):
    """Covariant Hessian of a scalar field with respect to the induced
    metric's connection."""
    grid = geom.grid
    if christoffel is None:
        christoffel = induced_christoffel(geom)
    ds = grid.partial_gradient(scalar)
    d2s = grid.partial_hessian(scalar)
    return d2s - np.einsum("...kij,...k->...ij", christoffel, ds)


def covariant_derivative_A(geom, christoffel=None):
    """grad_k A_ij in the induced connection, index order (..., k, i, j)."""
    if christoffel is None:
        christoffel = induced_christoffel(geom)
    dA = _tensor_partials(geom.grid, geom.A)
    t1 = np.einsum("...mki,...mj->...kij", christoffel, geom.A)
    t2 = np.einsum("...mkj,...im->...kij", christoffel, geom.A)
    return dA - t1 - t2


def identity_residuals(u, grid):
    """Sup-norms of the four identity residuals for the graph u.

    Raises SpacelikeError for non-spacelike input.  On S^1 the Codazzi
    residual is identically zero (a single index has nothing to
    permute).
    """
    geom = induced_geometry(u, grid)
    christoffel = induced_christoffel(geom)
    tau, eta, g, A = geom.tau, geom.eta, geom.g, geom.A

    hess_eta = surface_hessian(geom, eta, christoffel)
    res_eta = hess_eta - (tau[..., None, None] * A - eta[..., None, None] * g)
    r_eta = float(np.max(np.abs(res_eta)))

    deta = grid.partial_gradient(eta)
    dtau = grid.partial_gradient(tau)
    shape_mixed = np.einsum("...ik,...kj->...ij", geom.g_inv, A)
    res_tau1 = dtau - np.einsum("...ij,...i->...j", shape_mixed, deta)
    r_tau1 = float(np.max(np.abs(res_tau1)))

    cov_a = covariant_derivative_A(geom, christoffel)
    deta_raised = np.einsum("...kl,...l->...k", geom.g_inv, deta)
    transport = np.einsum("...kij,...k->...ij", cov_a, deta_raised)
    a_sq = np.einsum("...ik,...kl,...lj->...ij", A, geom.g_inv, A)
    hess_tau = surface_hessian(geom, tau, christoffel)
    res_tau2 = hess_tau - (transport
                           + tau[..., None, None] * a_sq
                           - eta[..., None, None] * A)
    r_tau2 = float(np.max(np.abs(res_tau2)))

    if grid.dim == 1:
        codazzi = 0.0
    else:
        # grad A is symmetric in (i, j) by construction, so one swap
        # generates the full permutation group
        codazzi = float(np.max(np.abs(cov_a - np.swapaxes(cov_a, -3, -2))))

    return IdentityResiduals(r_eta, r_tau1, r_tau2, codazzi, grid.h)


def maclaurin_monitor(eigs, k, psi=None):
    """Worst node margin of sum_i f_i lam_i^2 - f^2 (>= 0 on Gamma_k) for
    principal curvatures eigs of shape (..., n), such as
    InducedGeometry.shape_eigs.

    With psi supplied (the on-shell curvature value per node) the
    square uses psi instead of f.  Raises AdmissibilityError if any
    node left the cone.
    """
    eigs = np.asarray(eigs, dtype=float)
    f = normalized_root(eigs, k)
    grad = normalized_root_gradient(eigs, k)
    lhs = np.einsum("...i,...i->...", grad, eigs ** 2)
    rhs = (np.asarray(psi, dtype=float) if psi is not None else f) ** 2
    return float(np.min(lhs - rhs))
