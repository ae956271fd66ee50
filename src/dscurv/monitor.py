"""Runtime bound monitors and discrete geometric-identity validators.

check_bounds() reports whether a graph sits between its barrier radii,
keeps its tilt under the configured cap, stays node-wise admissible,
and keeps |A| bounded: the discrete analogue of membership in the
bounded solution set the continuation argument relies on.  The report
lists, per check, the ids of the nodes that fail it; a flag fails
exactly when its list names nodes.

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

Tensors are the component-first arrays the geometry exposes, T[i, j,
...] with the index axes first and the grid axes last, so each
contraction here is an einsum over whole grid arrays.  The covariant Hessians come from
the one grid.covariant_hessian.  Intermediates are freed once their
sup-norm is taken.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import induced_geometry
from .grid import covariant_hessian


@dataclass
class BoundReport:
    """Per-run snapshot of the a priori bound checks.  node_violations
    maps each check ("c0", "tilt", "curv") to the ids of its failing
    nodes; a flag fails exactly when its check names nodes."""

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

    c0_ok = property(lambda self: not self.node_violations.get("c0"))
    tilt_ok = property(lambda self: not self.node_violations.get("tilt"))
    curv_ok = property(lambda self: not self.node_violations.get("curv"))
    all_ok = property(lambda self: not any(self.node_violations.values()))

    def to_dict(self):
        return {
            "all_ok": self.all_ok,
            "c0_ok": self.c0_ok, "tilt_ok": self.tilt_ok, "curv_ok": self.curv_ok,
            **asdict(self),
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


def check_bounds(geom, barriers, c_tau, c_a, k):
    """Pure report on the a priori bounds of geom's graph u; never raises,
    never mutates: the solver decides what to do with a failed flag."""
    u, tau, abs_a = geom.u, geom.tau, geom.abs_A
    r1, r2 = barriers
    sig = geom.sums[..., :k]
    bad = {"c0": (u < r1) | (u > r2),
           "tilt": tau > c_tau,
           "curv": ~np.all(sig > 0.0, axis=-1) | (abs_a > c_a)}
    return BoundReport(
        min_u=float(u.min()), max_u=float(u.max()), R1=float(r1), R2=float(r2),
        max_tau=float(tau.max()), C_tau=float(c_tau),
        max_abs_A=float(abs_a.max()), C_A=float(c_a),
        min_sigma_margin=float(sig.min()),
        node_violations={name: np.flatnonzero(mask.ravel()).tolist()
                         for name, mask in bad.items()},
    )


def _component_parity(i, j=None):
    # A component picks up one sign flip per phi index when read through
    # a pole (coordinate reflection phi -> -phi, theta -> theta + pi).
    flips = int(i == 0) + (int(j == 0) if j is not None else 0)
    return -1.0 if flips % 2 else 1.0


def _tensor_partials(grid, T):
    """d_l T_ij of a symmetric 2-tensor field given component-first,
    T[i, j, ...], parity-aware across poles.

    Returns out[l, i, j, ...], the derivative index first.
    """
    n = grid.dim
    out = np.empty((n, n, n) + grid.shape)
    for i in range(n):
        for j in range(i, n):
            out[:, i, j] = grid.partial_gradient(
                T[i, j], phi_parity=_component_parity(i, j))
            if i != j:
                out[:, j, i] = out[:, i, j]
    return out


def induced_christoffel(grid, g, g_inv):
    """Christoffel symbols of the induced metric, Gamma[m, i, j, ...],
    assembled by differencing the component-first metric g[i, j, ...]."""
    dg = _tensor_partials(grid, g)
    # lowered symbols: 0.5 (d_i g_jk + d_j g_ik - d_k g_ij)
    low = np.einsum("ijk...->kij...", dg) + np.einsum("jik...->kij...", dg)
    low -= dg
    low *= 0.5
    del dg
    return np.einsum("mk...,kij...->mij...", g_inv, low)


def covariant_derivative_A(grid, A, christoffel):
    """grad_k A_ij of the component-first A[i, j, ...] in the connection
    with Christoffel symbols christoffel[m, i, j, ...]
    (induced_christoffel), index order [k, i, j, ...]."""
    cov_a = _tensor_partials(grid, A)
    cov_a -= np.einsum("mki...,mj...->kij...", christoffel, A)
    cov_a -= np.einsum("mkj...,im...->kij...", christoffel, A)
    return cov_a


def _sup(x):
    return float(np.max(np.abs(x)))


def identity_residuals(u, grid):
    """Sup-norms of the four identity residuals for the graph u.

    Raises SpacelikeError for non-spacelike input.  On S^1 the Codazzi
    residual is identically zero (a single index has nothing to
    permute).
    """
    geom = induced_geometry(u, grid)
    tau, eta, g, g_inv, A = geom.tau, geom.eta, geom.g, geom.g_inv, geom.A
    del geom
    christoffel = induced_christoffel(grid, g, g_inv)

    deta = grid.partial_gradient(eta)
    res = (covariant_hessian(grid.partial_hessian(eta), deta, christoffel)
           - (tau * A - eta * g))
    r_eta = _sup(res)
    del g, res

    dtau = grid.partial_gradient(tau)
    shape_mixed = np.einsum("ik...,kj...->ij...", g_inv, A)
    res = dtau - np.einsum("ij...,i...->j...", shape_mixed, deta)
    r_tau1 = _sup(res)
    del shape_mixed, res

    cov_a = covariant_derivative_A(grid, A, christoffel)
    deta_raised = np.einsum("kl...,l...->k...", g_inv, deta)
    res = np.einsum("kij...,k...->ij...", cov_a, deta_raised)
    del deta, deta_raised
    res += tau * np.einsum("ik...,kl...,lj...->ij...", A, g_inv, A)
    res -= eta * A
    res = covariant_hessian(grid.partial_hessian(tau), dtau, christoffel) - res
    r_tau2 = _sup(res)
    del christoffel, res

    if grid.dim == 1:
        codazzi = 0.0
    else:
        # grad A is symmetric in (i, j) by construction, so one swap
        # generates the full permutation group
        codazzi = _sup(cov_a - np.swapaxes(cov_a, 0, 1))

    return IdentityResiduals(r_eta, r_tau1, r_tau2, codazzi, grid.h)
