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

identity_residuals() works through the grid in slabs of whole rings
(SLAB_NODES nodes, at least one ring; S^1 is one slab) and keeps a
running maximum of each residual.  For each slab it computes the checked
geometry on the slab's rings and one halo ring on each side, pads that
block's tau, eta, g and A (grid._padded: beyond a pole the ghost ring is
the pole ring turned half a turn, times the component's parity), and
forms the Christoffel symbols, the covariant Hessians, grad A and the
residuals on the slab.  Each node's values are those of a whole-grid
evaluation, so the residuals are too, bit for bit.  The slab's geometry
runs the only light-cone test on its rings.  Once a slab's geometry
fails it, the slabs after it compute their geometry alone, which names
their violating nodes, and form no residual; the SpacelikeError then
names every violating node of the grid.

Every array a slab forms, the geometry's included, is written with out=
into one Workspace that the call allocates once: SLAB_UNITS units, each
the size of the largest padded ring block.  A slab takes its arrays from
it and gives each back when its last reader is done, so arrays whose
lifetimes do not overlap share memory, and the next slab finds the same
memory in the same places.  The workspace is about 4.4 grid-sized
arrays at 128x256 (16.7 at 64x128, whose two slabs are half the grid
each), and no slab faults memory in that an earlier slab freed to the
system, as slabs that allocated their own arrays did.

Tensors are the component-first arrays T[i, j, ...], index axes first
and grid axes last, so each contraction here is an einsum over slab
arrays; a symmetric tensor the geometry gives as components is read
through geometry._symmetric's (n, n) view of them.  The covariant
Hessians come from the one grid.covariant_hessian.
"""

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import SpacelikeError
from .geometry import _geometry, _symmetric
from .grid import _padded, _padded_shape, covariant_hessian
from .workspace import Workspace

# identity_residuals evaluates whole rings, about SLAB_NODES nodes (at
# least one ring) at a time: 2 slabs at 64x128, 8 at 128x256.  A slab
# has a fixed cost of about 0.3 ms, so 2**11 was 20-25% slower at
# 128x256; 2**13 and 2**14 held 1.7 and 3.2 times the memory there and
# were not reliably faster.
SLAB_NODES = 2 ** 12

# The Workspace units a slab's arrays need on S^1 and S^2, each unit one
# padded ring block.  A slab takes and gives its arrays in one order on
# every grid of a dimension, so the workspace places them alike on each,
# in this many units: a slab holds at most 16 and 29 units at once, and
# the rest are the gaps the workspace's lowest-run placement leaves.
SLAB_UNITS = {1: 16, 2: 31}


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


def _ring_slabs(grid):
    """The ring ranges (lo, hi) identity_residuals evaluates one at a
    time: whole rings, about SLAB_NODES nodes (at least one ring) each;
    on S^1 the whole circle."""
    if grid.dim == 1:
        return [(0, grid.n_theta)]
    rows = max(1, SLAB_NODES // grid.n_lon)
    return [(lo, min(lo + rows, grid.n_lat))
            for lo in range(0, grid.n_lat, rows)]


def _block(lo, hi, n_rings):
    """The rings first..last - 1 whose geometry the slab lo..hi - 1 reads,
    one halo ring on each side inside the grid, and whether the slab
    holds each pole ring."""
    return max(lo - 1, 0), min(hi + 1, n_rings), (lo == 0, hi == n_rings)


def _workspace(grid, slabs):
    """The Workspace of identity_residuals' slabs: a unit holds the
    largest slab's padded ring block, the largest field a slab takes."""
    n_rings = grid.shape[0]
    nodes = 0
    for lo, hi in slabs:
        first, last, poles = _block(lo, hi, n_rings)
        shape = (last - first,) + grid.shape[1:]
        nodes = max(nodes, math.prod(_padded_shape(shape, poles)))
    return Workspace(nodes, grid.dim, SLAB_UNITS[grid.dim])


def _tensor_partials(grid, comps, poles, shape, work):
    """d_l T_ij of a symmetric 2-tensor field from its components on a
    block of rings, (T_00, T_01, T_11) or (T_00,), each padded
    (_padded, with poles) with its pole parity.  Returns out[l, i, j,
    ...], the derivative index first, on the shape nodes inside the
    padding, taken from work."""
    n = grid.dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    out = work.take((n, n, n) + shape)
    pad = work.take(_padded_shape(comps[0].shape, poles))
    for (i, j), x in zip(pairs, comps):
        grid.partial_gradient(
            None, pad=_padded(x, _component_parity(i, j), poles, out=pad),
            out=out[:, i, j])
        if i != j:
            out[:, j, i] = out[:, i, j]
    work.give(pad)
    return out


def _sup(x):
    """max |x|; x is overwritten with |x|."""
    return float(np.max(np.abs(x, out=x)))


def _slab_residuals(u, pad, grid, lo, hi, work):
    """Sup-norms of the four residuals on the rings lo..hi-1 of the graph
    u (padded as pad), from its geometry on those rings and one halo ring
    on each side; beyond a pole the padding supplies the ghost ring.
    Every array comes from the Workspace work, which the caller resets."""
    n = grid.dim
    first, last, poles = _block(lo, hi, len(u))
    geom = _geometry(u, grid, check_inverse=True, rings=slice(first, last),
                     pad=pad, work=work)
    work.give(geom.du, *geom.q[1:], geom.grad_norm2, geom.cosh_u, geom.margin)
    inner = slice(lo - first, hi - first)
    block_tau, block_eta, g_comp = geom.tau, geom.eta, geom.g_comp
    g_inv_comp, a_comp = geom.g_inv_comp, geom.A_comp
    del geom
    tau, eta = block_tau[inner], block_eta[inner]
    g_inv, A = (_symmetric(x)[:, :, inner] for x in (g_inv_comp, a_comp))
    shape = tau.shape
    pad_shape = _padded_shape(block_tau.shape, poles)
    take, give = work.take, work.give
    entries = list(itertools.product(range(n), repeat=2))

    # Christoffel symbols of g: g^mk 0.5 (d_i g_jk + d_j g_ik - d_k g_ij)
    dg = _tensor_partials(grid, g_comp, poles, shape, work)
    low = np.add(np.einsum("ijk...->kij...", dg),
                 np.einsum("jik...->kij...", dg), out=take(dg.shape))
    low -= dg
    low *= 0.5
    give(dg)
    christoffel = np.einsum("mk...,kij...->mij...", g_inv, low,
                            out=take(low.shape))
    give(low)

    eta_pad = _padded(block_eta, 1.0, poles, out=take(pad_shape))
    deta = grid.partial_gradient(None, pad=eta_pad, out=take((n,) + shape))
    hess = grid.partial_hessian(None, pad=eta_pad, out=take((n, n) + shape))
    give(eta_pad)
    res = covariant_hessian(hess, deta, christoffel, out=take(hess.shape))
    give(hess)
    # res -= tau A - eta g, entry by entry (g_ij is component i + j)
    term, other = take(shape), take(shape)
    for i, j in entries:
        np.multiply(tau, A[i, j], out=term)
        term -= np.multiply(eta, g_comp[i + j][inner], out=other)
        entry = res[i, j]
        entry -= term
    r_eta = _sup(res)
    give(res, term, other, g_comp)

    # d_j tau = A^i_j d_i eta.  d tau is formed again at the end rather
    # than held through grad A, which keeps the workspace 2 units smaller
    shape_mixed = np.einsum("ik...,kj...->ij...", g_inv, A,
                            out=take((n, n) + shape))
    transported = np.einsum("ij...,i...->j...", shape_mixed, deta,
                            out=take((n,) + shape))
    give(shape_mixed)
    tau_pad = _padded(block_tau, 1.0, poles, out=take(pad_shape))
    dtau = grid.partial_gradient(None, pad=tau_pad, out=take((n,) + shape))
    r_tau1 = _sup(np.subtract(dtau, transported, out=transported))
    give(dtau, transported)

    # the factors of the second tau identity that read g^-1
    deta_raised = np.einsum("kl...,l...->k...", g_inv, deta,
                            out=take((n,) + shape))
    give(deta)
    res = np.einsum("ik...,kl...,lj...->ij...", A, g_inv, A,
                    out=take((n, n) + shape))
    res *= tau
    give(g_inv_comp, block_tau)

    # grad_k A_ij = d_k A_ij - Gamma^m_ki A_mj - Gamma^m_kj A_im; the
    # connection terms are formed for one (k, i) at a time, so that they
    # take one (n, ...) array and not a third (n, n, n, ...) one
    cov_a = _tensor_partials(grid, a_comp, poles, shape, work)
    part = take((n,) + shape)
    for k, i in entries:
        entry = cov_a[k, i]
        entry -= np.einsum("m...,mj...->j...", christoffel[:, k, i], A,
                           out=part)
        entry -= np.einsum("mj...,m...->j...", christoffel[:, k], A[i],
                           out=part)
    # grad A is symmetric in (i, j) by construction, so one swap, of k and
    # i, generates the full permutation group; its only entries that need
    # not vanish are k, i = 0, 1 and their negatives.  On S^1 there is
    # nothing to permute.
    codazzi = (0.0 if n == 1 else
               _sup(np.subtract(cov_a[0, 1], cov_a[1, 0], out=part)))
    give(part)
    # res = (grad_k A_ij) g^kl d_l eta + tau A^2_ij - eta A_ij, entry by
    # entry
    term = take(shape)
    for i, j in entries:
        entry = res[i, j]
        entry += np.einsum("k...,k...->...", cov_a[:, i, j], deta_raised,
                           out=term)
        entry -= np.multiply(eta, A[i, j], out=term)
    give(cov_a, deta_raised, term, block_eta, a_comp)

    dtau = grid.partial_gradient(None, pad=tau_pad, out=take((n,) + shape))
    hess = grid.partial_hessian(None, pad=tau_pad, out=take((n, n) + shape))
    give(tau_pad)
    cov_hess = covariant_hessian(hess, dtau, christoffel,
                                 out=take(hess.shape))
    r_tau2 = _sup(np.subtract(cov_hess, res, out=res))
    return r_eta, r_tau1, r_tau2, codazzi


def identity_residuals(u, grid):
    """Sup-norms of the four identity residuals for the graph u.

    Raises SpacelikeError for non-spacelike input, naming every
    violating node of the grid, as induced_geometry does; no slab forms
    residuals after the first slab whose geometry fails the light-cone
    test.  On S^1 the Codazzi residual is identically zero (a single
    index has nothing to permute).
    """
    u = grid.check_field(u)
    pad = _padded(u)
    slabs = _ring_slabs(grid)
    work = _workspace(grid, slabs)
    sups, bad = np.zeros(4), set()
    for lo, hi in slabs:
        try:
            if not bad:
                np.maximum(sups, _slab_residuals(u, pad, grid, lo, hi, work),
                           out=sups)
            else:
                first, last, _ = _block(lo, hi, len(u))
                _geometry(u, grid, check_inverse=False,
                          rings=slice(first, last), pad=pad, work=work)
        except SpacelikeError as error:
            # the halo rings name some nodes twice
            bad.update(error.nodes)
        work.reset()
    if bad:
        raise SpacelikeError(sorted(bad))
    return IdentityResiduals(*map(float, sups), grid.h)
