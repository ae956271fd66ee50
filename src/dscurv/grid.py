"""Finite-difference discretization of the round sphere S^n, n = 1 or 2.

S^1 is a periodic uniform grid in the angle theta.  S^2 uses a
latitude-longitude grid in colatitude/longitude (phi, theta) with rings
staggered half a cell away from the poles, so no node sits at the
coordinate singularity.  Derivatives across a pole read the antipodal
ring: the point (-eps, theta) is the same point of the sphere as
(+eps, theta + pi), which gives exact ghost values for scalars and,
with a sign flip per phi index, for tensor components.

All differential operators are second-order centered differences; for
smooth fields the truncation error decreases as O(h^2) under grid
refinement.
"""

import numpy as np
import scipy.sparse as sp


def grid_shape(dim, resolution):
    """Node shape of SphereGrid(dim, resolution): (n,) on S^1 for a
    resolution n, (n_lat, n_lon) on S^2 for a pair.  Raises ValueError
    for a resolution the grid refuses: fewer than 8 nodes in a
    direction, or an odd n_lon, which has no antipodal pole closure."""
    if dim == 1:
        shape = (int(resolution),)
    elif dim == 2:
        try:
            nlat, nlon = resolution
        except TypeError:
            raise ValueError("S^2 resolution must be a (n_lat, n_lon) pair")
        shape = (int(nlat), int(nlon))
    else:
        raise ValueError(f"unsupported sphere dimension {dim!r}")
    if min(shape) < 8:
        raise ValueError(f"S^{dim} grid needs at least 8 nodes per direction")
    if dim == 2 and shape[1] % 2 != 0:
        raise ValueError("n_lon must be even for the antipodal pole closure")
    return shape


class SphereGrid:
    """Nodes, round metric, Christoffel symbols, and difference operators.

    Fields on the grid are plain ndarrays of shape ``grid.shape``
    ((n_theta,) on S^1, (n_lat, n_lon) on S^2).  Covector and tensor
    fields put their index axes first: T[i, j, ...] over the grid axes.
    The round metric ``sigma``, its inverse and the Christoffel symbols
    ``christoffel[k, i, j]`` depend on phi alone, so their grid axes are
    one row per ring, (n_lat, 1) on S^2 and (1,) on S^1, which broadcast
    over theta.  Instances are immutable after construction and safe to
    share between workers.
    """

    def __init__(self, dim, resolution):
        self.shape = grid_shape(dim, resolution)
        self.dim = len(self.shape)
        if self.dim == 1:
            n, = self.shape
            self.n_theta = n
            self.dtheta = 2.0 * np.pi / n
            self.theta = self.dtheta * np.arange(n)
            self.h = self.dtheta
            self.sigma = np.ones((1, 1, 1))
            self.sigma_inv = np.ones((1, 1, 1))
            self.christoffel = np.zeros((1, 1, 1, 1))
        else:
            nlat, nlon = self.shape
            self.n_lat, self.n_lon = nlat, nlon
            self.dphi = np.pi / nlat
            self.dtheta = 2.0 * np.pi / nlon
            self.phi = self.dphi * (np.arange(nlat) + 0.5)
            self.theta = self.dtheta * np.arange(nlon)
            sin_phi = np.sin(self.phi)
            cos_phi = np.cos(self.phi)
            self.h = float(max(self.dphi, self.dtheta * sin_phi.max()))
            ones, zeros = np.ones(nlat), np.zeros(nlat)
            self.sigma = np.array([[ones, zeros], [zeros, sin_phi ** 2]])[..., None]
            self.sigma_inv = np.array([[ones, zeros],
                                       [zeros, sin_phi ** -2]])[..., None]
            cot = cos_phi / sin_phi
            self.christoffel = np.array(
                [[[zeros, zeros], [zeros, -sin_phi * cos_phi]],
                 [[zeros, cot], [cot, zeros]]])[..., None]
        self.node_count = int(np.prod(self.shape))
        self._pattern = None

    # -- coordinates ---------------------------------------------------

    def coords(self):
        """Per-node coordinate meshes, each of shape ``grid.shape``."""
        if self.dim == 1:
            return (self.theta,)
        phi_mesh = np.broadcast_to(self.phi[:, None], self.shape)
        theta_mesh = np.broadcast_to(self.theta[None, :], self.shape)
        return (phi_mesh, theta_mesh)

    @property
    def coord_names(self):
        return ("theta",) if self.dim == 1 else ("phi", "theta")

    def refine(self):
        """Grid with spacing halved in every direction."""
        if self.dim == 1:
            return SphereGrid(1, 2 * self.n_theta)
        return SphereGrid(2, (2 * self.n_lat, 2 * self.n_lon))

    def coarsened(self):
        """The grids whose refine() chain ends at this one, finest first.

        The spacing doubles while every direction halves exactly to a
        shape grid_shape accepts: at least 8 nodes per direction and, on
        S^2, an even n_lon for the pole closure.  48x96 gives [24x48,
        12x24], 32x64 gives [16x32, 8x16], S^1 128 gives [64, 32, 16, 8].
        """
        chain, shape = [], self.shape
        while all(n % 2 == 0 for n in shape):
            shape = tuple(n // 2 for n in shape)
            resolution = shape[0] if self.dim == 1 else shape
            try:
                chain.append(SphereGrid(self.dim, resolution))
            except ValueError:
                break
        return chain

    def prolong(self, f):
        """Bilinear interpolation of a scalar field onto refine(), second
        order for smooth f.

        A fine ring lies a quarter of the coarse ring spacing from its
        nearest coarse ring, so it takes weight 3/4 from that ring and 1/4
        from the next one on its side; beyond a pole that is the
        antipodal ghost ring.  In theta, even fine nodes are coarse nodes
        and odd ones take the average of their two neighbours.
        """
        f = self.check_field(f)
        if self.dim == 2:
            pad = self._pad_phi(f, 1.0)
            rings = np.empty((2 * self.n_lat, self.n_lon))
            rings[0::2] = 0.75 * f + 0.25 * pad[:-2]
            rings[1::2] = 0.75 * f + 0.25 * pad[2:]
            f = rings
        fine = np.empty(f.shape[:-1] + (2 * f.shape[-1],))
        fine[..., 0::2] = f
        fine[..., 1::2] = 0.5 * (f + np.roll(f, -1, axis=-1))
        return fine

    def mean(self, f):
        """Area-weighted mean of f (weight sin(phi) on S^2)."""
        f = self.check_field(f)
        if self.dim == 1:
            return float(f.mean())
        weights = np.broadcast_to(np.sin(self.phi)[:, None], self.shape)
        return float(np.sum(weights * f) / np.sum(weights))

    def check_field(self, f):
        f = np.asarray(f, dtype=float)
        if f.shape != self.shape:
            raise ValueError(f"field shape {f.shape} does not match grid {self.shape}")
        return f

    # -- raw coordinate partials ----------------------------------------

    def _pad_phi(self, f, parity):
        half = self.n_lon // 2
        top = parity * np.roll(f[0], half)
        bot = parity * np.roll(f[-1], half)
        return np.concatenate([top[None], f, bot[None]], axis=0)

    def partial_gradient(self, f, phi_parity=1.0):
        """Centered-difference partials d_i f, shape ``(dim, *shape)``.

        phi_parity is the sign the component field picks up when read
        through a pole (-1 for one phi index, +1 otherwise); it only
        affects S^2 pole rings.
        """
        f = self.check_field(f)
        if self.dim == 1:
            d = (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * self.dtheta)
            return d[None]
        pad = self._pad_phi(f, phi_parity)
        dphi = (pad[2:] - pad[:-2]) / (2.0 * self.dphi)
        dtheta = (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2.0 * self.dtheta)
        return np.array([dphi, dtheta])

    def partial_hessian(self, f, phi_parity=1.0):
        """Centered second partials d_ij f, shape ``(dim, dim, *shape)``,
        symmetric by construction (one mixed stencil serves both slots)."""
        f = self.check_field(f)
        if self.dim == 1:
            d2 = (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / self.dtheta ** 2
            return d2[None, None]
        pad = self._pad_phi(f, phi_parity)
        d2phi = (pad[2:] - 2.0 * f + pad[:-2]) / self.dphi ** 2
        d2theta = (np.roll(f, -1, axis=1) - 2.0 * f + np.roll(f, 1, axis=1)) / self.dtheta ** 2
        dtheta_pad = (np.roll(pad, -1, axis=1) - np.roll(pad, 1, axis=1)) / (2.0 * self.dtheta)
        mixed = (dtheta_pad[2:] - dtheta_pad[:-2]) / (2.0 * self.dphi)
        return np.array([[d2phi, mixed], [mixed, d2theta]])

    # -- the same stencils as one neighbour table -----------------------

    def _neighbours(self, dj, di):
        """Flat index of the node at offset (dj, di) in (phi, theta) from
        every node, reading across a pole from the antipodal ring."""
        if self.dim == 1:
            return (np.arange(self.n_theta) + di) % self.n_theta
        j, i = np.indices(self.shape)
        j, i = j + dj, i + di
        across = (j < 0) | (j >= self.n_lat)
        i = np.where(across, i + self.n_lon // 2, i) % self.n_lon
        j = np.clip(j, 0, self.n_lat - 1)
        return (j * self.n_lon + i).ravel()

    def stencil_pattern(self):
        """StencilPattern of partial_gradient and partial_hessian (scalar
        parity): the pattern of every Jacobian on this grid.  Built on
        first use and shared afterwards."""
        if self._pattern is None:
            self._pattern = StencilPattern(self)
        return self._pattern


class StencilPattern:
    """The centered stencils of a grid as one fixed sparsity pattern, for
    every matrix of the form diag(a_u) + sum_i diag(a_p_i) D_i
    + sum_ij diag(a_H_ij) D_ij.

    Row m holds node m's neighbours at the stencil offsets (the 3x3
    neighbourhood on S^2, 3 nodes on S^1), in offset order; across a
    pole they lie on the antipodal ring, and they stay distinct on every
    grid grid_shape accepts, so every row has ``width`` entries and all
    assembled matrices share ``indptr`` and ``indices`` (entries that
    cancel stay as stored zeros).
    """

    def __init__(self, grid):
        n, self.dim = grid.node_count, grid.dim
        steps = (-1, 0, 1)
        offsets = [(dj, di) for dj in (steps if grid.dim == 2 else (0,))
                   for di in steps]
        self.shape = (n, n)
        self.width = len(offsets)
        self.indices = np.stack([grid._neighbours(*off) for off in offsets],
                                axis=1).ravel().astype(np.int32)
        self.indptr = (self.width * np.arange(n + 1)).astype(np.int32)

        # the stencil of each term, as (offset column, weight) pairs, in
        # the order assemble() sums them: the identity, D_i, D_ii, D_01
        column = {off: o for o, off in enumerate(offsets)}
        axes = ([((1, 0), grid.dphi)] if grid.dim == 2 else []) + [
            ((0, 1), grid.dtheta)]
        terms = [{(0, 0): 1.0}]
        terms += [{e: 0.5 / h, (-e[0], -e[1]): -0.5 / h} for e, h in axes]
        terms += [{e: h ** -2, (0, 0): -2.0 * h ** -2, (-e[0], -e[1]): h ** -2}
                  for e, h in axes]
        if grid.dim == 2:
            c = 0.25 / (grid.dphi * grid.dtheta)
            terms.append({(1, 1): c, (1, -1): -c, (-1, 1): -c, (-1, -1): c})
        self._terms = [[(column[off], w) for off, w in term.items()]
                       for term in terms]

    def assemble(self, a_u, a_p, a_H):
        """CSR matrix diag(a_u) + sum_i diag(a_p_i) D_i + sum_ij
        diag(a_H_ij) D_ij on the fixed pattern, from coefficient fields
        a_u (n values), a_p (dim, ...) and a_H (dim, dim, ...); the mixed
        partial D_01 = D_10 takes a_H_01 + a_H_10.  Each entry sums its
        terms in that order."""
        coefs = [a_u, *a_p, *(a_H[i, i] for i in range(self.dim))]
        if self.dim == 2:
            coefs.append(a_H[0, 1] + a_H[1, 0])
        data = np.zeros((self.shape[0], self.width))
        for coef, term in zip(coefs, self._terms):
            coef = np.ravel(coef)
            for o, w in term:
                data[:, o] += coef * w
        # copies: scipy may sort or prune a matrix's index arrays in place
        return sp.csr_matrix((data.ravel(), self.indices.copy(),
                              self.indptr.copy()), shape=self.shape)


def build_grid(dim, resolution):
    """Construct a SphereGrid; thin wrapper kept as the public entry point."""
    return SphereGrid(dim, resolution)


def covariant_hessian(d2f, df, christoffel):
    """Covariant Hessian d_ij f - Gamma^k_ij d_k f of a scalar f from its
    partials d2f = d_ij f, shape (n, n, ...), and df = d_k f, shape
    (n, ...), in the connection with Christoffel symbols
    christoffel[k, i, j, ...]: grid.christoffel for the round metric."""
    return d2f - np.einsum("kij...,k...->ij...", christoffel, df)
