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

A matrix built from these stencils (StencilPattern.assemble) is its
table of coefficients, one row per stencil offset (StencilMatrix), and
it acts on a field through slices of one ghost-padded copy of it: the
padding carries the theta wrap and the antipodal pole rings.

Linear solves with such a matrix (StencilPattern.solve) start from a
direct factor.  S^1's periodic tridiagonal matrix is eliminated with its
corners folded out and one Sherman-Morrison correction (C. Temperton,
J. Comput. Phys. 19, 1975).  On S^2 the matrix's average over each ring
splits, under a real FFT in theta, into one tridiagonal system in phi
per Fourier mode m, and the pole closure, a shift by half a turn, adds
(-1)^m times the ghost coefficient to the first and last diagonal
entries (P. N. Swarztrauber, J. Comput. Phys. 15, 1974); that factor
preconditions any matrix (Concus & Golub, SIAM J. Numer. Anal. 10,
1973).  Defect correction against the exact matrix finishes every
solve, each correction a few GMRES steps preconditioned by the factor
(Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986), so strongly
non-zonal matrices need about as many factor solves on every grid.
"""

import itertools
import operator

import numpy as np

# StencilPattern.solve stops when every row's defect is at most
# BACKWARD_ERROR_TOL times (|J| |x| + |b|)_i, a row-wise backward error.
# Defect correction floors near 1 eps from 64x128 to 256x512; a non-zonal
# 64x128 solve stopped at 47 eps, as 64 eps would allow, was 2e-12 from
# a sparse LU's answer, against 4e-14 one sweep later.  Each correction
# sweep is a cycle of at most KRYLOV_STEPS preconditioned GMRES steps:
# the plain sweep x += P^-1 (b - J x) contracts by the spectral radius of
# I - P^-1 J, which far from zonal grows with the grid (0.60 per sweep at
# 32x64, 0.76 at 64x128; 31, 62 and 115 factor solves from 16x32 to
# 64x128), where the GMRES cycles took 22, 28, 33 and 35 from 16x32 to
# 128x256.  The solve gives up after CORRECTION_SWEEPS sweeps, or after
# STALL_SWEEPS in a row that leave the worst ratio above its lowest so
# far (the ratio need not fall on every sweep).
BACKWARD_ERROR_TOL = 16.0 * np.finfo(float).eps
KRYLOV_STEPS = 8
CORRECTION_SWEEPS = 20
STALL_SWEEPS = 4


def grid_shape(dim, resolution):
    """Node shape of SphereGrid(dim, resolution): (n,) on S^1 for a
    resolution n, (n_lat, n_lon) on S^2 for a pair.  Raises ValueError
    for a resolution the grid refuses: a count that is not an integer
    (32.9 is not read as 32), fewer than 8 nodes in a direction, or an
    odd n_lon, which has no antipodal pole closure."""
    if dim == 1:
        shape = (resolution,)
    elif dim == 2:
        try:
            nlat, nlon = resolution
        except TypeError:
            raise ValueError("S^2 resolution must be a (n_lat, n_lon) pair")
        shape = (nlat, nlon)
    else:
        raise ValueError(f"unsupported sphere dimension {dim!r}")
    try:
        shape = tuple(map(operator.index, shape))
    except TypeError:
        raise ValueError(f"S^{dim} resolution must be integer node counts, "
                         f"got {resolution!r}") from None
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
    over theta.  The geometry is fixed at construction; the one state
    added later is the StencilPattern that stencil_pattern() builds on
    first use and caches, which lives as long as the grid (a solve keeps
    every grid of its refinement chain, and so its pattern, until it
    returns).  Workers may share an instance; two whose first calls
    race may each build a pattern, equal ones.
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
            rows = _padded(f)[:, 1:-1]
            rings = np.empty((2 * self.n_lat, self.n_lon))
            rings[0::2] = 0.75 * f + 0.25 * rows[:-2]
            rings[1::2] = 0.75 * f + 0.25 * rows[2:]
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

    def partial_gradient(self, f, phi_parity=1.0, *, pad=None, out=None):
        """Centered-difference partials d_i f, shape ``(dim, *shape)``.

        phi_parity is the sign the component field picks up when read
        through a pole (-1 for one phi index, +1 otherwise); it only
        affects S^2 pole rings.  ``pad`` is f's padding with that parity
        (_padded), when the caller has it; it may pad a block of rings,
        whose partials come out.  ``out`` receives the partials.
        """
        if pad is None:
            pad = _padded(self.check_field(f), phi_parity)
        if out is None:
            out = np.empty((self.dim,) + _unpadded_shape(pad))
        if self.dim == 1:
            _difference(pad[2:], pad[:-2], 2.0 * self.dtheta, out[0])
            return out
        rows, cols = pad[:, 1:-1], pad[1:-1]
        _difference(rows[2:], rows[:-2], 2.0 * self.dphi, out[0])
        _difference(cols[:, 2:], cols[:, :-2], 2.0 * self.dtheta, out[1])
        return out

    def partial_hessian(self, f, phi_parity=1.0, *, pad=None, out=None):
        """Centered second partials d_ij f, shape ``(dim, dim, *shape)``,
        symmetric by construction (one mixed stencil serves both slots);
        phi_parity, ``pad`` and ``out`` as in partial_gradient."""
        if pad is None:
            pad = _padded(self.check_field(f), phi_parity)
        if out is None:
            out = np.empty((self.dim, self.dim) + _unpadded_shape(pad))
        if self.dim == 1:
            _second_difference(pad[2:], pad[1:-1], pad[:-2], self.dtheta ** 2,
                               out[0, 0])
            return out
        # the phi difference of the theta partials of the padded rows
        # j + 2 and j, the second held in the d2theta slot until then.
        # out may be a symmetric view whose [1, 0] is its [0, 1]
        mixed, below = out[0, 1], out[1, 1]
        _difference(pad[2:, 2:], pad[2:, :-2], 2.0 * self.dtheta, mixed)
        _difference(pad[:-2, 2:], pad[:-2, :-2], 2.0 * self.dtheta, below)
        _difference(mixed, below, 2.0 * self.dphi, mixed)
        if not np.may_share_memory(out[1, 0], mixed):
            out[1, 0] = mixed
        rows, cols = pad[:, 1:-1], pad[1:-1]
        f = cols[:, 1:-1]
        _second_difference(rows[2:], f, rows[:-2], self.dphi ** 2, out[0, 0])
        _second_difference(cols[:, 2:], f, cols[:, :-2], self.dtheta ** 2,
                           out[1, 1])
        return out

    def stencil_pattern(self):
        """StencilPattern of partial_gradient and partial_hessian (scalar
        parity): the pattern of every Jacobian on this grid.  Built on
        first use and shared afterwards."""
        if self._pattern is None:
            self._pattern = StencilPattern(self)
        return self._pattern


def _padded(f, parity=1.0, poles=(True, True), out=None):
    """Field f with one ghost node beyond each end of every grid axis, so
    that the node at offset d from node j is padded[j + 1 + d]: theta
    wraps around and, on S^2, the ghost ring beyond a pole is the pole
    ring half a turn away, times parity (the sign a component field with
    one phi index picks up through a pole).

    On S^2 f may be a block of consecutive rings: poles says whether its
    first and its last ring are pole rings.  A ring that is not gets no
    ghost; it stays the block's border row, so a block holding the
    rings lo - 1 .. hi pads to what the whole grid's padding holds in
    rows lo .. hi + 1.  ``out``, of shape _padded_shape(f.shape, poles),
    receives the padding."""
    pad = (np.empty(_padded_shape(f.shape, poles), f.dtype) if out is None
           else out)
    if f.ndim == 1:
        pad[1:-1] = f
    else:
        (top, bottom), (rings, nlon) = poles, f.shape
        pad[int(top):int(top) + rings, 1:-1] = f
        if top or bottom:
            # the ghost rows are the pole rings, first and last, each
            # turned by half a turn: its two halves swapped
            halves = (top + bottom, 2, nlon // 2)
            pad[_ends(len(pad), top, bottom), 1:-1].reshape(halves)[:] = (
                parity * f[_ends(rings, top, bottom)].reshape(halves)[:, ::-1])
    pad[..., 0] = pad[..., -2]
    pad[..., -1] = pad[..., 1]
    return pad


def _padded_shape(shape, poles=(True, True)):
    """The shape of _padded's result for a field or ring block of
    ``shape``."""
    if len(shape) == 1:
        return (shape[0] + 2,)
    (rings, nlon), (top, bottom) = shape, poles
    return (rings + int(top) + int(bottom), nlon + 2)


def _unpadded_shape(pad):
    """The shape of the nodes inside the padding ``pad``."""
    return tuple(n - 2 for n in pad.shape)


def _difference(a, b, h, out):
    """(a - b) / h, written to out."""
    np.subtract(a, b, out=out)
    out /= h
    return out


def _second_difference(ahead, centre, behind, h2, out):
    """(ahead - 2 centre + behind) / h2, written to out."""
    np.multiply(2.0, centre, out=out)
    np.subtract(ahead, out, out=out)
    out += behind
    out /= h2
    return out


def _ends(n, first, last):
    """Row 0 of n rows if first, and row n - 1 if last, as one slice."""
    return slice(0 if first else n - 1, n if last else 1, max(n - 1, 1))


class StencilPattern:
    """The centered stencils of a grid as one fixed sparsity pattern, for
    every matrix of the form diag(a_u) + sum_i diag(a_p_i) D_i
    + sum_ij diag(a_H_ij) D_ij.

    Row m holds node m's neighbours at the stencil offsets (the 3x3
    neighbourhood on S^2, 3 nodes on S^1), in offset order; across a
    pole they lie on the antipodal ring, and they stay distinct on every
    grid grid_shape accepts, so every row has ``width`` entries and a
    matrix is the (width, n) table of them (StencilMatrix), entries that
    cancel included.  The neighbour at each offset is a slice of the
    padded field (_padded), so the pattern keeps no index arrays.
    """

    def __init__(self, grid):
        n, self.dim, self.field_shape = grid.node_count, grid.dim, grid.shape
        self.shape = (n, n)
        offsets = list(itertools.product((-1, 0, 1), repeat=grid.dim))
        self.width = len(offsets)
        # the neighbours at each offset, as a slice of the padded field
        self._views = [tuple(slice(1 + d, 1 + d + size)
                             for d, size in zip(off, grid.shape))
                       for off in offsets]
        if grid.dim == 2:
            # mode m's phase exp(i m di dtheta) at each theta offset di,
            # and the sign (-1)^m of a shift by half a turn
            modes = np.arange(grid.n_lon // 2 + 1)
            self._ring_mean = np.full(grid.n_lon, 1.0 / grid.n_lon)
            self._phases = np.exp(1j * grid.dtheta * np.outer((-1, 0, 1),
                                                              modes))
            self._fold = (-1.0) ** modes

        # the stencil of each term, as (offset row, weight) pairs, in
        # the order assemble() sums them: the identity, D_i, D_ii, D_01
        row = {off: o for o, off in enumerate(offsets)}
        axes = ([((1, 0), grid.dphi), ((0, 1), grid.dtheta)]
                if grid.dim == 2 else [((1,), grid.dtheta)])
        centre = (0,) * grid.dim
        terms = [{centre: 1.0}]
        terms += [{e: 0.5 / h, tuple(-d for d in e): -0.5 / h}
                  for e, h in axes]
        terms += [{e: h ** -2, centre: -2.0 * h ** -2,
                   tuple(-d for d in e): h ** -2} for e, h in axes]
        if grid.dim == 2:
            c = 0.25 / (grid.dphi * grid.dtheta)
            terms.append({(1, 1): c, (1, -1): -c, (-1, 1): -c, (-1, -1): c})
        self._terms = [[(row[off], w) for off, w in term.items()]
                       for term in terms]

    def assemble(self, a_u, a_p, a_H):
        """StencilMatrix diag(a_u) + sum_i diag(a_p_i) D_i + sum_ij
        diag(a_H_ij) D_ij on the fixed pattern, from coefficient fields
        a_u (n values), a_p (dim, ...) and the symmetric a_H as its
        components (a_H00,) or (a_H00, a_H01, a_H11); the mixed partial
        D_01 = D_10 takes a_H01 + a_H01.  Each entry sums its terms in
        that order."""
        coefs = [a_u, *a_p, *(a_H[2 * i] for i in range(self.dim))]
        if self.dim == 2:
            coefs.append(a_H[1] + a_H[1])
        table = np.zeros((self.width, self.shape[0]))
        for coef, term in zip(coefs, self._terms):
            coef = np.ravel(coef)
            for o, w in term:
                table[o] += coef * w
        return StencilMatrix(self, table)

    def solve(self, jac, b):
        """The x with jac x = b, for a StencilMatrix assemble() built.

        The first solve is a direct factor (the module docstring): on S^1
        the cyclic Thomas factor of jac, on S^2 the Fourier factor of
        jac's ring-averaged table, exact when jac is zonal.  Defect
        corrections x += d, with d from at most KRYLOV_STEPS GMRES steps
        on jac d = b - jac x preconditioned by that factor, follow until
        every row satisfies
        |b - jac x|_m <= BACKWARD_ERROR_TOL (|jac| |x| + |b|)_m.  Raises
        numpy.linalg.LinAlgError on a singular factor (a zero pivot, or
        on S^1 a corner correction that cancels) or when the corrections
        stall or run out of sweeps (STALL_SWEEPS, CORRECTION_SWEEPS).
        """
        magnitude = abs(jac)
        inverse = (_cyclic_inverse(jac.table) if self.dim == 1
                   else self._fourier_inverse(jac.table))
        x, best, stalled = inverse(b), np.inf, 0
        for _ in range(CORRECTION_SWEEPS):
            defect = b - jac @ x
            scale = magnitude @ np.abs(x) + np.abs(b)
            # |defect| <= scale up to rounding, so the ratio cannot overflow
            ratio = float(np.max(np.abs(defect)
                                 / np.maximum(scale, np.finfo(float).tiny)))
            if ratio <= BACKWARD_ERROR_TOL:
                return x
            # a NaN ratio is never a new low
            best, stalled = (ratio, 0) if ratio < best else (best, stalled + 1)
            if stalled == STALL_SWEEPS:
                raise np.linalg.LinAlgError(
                    f"defect correction stopped contracting at backward "
                    f"error {best:.3e}")
            x = x + _gmres_correction(jac, inverse, defect,
                                      BACKWARD_ERROR_TOL / ratio)
        raise np.linalg.LinAlgError(
            f"defect correction left backward error {best:.3e} after "
            f"{CORRECTION_SWEEPS} sweeps")

    def _fourier_inverse(self, table):
        """The solve with the Fourier factor of table's ring average: one
        Thomas elimination per mode, all modes at once, ring by ring."""
        nlat, nlon = self.field_shape
        # each ring's first row plus the mean deviation from it: exact on a
        # zonal ring, where a plain mean's rounding of the large pole-ring
        # theta weights would spoil their cancellation in the low modes.
        # The mean reads the deviations node-major: a transposed view would
        # hand BLAS another layout, and another rounding.
        nodes = table.reshape(self.width, nlat, nlon).transpose(1, 2, 0)
        first = nodes[:, 0]
        deviation = np.empty(nodes.shape)
        np.subtract(nodes, first[:, None], out=deviation)
        rings = (first + self._ring_mean @ deviation).reshape(nlat, 3, 3)
        # symbol[j, dj + 1, m]: ring j's coupling to ring j + dj in mode m
        symbol = rings @ self._phases
        lower, pivot, upper = symbol[:, 0], symbol[:, 1], symbol[:, 2]
        pivot[0] += self._fold * lower[0]
        pivot[-1] += self._fold * upper[-1]
        eliminate = _thomas(lower, pivot, upper, "ring {}, mode {}")
        return lambda b: np.fft.irfft(eliminate(np.fft.rfft(
            b.reshape(nlat, nlon), axis=1)), nlon, axis=1).ravel()


def _thomas(lower, pivot, upper, where):
    """The in-place solve with the tridiagonal systems along axis 0, row j
    pivot[j] x_j + lower[j] x_{j-1} + upper[j] x_{j+1}, by LU without
    pivoting, which overwrites pivot.  A zero pivot, which only makes later
    ones non-finite, raises LinAlgError named by ``where``.format(*index)."""
    coupling = lower[1:] * upper[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(1, len(pivot)):
            pivot[j] -= coupling[j - 1] / pivot[j - 1]
    zero = np.argwhere(pivot == 0)
    if zero.size:
        raise np.linalg.LinAlgError("zero pivot in " + where.format(*zero[0]))
    inv_pivot = 1.0 / pivot
    multiplier = lower[1:] * inv_pivot[:-1]
    ratio = upper * inv_pivot

    def solve(y):
        for j in range(1, len(y)):
            y[j] -= multiplier[j - 1] * y[j - 1]
        y *= inv_pivot
        for j in range(len(y) - 2, -1, -1):
            y[j] -= ratio[j] * y[j + 1]
        return y
    return solve


def _cyclic_inverse(table):
    """The solve with an S^1 table's periodic tridiagonal J, corners
    top = J[0, n-1] and bottom = J[n-1, 0]: J = T + c v^T with
    c = (gamma, 0, .., bottom), v = (1, 0, .., top / gamma), gamma = -J_00,
    by Thomas on T and Sherman-Morrison.  Raises LinAlgError on a zero
    pivot, or when 1 + v.z, z = T^-1 c, is within BACKWARD_ERROR_TOL of
    its terms: J is singular to working precision."""
    lower, pivot, upper = table.copy()      # Thomas overwrites the pivots
    if pivot[0] == 0:
        raise np.linalg.LinAlgError("zero pivot in node 0")
    gamma = -pivot[0]
    w = lower[0] / gamma
    pivot[0] -= gamma
    pivot[-1] -= upper[-1] * w
    eliminate = _thomas(lower, pivot, upper, "node {}")
    z = eliminate(np.r_[gamma, np.zeros(len(pivot) - 2), upper[-1]])
    gain, scale = 1.0 + z[0] + w * z[-1], 1.0 + abs(z[0]) + abs(w * z[-1])
    if abs(gain) <= BACKWARD_ERROR_TOL * scale:
        raise np.linalg.LinAlgError(f"singular periodic system: 1 + v.z is "
                                    f"{abs(gain) / scale:.1e} of its terms")

    def inverse(b):
        y = eliminate(np.array(b, dtype=float))
        return y - (y[0] + w * y[-1]) / gain * z
    return inverse


class StencilMatrix:
    """A matrix on a StencilPattern, held as its (width, n) table:
    table[o, m] is row m's entry at node m's o-th stencil offset."""

    def __init__(self, pattern, table):
        self.pattern, self.table = pattern, table

    def __abs__(self):
        return StencilMatrix(self.pattern, np.abs(self.table))

    def dot(self, x):
        """The product with a vector of n values.  Each row is summed
        from zero in offset order, the order of scipy's CSR product, so
        the two agree bit for bit."""
        shape = self.pattern.field_shape
        pad = _padded(np.reshape(x, shape))
        y, term = np.zeros(shape), np.empty(shape)
        for coef, view in zip(self.table, self.pattern._views):
            y += np.multiply(coef.reshape(shape), pad[view], out=term)
        return y.ravel()

    __matmul__ = dot


def _gmres_correction(jac, inverse, defect, reduction):
    """The d in inverse(span of the Arnoldi vectors of jac inverse from
    defect) that minimises ||defect - jac d||_2: one cycle of
    right-preconditioned GMRES from zero, orthogonalising twice.  The
    cycle ends after KRYLOV_STEPS steps, or once that minimum is at most
    reduction times ||defect||_2, the cut the caller's row-wise test
    still needs."""
    basis = np.empty((KRYLOV_STEPS + 1, defect.size))
    directions = np.empty((KRYLOV_STEPS, defect.size))
    hessenberg = np.zeros((KRYLOV_STEPS + 1, KRYLOV_STEPS))
    rhs = np.zeros(KRYLOV_STEPS + 1)
    rhs[0] = np.linalg.norm(defect)
    basis[0] = defect / rhs[0]
    for j in range(KRYLOV_STEPS):
        directions[j] = inverse(basis[j])
        w = jac @ directions[j]
        for _ in range(2):
            h = basis[:j + 1] @ w
            w -= h @ basis[:j + 1]
            hessenberg[:j + 1, j] += h
        hessenberg[j + 1, j] = np.linalg.norm(w)
        small, target = hessenberg[:j + 2, :j + 1], rhs[:j + 2]
        y = np.linalg.lstsq(small, target, rcond=None)[0]
        if (hessenberg[j + 1, j] == 0.0     # an invariant space: exact
                or np.linalg.norm(small @ y - target) <= reduction * rhs[0]):
            break
        basis[j + 1] = w / hessenberg[j + 1, j]
    return y @ directions[:j + 1]


def build_grid(dim, resolution):
    """Construct a SphereGrid; thin wrapper kept as the public entry point."""
    return SphereGrid(dim, resolution)


def covariant_hessian(d2f, df, christoffel, out=None):
    """Covariant Hessian d_ij f - Gamma^k_ij d_k f of a scalar f from its
    partials d2f = d_ij f, shape (n, n, ...), and df = d_k f, shape
    (n, ...), in the connection with Christoffel symbols
    christoffel[k, i, j, ...]: grid.christoffel for the round metric.
    ``out``, not d2f, receives it."""
    term = np.einsum("kij...,k...->ij...", christoffel, df, out=out)
    return np.subtract(d2f, term, out=term)
