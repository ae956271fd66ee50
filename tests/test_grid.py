"""Sphere grids and finite-difference operators."""

import tracemalloc

import numpy as np
import pytest

import dscurv.grid
from dscurv import build_grid, covariant_hessian


def round_hessian(f, g):
    """Covariant Hessian of f in the round metric of grid g."""
    return covariant_hessian(g.partial_hessian(f), g.partial_gradient(f),
                             g.christoffel)


def test_s1_construction(s1_64):
    g = s1_64
    assert g.dim == 1 and g.node_count == 64
    assert np.allclose(np.diff(g.theta), 2 * np.pi / 64)
    assert g.sigma.shape == g.sigma_inv.shape == (1, 1, 1)
    assert np.all(g.sigma[0, 0] == 1.0)
    assert np.all(g.christoffel == 0.0)


def test_s2_construction(s2_32x64):
    g = s2_32x64
    assert g.shape == (32, 64)
    # staggered rings: no node at the poles
    assert g.phi[0] > 0.0 and g.phi[-1] < np.pi
    assert np.allclose(g.sigma[1, 1], np.sin(g.phi[:, None]) ** 2)
    assert np.allclose(g.sigma_inv[1, 1] * g.sigma[1, 1], 1.0)
    # the round metric and its symbols depend on phi alone: one row per
    # ring, broadcast over theta, each nonzero entry in closed form
    assert g.sigma.shape == g.sigma_inv.shape == (2, 2, 32, 1)
    assert g.christoffel.shape == (2, 2, 2, 32, 1)
    sin, cos = np.sin(g.phi)[:, None], np.cos(g.phi)[:, None]
    nonzero = {
        "sigma": {(0, 0): 1.0, (1, 1): sin ** 2},
        "sigma_inv": {(0, 0): 1.0, (1, 1): sin ** -2},
        "christoffel": {(0, 1, 1): -sin * cos, (1, 0, 1): cos / sin,
                        (1, 1, 0): cos / sin},
    }
    for name, entries in nonzero.items():
        T = getattr(g, name)
        for index in np.ndindex(T.shape[:-2]):
            want = np.broadcast_to(entries.get(index, 0.0), (32, 1))
            assert np.array_equal(T[index], want)


def test_refine_halves_spacing(s2_32x64):
    fine = s2_32x64.refine()
    assert fine.shape == (64, 128)
    assert fine.h == pytest.approx(s2_32x64.h / 2, rel=1e-12)


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid(3, 16)
    with pytest.raises(ValueError):
        build_grid(1, 4)
    with pytest.raises(ValueError):
        build_grid(2, (16, 17))   # odd longitude count breaks pole closure
    with pytest.raises(ValueError):
        build_grid(2, 16)


@pytest.mark.parametrize("dim, resolution", [
    (1, 32.9), (1, 32.0), (2, (16.7, 32)), (2, (16, 32.0))])
def test_build_grid_rejects_non_integer_resolution(dim, resolution):
    # int() used to truncate: 32.9 gave a 32-node grid
    with pytest.raises(ValueError, match="resolution must be integer"):
        build_grid(dim, resolution)


def test_constant_field_derivatives_vanish(s1_64, s2_32x64):
    for g in (s1_64, s2_32x64):
        u = np.full(g.shape, 1.234)
        assert np.all(g.partial_gradient(u) == 0.0)
        assert np.all(round_hessian(u, g) == 0.0)


def test_s1_cosine_derivatives(s1_64):
    g = s1_64
    u = np.cos(g.theta)
    du = g.partial_gradient(u)
    hess = round_hessian(u, g)
    assert np.max(np.abs(du[0] + np.sin(g.theta))) < 2e-3
    assert np.max(np.abs(hess[0, 0] + np.cos(g.theta))) < 1e-3


def test_s2_zonal_gradient(s2_32x64):
    g = s2_32x64
    phi, _ = g.coords()
    du = g.partial_gradient(np.cos(phi))
    assert np.max(np.abs(du[0] + np.sin(phi))) < 2e-3
    assert np.max(np.abs(du[1])) == 0.0


def test_hessian_symmetry_exact(s2_32x64, rng):
    u = rng.normal(size=s2_32x64.shape)
    hess = round_hessian(u, s2_32x64)
    assert np.array_equal(hess[0, 1], hess[1, 0])


def test_linearity(s2_16x32, rng):
    g = s2_16x32
    u, v = rng.normal(size=(2,) + g.shape)
    for op in (g.partial_gradient, lambda f: round_hessian(f, g)):
        combo = op(2.5 * u - 1.5 * v)
        parts = 2.5 * op(u) - 1.5 * op(v)
        assert np.allclose(combo, parts, atol=1e-12)


def _ratio(coarse_err, fine_err):
    return coarse_err / fine_err


def test_s1_operator_convergence_order():
    errs = []
    for n in (64, 128):
        g = build_grid(1, n)
        u = np.cos(g.theta)
        e_grad = np.max(np.abs(g.partial_gradient(u)[0] + np.sin(g.theta)))
        e_hess = np.max(np.abs(round_hessian(u, g)[0, 0] + np.cos(g.theta)))
        errs.append((e_grad, e_hess))
    for i in range(2):
        assert 3.4 <= _ratio(errs[0][i], errs[1][i]) <= 4.6


def test_s2_component_convergence_order(s2_32x64):
    # tesseral test field: all stencils including the pole closure active
    def errors(g):
        phi, theta = g.coords()
        f = np.sin(phi) * np.cos(phi) * np.cos(theta)
        dphi = (np.cos(phi) ** 2 - np.sin(phi) ** 2) * np.cos(theta)
        dtheta = -np.sin(phi) * np.cos(phi) * np.sin(theta)
        grad = g.partial_gradient(f)
        hess = round_hessian(f, g)
        h_pp = -4 * np.sin(phi) * np.cos(phi) * np.cos(theta)
        h_pt = (-(np.cos(phi) ** 2 - np.sin(phi) ** 2) * np.sin(theta)
                - np.cos(phi) / np.sin(phi) * dtheta)
        h_tt = (-np.sin(phi) * np.cos(phi) * np.cos(theta)
                + np.sin(phi) * np.cos(phi) * dphi)
        return (np.max(np.abs(grad[0] - dphi)),
                np.max(np.abs(grad[1] - dtheta)),
                np.max(np.abs(hess[0, 0] - h_pp)),
                np.max(np.abs(hess[0, 1] - h_pt)),
                np.max(np.abs(hess[1, 1] - h_tt)))

    coarse = errors(s2_32x64)
    fine = errors(s2_32x64.refine())
    for c, f in zip(coarse, fine):
        assert 3.4 <= _ratio(c, f) <= 4.6


def test_laplace_beltrami_eigenvalue_oracle(s2_32x64):
    # trace of the covariant Hessian of a zonal harmonic of degree l is
    # -l(l+1) times the harmonic; checked under refinement
    def lap_err(g, f_of_phi, l):
        phi, _ = g.coords()
        f = f_of_phi(phi)
        lap = np.einsum("ij...,ij...->...", g.sigma_inv, round_hessian(f, g))
        return np.max(np.abs(lap + l * (l + 1) * f))

    cases = [(np.cos, 1), (lambda p: 1.5 * np.cos(p) ** 2 - 0.5, 2)]
    for f, l in cases:
        coarse = lap_err(s2_32x64, f, l)
        fine = lap_err(s2_32x64.refine(), f, l)
        assert 3.4 <= _ratio(coarse, fine) <= 4.6


def test_stencil_terms_match_array_stencils(rng):
    # each term of assemble() alone, with unit coefficient, is the array
    # stencil; a random field puts weight on every node, the pole rings
    # included
    for dim, res in ((1, 8), (1, 64), (2, (8, 16)), (2, (16, 32))):
        g = build_grid(dim, res)
        f = rng.standard_normal(g.shape)
        pattern = g.stencil_pattern()

        def term(a_u=0.0, p=None, H=None):
            a_p = np.zeros((dim,) + g.shape)
            a_H = np.zeros((dim, dim) + g.shape)
            if p is not None:
                a_p[p] = 1.0
            if H is not None:
                a_H[H] = 1.0
            mat = pattern.assemble(np.full(g.shape, a_u), a_p, a_H)
            return (mat @ f.ravel()).reshape(g.shape)

        assert np.array_equal(term(a_u=1.0), f)
        want = g.partial_gradient(f)
        for i in range(dim):
            assert np.max(np.abs(term(p=i) - want[i])) <= 1e-12 * np.max(np.abs(want))
        want = g.partial_hessian(f)
        for i in range(dim):
            for j in range(i, dim):
                got = term(H=(i, j))
                assert np.max(np.abs(got - want[i, j])) <= 1e-12 * np.max(np.abs(want))


def _rolled_partials(g, f, parity):
    """Partials of f by np.roll in theta and pole rings concatenated
    beyond each pole: the arithmetic the padded slices must repeat."""
    def d_theta(a):
        return (np.roll(a, -1, axis=-1) - np.roll(a, 1, axis=-1)) / (2.0 * g.dtheta)

    d2theta = (np.roll(f, -1, axis=-1) - 2.0 * f
               + np.roll(f, 1, axis=-1)) / g.dtheta ** 2
    if g.dim == 1:
        return d_theta(f)[None], d2theta[None, None]
    half = g.n_lon // 2
    pad = np.concatenate([parity * np.roll(f[:1], half, axis=1), f,
                          parity * np.roll(f[-1:], half, axis=1)])
    d2phi = (pad[2:] - 2.0 * f + pad[:-2]) / g.dphi ** 2
    mixed = (d_theta(pad)[2:] - d_theta(pad)[:-2]) / (2.0 * g.dphi)
    return (np.array([(pad[2:] - pad[:-2]) / (2.0 * g.dphi), d_theta(f)]),
            np.array([[d2phi, mixed], [mixed, d2theta]]))


def test_padded_partials_repeat_rolled_arithmetic(rng):
    # slices of one ghost-padded copy give the rolled stencils bit for
    # bit, for both parities and on the tightest pole rings
    for dim, res in ((1, 8), (1, 64), (2, (8, 16)), (2, (16, 32)),
                     (2, (128, 256))):
        g = build_grid(dim, res)
        f = rng.standard_normal(g.shape)
        for parity in (1.0, -1.0):
            gradient, hessian = _rolled_partials(g, f, parity)
            assert np.array_equal(g.partial_gradient(f, parity), gradient)
            assert np.array_equal(g.partial_hessian(f, parity), hessian)


def test_padded_ring_blocks_match_whole_grid_padding(rng):
    # a block holding rings lo - 1 .. hi, with ghosts only at the poles,
    # pads to rows lo .. hi + 1 of the whole grid's padding
    f = rng.standard_normal((16, 32))
    n = len(f)
    for parity in (1.0, -1.0):
        whole = dscurv.grid._padded(f, parity)
        for lo in range(n):
            for hi in range(lo + 1, n + 1):
                block = f[max(lo - 1, 0):min(hi + 1, n)]
                pad = dscurv.grid._padded(block, parity, (lo == 0, hi == n))
                assert np.array_equal(pad, whole[lo:hi + 2])


def test_stencil_pattern_retains_bounded_memory():
    # 32768 nodes x 9 neighbours: one int32 array over the pattern is 1.1 MB
    grid = build_grid(2, (128, 256))
    tracemalloc.start()
    try:
        grid.stencil_pattern()
        retained_mb = tracemalloc.get_traced_memory()[0] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert retained_mb <= 8.0


def test_coarsened_chain():
    cases = {(2, (48, 96)): [(24, 48), (12, 24)], (2, (24, 48)): [(12, 24)],
             (2, (32, 64)): [(16, 32), (8, 16)], (2, (16, 32)): [(8, 16)],
             (2, (8, 16)): [], (2, (64, 96)): [(32, 48), (16, 24), (8, 12)],
             (2, (32, 66)): [],         # 33 longitudes: no pole closure
             (2, (128, 256)): [(64, 128), (32, 64), (16, 32), (8, 16)],
             (1, 128): [(64,), (32,), (16,), (8,)], (1, 24): [(12,)],
             (1, 12): []}
    for (dim, res), shapes in cases.items():
        grid = build_grid(dim, res)
        chain = grid.coarsened()
        assert [g.shape for g in chain] == shapes
        for coarse, fine in zip(chain, [grid] + chain):
            assert coarse.refine().shape == fine.shape


def _smooth_field(g):
    # non-zonal and smooth on the sphere, so smooth across the poles too
    if g.dim == 1:
        return np.exp(0.3 * np.cos(g.theta)) + np.sin(2.0 * g.theta)
    phi, theta = g.coords()
    x, y, z = np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)
    return np.exp(0.3 * x) + y * z + 0.5 * z ** 3


def test_prolong_exact_on_constants(s1_64, s2_16x32):
    for g in (s1_64, s2_16x32):
        fine = g.prolong(np.full(g.shape, 0.7))
        assert fine.shape == g.refine().shape
        assert np.max(np.abs(fine - 0.7)) <= 1e-15


def test_prolong_second_order():
    for dim, resolutions in ((2, [(16, 32), (32, 64), (64, 128), (128, 256)]),
                             (1, [16, 32, 64, 128])):
        errors, pole_errors = [], []
        for res in resolutions:
            g = build_grid(dim, res)
            err = np.abs(g.prolong(_smooth_field(g)) - _smooth_field(g.refine()))
            errors.append(err.max())
            if dim == 2:
                # the outermost fine rings read the antipodal ghost ring
                pole_errors.append(max(err[0].max(), err[-1].max()))
        for errs in (errors, pole_errors):
            for coarse, fine in zip(errs, errs[1:]):
                assert 3.4 <= _ratio(coarse, fine) <= 4.6
