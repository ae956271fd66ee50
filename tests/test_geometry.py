"""Induced graph geometry: metric, tilt, curvature, eigenvalues."""

import numpy as np
import pytest
import scipy.linalg

from dscurv import SpacelikeError, induced_geometry, shape_eigenvalues
from dscurv.geometry import SPACELIKE_GUARD, induced_geometry_unchecked
from dscurv.symmetric import elementary_symmetric_all


def test_umbilic_slice_closed_forms(s2_32x64):
    g = s2_32x64
    r = 0.8814
    u = np.full(g.shape, r)
    geom = induced_geometry(u, g)
    assert np.allclose(geom.g, np.cosh(r) ** 2 * g.sigma, atol=1e-14)
    assert np.allclose(geom.g_inv, g.sigma_inv / np.cosh(r) ** 2, rtol=1e-13)
    assert np.max(np.abs(geom.tau - np.cosh(r))) < 1e-14
    assert np.max(np.abs(geom.eta - np.sinh(r))) < 1e-14
    assert np.max(np.abs(geom.A - np.sinh(r) * np.cosh(r) * g.sigma)) < 1e-13
    assert np.max(np.abs(geom.shape_eigs - np.tanh(r))) < 1e-13
    # shape operator g^{-1} A equals tanh(r) times the identity
    mixed = np.einsum("ik...,kj...->ij...", geom.g_inv, geom.A)
    assert np.allclose(mixed, np.tanh(r) * np.eye(2)[..., None, None], atol=1e-13)


def test_tilt_height_standard_values(s1_64):
    u = np.full(s1_64.shape, 0.5)
    geom = induced_geometry(u, s1_64)
    tau, eta = geom.tau, geom.eta
    assert np.allclose(tau, 1.127626, atol=1e-6)
    assert np.allclose(eta, 0.521095, atol=1e-6)
    assert np.allclose(tau, np.cosh(0.5), rtol=1e-15)
    assert np.allclose(eta, np.sinh(0.5), rtol=1e-15)


def test_s1_metric_closed_form(s1_64):
    g = s1_64
    u = 0.5 + 0.2 * np.cos(g.theta)
    metric = induced_geometry(u, g)
    du = g.partial_gradient(u)[0]
    assert np.allclose(metric.g[0, 0], -du ** 2 + np.cosh(u) ** 2, atol=1e-15)
    prod = metric.g[0, 0] * metric.g_inv[0, 0]
    assert np.max(np.abs(prod - 1.0)) < 1e-10


def test_metric_inverse_identity(s2_16x32, rng):
    g = s2_16x32
    phi, theta = g.coords()
    u = 0.8 + 0.1 * np.cos(phi) + 0.05 * np.sin(phi) * np.sin(theta)
    metric = induced_geometry(u, g)
    ident = np.einsum("ij...,jk...->ik...", metric.g, metric.g_inv)
    assert np.max(np.abs(ident - np.eye(2)[..., None, None])) < 1e-10


def test_spacelike_violation_reported(s1_64):
    u = 0.5 + 1.2 * np.cos(s1_64.theta)
    du = s1_64.partial_gradient(u)[0]
    violations = np.flatnonzero(
        np.cosh(u) ** 2 - du ** 2 <= SPACELIKE_GUARD * np.cosh(u) ** 2).tolist()
    assert len(violations) > 0
    for geometry in (induced_geometry, induced_geometry_unchecked):
        with pytest.raises(SpacelikeError) as err:
            geometry(u, s1_64)
        assert err.value.nodes == violations


def test_tilt_lower_bound(s2_16x32):
    g = s2_16x32
    phi, _ = g.coords()
    u = 0.8 + 0.1 * np.cos(phi)
    tau = induced_geometry(u, g).tau
    assert np.all(tau >= np.cosh(u) - 1e-14)
    # equality exactly where the gradient vanishes
    du = g.partial_gradient(u)
    flat = np.max(np.abs(du), axis=0) == 0.0
    gap = tau - np.cosh(u)
    assert np.all(gap[~flat] > 0.0)


def test_second_fundamental_form_symmetric(s2_16x32):
    g = s2_16x32
    phi, theta = g.coords()
    u = 0.8 + 0.05 * np.sin(phi) * np.cos(phi) * np.cos(theta)
    A = induced_geometry_unchecked(u, g).A
    assert np.array_equal(A[0, 1], A[1, 0])


def test_s1_eigenvalue_is_quotient(s1_64):
    g = s1_64
    u = 0.7 + 0.1 * np.cos(g.theta)
    geom = induced_geometry(u, g)
    assert np.allclose(geom.shape_eigs[:, 0],
                       geom.A[0, 0] / geom.g[0, 0], rtol=1e-12)


def test_curvature_sums_match_eigenvalues(s1_64, s2_32x64):
    # the closed-form S_1..S_n and |A| against the Cholesky eigenvalues
    phi, theta = s2_32x64.coords()
    states = (
        (s1_64, 0.7 + 0.1 * np.cos(s1_64.theta) + 0.05 * np.sin(2 * s1_64.theta)),
        (s2_32x64, 0.8 + 0.05 * np.sin(phi) * np.cos(phi) * np.cos(theta)
         + 0.03 * np.sin(phi) * np.sin(theta)),
    )
    for grid, u in states:
        geom = induced_geometry(u, grid)
        eigs = geom.shape_eigs
        expected = elementary_symmetric_all(eigs, grid.dim)[..., 1:]
        assert geom.sums.shape == expected.shape
        assert np.all(np.abs(geom.sums - expected) <= 1e-12 * np.abs(expected))
        assert np.allclose(geom.abs_A, np.sqrt(np.sum(eigs ** 2, axis=-1)),
                           rtol=1e-12, atol=0.0)


def _node_major(T, n_index):
    """T with its n_index leading index axes moved last: T[..., i, j]."""
    return np.moveaxis(T, range(n_index), range(-n_index, 0))


def _node_major_geometry(u, grid):
    """The induced geometry with the index axes last, (..., i, j), and the
    round metric and its symbols dense per node: the formulation the
    component-first geometry must reproduce bit for bit."""
    n = grid.dim
    sigma, sigma_inv = (_node_major(np.broadcast_to(S, (n, n) + grid.shape), 2)
                        for S in (grid.sigma, grid.sigma_inv))
    gamma = _node_major(np.broadcast_to(grid.christoffel, (n,) * 3 + grid.shape), 3)
    du = _node_major(grid.partial_gradient(u), 1)
    du_raised = np.einsum("...ij,...j->...i", sigma_inv, du)
    gn2 = np.einsum("...i,...i->...", du, du_raised)
    cosh_u = np.cosh(u)
    margin = cosh_u ** 2 - gn2
    g = -du[..., :, None] * du[..., None, :] + (cosh_u ** 2)[..., None, None] * sigma
    g_inv = (sigma_inv / (cosh_u ** 2)[..., None, None]
             + du_raised[..., :, None] * du_raised[..., None, :]
             / (cosh_u ** 2 * margin)[..., None, None])
    tau = cosh_u ** 2 / np.sqrt(margin)
    eta = np.sinh(u)
    hess = (_node_major(grid.partial_hessian(u), 2)
            - np.einsum("...kij,...k->...ij", gamma, du))
    A = (tau / cosh_u)[..., None, None] * (
        hess
        - 2.0 * np.tanh(u)[..., None, None] * (du[..., :, None] * du[..., None, :])
        + (eta * cosh_u)[..., None, None] * sigma)
    if n == 2:
        A[..., 1, 0] = A[..., 0, 1]
    s1 = np.einsum("...ij,...ij->...", g_inv, A)
    sums = s1[..., None]
    if n == 2:
        det_a = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] ** 2
        det_g = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
        sums = np.stack([s1, det_a / det_g], axis=-1)
    return {"du": du, "du_raised": du_raised, "grad_norm2": gn2, "g": g,
            "g_inv": g_inv, "tau": tau, "eta": eta, "A": A, "sums": sums}


def test_geometry_equals_node_major_reference(s1_64, s2_16x32):
    phi, theta = s2_16x32.coords()
    p2 = 1.5 * np.cos(phi) ** 2 - 0.5
    cases = [
        (s1_64, np.full(s1_64.shape, 0.85)),
        (s1_64, 0.8 + 0.1 * np.cos(s1_64.theta)),
        (s1_64, 0.8 + 0.1 * np.cos(s1_64.theta) + 0.05 * np.sin(2 * s1_64.theta)),
        (s2_16x32, np.full(s2_16x32.shape, 0.85)),
        (s2_16x32, 0.8 + 0.1 * p2),
        (s2_16x32, 0.8 + 0.1 * p2 + 0.05 * np.sin(phi) * np.cos(phi) * np.cos(theta)
         + 0.04 * np.sin(phi) * np.sin(theta)),
        # large off-diagonal terms: the summation order of S_1 shows here
        (s2_16x32, 0.8 + 0.1 * p2 + 0.3 * np.sin(phi) * np.cos(phi) * np.cos(theta)
         + 0.2 * np.sin(phi) * np.sin(theta)),
    ]
    index_axes = {"du": 1, "du_raised": 1, "g": 2, "g_inv": 2, "A": 2}
    for grid, u in cases:
        geom = induced_geometry(u, grid)
        for name, want in _node_major_geometry(u, grid).items():
            got = _node_major(getattr(geom, name), index_axes.get(name, 0))
            assert np.array_equal(got, want), name


def test_shape_eigenvalues_against_dense_oracle(rng):
    # random SPD metric and symmetric A per node, checked against the
    # generalized eigenvalue solver
    for _ in range(50):
        L = np.tril(rng.normal(size=(2, 2))) + 2.0 * np.eye(2)
        gmat = L @ L.T
        A = rng.normal(size=(2, 2))
        A = 0.5 * (A + A.T)
        got = shape_eigenvalues(A[..., None], gmat[..., None])[0]
        expected = np.sort(scipy.linalg.eigh(A, gmat, eigvals_only=True))
        assert np.allclose(got, expected, atol=1e-12)


def test_cholesky_failure_is_spacelike_error():
    bad_g = np.array([[-1.0, 0.0], [0.0, 1.0]])[..., None]
    A = np.zeros((2, 2, 1))
    with pytest.raises(SpacelikeError):
        shape_eigenvalues(A, bad_g)
