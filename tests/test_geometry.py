"""Induced graph geometry: metric, tilt, curvature, eigenvalues."""

import numpy as np
import pytest
import scipy.linalg

from dscurv import (SpacelikeError, induced_geometry, induced_metric,
                    shape_eigenvalues, tilt_and_height)
from dscurv.geometry import induced_geometry_unchecked
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
    mixed = np.einsum("...ik,...kj->...ij", geom.g_inv, geom.A)
    assert np.allclose(mixed, np.tanh(r) * np.eye(2), atol=1e-13)


def test_tilt_height_standard_values(s1_64):
    u = np.full(s1_64.shape, 0.5)
    tau, eta = tilt_and_height(u, s1_64)
    assert np.allclose(tau, 1.127626, atol=1e-6)
    assert np.allclose(eta, 0.521095, atol=1e-6)
    assert np.allclose(tau, np.cosh(0.5), rtol=1e-15)
    assert np.allclose(eta, np.sinh(0.5), rtol=1e-15)


def test_s1_metric_closed_form(s1_64):
    g = s1_64
    u = 0.5 + 0.2 * np.cos(g.theta)
    metric = induced_metric(u, g)
    assert metric.spacelike
    du = g.partial_gradient(u)[:, 0]
    assert np.allclose(metric.g[:, 0, 0], -du ** 2 + np.cosh(u) ** 2, atol=1e-15)
    prod = metric.g[:, 0, 0] * metric.g_inv[:, 0, 0]
    assert np.max(np.abs(prod - 1.0)) < 1e-10


def test_metric_inverse_identity(s2_16x32, rng):
    g = s2_16x32
    phi, theta = g.coords()
    u = 0.8 + 0.1 * np.cos(phi) + 0.05 * np.sin(phi) * np.sin(theta)
    metric = induced_metric(u, g)
    assert metric.spacelike
    ident = np.einsum("...ij,...jk->...ik", metric.g, metric.g_inv)
    assert np.max(np.abs(ident - np.eye(2))) < 1e-10


def test_spacelike_violation_reported(s1_64):
    u = 0.5 + 1.2 * np.cos(s1_64.theta)
    metric = induced_metric(u, s1_64)
    assert not metric.spacelike
    assert len(metric.violations) > 0
    with pytest.raises(SpacelikeError) as err:
        tilt_and_height(u, s1_64)
    assert err.value.nodes == metric.violations
    with pytest.raises(SpacelikeError):
        induced_geometry_unchecked(u, s1_64)


def test_tilt_lower_bound(s2_16x32):
    g = s2_16x32
    phi, _ = g.coords()
    u = 0.8 + 0.1 * np.cos(phi)
    tau, _ = tilt_and_height(u, g)
    assert np.all(tau >= np.cosh(u) - 1e-14)
    # equality exactly where the gradient vanishes
    du = g.partial_gradient(u)
    flat = np.max(np.abs(du), axis=-1) == 0.0
    gap = tau - np.cosh(u)
    assert np.all(gap[~flat] > 0.0)


def test_second_fundamental_form_symmetric(s2_16x32):
    g = s2_16x32
    phi, theta = g.coords()
    u = 0.8 + 0.05 * np.sin(phi) * np.cos(phi) * np.cos(theta)
    A = induced_geometry_unchecked(u, g).A
    assert np.array_equal(A[..., 0, 1], A[..., 1, 0])


def test_s1_eigenvalue_is_quotient(s1_64):
    g = s1_64
    u = 0.7 + 0.1 * np.cos(g.theta)
    geom = induced_geometry(u, g)
    assert np.allclose(geom.shape_eigs[:, 0],
                       geom.A[:, 0, 0] / geom.g[:, 0, 0], rtol=1e-12)


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


def test_shape_eigenvalues_against_dense_oracle(rng):
    # random SPD metric and symmetric A per node, checked against the
    # generalized eigenvalue solver
    for _ in range(50):
        L = np.tril(rng.normal(size=(2, 2))) + 2.0 * np.eye(2)
        gmat = L @ L.T
        A = rng.normal(size=(2, 2))
        A = 0.5 * (A + A.T)
        got = shape_eigenvalues(A[None, ...], gmat[None, ...])[0]
        expected = np.sort(scipy.linalg.eigh(A, gmat, eigvals_only=True))
        assert np.allclose(got, expected, atol=1e-12)


def test_cholesky_failure_is_spacelike_error():
    bad_g = np.array([[[-1.0, 0.0], [0.0, 1.0]]])
    A = np.zeros((1, 2, 2))
    with pytest.raises(SpacelikeError):
        shape_eigenvalues(A, bad_g)
