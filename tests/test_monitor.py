"""Bound monitors and discrete identity validators."""

import dataclasses

import numpy as np
import pytest

from dscurv import (AdmissibilityError, AuditBox, SpaceTiltPower, check_bounds,
                    identity_residuals, induced_geometry, maclaurin_monitor,
                    scan_barriers)

UMBILIC_TOL = 1e-12


def _model_barriers():
    scan = scan_barriers(SpaceTiltPower(a0=0.5, a1=0.0, p=2.0),
                         AuditBox(r_lo=0.1, r_hi=2.0, scan_resolution=400))
    assert scan.found
    return scan.R1, scan.R2


def test_check_bounds_umbilic_passes(s2_16x32):
    barriers = _model_barriers()
    u = np.full(s2_16x32.shape, 0.8814)
    geom = induced_geometry(u, s2_16x32)
    report = check_bounds(geom, u, barriers, c_tau=50.0, c_a=50.0, k=2)
    assert report.all_ok
    assert report.min_u == report.max_u == pytest.approx(0.8814)
    assert report.max_tau == pytest.approx(np.cosh(0.8814), rel=1e-14)
    assert report.min_sigma_margin > 0.0
    assert not any(report.node_violations.values())


def test_check_bounds_c0_violation(s2_16x32):
    r1, r2 = _model_barriers()
    u = np.full(s2_16x32.shape, r2 + 0.1)
    geom = induced_geometry(u, s2_16x32)
    report = check_bounds(geom, u, (r1, r2), c_tau=50.0, c_a=50.0, k=2)
    assert not report.c0_ok
    assert not report.all_ok
    assert len(report.node_violations["c0"]) == s2_16x32.node_count


def test_check_bounds_cone_violation(s2_16x32):
    r1, r2 = _model_barriers()
    u = np.full(s2_16x32.shape, 0.8814)
    geom = induced_geometry(u, s2_16x32)
    sums = geom.sums.copy()
    sums[0, 0] = (1.0, -2.0)    # S_1 = 1, S_2 = -2 at one node
    doctored = dataclasses.replace(geom, sums=sums)
    report = check_bounds(doctored, u, (r1, r2), c_tau=50.0, c_a=50.0, k=2)
    assert not report.curv_ok
    assert report.min_sigma_margin == pytest.approx(-2.0)
    assert 0 in report.node_violations["curv"]


def test_check_bounds_tilt_violation(s1_64):
    u = 0.8 + 0.1 * np.cos(s1_64.theta)
    geom = induced_geometry(u, s1_64)
    report = check_bounds(geom, u, (0.5, 1.2), c_tau=1.0, c_a=50.0, k=1)
    assert not report.tilt_ok
    assert report.node_violations["tilt"]


def test_monitor_purity(s1_64):
    u = 0.8 + 0.1 * np.cos(s1_64.theta)
    geom = induced_geometry(u, s1_64)
    a = check_bounds(geom, u, (0.5, 1.2), 50.0, 50.0, 1)
    b = check_bounds(geom, u, (0.5, 1.2), 50.0, 50.0, 1)
    assert a == b


def test_identity_residuals_umbilic_exact(s1_64, s2_16x32):
    for grid, r in ((s1_64, 0.85), (s2_16x32, 0.85)):
        res = identity_residuals(np.full(grid.shape, r), grid)
        assert res.r_eta <= UMBILIC_TOL
        assert res.r_tau1 <= UMBILIC_TOL
        assert res.r_tau2 <= UMBILIC_TOL
        assert res.codazzi <= UMBILIC_TOL


def test_printed_sign_variant_fails_umbilic_anchor(s2_16x32):
    # the identity with +eta g does not cancel on the umbilic slice: it
    # leaves 2 sinh(u) cosh^2(u) times the metric
    r = 0.9
    u = np.full(s2_16x32.shape, r)
    geom = induced_geometry(u, s2_16x32)
    plus_variant = (geom.tau[..., None, None] * geom.A
                    + geom.eta[..., None, None] * geom.g)
    expected = 2.0 * np.sinh(r) * np.cosh(r) ** 2 * np.max(np.abs(s2_16x32.sigma))
    assert np.max(np.abs(plus_variant)) == pytest.approx(expected, rel=1e-12)
    assert expected > 1.0   # far from zero: the anchor separates the signs


def test_identity_residuals_converge_s1():
    from dscurv import build_grid
    errs = []
    for n in (64, 128):
        g = build_grid(1, n)
        res = identity_residuals(0.8 + 0.1 * np.cos(g.theta), g)
        errs.append(res.as_tuple())
        assert res.codazzi == 0.0    # single index: nothing to permute
    for i in range(3):
        assert 3.4 <= errs[0][i] / errs[1][i] <= 4.6


def test_identity_residuals_converge_s2(s2_16x32):
    def profile(g):
        phi, _ = g.coords()
        return 0.8 + 0.1 * (1.5 * np.cos(phi) ** 2 - 0.5)

    coarse = identity_residuals(profile(s2_16x32), s2_16x32)
    fine_grid = s2_16x32.refine()
    fine = identity_residuals(profile(fine_grid), fine_grid)
    for c, f in zip(coarse.as_tuple(), fine.as_tuple()):
        assert f > 0.0
        assert 3.4 <= c / f <= 4.6


def test_identity_residuals_record_spacing(s1_64):
    res = identity_residuals(np.full(s1_64.shape, 0.8), s1_64)
    assert res.h == s1_64.h


def test_maclaurin_umbilic_margin_zero(s2_16x32):
    geom = induced_geometry(np.full(s2_16x32.shape, 0.8814), s2_16x32)
    assert abs(maclaurin_monitor(geom.shape_eigs, 2)) < 1e-12
    # on-shell variant: psi equals the curvature value on the slice
    psi = np.full(s2_16x32.shape, np.tanh(0.8814))
    assert abs(maclaurin_monitor(geom.shape_eigs, 2, psi=psi)) < 1e-12


def test_maclaurin_direct_arithmetic(s1_64):
    # n = 2, k = 1, lam = (1, 3): sum f_i lam_i^2 = 5, f^2 = 4, margin 1
    eigs = np.broadcast_to(np.array([1.0, 3.0]), (s1_64.node_count, 2))
    assert maclaurin_monitor(eigs, 1) == pytest.approx(1.0, abs=1e-14)


def test_maclaurin_nonnegative_on_perturbations(s2_16x32):
    phi, theta = s2_16x32.coords()
    u = 0.85 + 0.05 * np.cos(phi) + 0.03 * np.sin(phi) * np.sin(theta)
    geom = induced_geometry(u, s2_16x32)
    assert maclaurin_monitor(geom.shape_eigs, 2) >= -1e-10


def test_maclaurin_rejects_inadmissible(s1_64):
    u = 0.9 + 0.3 * np.cos(4 * s1_64.theta)
    geom = induced_geometry(u, s1_64)
    with pytest.raises(AdmissibilityError):
        maclaurin_monitor(geom.shape_eigs, 1)
