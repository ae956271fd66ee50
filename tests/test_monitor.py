"""Bound monitors and discrete identity validators."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import dscurv.monitor
from dscurv import (AuditBox, SpaceTiltPower, SpacelikeError, build_grid,
                    check_bounds, identity_residuals, induced_geometry,
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
    report = check_bounds(geom, barriers, c_tau=50.0, c_a=50.0, k=2)
    assert report.all_ok
    assert report.min_u == report.max_u == pytest.approx(0.8814)
    assert report.max_tau == pytest.approx(np.cosh(0.8814), rel=1e-14)
    assert report.min_sigma_margin > 0.0
    assert not any(report.node_violations.values())


def test_check_bounds_c0_violation(s2_16x32):
    r1, r2 = _model_barriers()
    u = np.full(s2_16x32.shape, r2 + 0.1)
    geom = induced_geometry(u, s2_16x32)
    report = check_bounds(geom, (r1, r2), c_tau=50.0, c_a=50.0, k=2)
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
    report = check_bounds(doctored, (r1, r2), c_tau=50.0, c_a=50.0, k=2)
    assert not report.curv_ok
    assert report.min_sigma_margin == pytest.approx(-2.0)
    assert 0 in report.node_violations["curv"]


def test_check_bounds_tilt_violation(s1_64):
    u = 0.8 + 0.1 * np.cos(s1_64.theta)
    geom = induced_geometry(u, s1_64)
    report = check_bounds(geom, (0.5, 1.2), c_tau=1.0, c_a=50.0, k=1)
    assert not report.tilt_ok
    assert report.node_violations["tilt"]


def test_flags_read_the_node_lists(s2_16x32):
    # a flag fails exactly when its check names nodes
    u = np.full(s2_16x32.shape, 0.8814)
    report = check_bounds(induced_geometry(u, s2_16x32), _model_barriers(),
                          c_tau=50.0, c_a=50.0, k=2)
    doctored = dataclasses.replace(report, node_violations={"c0": [0]})
    assert not doctored.c0_ok and not doctored.all_ok
    assert doctored.tilt_ok and doctored.curv_ok
    assert doctored.to_dict()["node_violations"] == {"c0": [0]}


def test_monitor_purity(s1_64):
    u = 0.8 + 0.1 * np.cos(s1_64.theta)
    geom = induced_geometry(u, s1_64)
    a = check_bounds(geom, (0.5, 1.2), 50.0, 50.0, 1)
    b = check_bounds(geom, (0.5, 1.2), 50.0, 50.0, 1)
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
    plus_variant = geom.tau * geom.A + geom.eta * geom.g
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


def _node_major(T, n_index):
    """T with its n_index leading index axes moved last: T[..., i, j]."""
    return np.moveaxis(T, range(n_index), range(-n_index, 0))


def _node_major_residuals(u, grid):
    """The identity residuals with the index axes last, (..., i, j): the
    formulation the component-first monitor must reproduce bit for bit."""
    geom = induced_geometry(u, grid)
    tau, eta = geom.tau, geom.eta
    g, g_inv, A = (_node_major(T, 2) for T in (geom.g, geom.g_inv, geom.A))

    def gradient(f, parity=1.0):
        return _node_major(grid.partial_gradient(f, parity), 1)

    def covariant_hessian(f, df, christoffel):
        return (_node_major(grid.partial_hessian(f), 2)
                - np.einsum("...kij,...k->...ij", christoffel, df))

    def partials(T):
        out = np.empty(grid.shape + (grid.dim,) * 3)
        for i in range(grid.dim):
            for j in range(grid.dim):
                parity = -1.0 if (int(i == 0) + int(j == 0)) % 2 else 1.0
                out[..., :, i, j] = gradient(T[..., i, j], parity)
        return out

    dg = partials(g)
    low = 0.5 * (np.einsum("...ijk->...kij", dg) + np.einsum("...jik->...kij", dg)
                 - dg)
    gamma = np.einsum("...mk,...kij->...mij", g_inv, low)
    deta, dtau = gradient(eta), gradient(tau)
    t, e = tau[..., None, None], eta[..., None, None]
    res_eta = (covariant_hessian(eta, deta, gamma)
               - (t * A - e * g))
    mixed = np.einsum("...ik,...kj->...ij", g_inv, A)
    res_tau1 = dtau - np.einsum("...ij,...i->...j", mixed, deta)
    cov_a = (partials(A) - np.einsum("...mki,...mj->...kij", gamma, A)
             - np.einsum("...mkj,...im->...kij", gamma, A))
    transport = np.einsum("...kij,...k->...ij", cov_a,
                          np.einsum("...kl,...l->...k", g_inv, deta))
    a_sq = np.einsum("...ik,...kl,...lj->...ij", A, g_inv, A)
    res_tau2 = (covariant_hessian(tau, dtau, gamma)
                - (transport + t * a_sq - e * A))
    codazzi = (0.0 if grid.dim == 1 else
               float(np.max(np.abs(cov_a - np.swapaxes(cov_a, -3, -2)))))
    return tuple(float(np.max(np.abs(r))) for r in (res_eta, res_tau1, res_tau2)
                 ) + (codazzi,)


def test_identity_residuals_equal_node_major_reference(s1_64, s2_16x32):
    phi, theta = s2_16x32.coords()
    p2 = 1.5 * np.cos(phi) ** 2 - 0.5
    cases = [
        (s1_64, np.full(s1_64.shape, 0.85)),
        (s1_64, 0.8 + 0.1 * np.cos(s1_64.theta)),
        (s2_16x32, np.full(s2_16x32.shape, 0.85)),
        (s2_16x32, 0.8 + 0.1 * p2),
        (s2_16x32, 0.8 + 0.1 * p2 + 0.05 * np.sin(phi) * np.cos(phi) * np.cos(theta)
         + 0.04 * np.sin(phi) * np.sin(theta)),
    ]
    for grid, u in cases:
        assert identity_residuals(u, grid).as_tuple() == _node_major_residuals(u, grid)


def test_identity_residuals_memory_bound():
    grid = build_grid(2, (64, 128))
    phi, _ = grid.coords()
    u = 0.8 + 0.1 * (1.5 * np.cos(phi) ** 2 - 0.5)
    identity_residuals(u, grid)         # warm call: caches and imports
    tracemalloc.start()
    try:
        identity_residuals(u, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two slabs of half the grid: the workspace holds 16.7 grid arrays,
    # and the call about 19 at its peak (slabs that allocated their own
    # arrays peaked at 23.2)
    assert peak <= 21 * 8 * grid.node_count


def _slab_profiles(grid):
    """The profiles of test_identity_residuals_equal_node_major_reference
    on grid, and one with sin^3(phi) cos(3 theta)."""
    phi, theta = grid.coords()
    p2 = 1.5 * np.cos(phi) ** 2 - 0.5
    return [np.full(grid.shape, 0.85), 0.8 + 0.1 * p2,
            0.8 + 0.1 * p2 + 0.05 * np.sin(phi) * np.cos(phi) * np.cos(theta)
            + 0.04 * np.sin(phi) * np.sin(theta),
            0.8 + 0.1 * np.sin(phi) ** 3 * np.cos(3.0 * theta)]


@pytest.mark.parametrize("resolution, rings", [
    ((16, 32), 1),          # one ring per slab
    ((16, 32), 3),          # 5 slabs of 3 rings and a last one of 1
    ((64, 128), None),      # the default slab size
])
def test_identity_residuals_across_slab_boundaries(monkeypatch, resolution,
                                                   rings):
    grid = build_grid(2, resolution)
    if rings is not None:
        monkeypatch.setattr(dscurv.monitor, "SLAB_NODES", rings * grid.n_lon)
    slabs = dscurv.monitor._ring_slabs(grid)
    assert len(slabs) >= 2
    assert slabs[0][0] == 0 and slabs[-1][1] == grid.n_lat
    for u in _slab_profiles(grid):
        assert (identity_residuals(u, grid).as_tuple()
                == _node_major_residuals(u, grid))


class _PoisonedWorkspace(dscurv.monitor.Workspace):
    """A Workspace whose memory is NaN when allocated and again whenever
    an array is given back or the workspace reset, so that a slab reading
    a value it did not write, left by an earlier slab or an earlier array,
    turns its residuals NaN.  ``allocations`` counts its buffers."""

    allocations = 0

    def _allocate(self, size):
        type(self).allocations += 1
        return np.full(size, np.nan)

    def give(self, *arrays):
        for array in arrays:
            if array.dtype == float:
                array.fill(np.nan)
        super().give(*arrays)

    def reset(self):
        self.buffer.fill(np.nan)
        super().reset()


@pytest.mark.parametrize("resolution, rings", [
    ((16, 32), 3),          # 5 slabs of 3 rings and a ragged last one
    ((64, 128), None),      # the default slab size
])
def test_identity_slabs_reuse_one_workspace(monkeypatch, resolution, rings):
    grid = build_grid(2, resolution)
    if rings is not None:
        monkeypatch.setattr(dscurv.monitor, "SLAB_NODES", rings * grid.n_lon)
    monkeypatch.setattr(dscurv.monitor, "Workspace", _PoisonedWorkspace)
    monkeypatch.setattr(_PoisonedWorkspace, "allocations", 0)
    works, allocated = [], []
    slab_residuals = dscurv.monitor._slab_residuals

    def counted(u, pad, grid, lo, hi, work):
        before = _PoisonedWorkspace.allocations
        sups = slab_residuals(u, pad, grid, lo, hi, work)
        works.append(work)
        allocated.append(_PoisonedWorkspace.allocations - before)
        return sups

    monkeypatch.setattr(dscurv.monitor, "_slab_residuals", counted)
    profiles = _slab_profiles(grid)
    for u in profiles:
        works.clear()
        allocated.clear()
        assert (identity_residuals(u, grid).as_tuple()
                == _node_major_residuals(u, grid))
        # one workspace serves every slab, which allocate nothing
        assert len(works) == len(dscurv.monitor._ring_slabs(grid)) > 1
        assert all(work is works[0] for work in works)
        assert allocated == [0] * len(works)
    assert _PoisonedWorkspace.allocations == len(profiles)


@pytest.mark.parametrize("dim, resolution", [(1, 64), (2, (16, 32))])
def test_slab_units_are_what_a_slab_needs(monkeypatch, dim, resolution):
    # SLAB_UNITS holds a slab's placements, and no unit more
    grid = build_grid(dim, resolution)
    u = np.full(grid.shape, 0.85)
    identity_residuals(u, grid)
    monkeypatch.setitem(dscurv.monitor.SLAB_UNITS, dim,
                        dscurv.monitor.SLAB_UNITS[dim] - 1)
    with pytest.raises(MemoryError):
        identity_residuals(u, grid)


@pytest.mark.parametrize("rings", [1, 3, None])
def test_identity_spacelike_error_names_every_slab(monkeypatch, s2_16x32,
                                                   rings):
    # non-spacelike nodes in the first and the last slab: the error names
    # the whole grid's violations, before any slab's residuals are formed
    grid = s2_16x32
    if rings is not None:
        monkeypatch.setattr(dscurv.monitor, "SLAB_NODES", rings * grid.n_lon)
    u = _slab_profiles(grid)[2]
    u[1, 5] = u[-2, 20] = 6.0
    with pytest.raises(SpacelikeError) as whole:
        induced_geometry(u, grid)

    def no_residuals(*args):
        raise AssertionError("residuals formed before the spacelike test")

    monkeypatch.setattr(dscurv.monitor, "_tensor_partials", no_residuals)
    with pytest.raises(SpacelikeError) as slabbed:
        identity_residuals(u, grid)
    assert slabbed.value.nodes == whole.value.nodes
    rows = {node // grid.n_lon for node in whole.value.nodes}
    assert min(rows) == 0 and max(rows) == grid.n_lat - 1


def test_identity_spacelike_error_from_a_middle_slab(monkeypatch, s2_16x32):
    # the first violation is in the second 3-ring slab (the halo of ring
    # 6), the next in the fourth: the first slab forms its residuals, and
    # once the second fails, no slab forms any and the error still names
    # the fourth slab's nodes
    grid = s2_16x32
    monkeypatch.setattr(dscurv.monitor, "SLAB_NODES", 3 * grid.n_lon)
    u = _slab_profiles(grid)[2]
    u[7, 5] = u[13, 20] = 6.0
    with pytest.raises(SpacelikeError) as whole:
        induced_geometry(u, grid)
    rows = sorted({node // grid.n_lon for node in whole.value.nodes})
    assert rows == [6, 7, 8, 12, 13, 14]
    calls, starts = [], []
    tensor_partials = dscurv.monitor._tensor_partials
    slab_residuals = dscurv.monitor._slab_residuals

    def counted(*args):
        calls.append(args)
        return tensor_partials(*args)

    def recorded(u, pad, grid, lo, hi, work):
        starts.append(lo)
        return slab_residuals(u, pad, grid, lo, hi, work)

    monkeypatch.setattr(dscurv.monitor, "_tensor_partials", counted)
    monkeypatch.setattr(dscurv.monitor, "_slab_residuals", recorded)
    with pytest.raises(SpacelikeError) as slabbed:
        identity_residuals(u, grid)
    assert slabbed.value.nodes == whole.value.nodes
    # g and A of the one slab before the first violating slab, and no
    # slab after that one sets out to form residuals
    assert len(calls) == 2
    assert starts == [0, 3]


def test_identity_residuals_slab_memory_bound():
    # the slabs hold a few grid arrays' worth at most, not the 44 of a
    # whole-grid evaluation: the workspace is 4.4 and the call's peak
    # about 5.8 (slabs that allocated their own arrays peaked at 6.6)
    grid = build_grid(2, (128, 256))
    u = _slab_profiles(grid)[3]
    identity_residuals(u, grid)         # warm call: caches and imports
    tracemalloc.start()
    try:
        identity_residuals(u, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 8 * grid.node_count
