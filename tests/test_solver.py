"""Continuation solver: start constants, residual, Jacobian, Newton, homotopy."""

import dataclasses

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse.linalg as spla

import dscurv.grid
import dscurv.solver
from dscurv import (AdmissibilityError, AuditBox, ContinuationError,
                    ContinuationSolver, InternalConsistencyError, NewtonError,
                    SolverConfig, SpaceTiltPower, SpacelikeError, build_grid,
                    combined_barriers, ellipticity_margin, induced_geometry,
                    initial_constant, run_homotopy,
                    zeroth_coefficient_at_start)

R_STAR = np.log(1.0 + np.sqrt(2.0))
MODEL = SpaceTiltPower(a0=0.5, a1=0.0, p=2.0)


def _solver(grid, k, **cfg):
    return ContinuationSolver(grid, MODEL, SolverConfig(k=k, p=2.0, **cfg),
                              barriers=(0.55, 0.95))


def test_initial_constant_satisfies_defining_equation():
    for p in (1.0, 1.5, 2.0, 3.0):
        lam = initial_constant(p)
        assert 0.0 < lam < 1.0
        assert abs(lam * np.cosh(lam) ** p - 1.0) <= 1e-14


def test_initial_constant_against_independent_root():
    for p, approx in ((2.0, 0.6631), (1.0, 0.7650)):
        lam = initial_constant(p)
        oracle = scipy.optimize.brentq(
            lambda x: x * np.cosh(x) ** p - 1.0, 1e-8, 1.0, xtol=1e-15)
        assert lam == pytest.approx(oracle, abs=1e-13)
        assert lam == pytest.approx(approx, abs=1e-3)


def test_zeroth_coefficient_values():
    c2 = zeroth_coefficient_at_start(2.0)
    assert c2 == pytest.approx(-1.55, abs=0.01)
    for p in (1.0, 1.5, 2.0, 3.0):
        c = zeroth_coefficient_at_start(p)
        assert c < 0.0
        # algebraic simplification at the start value: both terms negative
        lam = initial_constant(p)
        simplified = -np.tanh(lam) * (np.cosh(lam) ** p
                                      + p * lam * np.cosh(lam) ** (p - 1)
                                      * np.sinh(lam))
        assert c == pytest.approx(simplified, rel=1e-12)


def test_residual_exact_at_start(s1_64, s2_16x32):
    for grid, k in ((s1_64, 1), (s2_16x32, 2)):
        solver = _solver(grid, k)
        u = np.full(grid.shape, solver.start_radius)
        assert np.max(np.abs(solver.residual(u, 0.0))) <= 1e-12


def test_residual_closed_form_target(s2_16x32):
    solver = _solver(s2_16x32, 2)
    u = np.full(s2_16x32.shape, R_STAR)
    assert np.max(np.abs(solver.residual(u, 1.0))) <= 1e-12


def test_residual_constant_slice_reduction(s1_64):
    # constant graphs reduce the residual to tanh(c) - psi(c, ., cosh c)
    solver = _solver(s1_64, 1)
    for c in (0.5, 0.75, 1.1):
        res = solver.residual(np.full(s1_64.shape, c), 1.0)
        expected = np.tanh(c) - 0.5 * np.tanh(c) * np.cosh(c) ** 2
        assert np.max(np.abs(res - expected)) <= 1e-14


def test_residual_rejects_infeasible(s1_64):
    solver = _solver(s1_64, 1)
    with pytest.raises(SpacelikeError):
        solver.residual(1.0 + 0.9 * np.cos(3 * s1_64.theta), 0.0)
    with pytest.raises(AdmissibilityError):
        solver.residual(0.9 + 0.3 * np.cos(4 * s1_64.theta), 0.0)
    with pytest.raises(AdmissibilityError):
        solver.residual(np.full(s1_64.shape, -0.2), 0.0)


def test_jacobian_matches_dense_differencing():
    grid = build_grid(2, (8, 8))
    solver = ContinuationSolver(grid, MODEL, SolverConfig(k=2, p=2.0),
                                barriers=(0.55, 0.95))
    phi, _ = grid.coords()
    u = np.full(grid.shape, solver.start_radius) + 0.03 * np.cos(phi) ** 2
    jac = solver.jacobian(u, 0.0).toarray()
    base = u.ravel()
    eps = 1e-7
    dense = np.zeros_like(jac)
    for q in range(grid.node_count):
        up, um = base.copy(), base.copy()
        up[q] += eps
        um[q] -= eps
        dense[:, q] = (solver.residual(up.reshape(grid.shape), 0.0)
                       - solver.residual(um.reshape(grid.shape), 0.0)).ravel()
        dense[:, q] /= 2 * eps
    assert np.max(np.abs(jac - dense)) / np.max(np.abs(dense)) < 1e-6


def test_jacobian_sparsity_matches_stencil(s2_16x32):
    grid = s2_16x32
    solver = _solver(grid, 2)
    phi, theta = grid.coords()
    u = solver.start_radius + 0.02 * np.cos(phi) + 0.01 * np.sin(phi) * np.cos(theta)
    jac = solver.jacobian(u, 0.5).tocsr()
    nlat, nlon = grid.shape
    for m in range(grid.node_count):
        j, i = divmod(m, nlon)
        allowed = set()
        for dj in (-1, 0, 1):
            for di in (-1, 0, 1):
                jj, ii = j + dj, (i + di) % nlon
                if not 0 <= jj < nlat:
                    # across a pole: the same ring, half a turn away
                    jj, ii = j, (ii + nlon // 2) % nlon
                allowed.add(jj * nlon + ii)
        cols = jac.indices[jac.indptr[m]:jac.indptr[m + 1]]
        assert set(cols) <= allowed


def _nonzonal_state(grid, solver):
    phi, theta = grid.coords()
    return (solver.start_radius + 0.02 * np.cos(phi)
            + 0.01 * np.sin(phi) * np.cos(theta))


def test_jacobian_pattern_is_fixed(s2_16x32):
    # cancelling entries stay stored, so constant, zonal and non-zonal
    # states give one pattern: the grid's
    grid = s2_16x32
    solver = _solver(grid, 2)
    phi, _ = grid.coords()
    pattern = grid.stencil_pattern()
    for u in (np.full(grid.shape, solver.start_radius),
              solver.start_radius + 0.02 * np.cos(phi),
              _nonzonal_state(grid, solver)):
        jac = solver.jacobian(u, 0.5)
        assert np.array_equal(jac.indptr, pattern.indptr)
        assert np.array_equal(jac.indices, pattern.indices)


def test_solvers_on_one_grid_share_one_ordering(monkeypatch):
    calls = []
    order = dscurv.grid._minimum_degree_order

    def counted(*args):
        calls.append(args)
        return order(*args)

    monkeypatch.setattr(dscurv.grid, "_minimum_degree_order", counted)
    grid = build_grid(2, (16, 32))
    solvers = [_solver(grid, 2), _solver(grid, 2)]
    for solver in solvers:
        result = solver.newton_solve(_nonzonal_state(grid, solver), 0.0)
        assert result.residual_norm <= 1e-10
    assert len(calls) == 1


def test_ordered_factor_matches_natural_solve(s2_16x32):
    grid = s2_16x32
    solver = _solver(grid, 2)
    jac = solver.jacobian(_nonzonal_state(grid, solver), 0.5)
    pattern = grid.stencil_pattern()
    order = pattern.order
    ordered = pattern.ordered(jac)
    assert np.array_equal(ordered.toarray(), jac.toarray()[np.ix_(order, order)])
    b = np.cos(np.arange(grid.node_count))
    lu = spla.splu(ordered, permc_spec="NATURAL")
    x = np.empty(grid.node_count)
    x[order] = lu.solve(b[order])
    want = spla.spsolve(jac.tocsc(), b)
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))
    # the once-per-grid ordering fills no more than SuperLU's own
    # minimum-degree ordering of this matrix, and less than no ordering
    # or its default one
    fill = {spec: spla.splu(jac.tocsc(), permc_spec=spec)
            for spec in ("MMD_AT_PLUS_A", "NATURAL", "COLAMD")}
    fill = {spec: f.L.nnz + f.U.nnz for spec, f in fill.items()}
    assert lu.L.nnz + lu.U.nnz <= fill["MMD_AT_PLUS_A"]
    assert lu.L.nnz + lu.U.nnz < min(fill["NATURAL"], fill["COLAMD"])


def test_jacobian_linearity_and_directional_check(s2_16x32):
    solver = _solver(s2_16x32, 2)
    phi, theta = s2_16x32.coords()
    u = np.full(s2_16x32.shape, solver.start_radius) + 0.02 * np.cos(phi)
    jac = solver.jacobian(u, 0.0)
    v = np.sin(phi) * np.cos(theta)
    # scaling by a power of two is exact, so the matrix action is too
    assert np.array_equal(jac.dot(2.0 * v.ravel()), 2.0 * jac.dot(v.ravel()))
    # general scaling commutes up to rounding measured against the row scale
    diff = np.abs(jac.dot(3.0 * v.ravel()) - 3.0 * jac.dot(v.ravel()))
    row_scale = np.abs(jac).dot(np.abs(3.0 * v.ravel()))
    assert np.max(diff / np.maximum(row_scale, 1e-30)) < 1e-14
    assert solver.directional_derivative_check(u, 0.0) <= 1e-5


def test_jacobian_constant_mode_sign_and_value(s1_64):
    # at the start, the Jacobian action on constants is the closed-form
    # zeroth-order coefficient, and it is negative
    solver = _solver(s1_64, 1)
    u = np.full(s1_64.shape, solver.start_radius)
    j1 = solver.jacobian(u, 0.0).dot(np.ones(s1_64.node_count))
    c = zeroth_coefficient_at_start(2.0)
    assert np.all(j1 < 0.0)
    assert np.max(np.abs(j1 - c)) <= 1e-5


def test_ellipticity_margin_positive(s2_16x32):
    geom = induced_geometry(np.full(s2_16x32.shape, 0.8), s2_16x32)
    assert ellipticity_margin(geom, 2) > 0.0
    assert ellipticity_margin(geom, 1) > 0.0


def test_ellipticity_margin_is_exact(s2_16x32, monkeypatch):
    geom = induced_geometry(np.full(s2_16x32.shape, 0.8), s2_16x32)
    for k in (1, 2):
        F = dscurv.solver.curvature_derivative_matrix(geom, k)
        least = np.linalg.eigvalsh(0.5 * (F + np.swapaxes(F, -1, -2))).min()
        assert ellipticity_margin(geom, k) == pytest.approx(least, rel=1e-13)
    # F = R diag(-0.01, 1) R^T with R a rotation by 18 degrees is
    # indefinite, yet positive on the covectors (1, 0), (0, 1), (0.8, 0.6),
    # (-0.6, 0.8) and (0.36, -0.933)
    c, s = np.cos(np.radians(18.0)), np.sin(np.radians(18.0))
    rot = np.array([[c, -s], [s, c]])
    doctored = np.broadcast_to(rot @ np.diag([-0.01, 1.0]) @ rot.T,
                               s2_16x32.shape + (2, 2))
    monkeypatch.setattr(dscurv.solver, "curvature_derivative_matrix",
                        lambda geom, k: doctored)
    assert ellipticity_margin(geom, 2) == pytest.approx(-0.01, rel=1e-12)
    solver = _solver(s2_16x32, 2)
    with pytest.raises(InternalConsistencyError, match="non-elliptic"):
        solver.jacobian(np.full(s2_16x32.shape, solver.start_radius), 0.0)


def test_newton_at_exact_solution(s1_64):
    solver = _solver(s1_64, 1)
    u = np.full(s1_64.shape, solver.start_radius)
    result = solver.newton_solve(u, 0.0)
    assert result.iterations <= 1
    assert result.residual_norm <= 1e-12


def test_newton_reconverges_from_perturbation(s1_64):
    solver = _solver(s1_64, 1)
    lam = solver.start_radius
    u0 = lam + 0.05 * np.cos(s1_64.theta)
    result = solver.newton_solve(u0, 0.0)
    assert result.iterations <= 15
    assert np.max(np.abs(result.u - lam)) <= 1e-8


def test_newton_quadratic_tail(s1_64):
    solver = _solver(s1_64, 1, tol_newton=1e-13)
    u0 = solver.start_radius + 0.05 * np.cos(s1_64.theta)
    history = solver.newton_solve(u0, 0.0).history
    # pick the first residual already inside the quadratic basin and check
    # two contractions, flooring the second to stay above roundoff
    idx = next(i for i, r in enumerate(history) if r < 1e-2)
    r0, r1, r2 = history[idx], history[idx + 1], history[idx + 2]
    K, floor = 1e3, 1e-12
    assert r1 <= K * r0 ** 2
    assert r2 <= max(K * r1 ** 2, floor)


def test_newton_failure_carries_best_iterate(s1_64):
    solver = _solver(s1_64, 1, max_newton=1)
    u0 = np.full(s1_64.shape, 0.75)
    with pytest.raises(NewtonError) as err:
        solver.newton_solve(u0, 1.0)
    assert err.value.best_u is not None
    assert err.value.residual_norm is not None


def test_run_homotopy_closed_form_s1():
    grid = build_grid(1, 128)
    state = run_homotopy(MODEL, grid, SolverConfig(k=1, p=2.0))
    assert state.t == 1.0
    assert np.max(np.abs(state.u - R_STAR)) <= 1e-8
    assert state.monitor.all_ok
    assert all(rec.residual <= 1e-10 for rec in state.step_history)


def test_run_homotopy_frozen_at_zero(s1_64):
    lam = initial_constant(2.0)
    barriers, _ = combined_barriers(MODEL, 2.0, AuditBox(dim=1))
    solver = ContinuationSolver(s1_64, MODEL, SolverConfig(k=1, p=2.0),
                                barriers=barriers)
    state = solver.run(t_final=0.0)
    assert state.t == 0.0
    assert np.max(np.abs(state.u - lam)) <= 1e-10
    assert len(state.step_history) == 1


def test_run_homotopy_deterministic(s1_64):
    cfg = SolverConfig(k=1, p=2.0)
    a = run_homotopy(MODEL, s1_64, cfg)
    b = run_homotopy(MODEL, s1_64, cfg)
    assert np.array_equal(a.u, b.u)
    assert a.step_history == b.step_history


def test_run_homotopy_deterministic_s2():
    # the first run builds the grid's pattern and ordering, the second
    # reuses them
    grid = build_grid(2, (16, 32))
    target = SpaceTiltPower(0.5, 0.1, 2.0)
    cfg = SolverConfig(k=2, p=2.0)
    a = run_homotopy(target, grid, cfg)
    b = run_homotopy(target, grid, cfg)
    assert np.array_equal(a.u, b.u)
    assert a.step_history == b.step_history


def test_nested_run_matches_single_grid_homotopy():
    target = SpaceTiltPower(0.5, 0.1, 2.0)
    for res, shapes in (((32, 64), ["16x32", "32x64"]),
                        ((64, 128), ["16x32", "32x64", "64x128"])):
        grid = build_grid(2, res)
        barriers, _ = combined_barriers(target, 2.0, AuditBox(r_hi=2.5))
        solver = ContinuationSolver(grid, target, SolverConfig(k=2, p=2.0),
                                    barriers=barriers)
        nested = solver.run()
        single = solver._homotopy(1.0)
        assert nested.fallback is None and nested.t == 1.0
        assert np.max(np.abs(nested.u - single.u)) <= 1e-10
        assert [level.resolution for level in nested.levels] == shapes
        # the homotopy's steps on the coarsest grid, then one per level
        levels = [rec.level for rec in nested.step_history]
        assert levels == [0] * len(single.step_history) + list(
            range(1, len(shapes)))
        assert all(rec.residual <= 1e-10 for rec in nested.step_history)


def test_nested_run_deterministic():
    grid = build_grid(2, (32, 64))
    target = SpaceTiltPower(0.5, 0.1, 2.0)
    cfg = SolverConfig(k=2, p=2.0)
    a = run_homotopy(target, grid, cfg)
    b = run_homotopy(target, grid, cfg)
    assert len(a.levels) == 2
    assert np.array_equal(a.u, b.u)
    assert a.step_history == b.step_history
    assert a.levels == b.levels


@pytest.mark.parametrize("failure", ["infeasible start", "monitor"])
def test_nested_run_falls_back_to_single_grid(monkeypatch, failure):
    grid = build_grid(2, (32, 64))
    target = SpaceTiltPower(0.5, 0.1, 2.0)
    barriers, _ = combined_barriers(target, 2.0, AuditBox(r_hi=2.5))
    solver = ContinuationSolver(grid, target, SolverConfig(k=2, p=2.0),
                                barriers=barriers)
    single = solver._homotopy(1.0)
    if failure == "infeasible start":
        monkeypatch.setattr(dscurv.grid.SphereGrid, "prolong",
                            lambda self, f: -np.ones(self.refine().shape))
        cause = "initial iterate infeasible"
    else:
        # the level's monitors fail once; the fallback's pass
        check_bounds, failed = dscurv.solver.check_bounds, []

        def fail_once(geom, *args):
            report = check_bounds(geom, *args)
            if geom.grid is grid and not failed:
                failed.append(True)
                report = dataclasses.replace(report, c0_ok=False,
                                             node_violations={"c0": [7]})
            return report

        monkeypatch.setattr(dscurv.solver, "check_bounds", fail_once)
        cause = "bound monitors failed: c0 at 1 node(s) [7]"
    state = solver.run()
    assert state.fallback.startswith(f"level 1 (32x64) failed: {cause}")
    assert np.array_equal(state.u, single.u)
    assert state.step_history == single.step_history
    assert [level.resolution for level in state.levels] == ["32x64"]


def test_run_homotopy_preserves_constants(s2_16x32):
    # rotationally invariant target: the solution stays constant to the
    # solver tolerance
    state = run_homotopy(MODEL, s2_16x32, SolverConfig(k=2, p=2.0))
    assert np.max(np.abs(state.u - state.u.mean())) <= 10 * 1e-10


def test_run_homotopy_stall_reports_trace(s1_64):
    solver = ContinuationSolver(s1_64, MODEL,
                                SolverConfig(k=1, p=2.0, max_newton=1),
                                barriers=(0.55, 0.95))
    with pytest.raises(ContinuationError) as err:
        solver.run()
    state = err.value.state
    assert state is not None
    assert state.t < 1.0
    assert len(state.step_history) >= 1


def test_run_homotopy_stall_names_cause(s1_64):
    newton = _solver(s1_64, 1, max_newton=1)
    with pytest.raises(ContinuationError, match=r"Newton failed: no "
                       r"convergence in 1 iterations \(residual \d"):
        newton.run()
    # the solution path leaves the barrier interval below R_STAR
    monitor = ContinuationSolver(s1_64, MODEL, SolverConfig(k=1, p=2.0),
                                 barriers=(0.55, 0.7))
    with pytest.raises(ContinuationError, match=r"monitors failed: "
                       r"c0 at 64 node\(s\) \[0, 1, 2, 3, 4\]$"):
        monitor.run()


def test_run_homotopy_requires_barriers(s1_64):
    psi = SpaceTiltPower(a0=5.0, a1=0.0, p=2.0)   # no lower barrier radius
    with pytest.raises(ValueError):
        run_homotopy(psi, s1_64, SolverConfig(k=1, p=2.0))


def test_run_homotopy_ends_exactly_at_t_final():
    # ten steps of 0.1 add up to 0.9999999999999999 in floating point
    state = run_homotopy(SpaceTiltPower(0.5, 0.0, 2.0), build_grid(1, 64),
                         SolverConfig(k=1, p=2.0, dt_init=0.1, dt_max=0.1))
    assert state.t == 1.0


@pytest.mark.parametrize("t_final", [-0.5, 1.5])
def test_run_rejects_t_final_outside_unit_interval(monkeypatch, t_final):
    # refused before any work: no Newton solve on any level may start
    def no_newton(self, u0, t):
        raise AssertionError("Newton ran before t_final was checked")

    monkeypatch.setattr(ContinuationSolver, "newton_solve", no_newton)
    with pytest.raises(ValueError, match="t_final"):
        _solver(build_grid(1, 64), 1).run(t_final=t_final)


def test_solution_converges_at_second_order():
    # non-constant target: compare the area-weighted mean, min and max of
    # u over three refinements
    target = SpaceTiltPower(0.5, 0.1, 2.0)
    stats = []
    for res in ((16, 32), (32, 64), (64, 128)):
        grid = build_grid(2, res)
        u = run_homotopy(target, grid, SolverConfig(k=2, p=2.0)).u
        weights = np.sin(grid.coords()[0])
        stats.append(np.array([np.sum(weights * u) / np.sum(weights),
                               u.min(), u.max()]))
    ratios = (stats[0] - stats[1]) / (stats[1] - stats[2])
    assert np.all((ratios >= 3.4) & (ratios <= 4.6)), ratios


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol_newton=0.0)
    for bad in ({"max_newton": 0}, {"c_a": 0.0}, {"c_tau": -1.0},
                {"c_tau": 1.0}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    with pytest.raises(ValueError):
        SolverConfig(dt_min=0.5, dt_init=0.1)
    with pytest.raises(ValueError):
        SolverConfig(k=0)
    with pytest.raises(ValueError):
        ContinuationSolver(build_grid(1, 16), MODEL, SolverConfig(k=2))
