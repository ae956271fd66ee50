"""Continuation solver: start constants, residual, Jacobian, Newton, homotopy."""

import dataclasses
import random
import weakref

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg as spla

import dscurv.grid
import dscurv.solver
from dscurv import (AdmissibilityError, AuditBox, ContinuationError,
                    ContinuationSolver, InternalConsistencyError, NewtonError,
                    SolverConfig, SpaceTiltPower, SpacelikeError,
                    audit_structural, build_grid, combined_barriers,
                    ellipticity_margin, induced_geometry, initial_constant,
                    run_homotopy, scan_barriers, zeroth_coefficient_at_start)
from dscurv.geometry import _components, _symmetric
from dscurv.symmetric import root_of_sums

R_STAR = np.log(1.0 + np.sqrt(2.0))
MODEL = SpaceTiltPower(a0=0.5, a1=0.0, p=2.0)


def _solver(grid, k, **cfg):
    return ContinuationSolver(grid, MODEL, SolverConfig(k=k, p=2.0, **cfg),
                              barriers=(0.55, 0.95))


def _csr(jac):
    """The StencilMatrix jac as a scipy.sparse CSR matrix on arrays of its
    own, the reference the tests compare against: row m lists node m's
    neighbours in offset order, entries that cancel included."""
    pattern = jac.pattern
    n = pattern.shape[0]
    nodes = dscurv.grid._padded(np.arange(n).reshape(pattern.field_shape))
    indices = np.stack([nodes[view].ravel() for view in pattern._views],
                       axis=1).ravel()
    return scipy.sparse.csr_matrix((jac.table.T.ravel(), indices,
                                    pattern.width * np.arange(n + 1)),
                                   shape=pattern.shape)


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


def test_start_constants_reject_nan_power():
    # a NaN power fails each start check instead of passing it
    for start in (initial_constant, zeroth_coefficient_at_start):
        with pytest.raises(ValueError):
            start(float("nan"))


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
    # cosh(u)**2 overflows above U_MAX: such a graph is refused by name
    u = np.full(s1_64.shape, 0.75)
    u[[3, 9]] = dscurv.solver.U_MAX
    with pytest.raises(AdmissibilityError, match="must stay below 355.58") as err:
        solver.residual(u, 1.0)
    assert err.value.nodes == [3, 9]


def test_jacobian_matches_dense_differencing():
    grid = build_grid(2, (8, 8))
    solver = ContinuationSolver(grid, MODEL, SolverConfig(k=2, p=2.0),
                                barriers=(0.55, 0.95))
    phi, _ = grid.coords()
    u = np.full(grid.shape, solver.start_radius) + 0.03 * np.cos(phi) ** 2
    jac = _csr(solver.jacobian(u, 0.0)).toarray()
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


def test_jacobian_sparsity_matches_stencil():
    # every row holds exactly its 3x3 neighbourhood, in offset order,
    # reading across a pole from the antipodal ring; 8x16 has the
    # tightest pole neighbourhoods
    for res in ((8, 16), (16, 32)):
        grid = build_grid(2, res)
        solver = _solver(grid, 2)
        jac = solver.jacobian(_nonzonal_state(grid, solver), 0.5)
        csr = _csr(jac)
        nlat, nlon = grid.shape
        for m in range(grid.node_count):
            j, i = divmod(m, nlon)
            allowed = []
            for dj in (-1, 0, 1):
                for di in (-1, 0, 1):
                    jj, ii = j + dj, (i + di) % nlon
                    if not 0 <= jj < nlat:
                        # across a pole: the same ring, half a turn away
                        jj, ii = j, (ii + nlon // 2) % nlon
                    allowed.append(jj * nlon + ii)
            row = slice(csr.indptr[m], csr.indptr[m + 1])
            assert len(set(allowed)) == 9
            assert csr.indices[row].tolist() == allowed
            assert np.array_equal(csr.data[row], jac.table[:, m])


def _nonzonal_state(grid, solver):
    if grid.dim == 1:
        theta = grid.theta
        return solver.start_radius + 0.02 * np.cos(theta) + 0.01 * np.sin(2 * theta)
    phi, theta = grid.coords()
    return (solver.start_radius + 0.02 * np.cos(phi)
            + 0.01 * np.sin(phi) * np.cos(theta))


def test_jacobian_pattern_is_fixed(s2_16x32):
    # cancelling entries stay stored, so constant, zonal and non-zonal
    # states give one pattern: the grid's
    grid = s2_16x32
    solver = _solver(grid, 2)
    phi, _ = grid.coords()
    first, *rest = [_csr(solver.jacobian(u, 0.5)) for u in (
        np.full(grid.shape, solver.start_radius),
        solver.start_radius + 0.02 * np.cos(phi),
        _nonzonal_state(grid, solver))]
    assert first.nnz == grid.stencil_pattern().width * grid.node_count
    for jac in rest:
        assert np.array_equal(jac.indptr, first.indptr)
        assert np.array_equal(jac.indices, first.indices)


def test_solvers_on_one_grid_share_one_pattern(monkeypatch):
    built = []
    pattern = dscurv.grid.StencilPattern

    def counted(grid):
        built.append(grid)
        return pattern(grid)

    monkeypatch.setattr(dscurv.grid, "StencilPattern", counted)
    grid = build_grid(2, (16, 32))
    solvers = [_solver(grid, 2), _solver(grid, 2)]
    for solver in solvers:
        result = solver.newton_solve(_nonzonal_state(grid, solver), 0.0)
        assert result.residual_norm <= 1e-10
    assert built == [grid]


def _multimode_field(grid):
    # zonal, odd, even and Nyquist modes in theta, each with its own phi
    # profile, so every mode's system and the (-1)^m pole fold take part
    phi, theta = grid.coords()
    return (1.0 + np.cos(phi) + np.sin(phi) * np.cos(theta)
            + np.sin(2.0 * phi) * np.sin(3.0 * theta)
            + np.cos(phi) * np.cos(0.5 * grid.n_lon * theta)).ravel()


def test_stencil_products_match_csr_bit_for_bit(s1_64, rng):
    # each row of J x and |J| |x| is summed from zero in offset order, as
    # scipy's CSR product sums it (abs() of a CSR matrix sorts its rows,
    # which sums them in another order)
    cases = []
    for res in ((8, 16), (16, 32), (48, 96)):
        grid = build_grid(2, res)
        solver = _solver(grid, 2)
        phi, _ = grid.coords()
        for u in (np.full(grid.shape, solver.start_radius),
                  solver.start_radius + 0.02 * np.cos(phi),
                  _nonzonal_state(grid, solver)):
            cases.append((solver, u, _multimode_field(grid)))
    solver, theta = _solver(s1_64, 1), s1_64.theta
    for u in (np.full(s1_64.shape, solver.start_radius),
              solver.start_radius + 0.02 * np.cos(theta)):
        cases.append((solver, u, 1.0 + np.cos(theta) + np.sin(3.0 * theta)))
    for solver, u, x in cases:
        jac = solver.jacobian(u, 0.5)
        csr, magnitude = _csr(jac), _csr(abs(jac))
        for v in (x, rng.standard_normal(x.size)):
            assert np.array_equal(jac @ v, csr @ v)
            assert np.array_equal(abs(jac) @ np.abs(v), magnitude @ np.abs(v))


def _backward_error(jac, x, b):
    """max_m |b - J x|_m / (|J| |x| + |b|)_m, from a copy of jac."""
    magnitude = abs(jac.copy())
    return np.max(np.abs(b - jac @ x) / (magnitude @ np.abs(x) + np.abs(b)))


def test_fourier_solve_matches_spsolve(rng):
    for res in ((8, 16), (16, 32), (32, 64), (64, 128)):
        grid = build_grid(2, res)
        solver = _solver(grid, 2)
        pattern = grid.stencil_pattern()
        phi, _ = grid.coords()
        states = (np.full(grid.shape, solver.start_radius),
                  solver.start_radius + 0.02 * np.cos(phi),
                  _nonzonal_state(grid, solver))
        for u in states:
            jac = solver.jacobian(u, 0.5)
            table = jac.table.copy()
            b = _multimode_field(grid)
            want = spla.spsolve(_csr(jac).tocsc(), b)
            got = pattern.solve(jac, b)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            # any right-hand side: the solve's own contract
            b = rng.standard_normal(grid.node_count)
            x = pattern.solve(jac, b)
            assert _backward_error(_csr(jac), x, b) <= dscurv.grid.BACKWARD_ERROR_TOL
            assert np.array_equal(jac.table, table)


def test_newton_matches_splu_reference(monkeypatch):
    # the Fourier factor preconditions a non-zonal Jacobian; with the
    # defect corrections Newton takes SuperLU's steps
    grid = build_grid(2, (48, 96))
    solver = _solver(grid, 2)
    u = _nonzonal_state(grid, solver)
    result = solver.newton_solve(u, 0.0)
    monkeypatch.setattr(dscurv.grid.StencilPattern, "solve",
                        lambda self, jac, b: spla.splu(_csr(jac).tocsc()).solve(b))
    reference = solver.newton_solve(u, 0.0)
    assert result.iterations == reference.iterations
    assert result.residual_norm <= 1e-10
    assert np.max(np.abs(result.u - reference.u)) <= 1e-10


def test_edits_to_tocsr_leave_the_jacobian_unchanged():
    # the CSR matrix owns its arrays: sorting, abs and pruning it touch
    # neither the Jacobian's table nor its later products
    grid = build_grid(2, (16, 32))
    solver = _solver(grid, 2)
    jac = solver.jacobian(_nonzonal_state(grid, solver), 0.5)
    table = jac.table.copy()
    x = _multimode_field(grid)
    product, magnitude = jac @ x, abs(jac) @ np.abs(x)
    csr = _csr(jac)
    csr.sort_indices()
    abs(csr)
    csr.data[::2] = 0.0
    csr.eliminate_zeros()
    assert np.array_equal(jac.table, table)
    assert np.array_equal(jac @ x, product)
    assert np.array_equal(abs(jac) @ np.abs(x), magnitude)
    assert np.array_equal(_csr(jac) @ x, product)


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


def test_jacobian_check_sees_theta_columns(monkeypatch):
    # a zonal direction has D_thth v = 0 exactly, so only the direction's
    # theta dependence exposes a wrong D_thth term
    grid = build_grid(2, (16, 32))
    solver = _solver(grid, 2)
    u = _nonzonal_state(grid, solver)
    assert solver.directional_derivative_check(u, 0.5) <= 1e-5
    pattern = grid.stencil_pattern()
    assemble = pattern.assemble

    def scaled(a_u, a_p, a_H):
        a00, a01, a11 = a_H
        return assemble(a_u, a_p, (a00, a01, a11 * 1.1))

    monkeypatch.setattr(pattern, "assemble", scaled)
    with pytest.raises(InternalConsistencyError):
        solver.directional_derivative_check(u, 0.5)


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
        F = _square(dscurv.solver.curvature_derivative_matrix(geom, k))
        F = np.moveaxis(F, (0, 1), (-2, -1))
        least = np.linalg.eigvalsh(0.5 * (F + np.swapaxes(F, -1, -2))).min()
        assert ellipticity_margin(geom, k) == pytest.approx(least, rel=1e-13)
    # F = R diag(-0.01, 1) R^T with R a rotation by 18 degrees is
    # indefinite, yet positive on the covectors (1, 0), (0, 1), (0.8, 0.6),
    # (-0.6, 0.8) and (0.36, -0.933)
    c, s = np.cos(np.radians(18.0)), np.sin(np.radians(18.0))
    rot = np.array([[c, -s], [s, c]])
    block = rot @ np.diag([-0.01, 1.0]) @ rot.T
    doctored = tuple(np.full(s2_16x32.shape, x)
                     for x in (block[0, 0], block[0, 1], block[1, 1]))
    monkeypatch.setattr(dscurv.solver, "curvature_derivative_matrix",
                        lambda geom, k: doctored)
    assert ellipticity_margin(geom, 2) == pytest.approx(-0.01, rel=1e-12)
    solver = _solver(s2_16x32, 2)
    with pytest.raises(InternalConsistencyError, match="non-elliptic"):
        solver.jacobian(np.full(s2_16x32.shape, solver.start_radius), 0.0)


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _square(X):
    """The (n, n, ...) array of the symmetric components X."""
    return _symmetric(np.asarray(X))


def test_newton_tensor_closed_forms(s1_64, s2_16x32):
    # F = df/dA against (S1 g^-1 - g^-1 A g^-1)/(2f) for k = 2 and g^-1/n
    # for k = 1, Euler's identity F:A = f of the degree-one f, and, for
    # k = 2, G = -F A g^-1 = -(f/2) g^-1 (Cayley-Hamilton)
    for grid, ks in ((s1_64, (1,)), (s2_16x32, (1, 2))):
        solver = _solver(grid, 1)
        geom = induced_geometry(_nonzonal_state(grid, solver), grid)
        g_inv, A, s1 = geom.g_inv, geom.A, geom.sums[..., 0]
        g_inv_A_g_inv = np.einsum("ik...,kl...,lj...->ij...", g_inv, A, g_inv)
        for k in ks:
            F = _square(dscurv.solver.curvature_derivative_matrix(geom, k))
            f = root_of_sums(geom.sums, k, grid.dim)
            want = (g_inv / grid.dim if k == 1
                    else (s1 * g_inv - g_inv_A_g_inv) / (2.0 * f))
            assert _rel(F, want) <= 1e-14
            assert _rel(np.einsum("ij...,ij...->...", F, A), f) <= 1e-14
            if k == 2:
                G = -np.einsum("ik...,kl...,lj...->ij...", F, A, g_inv)
                assert _rel(G, -0.5 * f * g_inv) <= 1e-14


def _einsum_coefficients(solver, u, t):
    """The Jacobian's chain-rule coefficients (a_u, a_p, a_H) formed with
    einsum contractions of the (n, n, ...) arrays, the generic form the
    component arithmetic must reproduce; the jacobian docstring names
    the symbols."""
    _, geom, psi = solver.residual_with_geometry(u, t)
    grid, k = solver.grid, solver.config.k
    g_inv, A, p, q, sigma = (geom.g_inv, geom.A, geom.du, np.array(geom.q),
                             grid.sigma)

    def contract(X, Y):
        return np.einsum("ij...,ij...->...", X, Y)

    def product(X, Y):
        return np.einsum("ik...,kj...->ij...", X, Y)

    if k == 1:
        F = g_inv / grid.dim
    else:
        F = ((geom.sums[..., 0] * g_inv - product(product(g_inv, A), g_inv))
             / (2.0 * np.sqrt(geom.sums[..., 1])))
    c, s, th = np.cosh(geom.u), np.sinh(geom.u), np.tanh(geom.u)
    m = c ** 2 - np.einsum("i...,i...->...", p, q)
    rm, m32 = np.sqrt(m), m ** 1.5
    ratio = c / rm
    FK = contract(F, A) / ratio
    F_gamma = np.einsum("ij...,kij...->k...", F, grid.christoffel)
    Fp = np.einsum("ij...,j...->i...", F, p)
    G = -product(product(F, A), g_inv)
    Gp = np.einsum("ij...,j...->i...", G, p)
    dK = (-2.0 / c ** 2) * p[:, None] * p[None, :] + (c ** 2 + s ** 2) * sigma
    a_p = ((c * FK - psi.psi_tau * c ** 2) / m32 * q
           - ratio * (F_gamma + 4.0 * th * Fp) - 2.0 * Gp)
    a_u = ((s / rm - c ** 2 * s / m32) * FK + ratio * contract(F, dK)
           + 2.0 * c * s * contract(G, sigma) - psi.psi_r
           - psi.psi_tau * (2.0 * c * s / rm - c ** 3 * s / m32))
    return a_u, a_p, _components(ratio * F)


def test_jacobian_matches_einsum_oracle(monkeypatch):
    target = SpaceTiltPower(0.5, 0.1, 2.0)
    for dim, res, k in ((1, 128, 1), (2, (16, 32), 1), (2, (16, 32), 2)):
        grid = build_grid(dim, res)
        solver = ContinuationSolver(grid, target, SolverConfig(k=k, p=2.0),
                                    barriers=(0.55, 0.95))
        u = _nonzonal_state(grid, solver)
        pattern = grid.stencil_pattern()
        assemble, got = pattern.assemble, []

        def captured(*coefficients):
            got.extend(coefficients)
            return assemble(*coefficients)

        monkeypatch.setattr(pattern, "assemble", captured)
        want = _einsum_coefficients(solver, u, 0.5)
        table = solver.jacobian(u, 0.5).table
        assert _rel(table, assemble(*want).table) <= 1e-14
        # each coefficient field on its own scale too: a_u is small next
        # to the stencil weights of a_H
        for field, reference in zip(got, want):
            assert _rel(np.asarray(field), np.asarray(reference)) <= 1e-14


def test_solve_path_makes_no_einsum_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("np.einsum called on the solve path")

    monkeypatch.setattr(np, "einsum", forbidden)
    target = SpaceTiltPower(0.5, 0.1, 2.0)
    for dim, res, k in ((2, (16, 32), 2), (1, 32, 1)):
        state = run_homotopy(target, build_grid(dim, res),
                             SolverConfig(k=k, p=2.0))
        assert state.t == 1.0


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


def test_newton_error_counts_accepted_steps(s1_64, monkeypatch):
    u0 = initial_constant(2.0) + 0.05 * np.cos(s1_64.theta)
    with pytest.raises(NewtonError, match="no convergence in 2") as err:
        _solver(s1_64, 1, max_newton=2).newton_solve(u0, 0.0)
    assert err.value.iterations == 2
    # every trial after the first accepted step is infeasible
    residual, calls = ContinuationSolver.residual_with_geometry, []

    def infeasible_after_one_step(self, u, t):
        calls.append(t)
        if len(calls) > 2:
            raise AdmissibilityError([0], "doctored")
        return residual(self, u, t)

    monkeypatch.setattr(ContinuationSolver, "residual_with_geometry",
                        infeasible_after_one_step)
    with pytest.raises(NewtonError, match="line search stalled") as err:
        _solver(s1_64, 1).newton_solve(u0, 0.0)
    assert err.value.iterations == 1


def test_newton_budget_caps_iterations_and_damping(s1_64, monkeypatch):
    solver = _solver(s1_64, 1)
    u0 = initial_constant(2.0) + 0.05 * np.cos(s1_64.theta)
    assert solver.newton_solve(u0, 0.0).iterations > 1
    with pytest.raises(NewtonError, match="no convergence in 1 iterations"):
        solver.newton_solve(u0, 0.0, max_iters=1)
    # the first two trials are infeasible: the full budget damps on to a
    # quarter step, a smallest damping of one half stops after them
    residual, calls = ContinuationSolver.residual_with_geometry, []

    def two_infeasible_trials(self, u, t):
        calls.append(t)
        if len(calls) in (2, 3):
            raise AdmissibilityError([0], "doctored")
        return residual(self, u, t)

    monkeypatch.setattr(ContinuationSolver, "residual_with_geometry",
                        two_infeasible_trials)
    with pytest.raises(NewtonError, match="line search stalled") as err:
        solver.newton_solve(u0, 0.0, min_damping=dscurv.solver.STEP_BACKTRACK_MIN)
    assert len(calls) == 3 and err.value.iterations == 0
    calls.clear()
    assert solver.newton_solve(u0, 0.0).residual_norm <= 1e-10


def test_line_search_frees_a_rejected_trial(s1_64, monkeypatch):
    # the first trial's residual is raised by one, so the line search
    # rejects it: its geometry and psi must be dead when the next trial
    # starts, while the current iterate's stay alive
    solver = _solver(s1_64, 1)
    u0 = initial_constant(2.0) + 0.05 * np.cos(s1_64.theta)
    residual = ContinuationSolver.residual_with_geometry
    refs, alive = [], []

    def weakly_held(self, u, t):
        alive.append([ref() is not None for ref in refs])
        res, geom, psi = residual(self, u, t)
        refs.extend((weakref.ref(geom), weakref.ref(psi)))
        return (res + 1.0 if len(refs) == 4 else res), geom, psi

    monkeypatch.setattr(ContinuationSolver, "residual_with_geometry",
                        weakly_held)
    assert solver.newton_solve(u0, 0.0).residual_norm <= 1e-10
    assert alive[2] == [True, True, False, False]


def test_jacobian_check_frees_its_table_before_the_residuals(s2_16x32,
                                                            monkeypatch):
    # the check forms J v and |J| |v| first, so its Jacobian's table is
    # dead when the central difference evaluates its two residuals
    solver = _solver(s2_16x32, 2)
    u = _nonzonal_state(s2_16x32, solver)
    jacobian, residual = ContinuationSolver.jacobian, ContinuationSolver.residual
    refs, alive = [], []

    def weakly_held(self, *args):
        jac = jacobian(self, *args)
        refs.append(weakref.ref(jac.table))
        return jac

    def observed(self, u, t):
        alive.append(refs[0]() is not None)
        return residual(self, u, t)

    monkeypatch.setattr(ContinuationSolver, "jacobian", weakly_held)
    monkeypatch.setattr(ContinuationSolver, "residual", observed)
    _, geom, psi = solver.residual_with_geometry(u, 0.5)
    assert solver.directional_derivative_check(u, 0.5, geom, psi) <= 1e-5
    assert len(refs) == 1 and alive == [False, False]


def _singular_assembly(pattern):
    """assemble() replaced by a singular matrix on the same pattern: zero
    on S^1, whose first pivot is zero, and the constant-coefficient D_thth
    on S^2, whose mode-0 system is zero, so the first pivot is."""
    assemble = pattern.assemble

    def singular(a_u, a_p, a_H):
        a_H = np.zeros_like(a_H)
        if pattern.dim == 2:
            a_H[2] = 1.0
        return assemble(np.zeros_like(a_u), np.zeros_like(a_p), a_H)
    return singular


def test_singular_jacobian_is_a_newton_error(s1_64, monkeypatch):
    for grid, cause in ((s1_64, "zero pivot in node 0"),
                        (build_grid(2, (16, 32)), "zero pivot in ring 0, mode 0")):
        pattern = grid.stencil_pattern()
        monkeypatch.setattr(pattern, "assemble", _singular_assembly(pattern))
        solver = _solver(grid, grid.dim)
        u0 = np.full(grid.shape, 0.75)
        with pytest.raises(NewtonError, match=r"singular Jacobian at t = "
                           r"0\.500000: " + cause) as err:
            solver.newton_solve(u0, 0.5)
        assert np.array_equal(err.value.best_u, u0)
        assert err.value.residual_norm == float(np.max(np.abs(
            solver.residual(u0, 0.5))))
        assert err.value.iterations == 0


def test_stalled_corrections_are_a_newton_error(monkeypatch):
    # a_u alternating 0 and 2 along each ring: the ring average is the
    # identity, but the matrix is singular, so no correction can clear
    # the defect on its zero rows
    grid = build_grid(2, (16, 32))
    pattern = grid.stencil_pattern()
    assemble = pattern.assemble
    _, theta = grid.coords()
    alternating = 1.0 + np.cos(0.5 * grid.n_lon * theta)

    def singular(a_u, a_p, a_H):
        return assemble(alternating, np.zeros_like(a_p), np.zeros_like(a_H))

    monkeypatch.setattr(pattern, "assemble", singular)
    with pytest.raises(NewtonError, match=r"singular Jacobian at t = 0\.500000:"
                       r" defect correction stopped contracting"):
        _solver(grid, 2).newton_solve(np.full(grid.shape, 0.75), 0.5)


def test_singular_periodic_system_is_a_newton_error(monkeypatch):
    # the periodic second difference alone: the constants are its kernel,
    # so the corner correction's denominator cancels to rounding
    for n in (16, 64, 128):
        grid = build_grid(1, n)
        pattern = grid.stencil_pattern()
        assemble = pattern.assemble

        def singular(a_u, a_p, a_H):
            return assemble(np.zeros_like(a_u), np.zeros_like(a_p),
                            np.ones_like(a_H))

        monkeypatch.setattr(pattern, "assemble", singular)
        u0 = np.full(grid.shape, 0.75)
        with pytest.raises(NewtonError, match=r"singular Jacobian at t = "
                           r"0\.500000: singular periodic system") as err:
            _solver(grid, 1).newton_solve(u0, 0.5)
        assert np.array_equal(err.value.best_u, u0)
        assert err.value.iterations == 0


def test_cyclic_solve_matches_dense(rng, monkeypatch):
    # S^1's cyclic Thomas factor with its corner correction is direct, so
    # no solve needs a GMRES correction: from the coarsest level up, at
    # the constant start, a perturbed start, and the solution of a target
    # with a1 = 0.4
    monkeypatch.setattr(dscurv.grid, "_gmres_correction", None)
    tilted = SpaceTiltPower(a0=0.5, a1=0.4, p=2.0)
    config = SolverConfig(k=1, p=2.0)
    for n in (8, 16, 64, 128):
        grid = build_grid(1, n)
        pattern, theta = grid.stencil_pattern(), grid.theta
        solver = _solver(grid, 1)
        cases = ((solver, np.full(grid.shape, solver.start_radius), 0.5),
                 (solver, solver.start_radius + 0.02 * np.cos(theta), 0.5),
                 (ContinuationSolver(grid, tilted, config),
                  run_homotopy(tilted, grid, config).u, 1.0))
        for solver, u, t in cases:
            jac = solver.jacobian(u, t)
            table, csr = jac.table.copy(), _csr(jac)
            b = 1.0 + np.cos(theta) + np.sin(3.0 * theta)
            want = np.linalg.solve(csr.toarray(), b)
            got = pattern.solve(jac, b)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            b = rng.standard_normal(n)
            x = pattern.solve(jac, b)
            assert _backward_error(csr, x, b) <= dscurv.grid.BACKWARD_ERROR_TOL
            assert np.array_equal(jac.table, table)


def test_run_homotopy_closed_form_s1():
    grid = build_grid(1, 128)
    state = run_homotopy(MODEL, grid, SolverConfig(k=1, p=2.0))
    assert state.t == 1.0
    assert np.max(np.abs(state.u - R_STAR)) <= 1e-8
    assert state.monitor.all_ok
    assert all(rec.residual <= 1e-10 for rec in state.step_history)


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
    for res, shapes in (((32, 64), ["8x16", "16x32", "32x64"]),
                        ((48, 96), ["12x24", "24x48", "48x96"]),
                        ((64, 128), ["8x16", "16x32", "32x64", "64x128"])):
        grid = build_grid(2, res)
        box = AuditBox(r_hi=2.5)
        barriers, _ = combined_barriers(scan_barriers(target, box), 2.0, box)
        solver = ContinuationSolver(grid, target, SolverConfig(k=2, p=2.0),
                                    barriers=barriers)
        nested = solver.run()
        single = solver._homotopy()
        assert nested.t == 1.0
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
    assert len(a.levels) == 3
    assert np.array_equal(a.u, b.u)
    assert a.step_history == b.step_history
    assert a.levels == b.levels


# Newton iterations per level of SpaceTiltPower(0.5, 0.1, 2) on S^2
# 64x128 when the finer levels reused their start's LU factor (a chord)
CHORD_ITERS_64X128 = [18, 3, 3, 3]


def test_nested_levels_take_full_newton(monkeypatch):
    solved, checked = [], []
    solve = dscurv.grid.StencilPattern.solve
    check = ContinuationSolver.directional_derivative_check

    def counted_solve(self, jac, b):
        solved.append(self.shape[0])
        return solve(self, jac, b)

    def counted_check(self, *args, **kwargs):
        checked.append(self.grid.node_count)
        return check(self, *args, **kwargs)

    monkeypatch.setattr(dscurv.grid.StencilPattern, "solve", counted_solve)
    monkeypatch.setattr(ContinuationSolver, "directional_derivative_check",
                        counted_check)
    # the schedule the chord counts were taken with
    state = run_homotopy(SpaceTiltPower(0.5, 0.1, 2.0),
                         build_grid(2, (64, 128)),
                         SolverConfig(k=2, p=2.0, dt_init=0.1, dt_max=0.5))
    assert state.t == 1.0
    assert [level.resolution for level in state.levels] == [
        "8x16", "16x32", "32x64", "64x128"]
    iters = [level.newton_iters for level in state.levels]
    # the homotopy keeps its iterations, each finer level needs no more
    # than the chord did
    assert iters[0] == CHORD_ITERS_64X128[0]
    assert all(1 <= it <= chord
               for it, chord in zip(iters[1:], CHORD_ITERS_64X128[1:]))
    # one linear solve per Newton iteration
    for nodes, level in zip((8 * 16, 16 * 32, 32 * 64, 64 * 128), state.levels):
        assert solved.count(nodes) == level.newton_iters
    # the homotopy checks its Jacobian at intervals, each finer level once
    assert checked.count(8 * 16) >= 1
    for nodes in (16 * 32, 32 * 64, 64 * 128):
        assert checked.count(nodes) == 1


def test_jacobian_check_counts_accepted_states(monkeypatch):
    # with interval 2 the check runs on accepted states 1, 2, 4, 6, ...;
    # a step the monitors reject is neither checked nor counted
    checked, monitored = [], []
    check = ContinuationSolver.directional_derivative_check
    bounds = dscurv.solver.check_bounds

    def counted_check(self, u, t, **kwargs):
        checked.append(t)
        return check(self, u, t, **kwargs)

    def reject_first_step(geom, *args):
        report = bounds(geom, *args)
        monitored.append(report)
        if len(monitored) == 2:
            report = dataclasses.replace(report, node_violations={"c0": [0]})
        return report

    monkeypatch.setattr(dscurv.solver, "JACOBIAN_CHECK_INTERVAL", 2)
    monkeypatch.setattr(ContinuationSolver, "directional_derivative_check",
                        counted_check)
    monkeypatch.setattr(dscurv.solver, "check_bounds", reject_first_step)
    # short steps, so that the homotopy accepts at least six states
    history = _solver(build_grid(1, 32), 1, dt_init=0.1,
                      dt_max=0.5)._homotopy().step_history
    assert len(monitored) == len(history) + 1
    assert checked == [history[i].t for i in (0, 1, 3, 5)]


def test_easy_homotopy_takes_one_step():
    # dt_init = 1: the coarse homotopy accepts its start and then t = 1
    state = run_homotopy(SpaceTiltPower(0.5, 0.1, 2.0),
                         build_grid(2, (32, 64)), SolverConfig(k=2, p=2.0))
    coarse = state.levels[0]
    assert (coarse.resolution, coarse.steps, coarse.rejected) == ("8x16", 2, [])
    assert coarse.newton_iters <= 5
    assert [rec.t for rec in state.step_history if rec.level == 0] == [0.0, 1.0]


# Draw 8 of _existence_draws: Newton cannot reach t = 1 from the start, so
# its homotopy rejects steps.
HARD_DRAW = SpaceTiltPower(0.19789276722589916, -0.10865109055667578,
                           1.911526042173001)


def test_rejected_steps_stay_within_the_step_budget(monkeypatch):
    attempts = []
    newton = ContinuationSolver.newton_solve

    def counted(self, u0, t, *args):
        try:
            result = newton(self, u0, t, *args)
        except NewtonError as exc:
            attempts.append((self.grid.shape, t, exc.iterations, False))
            raise
        attempts.append((self.grid.shape, t, result.iterations, True))
        return result

    monkeypatch.setattr(ContinuationSolver, "newton_solve", counted)
    state = run_homotopy(HARD_DRAW, build_grid(2, (32, 64)),
                         SolverConfig(k=2, p=2.0))
    assert state.t == 1.0
    steps = [a for a in attempts if a[0] == (8, 16) and a[1] > 0.0]
    assert all(iters <= dscurv.solver.STEP_NEWTON_CAP
               for _, _, iters, _ in steps)
    # each rejected attempt is in the coarse level's record with its
    # cause; the finer levels reject nothing
    coarse = state.levels[0]
    assert len(coarse.rejected) >= 1
    assert [r["t"] for r in coarse.rejected] == [
        t for _, t, _, ok in steps if not ok]
    assert all(r["cause"].startswith("Newton failed: ")
               for r in coarse.rejected)
    assert coarse.steps == 1 + sum(ok for *_, ok in steps)
    assert all(level.rejected == [] for level in state.levels[1:])


# A long first step sends a Newton trial of this draw above U_MAX, where
# cosh(u)**2 overflows.
FAR_TRIAL_DRAW = SpaceTiltPower(0.16519265800078847, 0.011262142965053689,
                                2.1287823048921277)


@pytest.mark.parametrize("k", [2, 1])
def test_far_trials_fail_quietly(k):
    # the geometry refuses the trial before evaluating cosh, so the line
    # search rejects it without a warning (filterwarnings = error)
    state = run_homotopy(FAR_TRIAL_DRAW, build_grid(2, (32, 64)),
                         SolverConfig(k=k, p=2.0))
    assert state.t == 1.0
    assert len(state.levels[0].rejected) >= 1


def test_nested_level_converges_from_a_nonzonal_start(monkeypatch):
    # 0.1 sin^4(phi) cos(4 theta) added to every prolonged field: a level
    # start whose Jacobian varies along each ring, so the ring-averaged
    # factor only preconditions it
    prolong = dscurv.grid.SphereGrid.prolong

    def perturbed(self, f):
        phi, theta = self.refine().coords()
        return prolong(self, f) + 0.1 * np.sin(phi) ** 4 * np.cos(4.0 * theta)

    target, cfg = SpaceTiltPower(0.5, 0.1, 2.0), SolverConfig(k=2, p=2.0)
    reference = run_homotopy(target, build_grid(2, (32, 64)), cfg)
    monkeypatch.setattr(dscurv.grid.SphereGrid, "prolong", perturbed)
    state = run_homotopy(target, build_grid(2, (32, 64)), cfg)
    assert state.t == 1.0
    assert all(level.residual <= cfg.tol_newton for level in state.levels)
    assert np.max(np.abs(state.u - reference.u)) <= 1e-10


@pytest.mark.parametrize("failure", ["infeasible start", "monitor"])
def test_nested_run_names_the_failed_level(monkeypatch, failure):
    grid = build_grid(2, (32, 64))
    target = SpaceTiltPower(0.5, 0.1, 2.0)
    box = AuditBox(r_hi=2.5)
    barriers, _ = combined_barriers(scan_barriers(target, box), 2.0, box)
    solver = ContinuationSolver(grid, target, SolverConfig(k=2, p=2.0),
                                barriers=barriers)
    solved = solver.run()
    if failure == "infeasible start":
        monkeypatch.setattr(dscurv.grid.SphereGrid, "prolong",
                            lambda self, f: -np.ones(self.refine().shape))
        message = "level 1 (16x32) failed: initial iterate infeasible"
        failed_level = 1
    else:
        check_bounds = dscurv.solver.check_bounds

        def fail_on_target(geom, *args):
            report = check_bounds(geom, *args)
            if geom.grid is grid:
                report = dataclasses.replace(report,
                                             node_violations={"c0": [7]})
            return report

        monkeypatch.setattr(dscurv.solver, "check_bounds", fail_on_target)
        message = ("level 2 (32x64) failed: bound monitors failed: "
                   "c0 at 1 node(s) [7]")
        failed_level = 2
    with pytest.raises(ContinuationError) as err:
        solver.run()
    assert str(err.value).startswith(message)
    # the trace ends with the rows of the last level accepted
    state = err.value.state
    assert state.step_history == [rec for rec in solved.step_history
                                  if rec.level < failed_level]
    assert state.levels == solved.levels[:failed_level]


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
    with pytest.raises(ContinuationError, match=r"^level 0 \(8\) failed: .*"
                       r"monitors failed: c0 at 8 node\(s\) \[0, 1, 2, 3, 4\]$"):
        monitor.run()


def test_monitor_failure_at_the_start_reports_no_state():
    # the start radius 0.663 lies below R1 = 0.7: the start is rejected,
    # so no state was accepted
    solver = ContinuationSolver(build_grid(1, 64), SpaceTiltPower(0.5, 0.0, 2.0),
                                SolverConfig(k=1), barriers=(0.7, 0.9))
    with pytest.raises(ContinuationError) as err:
        solver.run()
    assert str(err.value) == (
        "level 0 (8) failed: bound monitors failed at the homotopy start: "
        "c0 at 8 node(s) [0, 1, 2, 3, 4]")
    assert err.value.state is None


@pytest.mark.parametrize("barriers", [
    (np.nan, np.nan), (np.nan, 0.9), (0.7, np.nan), (0.9, 0.7), (0.7, 0.7),
    (0.0, 0.9), (-0.5, 0.9), (0.5, np.inf)])
def test_run_rejects_invalid_barriers(monkeypatch, barriers):
    # refused before any work: no Newton solve on any level may start
    def no_newton(self, u0, t):
        raise AssertionError("Newton ran before the barriers were checked")

    monkeypatch.setattr(ContinuationSolver, "newton_solve", no_newton)
    solver = ContinuationSolver(build_grid(1, 64), MODEL, SolverConfig(k=1),
                                barriers=barriers)
    with pytest.raises(ValueError, match="0 < R1 < R2"):
        solver.run()


def test_run_homotopy_requires_barriers(s1_64):
    psi = SpaceTiltPower(a0=5.0, a1=0.0, p=2.0)   # no lower barrier radius
    with pytest.raises(ValueError):
        run_homotopy(psi, s1_64, SolverConfig(k=1, p=2.0))


def test_run_homotopy_ends_exactly_at_t_final():
    # ten steps of 0.1 add up to 0.9999999999999999 in floating point
    state = run_homotopy(SpaceTiltPower(0.5, 0.0, 2.0), build_grid(1, 64),
                         SolverConfig(k=1, p=2.0, dt_init=0.1, dt_max=0.1))
    assert state.t == 1.0


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


def _existence_draws():
    """Sixteen zonal SpaceTiltPower(a0, a1, p) from random.Random(2019):
    a0 ~ U(0.1, 1), a1 ~ U(-0.8, 0.8) a0, p ~ U(1.05, 3), drawn in that
    order."""
    rng = random.Random(2019)
    draws = []
    for _ in range(16):
        a0 = rng.uniform(0.1, 1.0)
        draws.append(SpaceTiltPower(a0, rng.uniform(-0.8, 0.8) * a0,
                                    rng.uniform(1.05, 3.0)))
    return draws


@pytest.mark.parametrize("dim, resolution, k", [
    (2, (32, 64), 2), (2, (64, 128), 2), (1, 128, 1)],
    ids=["s2-32x64", "s2-64x128", "s1-128"])
def test_existence_oracle_on_zonal_draws(dim, resolution, k):
    # the existence theorem: a prescription that passes conditions B-E
    # and has barriers R1 < R2 has a solution, so the solve must reach
    # t = 1 on every rung; a draw without barriers lies outside the
    # theorem and is counted, not solved
    grid, box = build_grid(dim, resolution), AuditBox(dim=dim)
    cfg = SolverConfig(k=k, p=2.0)
    solved = 0
    for target in _existence_draws():
        audit = audit_structural(target, box)
        assert set(audit.witnesses) <= {"A"}, (target, audit.witnesses)
        barriers, _ = combined_barriers(audit.scan, 2, box)
        if barriers is None:
            continue
        state = ContinuationSolver(grid, target, cfg, barriers).run()
        assert state.t == 1.0, target
        assert all(level.residual <= cfg.tol_newton
                   for level in state.levels), target
        solved += 1
    # 8 of the 16 draws have barriers on each rung
    assert solved >= 6


@pytest.mark.parametrize("dim, resolution, k", [
    (2, (32, 64), 2), (1, 128, 1)], ids=["s2-32x64", "s1-128"])
def test_solution_is_independent_of_the_path(dim, resolution, k):
    # the homotopy only globalizes Newton: the schedule and the reference
    # power p change the path to t = 1, not the solution there
    grid, draws = build_grid(dim, resolution), _existence_draws()
    for target in (draws[5], HARD_DRAW):
        solutions = [run_homotopy(target, grid, SolverConfig(
            k=k, p=p, **schedule)).u for p in (1.5, 2.0, 3.0)
            for schedule in ({}, {"dt_init": 0.1, "dt_max": 0.5})]
        assert max(np.max(np.abs(u - solutions[0]))
                   for u in solutions) <= 1e-12, target


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol_newton=0.0)
    for bad in ({"max_newton": 0}, {"c_a": 0.0}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    with pytest.raises(ValueError):
        SolverConfig(dt_min=0.5, dt_init=0.1)
    with pytest.raises(ValueError):
        SolverConfig(k=0)
    with pytest.raises(ValueError):
        ContinuationSolver(build_grid(1, 16), MODEL, SolverConfig(k=2))


@pytest.mark.parametrize("name, value", [("k", 1.0), ("max_newton", 2.5)])
def test_solver_config_counts_must_be_integers(name, value):
    # both used to construct and then fail with TypeError inside the solve
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        SolverConfig(**{name: value})
