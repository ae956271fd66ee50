"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here, nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

from dscurv import (ContinuationSolver, SolverConfig, SpaceTiltPower,
                    TiltConcave, TiltPower, ConstantPrescription, AuditBox,
                    audit_structural, build_grid, identity_residuals,
                    in_gamma_k, initial_constant, normalized_root,
                    normalized_root_gradient, run_homotopy, scan_barriers,
                    zeroth_coefficient_at_start)

R_STAR = np.log(1.0 + np.sqrt(2.0))
MODEL = SpaceTiltPower(a0=0.5, a1=0.0, p=2.0)

# Below this, the constant-mode Jacobian error is differencing noise (the
# discrete operators annihilate constants exactly), so an error-ratio test
# carries no discretization signal and is skipped as vacuously satisfied.
JACOBIAN_NOISE_FLOOR = 5e-8


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} - {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_1_umbilic_start_exactness():
    start = time.perf_counter()
    lam = initial_constant(2.0)
    eq_err = abs(lam * np.cosh(lam) ** 2 - 1.0)
    res_norms = []
    for grid, k in ((build_grid(1, 64), 1), (build_grid(2, (32, 64)), 2)):
        solver = ContinuationSolver(grid, MODEL, SolverConfig(k=k, p=2.0),
                                    barriers=(0.55, 0.95))
        res = solver.residual(np.full(grid.shape, lam), 0.0)
        res_norms.append(float(np.max(np.abs(res))))
    elapsed = time.perf_counter() - start
    ok = (eq_err <= 1e-14 and max(res_norms) <= 1e-12 and elapsed < 1.0)
    _report(1, "umbilic start is exact", ok,
            f"|lam cosh^2 lam - 1| = {eq_err:.2e}, residuals = "
            f"{res_norms[0]:.2e}/{res_norms[1]:.2e}, {elapsed:.2f}s")


def test_criterion_2_closed_form_target():
    t0 = time.perf_counter()
    state1 = run_homotopy(MODEL, build_grid(1, 128), SolverConfig(k=1, p=2.0))
    t1 = time.perf_counter() - t0
    err1 = float(np.max(np.abs(state1.u - R_STAR)))

    t0 = time.perf_counter()
    state2 = run_homotopy(MODEL, build_grid(2, (32, 64)), SolverConfig(k=2, p=2.0))
    t2 = time.perf_counter() - t0
    err2 = float(np.max(np.abs(state2.u - R_STAR)))

    ok = (state1.t == 1.0 and state2.t == 1.0
          and err1 <= 1e-8 and err2 <= 1e-8
          and t1 < 5.0 and t2 < 60.0)
    _report(2, "homotopy reaches the closed-form constant solution", ok,
            f"S^1 err {err1:.2e} in {t1:.2f}s, S^2 err {err2:.2e} in {t2:.2f}s")


def test_criterion_3_perturbed_start_uniqueness():
    lam = initial_constant(2.0)
    results = []
    grid1 = build_grid(1, 64)
    solver1 = ContinuationSolver(grid1, MODEL, SolverConfig(k=1, p=2.0),
                                 barriers=(0.55, 0.95))
    r1 = solver1.newton_solve(lam + 0.05 * np.cos(grid1.theta), 0.0)
    results.append((r1.iterations, float(np.max(np.abs(r1.u - lam)))))

    grid2 = build_grid(2, (32, 64))
    phi, theta = grid2.coords()
    solver2 = ContinuationSolver(grid2, MODEL, SolverConfig(k=2, p=2.0),
                                 barriers=(0.55, 0.95))
    r2 = solver2.newton_solve(lam + 0.05 * np.sin(phi) * np.cos(phi) * np.cos(theta),
                              0.0)
    results.append((r2.iterations, float(np.max(np.abs(r2.u - lam)))))

    ok = all(it <= 15 and err <= 1e-8 for it, err in results)
    _report(3, "Newton reconverges to the constant start", ok,
            ", ".join(f"{it} iters, err {err:.2e}" for it, err in results))


def test_criterion_4_start_sign_diagnostic():
    c2 = zeroth_coefficient_at_start(2.0)
    value_ok = abs(c2 - (-1.55)) <= 0.01
    signs_ok = all(zeroth_coefficient_at_start(p) < 0.0
                   for p in (1.0, 1.5, 2.0, 3.0))

    errors = []
    for n in (64, 128):
        grid = build_grid(1, n)
        solver = ContinuationSolver(grid, MODEL, SolverConfig(k=1, p=2.0),
                                    barriers=(0.55, 0.95))
        lam = solver.start_radius
        j1 = solver.jacobian(np.full(grid.shape, lam), 0.0).dot(np.ones(n))
        errors.append(abs(float(np.mean(j1)) - c2))
    agree_ok = all(e <= 1e-5 for e in errors)
    if min(errors) > JACOBIAN_NOISE_FLOOR:
        ratio = errors[0] / errors[1]
        ratio_ok = 3.4 <= ratio <= 4.6
        ratio_note = f"ratio {ratio:.2f}"
    else:
        # agreement is exact up to differencing noise: the O(h^2) bound
        # holds with margin and there is no h^2 error signal to ratio
        ratio_ok = True
        ratio_note = "ratio skipped below noise floor"
    ok = value_ok and signs_ok and agree_ok and ratio_ok
    _report(4, "start linearization coefficient is negative and matches", ok,
            f"c(2) = {c2:.4f}, |J.1 - c| = {errors[0]:.2e}/{errors[1]:.2e}, "
            + ratio_note)


def test_criterion_5_identity_residual_convergence():
    start = time.perf_counter()
    window = (3.4, 4.6)
    checks = []

    coarse1 = build_grid(1, 64)
    fine1 = coarse1.refine()
    res1c = identity_residuals(0.8 + 0.1 * np.cos(coarse1.theta), coarse1)
    res1f = identity_residuals(0.8 + 0.1 * np.cos(fine1.theta), fine1)
    for c, f in zip(res1c.as_tuple()[:3], res1f.as_tuple()[:3]):
        checks.append(window[0] <= c / f <= window[1])
    checks.append(res1c.codazzi == 0.0 and res1f.codazzi == 0.0)

    def zonal_degree2(grid):
        phi, _ = grid.coords()
        return 0.8 + 0.1 * (1.5 * np.cos(phi) ** 2 - 0.5)

    coarse2 = build_grid(2, (32, 64))
    fine2 = coarse2.refine()
    res2c = identity_residuals(zonal_degree2(coarse2), coarse2)
    res2f = identity_residuals(zonal_degree2(fine2), fine2)
    ratios2 = [c / f for c, f in zip(res2c.as_tuple(), res2f.as_tuple())]
    checks.extend(window[0] <= r <= window[1] for r in ratios2)

    for grid in (coarse1, coarse2):
        res = identity_residuals(np.full(grid.shape, 0.85), grid)
        checks.append(max(res.as_tuple()) <= 1e-12)

    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 10.0
    _report(5, "identity residuals vanish on slices and converge at order 2",
            ok, f"S^2 ratios {', '.join(f'{r:.2f}' for r in ratios2)}, "
            f"{elapsed:.2f}s")


def test_criterion_6_symmetric_function_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    combos = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
    per_combo = 20000
    euler_worst = 0.0
    chain_worst = 0.0
    concave_worst = 0.0
    positives = True
    for n, k in combos:
        samples = []
        while sum(len(s) for s in samples) < 2 * per_combo:
            cand = rng.uniform(-1.0, 3.0, size=(4 * per_combo, n))
            samples.append(cand[np.asarray(in_gamma_k(cand, k).member)])
        lam = np.concatenate(samples)[: 2 * per_combo]
        f = normalized_root(lam, k)
        grad = normalized_root_gradient(lam, k)
        positives &= bool(np.all(grad > 0.0))
        euler = np.einsum("si,si->s", grad, lam)
        euler_worst = max(euler_worst, float(np.max(np.abs(euler - f) / f)))
        lhs = np.einsum("si,si->s", grad, lam ** 2)
        h1 = lam.mean(axis=1)
        chain_worst = min(chain_worst,
                          float(np.min(lhs - f * h1)), float(np.min(f * h1 - f ** 2)))
        a, b = lam[:per_combo], lam[per_combo:]
        s = 0.5
        mix = s * a + (1 - s) * b
        gap = (normalized_root(mix, k)
               - s * normalized_root(a, k) - (1 - s) * normalized_root(b, k))
        concave_worst = min(concave_worst, float(np.min(gap)))
    elapsed = time.perf_counter() - start
    total = len(combos) * 2 * per_combo
    ok = (total >= 100000 and positives and euler_worst <= 1e-10
          and concave_worst >= -1e-12 and chain_worst >= -1e-10
          and elapsed < 30.0)
    _report(6, "symmetric-function identities on random cone samples", ok,
            f"{total} samples, euler {euler_worst:.1e}, "
            f"chain {chain_worst:.1e}, concavity {concave_worst:.1e}, "
            f"{elapsed:.1f}s")


def test_criterion_7_monitor_enforcement():
    start = time.perf_counter()
    target = SpaceTiltPower(a0=0.5, a1=0.1, p=2.0)
    grid = build_grid(2, (32, 64))
    state = run_homotopy(target, grid, SolverConfig(k=2, p=2.0))
    elapsed = time.perf_counter() - start
    r1, r2 = state.monitor.R1, state.monitor.R2
    # the tilt is capped at the audited box's tau_max
    tau_max = AuditBox().tau_max
    per_step = all(
        rec.min_u >= r1 and rec.max_u <= r2
        and rec.max_tau <= tau_max and rec.max_abs_A <= 50.0
        and rec.residual <= 1e-10
        for rec in state.step_history)
    ok = (state.t == 1.0 and per_step and state.monitor.all_ok
          and state.monitor.C_tau == tau_max
          and state.monitor.min_sigma_margin > 0.0 and elapsed < 120.0)
    _report(7, "every accepted state stays inside the bound set", ok,
            f"{len(state.step_history)} steps, u in "
            f"[{state.u.min():.4f}, {state.u.max():.4f}] within "
            f"[{r1:.4f}, {r2:.4f}], {elapsed:.1f}s")


def test_criterion_8_audit_correctness():
    box = AuditBox(r_lo=0.05, r_hi=2.0, tau_max=20.0, dim=2)
    model_audits = [
        audit_structural(SpaceTiltPower(a0=0.5, a1=0.0, p=2.0), box),
        audit_structural(SpaceTiltPower(a0=0.5, a1=0.1, p=1.5), box),
    ]
    models_ok = all(a.passed for a in model_audits)

    b_violation = audit_structural(TiltPower(coef=1.0, q=0.5), box)
    b_ok = (not b_violation.pass_B) and bool(b_violation.witnesses["B"])

    e_violation = audit_structural(TiltConcave(), box)
    e_ok = (not e_violation.pass_E) and bool(e_violation.witnesses["E"])

    const_audit = audit_structural(ConstantPrescription(0.2), box)
    scan = scan_barriers(ConstantPrescription(0.2), box)
    a_ok = ((not const_audit.pass_A) and bool(const_audit.witnesses["A"])
            and not scan.found and scan.lo_margin[0] < 0.0)

    ok = models_ok and b_ok and e_ok and a_ok
    _report(8, "audit passes the model family and rejects each violator", ok,
            f"model pass = {models_ok}, B/E/A violations flagged = "
            f"{b_ok}/{e_ok}/{a_ok}")
