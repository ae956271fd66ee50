"""Prescription families, structural audits, barrier scans, homotopy."""

import numpy as np
import pytest

from dscurv import (AuditBox, ConstantPrescription, HomotopyPrescription,
                    ReferencePrescription, SpaceTiltPower, TiltConcave,
                    TiltPower, audit_structural, build_grid,
                    make_prescription, scan_barriers)
from dscurv.prescription import sphere_lattice

R_STAR = np.log(1.0 + np.sqrt(2.0))   # root of 0.5 cosh^2(r) = 1


def _fd_consistency(psi, dim, rng, rel=1e-6):
    r = rng.uniform(0.2, 1.5, size=40)
    tau = rng.uniform(1.05, 8.0, size=40)
    xi = tuple(rng.uniform(0.3, 2.8, size=40) for _ in range(dim))
    ev = psi.evaluate(r, xi, tau)
    h = 1e-5
    scale = np.abs(ev.psi) + 1.0

    fd_r = (psi.evaluate(r + h, xi, tau).psi
            - psi.evaluate(r - h, xi, tau).psi) / (2 * h)
    assert np.max(np.abs(fd_r - ev.psi_r) / scale) < rel

    fd_tau = (psi.evaluate(r, xi, tau + h).psi
              - psi.evaluate(r, xi, tau - h).psi) / (2 * h)
    assert np.max(np.abs(fd_tau - ev.psi_tau) / scale) < rel

    fd_tau2 = (psi.evaluate(r, xi, tau + h).psi_tau
               - psi.evaluate(r, xi, tau - h).psi_tau) / (2 * h)
    assert np.max(np.abs(fd_tau2 - ev.psi_tautau) / scale) < rel

    xi_hi = (xi[0] + h,) + xi[1:]
    xi_lo = (xi[0] - h,) + xi[1:]
    fd_xi = (psi.evaluate(r, xi_hi, tau).psi
             - psi.evaluate(r, xi_lo, tau).psi) / (2 * h)
    assert np.max(np.abs(fd_xi - ev.psi_xi[0]) / scale) < rel


FAMILIES = (SpaceTiltPower(a0=0.5, a1=0.1, p=2.0), TiltPower(),
            ConstantPrescription(), TiltConcave(), ReferencePrescription())


def _psi_fields(ev):
    return [ev.psi, ev.psi_r, ev.psi_tau, ev.psi_tautau, *ev.psi_xi]


@pytest.mark.parametrize("psi", FAMILIES, ids=lambda psi: psi.name)
def test_every_psi_field_has_the_common_shape(psi):
    # the audit box: r, xi and tau on their own axes
    box = AuditBox(dim=2)
    xi = sphere_lattice(2, box.n_xi)
    r = np.linspace(box.r_lo, box.r_hi, box.n_r)[:, None, None]
    tau = np.linspace(1.0, box.tau_max, box.n_tau)[None, None, :]
    ev = psi.evaluate(r, tuple(c[None, :, None] for c in xi), tau)
    assert len(ev.psi_xi) == 2
    for arr in _psi_fields(ev):
        assert arr.shape == (box.n_r, xi[0].size, box.n_tau)
        assert not arr.flags.writeable
    # the nodes of an S^2 grid
    grid = build_grid(2, (16, 32))
    u = np.full(grid.shape, 0.8)
    ev = psi.evaluate(u, grid.coords(), np.cosh(u))
    assert len(ev.psi_xi) == 2
    assert all(arr.shape == grid.shape for arr in _psi_fields(ev))


def test_derivative_self_consistency(rng):
    _fd_consistency(SpaceTiltPower(a0=0.5, a1=0.1, p=2.0), 2, rng)
    _fd_consistency(SpaceTiltPower(a0=0.7, a1=0.0, p=1.5), 1, rng)
    _fd_consistency(TiltPower(coef=1.0, q=0.5), 2, rng)
    _fd_consistency(TiltConcave(), 2, rng)
    _fd_consistency(ReferencePrescription(p=2.0), 2, rng)


def test_model_family_audit_passes():
    psi = SpaceTiltPower(a0=0.5, a1=0.0, p=2.0)
    box = AuditBox(r_lo=0.1, r_hi=2.0, tau_max=20.0, dim=2)
    audit = audit_structural(psi, box)
    assert audit.positive and audit.pass_B and audit.pass_D and audit.pass_E
    assert audit.pass_C and audit.pass_A
    assert audit.passed
    # with p = 2 the tilt inequality holds with factor 2: margin equals psi,
    # minimized at the box corner r = 0.1, tau = 1
    expected = 0.5 * np.tanh(0.1)
    assert audit.diagnostics["min_B_margin"] == pytest.approx(expected, rel=1e-12)
    # audit soundness: a passing B flag means the sampled minimum is >= -1e-12
    assert audit.diagnostics["min_B_margin"] >= -1e-12


def test_sqrt_tilt_fails_B():
    audit = audit_structural(TiltPower(coef=1.0, q=0.5),
                             AuditBox(r_lo=0.1, r_hi=2.0, dim=2))
    assert not audit.pass_B
    assert audit.witnesses["B"], "a failing flag must carry a witness"
    # psi_tau tau = psi/2, so the worst margin is -psi/2 at the largest tau
    worst = audit.witnesses["B"][0]
    assert worst["margin"] < 0.0
    assert not audit.passed


def test_linear_tilt_boundary_case():
    # psi = tau: the tilt inequality holds with equality everywhere, but
    # psi/tau is constant so the growth surrogate must fail on zero slope
    audit = audit_structural(TiltPower(coef=1.0, q=1.0),
                             AuditBox(r_lo=0.1, r_hi=2.0, dim=2))
    assert audit.pass_B
    assert abs(audit.diagnostics["min_B_margin"]) <= 1e-12
    assert not audit.pass_C
    assert audit.witnesses["C"], "zero final slope needs a witness too"
    # the surrogate records how far in tau it looked
    assert audit.diagnostics["C_surrogate_tau_max"] == 20.0


def test_concave_in_tau_fails_E():
    audit = audit_structural(TiltConcave(), AuditBox(r_lo=0.1, r_hi=2.0,
                                                     tau_max=20.0, dim=2))
    assert not audit.pass_E
    # curvature in tau turns negative exactly past tau = 2
    assert all(w["tau"] > 2.0 for w in audit.witnesses["E"])


def test_constant_prescription_fails_lower_barrier():
    psi = ConstantPrescription(0.2)
    scan = scan_barriers(psi, AuditBox(r_lo=0.05, r_hi=2.0, dim=2,
                                       scan_resolution=300))
    assert not scan.found
    # near the origin the slice curvature tanh(r) sits below the constant
    assert scan.lo_margin[0] < 0.0
    audit = audit_structural(psi, AuditBox(r_lo=0.05, r_hi=2.0, dim=2))
    assert not audit.pass_A
    assert audit.witnesses["A"]


def test_scan_finds_closed_form_crossing():
    psi = SpaceTiltPower(a0=0.5, a1=0.0, p=2.0)
    res = 500
    scan = scan_barriers(psi, AuditBox(r_lo=0.1, r_hi=2.0, dim=2,
                                       scan_resolution=res))
    assert scan.found
    step = (2.0 - 0.1) / (res - 1)
    assert scan.R1 < R_STAR < scan.R2
    assert R_STAR - scan.R1 <= 2 * step
    assert scan.R2 - R_STAR <= 2 * step


def test_reference_slice_bracket_and_barriers():
    # the slice function x cosh^p(x) vanishes at 0 and exceeds 1 at x = 1,
    # so the reference prescription has barrier radii inside (0, 1]
    for p in (1.0, 1.5, 2.0, 3.0):
        assert 0.0 * np.cosh(0.0) ** p == 0.0
        assert 1.0 * np.cosh(1.0) ** p > 1.0
    scan = scan_barriers(ReferencePrescription(2.0),
                         AuditBox(r_lo=0.01, r_hi=1.0, dim=2,
                                  scan_resolution=400))
    assert scan.found
    assert 0.0 < scan.R1 < scan.R2 <= 1.0


def test_scan_range_validation():
    with pytest.raises(ValueError):
        AuditBox(r_lo=0.0, r_hi=1.0)
    with pytest.raises(ValueError):
        AuditBox(r_lo=1.0, r_hi=0.5)


def test_homotopy_endpoints_exact(rng):
    target = SpaceTiltPower(a0=0.5, a1=0.1, p=2.0)
    r = rng.uniform(0.3, 1.2, size=25)
    tau = rng.uniform(1.0, 4.0, size=25)
    xi = (rng.uniform(0, np.pi, size=25), rng.uniform(0, 2 * np.pi, size=25))
    ref = ReferencePrescription(2.0)
    at0 = HomotopyPrescription(target, 2.0).evaluate(0.0, r, xi, tau)
    assert np.array_equal(at0.psi, ref.evaluate(r, xi, tau).psi)
    at1 = HomotopyPrescription(target, 2.0).evaluate(1.0, r, xi, tau)
    assert np.array_equal(at1.psi, target.evaluate(r, xi, tau).psi)


def test_homotopy_halfway_hand_value():
    target = SpaceTiltPower(a0=0.5, a1=0.0, p=2.0)
    h = HomotopyPrescription(target, 2.0)
    r, tau = 0.8, 1.4
    got = h.evaluate(0.5, np.array(r), (np.array(0.3), np.array(0.1)),
                     np.array(tau)).psi
    expected = 0.5 * (0.5 * np.tanh(0.8) * 1.96) + 0.5 * (1.96 * 0.8 * np.tanh(0.8))
    assert got == pytest.approx(expected, rel=1e-15)


def test_homotopy_affine_in_t(rng):
    target = SpaceTiltPower(a0=0.5, a1=0.1, p=2.0)
    h = HomotopyPrescription(target, 2.0)
    r = rng.uniform(0.3, 1.2, size=15)
    tau = rng.uniform(1.0, 4.0, size=15)
    xi = (rng.uniform(0, np.pi, size=15), rng.uniform(0, 2 * np.pi, size=15))
    p0 = h.evaluate(0.0, r, xi, tau).psi
    p_half = h.evaluate(0.5, r, xi, tau).psi
    p1 = h.evaluate(1.0, r, xi, tau).psi
    # three-point collinearity
    assert np.allclose(p_half, 0.5 * (p0 + p1), rtol=1e-14, atol=1e-15)
    # slope in t is target minus reference
    slope = (h.evaluate(0.8, r, xi, tau).psi
             - h.evaluate(0.2, r, xi, tau).psi) / 0.6
    direct = (target.evaluate(r, xi, tau).psi
              - ReferencePrescription(2.0).evaluate(r, xi, tau).psi)
    assert np.allclose(slope, direct, rtol=1e-12, atol=1e-14)


def test_homotopy_rejects_nonpositive_graph():
    target = SpaceTiltPower(a0=0.5, a1=0.0, p=2.0)
    h = HomotopyPrescription(target, 2.0)
    with pytest.raises(ValueError):
        h.evaluate(0.5, np.array([0.5, -0.1]), (np.zeros(2),), np.ones(2))
    with pytest.raises(ValueError):
        h.evaluate(1.5, np.array([0.5, 0.6]), (np.zeros(2),), np.ones(2))


def test_prescription_registry_and_validation():
    psi = make_prescription("space_tilt_power", a0=0.6, a1=0.1, p=2.0)
    assert psi.describe()["params"]["a0"] == 0.6
    with pytest.raises(ValueError):
        make_prescription("nope")
    with pytest.raises(TypeError):
        make_prescription("constant", bogus=1.0)
    with pytest.raises(ValueError):
        SpaceTiltPower(a0=0.1, a1=0.2)
    with pytest.raises(ValueError):
        AuditBox(r_lo=0.0, r_hi=1.0)
    with pytest.raises(ValueError):
        AuditBox(r_lo=0.1, r_hi=1.0, tau_max=1.5)
