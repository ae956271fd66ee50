"""Prescription families, structural audits, barrier scans, homotopy."""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import dscurv.prescription
from dscurv import (AuditBox, ConstantPrescription, HomotopyPrescription,
                    ReferencePrescription, SpaceTiltPower, TiltConcave,
                    TiltPower, audit_structural, build_grid,
                    make_prescription, scan_barriers)
from dscurv.prescription import (_THRESHOLDS, D_CAP, MARGIN_TOL,
                                 WITNESS_COUNT, BarrierScan, Prescription,
                                 StructuralAudit, _lattice_blocks,
                                 sphere_lattice)

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

    assert len(ev.psi_xi) == dim
    for i, psi_xi in enumerate(ev.psi_xi):
        xi_hi = xi[:i] + (xi[i] + h,) + xi[i + 1:]
        xi_lo = xi[:i] + (xi[i] - h,) + xi[i + 1:]
        fd_xi = (psi.evaluate(r, xi_hi, tau).psi
                 - psi.evaluate(r, xi_lo, tau).psi) / (2 * h)
        assert np.max(np.abs(fd_xi - psi_xi) / scale) < rel


FAMILIES = (SpaceTiltPower(a0=0.5, a1=0.1, p=2.0), TiltPower(),
            ConstantPrescription(), TiltConcave(), ReferencePrescription())


@dataclass
class _RotatedTiltPower(Prescription):
    """SpaceTiltPower with the amplitude a0 + a1 <e, x>, e at polar angle
    alpha: on S^2 it depends on theta as well as phi."""

    name = "rotated_tilt_power"
    a0: float = 0.5
    a1: float = 0.1
    p: float = 2.0
    alpha: float = 0.7

    def _closed_form(self, r, xi, tau):
        a1, sa, ca = self.a1, np.sin(self.alpha), np.cos(self.alpha)
        if len(xi) == 1:
            amp = self.a0 + a1 * np.cos(xi[0] - self.alpha)
            amp_xi = (-a1 * np.sin(xi[0] - self.alpha),)
        else:
            phi, theta = xi
            amp = self.a0 + a1 * (sa * np.sin(phi) * np.cos(theta)
                                  + ca * np.cos(phi))
            amp_xi = (a1 * (sa * np.cos(phi) * np.cos(theta)
                            - ca * np.sin(phi)),
                      -a1 * sa * np.sin(phi) * np.sin(theta))
        p, tanh_r, tau_p = self.p, np.tanh(r), tau ** self.p
        return (amp * tanh_r * tau_p, amp * tau_p / np.cosh(r) ** 2,
                amp * tanh_r * p * tau ** (p - 1.0),
                amp * tanh_r * p * (p - 1.0) * tau ** (p - 2.0),
                tuple(a * tanh_r * tau_p for a in amp_xi))


@dataclass
class _PoleCap(Prescription):
    """psi = c tau^(1/2) with c = min(1, cos^2 xi_1 + 10 (r - 0.05)).  On
    the default S^2 box c = 1 at the poles at every radius but on the
    rings only from the second radius on, so the B, C and E witnesses are
    the two poles at r_lo, tied with a ring sample at the next radius."""

    name = "pole_cap"

    def _closed_form(self, r, xi, tau):
        raw = np.cos(xi[0]) ** 2 + 10.0 * (r - 0.05)
        c = np.minimum(1.0, raw)
        free = raw < 1.0
        root = np.sqrt(tau)
        return (c * root, np.where(free, 10.0, 0.0) * root, 0.5 * c / root,
                -0.25 * c / (root * tau),
                (np.where(free, -np.sin(2.0 * xi[0]), 0.0) * root,)
                + (0.0,) * (len(xi) - 1))


BLOCK_PROBES = (SpaceTiltPower(a0=0.5, a1=0.1, p=2.0), _RotatedTiltPower(),
                _PoleCap())


def _psi_fields(ev):
    return [ev.psi, ev.psi_r, ev.psi_tau, ev.psi_tautau, *ev.psi_xi]


def _assert_common_shape(ev, shape, dim):
    # each field is a float array at its closed form's own shape, and
    # every one broadcasts to the common shape of r, xi and tau
    assert len(ev.psi_xi) == dim
    for arr in _psi_fields(ev):
        assert isinstance(arr, np.ndarray) and arr.dtype == float
        assert np.broadcast_shapes(arr.shape, shape) == shape


@pytest.mark.parametrize("psi", FAMILIES + BLOCK_PROBES[1:],
                         ids=lambda psi: psi.name)
def test_every_psi_field_has_the_common_shape(psi):
    # the audit box: r, xi and tau on their own axes
    box = AuditBox(dim=2)
    xi = sphere_lattice(2, box.n_xi)
    r = np.linspace(box.r_lo, box.r_hi, box.n_r)[:, None, None]
    tau = np.linspace(1.0, box.tau_max, box.n_tau)[None, None, :]
    ev = psi.evaluate(r, tuple(c[None, :, None] for c in xi), tau)
    _assert_common_shape(ev, (box.n_r, xi[0].size, box.n_tau), 2)
    # the nodes of an S^1 and an S^2 grid
    for grid in (build_grid(1, 64), build_grid(2, (16, 32))):
        u = np.full(grid.shape, 0.8)
        ev = psi.evaluate(u, grid.coords(), np.cosh(u))
        _assert_common_shape(ev, grid.shape, grid.dim)


def test_derivative_self_consistency(rng):
    _fd_consistency(SpaceTiltPower(a0=0.5, a1=0.1, p=2.0), 2, rng)
    _fd_consistency(SpaceTiltPower(a0=0.7, a1=0.0, p=1.5), 1, rng)
    _fd_consistency(TiltPower(coef=1.0, q=0.5), 2, rng)
    _fd_consistency(TiltConcave(), 2, rng)
    _fd_consistency(ReferencePrescription(p=2.0), 2, rng)
    # a field that depends on theta: d psi/d xi_2 is not zero
    _fd_consistency(_RotatedTiltPower(), 1, rng)
    _fd_consistency(_RotatedTiltPower(), 2, rng)


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


@pytest.mark.parametrize("psi, failed", [
    (TiltPower(coef=1.0, q=300.0), {"A", "B", "C"}),
    (SpaceTiltPower(a0=0.5, a1=0.1, p=300.0), {"B", "C", "D"}),
], ids=["tilt_power", "space_tilt_power"])
def test_overflowed_margins_fail_their_conditions(psi, failed):
    # tau^300 overflows past tau = 10.7: there psi_tau tau - psi and the
    # differences of psi/tau along tau are inf - inf = NaN, while the
    # finite samples hold B with margin 299 psi; the audit expects the
    # overflow, so it warns of nothing
    audit = audit_structural(psi, AuditBox(dim=2))
    assert set(audit.witnesses) == failed and not audit.passed
    assert np.isnan(audit.diagnostics["min_B_margin"])
    # an overflowed sample ranks and is reported as margin -inf
    assert all(w["margin"] == -np.inf and w["tau"] > 10.7
               for w in audit.witnesses["B"])
    assert audit.witnesses["C"][0]["margin"] == -np.inf
    assert np.isnan(audit.constant_D) == ("D" in failed)


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


def test_scan_sees_the_poles():
    # a0 + a1 cos(phi) takes its extremes at the poles, so the trap radii
    # are the slice crossings acosh((a0 +- a1)^(-1/p)); ring midpoints
    # alone put R2 more than one radius step below its closed form
    a0, a1, p = 0.40731, 0.19759, 1.50587
    box = AuditBox(dim=2)
    scan = scan_barriers(SpaceTiltPower(a0=a0, a1=a1, p=p), box)
    assert scan.found
    step = (box.r_hi - box.r_lo) / (box.scan_resolution - 1)
    assert abs(scan.R1 - np.arccosh((a0 + a1) ** (-1.0 / p))) <= step
    assert abs(scan.R2 - np.arccosh((a0 - a1) ** (-1.0 / p))) <= step


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


@pytest.mark.parametrize("dim", (1, 2))
@pytest.mark.parametrize("psi", FAMILIES + BLOCK_PROBES[1:],
                         ids=lambda psi: psi.name)
def test_audit_and_scan_do_not_depend_on_the_slab_size(monkeypatch, psi, dim):
    box = AuditBox(dim=dim)
    results = []
    # one row per slab, the default, the whole box in one slab
    for budget in (1, dscurv.prescription.SLAB_ELEMENTS, 10 ** 9):
        monkeypatch.setattr(dscurv.prescription, "SLAB_ELEMENTS", budget)
        scan = scan_barriers(psi, box)
        results.append((audit_structural(psi, box).to_dict(), scan.R1,
                        scan.R2, scan.lo_margin.tobytes(),
                        scan.hi_margin.tobytes()))
    assert results[0] == results[1] == results[2]


def test_tied_witnesses_take_the_lowest_index():
    # psi = tau^(1/2) has the same B margin at every (r, xi) for a given
    # tau, most negative at tau_max
    box = AuditBox(dim=2)
    audit = audit_structural(TiltPower(coef=1.0, q=0.5), box)
    phi, theta = sphere_lattice(2, box.n_xi)
    assert audit.witnesses["B"] == [
        {"r": box.r_lo, "tau": box.tau_max, "xi_1": float(phi[i]),
         "xi_2": float(theta[i]), "margin": audit.diagnostics["min_B_margin"]}
        for i in range(3)]


def test_pole_witnesses_precede_tied_ring_samples_of_later_radii():
    # the poles are evaluated after every ring, yet at r_lo they come
    # before the ring samples of the second radius
    box = AuditBox(dim=2)
    audit = audit_structural(_PoleCap(), box)
    r_1 = float(np.linspace(box.r_lo, box.r_hi, box.n_r)[1])
    phi_0 = float(sphere_lattice(2, box.n_xi)[0][0])
    for key in ("B", "C", "E"):
        picks = audit.witnesses[key]
        assert [(w["r"], w["xi_1"], w["xi_2"]) for w in picks] == [
            (box.r_lo, 0.0, 0.0), (box.r_lo, np.pi, 0.0), (r_1, phi_0, 0.0)]
        assert len({w["margin"] for w in picks}) == 1


def _flat_audit_and_scan(psi, box):
    """Brute force: the audit and the scan over the flat sphere_lattice at
    full shape, as (audit.to_dict(), scan)."""
    xi = sphere_lattice(box.dim, box.n_xi)
    r = np.linspace(box.r_lo, box.r_hi, box.n_r)
    tau = np.linspace(1.0, box.tau_max, box.n_tau)
    rs = np.linspace(box.r_lo, box.r_hi, box.scan_resolution)
    ev = psi.evaluate(r[:, None, None], [c[:, None] for c in xi], tau)
    ratio = ev.psi / tau
    diffs = np.diff(ratio, axis=-1)
    scale = 1.0 + np.abs(ratio[..., :-1])
    monotone = np.min(diffs + MARGIN_TOL * scale, axis=-1)
    margins = {"positive": ev.psi, "B": ev.psi_tau * tau - ev.psi,
               "E": ev.psi_tautau,
               "C": np.minimum(monotone, diffs[..., -1])[..., None]}
    d = np.max([np.max(np.abs(c) / ev.psi) for c in (ev.psi_r, *ev.psi_xi)])
    vals = psi.evaluate(rs[:, None], xi, np.cosh(rs)[:, None]).psi
    witnesses = {}
    for key, m in margins.items():
        if m.min() > _THRESHOLDS[key]:
            continue
        flat = np.where(np.isnan(m), -np.inf, m).ravel()
        picks = witnesses[key] = []
        for i in np.argsort(flat, kind="stable")[:WITNESS_COUNT]:
            if flat[i] <= _THRESHOLDS[key]:
                i_r, i_xi, i_tau = np.unravel_index(i, m.shape)
                picks.append({"r": r[i_r], "tau": tau[i_tau],
                              "margin": flat[i],
                              **{f"xi_{k + 1}": c[i_xi]
                                 for k, c in enumerate(xi)}})
    constant_d = np.inf if "positive" in witnesses else d
    if not constant_d <= D_CAP:
        witnesses["D"] = [{"constant_D": constant_d, "cap": D_CAP}]
    lo, hi = np.tanh(rs) - vals.max(axis=1), vals.min(axis=1) - np.tanh(rs)
    # how many leading radii hold lo > 0, and how many trailing ones hi > 0
    n_1 = np.argmin(np.append(lo > 0, False))
    n_2 = np.argmin(np.append(hi[::-1] > 0, False))
    found = n_1 and n_2 and rs[n_1 - 1] < rs[-n_2]
    scan = BarrierScan(rs[n_1 - 1] if found else None,
                       rs[-n_2] if found else None, rs, lo, hi)
    if not found:
        witnesses["A"] = [{"sign_pattern": scan.sign_pattern()}]
    diagnostics = {"min_B_margin": margins["B"].min(),
                   "min_E_value": margins["E"].min(),
                   "C_surrogate_tau_max": box.tau_max,
                   "min_psi": margins["positive"].min()}
    return StructuralAudit(box, constant_d, scan, witnesses,
                           diagnostics).to_dict(), scan


@pytest.mark.parametrize("dim", (1, 2))
@pytest.mark.parametrize("psi", BLOCK_PROBES, ids=lambda psi: psi.name)
def test_audit_and_scan_match_the_flat_lattice(psi, dim):
    for extra in ({}, {"n_xi": 7, "n_r": 5},
                  {"r_lo": 1e-7, "n_r": 7, "n_tau": 9}):
        box = AuditBox(dim=dim, **extra)
        audit, scan = _flat_audit_and_scan(psi, box)
        assert audit_structural(psi, box).to_dict() == audit
        got = scan_barriers(psi, box)
        assert (got.R1, got.R2) == (scan.R1, scan.R2)
        assert got.lo_margin.tobytes() == scan.lo_margin.tobytes()
        assert got.hi_margin.tobytes() == scan.hi_margin.tobytes()


@pytest.mark.parametrize("n_xi", (1, 2, 7, 24, 25))
def test_sphere_lattice_is_its_blocks_in_order(n_xi):
    n_phi = max(6, n_xi // 2)
    phi = (np.arange(n_phi) + 0.5) * np.pi / n_phi
    theta = 2.0 * np.pi * np.arange(n_xi) / n_xi
    assert np.array_equal(sphere_lattice(1, n_xi)[0], theta)
    lattice = sphere_lattice(2, n_xi)
    assert lattice[0].size == n_phi * n_xi + 2
    assert np.array_equal(lattice[0], np.append(np.repeat(phi, n_xi),
                                                (0.0, np.pi)))
    assert np.array_equal(lattice[1], np.append(np.tile(theta, n_phi),
                                                (0.0, 0.0)))
    for dim in (1, 2):
        flat = sphere_lattice(dim, n_xi)
        end = 0
        for offset, xi in _lattice_blocks(dim, n_xi):
            points = np.broadcast_arrays(*xi)
            assert offset == end and len(points) == dim
            end += points[0].size
            for c, whole in zip(points, flat):
                assert np.array_equal(c.ravel(), whole[offset:end])
        assert end == flat[0].size


class _TiltShift(Prescription):
    """psi = tau - 2: a tau-line that is not positive for tau <= 2."""

    name = "tilt_shift"

    def _closed_form(self, r, xi, tau):
        return tau - 2.0, 0.0, 1.0, 0.0, (0.0,) * len(xi)


class _FullBox(Prescription):
    """A family whose closed form copies every field out to the common
    shape of the samples, so the audit reduces it over the full box."""

    def __init__(self, inner):
        self.inner = inner

    def _closed_form(self, r, xi, tau):
        shape = np.broadcast_shapes(r.shape, tau.shape, *(c.shape for c in xi))

        def full(a):
            return np.broadcast_to(a, shape).copy()

        *parts, psi_xi = self.inner._closed_form(r, xi, tau)
        return (*map(full, parts), tuple(map(full, psi_xi)))


def test_audit_at_natural_shape_matches_the_full_box():
    # the default box, and one reaching r = 1e-7, where psi_r / psi ~ 1/r
    # breaks the D cap of the families that vanish at r = 0
    boxes = [AuditBox(dim=dim, **extra) for dim in (1, 2)
             for extra in ({}, {"r_lo": 1e-7, "n_r": 7, "n_tau": 9})]
    failed = set()
    for psi in FAMILIES + (_TiltShift(),):
        for box in boxes:
            audit = audit_structural(psi, box).to_dict()
            assert audit == audit_structural(_FullBox(psi), box).to_dict()
            failed.update(audit["witnesses"])
    assert failed == {"positive", "A", "B", "C", "D", "E"}


@pytest.mark.parametrize("dim", (1, 2))
def test_constant_D_reads_the_xi_derivative(dim):
    # away from r = 0, |d psi/d xi_1| / psi = a1 |sin xi_1| / (a0 + a1 cos xi_1)
    # exceeds |psi_r| / psi = 2 / sinh(2 r) <= 0.2
    a0, a1 = 0.5, 0.45
    box = AuditBox(r_lo=1.5, r_hi=2.0, dim=dim)
    xi_1 = sphere_lattice(dim, box.n_xi)[0]
    expected = np.max(a1 * np.abs(np.sin(xi_1)) / (a0 + a1 * np.cos(xi_1)))
    audit = audit_structural(SpaceTiltPower(a0, a1, 2.0), box)
    assert audit.constant_D == pytest.approx(expected, rel=1e-12)


def _traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("psi", (SpaceTiltPower(0.5, 0.1, 2.0), TiltPower(),
                                 ConstantPrescription(), TiltConcave()),
                         ids=lambda psi: psi.name)
def test_audit_and_scan_allocate_bounded_memory(psi):
    # the default S^2 box holds 40 x 290 x 40 samples, 3.7 MB per field
    box = AuditBox(dim=2)
    assert _traced_peak_mb(audit_structural, psi, box) <= 5.0
    assert _traced_peak_mb(scan_barriers, psi, box) <= 2.5


def test_zonal_audit_and_scan_allocate_one_value_per_ring():
    # a zonal field is evaluated at shape (rows, n_phi, 1, n_tau) on the
    # rings; at all 24 longitudes the audit peaked at 3.24 MB, the scan at
    # 1.64 MB
    psi, box = SpaceTiltPower(0.5, 0.1, 2.0), AuditBox(dim=2)
    assert _traced_peak_mb(audit_structural, psi, box) <= 0.5
    assert _traced_peak_mb(scan_barriers, psi, box) <= 0.25


@pytest.mark.parametrize("psi", (TiltPower(), ConstantPrescription(),
                                 TiltConcave()), ids=lambda psi: psi.name)
def test_audit_of_a_tilt_only_field_allocates_one_slab_of_tau_lines(psi):
    # fields that depend on tau alone are reduced at shape (1, 1, n_tau);
    # reducing them over the full slab peaks at 1.24 MB
    assert _traced_peak_mb(audit_structural, psi, AuditBox(dim=2)) <= 0.6


def test_scan_range_validation():
    with pytest.raises(ValueError):
        AuditBox(r_lo=0.0, r_hi=1.0)
    with pytest.raises(ValueError):
        AuditBox(r_lo=1.0, r_hi=0.5)


@pytest.mark.parametrize("name", ["dim", "n_r", "n_xi", "n_tau",
                                  "scan_resolution"])
def test_audit_box_counts_must_be_integers(name):
    # n_r = 2.5 used to fail inside np.linspace
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        AuditBox(**{name: 2.5})


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


def test_homotopy_fields_are_the_public_fields_combined(rng):
    target = SpaceTiltPower(a0=0.5, a1=0.1, p=2.0)
    h = HomotopyPrescription(target, 2.0)
    r = rng.uniform(0.3, 1.2, size=(6, 8))
    tau = np.cosh(r) + rng.uniform(0.0, 1.0, size=r.shape)
    xi = (rng.uniform(0, np.pi, size=r.shape),
          rng.uniform(0, 2 * np.pi, size=r.shape))
    tv = target.evaluate(r, xi, tau)
    rv = ReferencePrescription(2.0).evaluate(r, xi, tau)
    for t in (0.0, 0.3, 0.7, 1.0):
        ev = h.evaluate(t, r, xi, tau)
        for name in ("psi", "psi_r", "psi_tau"):
            expected = t * getattr(tv, name) + (1.0 - t) * getattr(rv, name)
            assert getattr(ev, name).tobytes() == expected.tobytes()
        # the solver reads no other field
        assert ev.psi_tautau is None and ev.psi_xi is None


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
