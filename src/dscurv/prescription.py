"""Prescription functions psi(x, tau), structural audits, and barriers.

A prescription assigns the target curvature value to each point of the
ambient space and each tilt value.  Points are addressed by the radial
coordinate r and intrinsic sphere coordinates xi (theta on S^1,
(phi, theta) on S^2).  Every prescription reports analytic first and
second derivatives; the family is small and closed form, so no
automatic differentiation layer is used.

The structural audit samples a compact box [R_lo, R_hi] x S^n x
[1, tau_max] and checks, per sample:

  B  psi_tau * tau >= psi                 (differential inequality)
  C  psi / tau increasing in tau          (finite-sample surrogate for
                                           the tau -> infinity growth)
  D  |d psi / d x^i| <= C * psi           (reports the empirical C)
  E  psi_tautau >= 0                      (convexity in tau)

plus strict positivity of psi; condition A (barriers) is delegated to
the slice scan, which looks for radii R1 < R2 with

  tanh(r) > psi(r, xi, cosh r)  for scanned r <= R1 and
  tanh(r) < psi(r, xi, cosh r)  for scanned r >= R2

at every sampled xi.  tanh(r) is the curvature of the umbilic slice of
radius r, so these inequalities trap solutions between the two radii.
"""

from dataclasses import dataclass, field

import numpy as np

MARGIN_TOL = 1e-12

# Condition D fails when the empirical constant C exceeds this cap.
D_CAP = 1e6


@dataclass
class PsiEval:
    """Value and partial derivatives of a prescription at sample points.

    psi_xi holds one array per intrinsic sphere coordinate, each
    broadcastable against psi.
    """

    psi: np.ndarray
    psi_r: np.ndarray
    psi_tau: np.ndarray
    psi_tautau: np.ndarray
    psi_xi: tuple


class Prescription:
    """Base class: named, parametrized, immutable, pure evaluate()."""

    name = "prescription"

    def __init__(self, **params):
        self.params = dict(params)

    def evaluate(self, r, xi, tau):
        raise NotImplementedError

    def describe(self):
        return {"name": self.name, "params": dict(self.params)}


class SpaceTiltPower(Prescription):
    """Model family a(xi) * tanh(r) * tau^p with a = a0 + a1 cos(xi_1).

    Smooth and positive for a0 > |a1|; vanishes at r = 0 so the lower
    slice inequality holds near the origin, and for p > 1 the tilt
    inequalities hold with margin (psi_tau tau = p psi).
    """

    name = "space_tilt_power"

    def __init__(self, a0=0.5, a1=0.0, p=2.0):
        if a0 <= abs(a1):
            raise ValueError("need a0 > |a1| for a positive amplitude")
        if p <= 0:
            raise ValueError("tilt power p must be positive")
        super().__init__(a0=float(a0), a1=float(a1), p=float(p))
        self.a0, self.a1, self.p = float(a0), float(a1), float(p)

    def evaluate(self, r, xi, tau):
        r = np.asarray(r, dtype=float)
        tau = np.asarray(tau, dtype=float)
        c1 = np.cos(np.asarray(xi[0], dtype=float))
        amp = self.a0 + self.a1 * c1
        p = self.p
        tanh_r = np.tanh(r)
        tau_p = tau ** p
        psi = amp * tanh_r * tau_p
        psi_r = amp * tau_p / np.cosh(r) ** 2
        psi_tau = amp * tanh_r * p * tau ** (p - 1.0)
        psi_tautau = amp * tanh_r * p * (p - 1.0) * tau ** (p - 2.0)
        dxi1 = -self.a1 * np.sin(np.asarray(xi[0], dtype=float)) * tanh_r * tau_p
        psi_xi = (dxi1,) + tuple(np.zeros(()) for _ in xi[1:])
        psi_xi = tuple(np.broadcast_arrays(c, psi)[0] for c in psi_xi)
        return PsiEval(psi, psi_r, psi_tau, psi_tautau, psi_xi)


class TiltPower(Prescription):
    """coef * tau^q; violates the tilt inequality for q < 1."""

    name = "tilt_power"

    def __init__(self, coef=1.0, q=0.5):
        if coef <= 0:
            raise ValueError("coef must be positive")
        super().__init__(coef=float(coef), q=float(q))
        self.coef, self.q = float(coef), float(q)

    def evaluate(self, r, xi, tau):
        r = np.asarray(r, dtype=float)
        tau = np.asarray(tau, dtype=float)
        q = self.q
        psi = self.coef * tau ** q
        zeros = np.zeros(np.broadcast_shapes(r.shape, psi.shape))
        psi = np.broadcast_to(psi, zeros.shape).copy()
        return PsiEval(
            psi,
            zeros,
            self.coef * q * tau ** (q - 1.0) + zeros,
            self.coef * q * (q - 1.0) * tau ** (q - 2.0) + zeros,
            (zeros,) * len(xi),
        )


class ConstantPrescription(Prescription):
    """psi = const; fails the lower slice inequality near r = 0."""

    name = "constant"

    def __init__(self, value=0.2):
        if value <= 0:
            raise ValueError("value must be positive")
        super().__init__(value=float(value))
        self.value = float(value)

    def evaluate(self, r, xi, tau):
        shape = np.broadcast_shapes(np.shape(r), np.shape(tau))
        zeros = np.zeros(shape)
        return PsiEval(zeros + self.value, zeros, zeros, zeros, (zeros,) * len(xi))


class TiltConcave(Prescription):
    """psi = tau (2 - exp(-tau)); psi_tautau = (2 - tau) e^{-tau} turns
    negative past tau = 2, violating convexity on any box reaching there."""

    name = "tilt_concave"

    def __init__(self):
        super().__init__()

    def evaluate(self, r, xi, tau):
        tau = np.asarray(tau, dtype=float)
        e = np.exp(-tau)
        psi = tau * (2.0 - e)
        shape = np.broadcast_shapes(np.shape(r), psi.shape)
        zeros = np.zeros(shape)
        return PsiEval(
            np.broadcast_to(psi, shape).copy(),
            zeros,
            np.broadcast_to(2.0 - e + tau * e, shape).copy(),
            np.broadcast_to((2.0 - tau) * e, shape).copy(),
            (zeros,) * len(xi),
        )


class ReferencePrescription(Prescription):
    """Exactly solvable endpoint tau^p * u * tanh(u) of the deformation.

    The umbilic slice u = lam with lam cosh^p(lam) = 1 solves the
    curvature equation for this prescription in closed form.
    """

    name = "reference_power"

    def __init__(self, p=2.0):
        if p < 1.0:
            raise ValueError("reference power p must be >= 1")
        super().__init__(p=float(p))
        self.p = float(p)

    def evaluate(self, r, xi, tau):
        u = np.asarray(r, dtype=float)
        tau = np.asarray(tau, dtype=float)
        p = self.p
        tanh_u = np.tanh(u)
        tau_p = tau ** p
        psi = tau_p * u * tanh_u
        psi_r = tau_p * (tanh_u + u / np.cosh(u) ** 2)
        psi_tau = p * tau ** (p - 1.0) * u * tanh_u
        psi_tautau = p * (p - 1.0) * tau ** (p - 2.0) * u * tanh_u
        shape = np.broadcast_shapes(psi.shape, np.shape(tau))
        zeros = np.zeros(shape)
        return PsiEval(psi + zeros, psi_r + zeros, psi_tau + zeros,
                       psi_tautau + zeros, (zeros,) * len(xi))


PRESCRIPTIONS = {
    cls.name: cls
    for cls in (SpaceTiltPower, TiltPower, ConstantPrescription, TiltConcave,
                ReferencePrescription)
}


def make_prescription(name, **params):
    try:
        cls = PRESCRIPTIONS[name]
    except KeyError:
        raise ValueError(f"unknown prescription {name!r}; "
                         f"choices: {sorted(PRESCRIPTIONS)}")
    return cls(**params)


class HomotopyPrescription:
    """Convex deformation t * target + (1 - t) * reference.

    At t = 0 this is exactly the solvable reference prescription, at
    t = 1 exactly the target; all derivative components are affine in t.
    The reference depends on the graph value u, which coincides with r
    on the graph itself.
    """

    def __init__(self, target, p=2.0):
        self.target = target
        self.p = float(p)
        self.reference = ReferencePrescription(p)

    def evaluate(self, t, r, xi, tau):
        """PsiEval of the deformation at homotopy parameter t in [0, 1]."""
        if not 0.0 <= t <= 1.0:
            raise ValueError("homotopy parameter t must lie in [0, 1]")
        u = np.asarray(r, dtype=float)
        if np.any(u <= 0.0):
            raise ValueError("graph value must be positive for an admissible graph")
        tv = self.target.evaluate(r, xi, tau)
        rv = self.reference.evaluate(u, xi, tau)
        s = 1.0 - t
        return PsiEval(
            t * tv.psi + s * rv.psi,
            t * tv.psi_r + s * rv.psi_r,
            t * tv.psi_tau + s * rv.psi_tau,
            t * tv.psi_tautau + s * rv.psi_tautau,
            tuple(t * c for c in tv.psi_xi),
        )


# -- sampling lattices -------------------------------------------------

def sphere_lattice(dim, n_xi):
    """Flat tuple of coordinate sample arrays covering S^dim."""
    if dim == 1:
        return (2.0 * np.pi * np.arange(n_xi) / n_xi,)
    n_phi = max(6, n_xi // 2)
    phi = (np.arange(n_phi) + 0.5) * np.pi / n_phi
    theta = 2.0 * np.pi * np.arange(n_xi) / n_xi
    pm, tm = np.meshgrid(phi, theta, indexing="ij")
    return (pm.ravel(), tm.ravel())


@dataclass
class AuditBox:
    """Sampling box for the structural audit: n_r radii in [r_lo, r_hi],
    n_xi sphere samples (sphere_lattice), n_tau tilts in [1, tau_max],
    and scan_resolution radii for the barrier scan."""

    r_lo: float = 0.05
    r_hi: float = 2.0
    tau_max: float = 20.0
    dim: int = 2
    n_r: int = 40
    n_xi: int = 24
    n_tau: int = 40
    scan_resolution: int = 400

    def __post_init__(self):
        if self.r_lo <= 0.0 or self.r_hi <= self.r_lo:
            raise ValueError("need 0 < r_lo < r_hi")
        if self.tau_max < 2.0:
            raise ValueError("tau_max must be at least 2")
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        # C differences psi/tau along tau; R1 < R2 needs two scan radii
        for name, least in (("n_r", 1), ("n_xi", 1), ("n_tau", 2),
                            ("scan_resolution", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")


@dataclass
class BarrierScan:
    """Result of the slice-inequality scan."""

    found: bool
    R1: float = None
    R2: float = None
    r_values: np.ndarray = None
    lo_margin: np.ndarray = None   # tanh(r) - max_xi psi(r, xi, cosh r)
    hi_margin: np.ndarray = None   # min_xi psi(r, xi, cosh r) - tanh(r)

    def sign_pattern(self):
        """String per lattice point: '<' below, '>' above, '0' mixed."""
        marks = []
        for lo, hi in zip(self.lo_margin, self.hi_margin):
            marks.append("<" if lo > 0 else (">" if hi > 0 else "0"))
        return "".join(marks)


def scan_barriers(psi, r_range, resolution=400, dim=2, n_xi=24):
    """Scan for trap radii R1 < R2 on a lattice over r_range.

    Returns the largest R1 and smallest R2 such that the strict slice
    inequalities hold at every scanned radius on the respective side
    and every sampled xi; found=False (with the margin arrays for
    diagnosis) when no such pair exists.
    """
    r_lo, r_hi = r_range
    if r_lo <= 0.0 or r_hi <= r_lo:
        raise ValueError("scan range must satisfy 0 < r_lo < r_hi")
    r = np.linspace(r_lo, r_hi, resolution)
    xi = sphere_lattice(dim, n_xi)
    xi_cols = tuple(c[None, :] for c in xi)
    rr = r[:, None]
    ev = psi.evaluate(rr, xi_cols, np.cosh(rr))
    vals = np.broadcast_to(ev.psi, (resolution, xi[0].size))
    tanh_r = np.tanh(r)
    lo_margin = tanh_r - vals.max(axis=1)
    hi_margin = vals.min(axis=1) - tanh_r
    lo_ok = lo_margin > 0.0
    hi_ok = hi_margin > 0.0
    lo_prefix = np.cumprod(lo_ok)          # 1 while all scanned r' <= r pass
    hi_suffix = np.cumprod(hi_ok[::-1])[::-1]
    r1_idx = np.flatnonzero(lo_prefix)
    r2_idx = np.flatnonzero(hi_suffix)
    if r1_idx.size and r2_idx.size and r[r1_idx[-1]] < r[r2_idx[0]]:
        return BarrierScan(True, float(r[r1_idx[-1]]), float(r[r2_idx[0]]),
                           r, lo_margin, hi_margin)
    return BarrierScan(False, None, None, r, lo_margin, hi_margin)


@dataclass
class StructuralAudit:
    """Outcome of the structural audit over a sample box."""

    box: AuditBox
    positive: bool
    pass_A: bool
    pass_B: bool
    pass_C: bool
    pass_D: bool
    pass_E: bool
    constant_D: float
    barriers: tuple = None
    witnesses: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def passed(self):
        return (self.positive and self.pass_A and self.pass_B
                and self.pass_C and self.pass_D and self.pass_E)

    def to_dict(self):
        return {
            "passed": self.passed,
            "positive": self.positive,
            "A_barriers": self.pass_A,
            "B_tilt_inequality": self.pass_B,
            "C_growth_surrogate": self.pass_C,
            "D_space_derivative": self.pass_D,
            "E_tilt_convexity": self.pass_E,
            "constant_D": self.constant_D,
            "barriers": list(self.barriers) if self.barriers else None,
            "witnesses": self.witnesses,
            "diagnostics": self.diagnostics,
        }


def _worst_witnesses(margin, grids, count=3, threshold=-MARGIN_TOL):
    """Up to `count` worst samples with margin <= threshold."""
    flat = margin.ravel()
    order = np.argsort(flat)
    picks = []
    for idx in order[:count]:
        if flat[idx] > threshold:
            break
        loc = np.unravel_index(idx, margin.shape)
        sample = {key: float(arr[loc]) for key, arr in grids.items()}
        sample["margin"] = float(flat[idx])
        picks.append(sample)
    return picks


def audit_structural(psi, box):
    """Audit conditions B-E pointwise over the box, delegate A to the
    barrier scan, and report the empirical derivative constant for D.

    C is checked as a finite surrogate (monotone growth of psi/tau up
    to tau_max with a positive final slope) and flagged as such in the
    diagnostics; the solver only visits tilts below its monitor bound,
    so the surrogate is the operative condition.
    """
    r = np.linspace(box.r_lo, box.r_hi, box.n_r)
    tau = np.linspace(1.0, box.tau_max, box.n_tau)
    xi = sphere_lattice(box.dim, box.n_xi)
    R = r[:, None, None]
    TAU = tau[None, None, :]
    XI = tuple(c[None, :, None] for c in xi)
    ev = psi.evaluate(R, XI, TAU)
    full = np.broadcast_shapes(ev.psi.shape, (box.n_r, xi[0].size, box.n_tau))
    vals = np.broadcast_to(ev.psi, full)
    grids = {"r": np.broadcast_to(R, full),
             "tau": np.broadcast_to(TAU, full)}
    for name, c in zip(("xi_1", "xi_2"), XI):
        grids[name] = np.broadcast_to(c, full)

    witnesses = {}
    positive = bool(vals.min() > 0.0)
    if not positive:
        witnesses["positive"] = _worst_witnesses(vals, grids, threshold=0.0)

    margin_b = np.broadcast_to(ev.psi_tau, full) * grids["tau"] - vals
    pass_b = bool(margin_b.min() >= -MARGIN_TOL)
    if not pass_b:
        witnesses["B"] = _worst_witnesses(margin_b, grids)

    margin_e = np.broadcast_to(ev.psi_tautau, full)
    pass_e = bool(margin_e.min() >= -MARGIN_TOL)
    if not pass_e:
        witnesses["E"] = _worst_witnesses(margin_e, grids)

    if positive:
        comps = [np.abs(np.broadcast_to(ev.psi_r, full))]
        comps += [np.abs(np.broadcast_to(c, full)) for c in ev.psi_xi]
        constant_d = float(max(np.max(c / vals) for c in comps))
    else:
        constant_d = float("inf")
    pass_d = bool(np.isfinite(constant_d) and constant_d <= D_CAP)
    if not pass_d:
        witnesses["D"] = [{"constant_D": constant_d, "cap": D_CAP}]

    ratio = vals / grids["tau"]
    diffs = np.diff(ratio, axis=-1)
    scale = 1.0 + np.abs(ratio[..., :-1])
    monotone_margin = np.min(diffs + MARGIN_TOL * scale, axis=-1)
    final_slope = diffs[..., -1]
    # per-(r, xi) margin: negative iff psi/tau dips, zero-or-negative iff
    # it also fails to keep growing at tau_max
    c_margin = np.minimum(monotone_margin, final_slope)
    pass_c = bool(monotone_margin.min() >= 0.0) and bool(final_slope.min() > 0.0)
    if not pass_c:
        witnesses["C"] = _worst_witnesses(
            c_margin, {k: v[..., 0] for k, v in grids.items()}, threshold=0.0)

    scan = scan_barriers(psi, (box.r_lo, box.r_hi), box.scan_resolution,
                         box.dim, box.n_xi)
    pass_a = scan.found
    if not pass_a:
        witnesses["A"] = [{"sign_pattern": scan.sign_pattern()}]

    return StructuralAudit(
        box=box,
        positive=positive,
        pass_A=pass_a, pass_B=pass_b, pass_C=pass_c,
        pass_D=pass_d, pass_E=pass_e,
        constant_D=constant_d,
        barriers=(scan.R1, scan.R2) if scan.found else None,
        witnesses=witnesses,
        diagnostics={
            "min_B_margin": float(margin_b.min()),
            "min_E_value": float(margin_e.min()),
            "C_surrogate_tau_max": box.tau_max,
            "min_psi": float(vals.min()),
        },
    )
