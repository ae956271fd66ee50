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

A condition fails exactly when the audit holds witnesses for it: the
samples with the lowest margins, the empirical constant for D, or the
scan's sign pattern for A.  A NaN margin (an overflowed closed form)
fails its condition, and so does a NaN constant for D.  Prescriptions
and audit boxes refuse non-finite parameters.

Each radius is independent of the others, so the audit and the scan
evaluate their boxes one slab of radii (about SLAB_ELEMENTS samples) at
a time and reduce as they go: running minima and maxima, and each
condition's worst samples.  Their memory is that of one slab (at least
one radius), not of the box.  The sphere lattice comes in blocks of
coordinate axes (on S^2 the rings, phi down one axis and theta along
the next, then the two poles), and each field is reduced at its closed
form's broadcast shape: a field zonal in phi costs one value per ring,
and one that depends on neither r nor xi one tau-line per slab.
"""

import math
import operator
from dataclasses import asdict, dataclass, field, fields

import numpy as np

MARGIN_TOL = 1e-12

# Condition D fails when the empirical constant C exceeds this cap.
D_CAP = 1e6

# Most samples the audit and the barrier scan evaluate at a time (a slab
# holds at least one radius).  Slabs of 2^14-2^15 samples timed fastest
# on the default S^1 and S^2 audit boxes (Xeon, 2 MB L2 per core); the
# temporaries of a larger slab no longer fit in L2.
SLAB_ELEMENTS = 2 ** 15


def _check_numbers(obj):
    """Raise ValueError naming the first field of the dataclass obj that
    is not a finite number or, for a field declared int, not an integer:
    NaN passes every ``x <= bound`` test, and 2.5 every bound on a count,
    to fail later inside numpy or range()."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type is int:
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(
                    f"{f.name} must be an integer, got {value!r}") from None
        elif not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass
class PsiEval:
    """Value and partial derivatives of a prescription at sample points,
    each a float array at its closed form's own shape (a scalar for a
    term that vanishes); all broadcast together to the common shape of
    r, xi and tau.  psi_xi holds d psi/d xi_i, one array per coordinate
    of xi.  The homotopy leaves psi_tautau and psi_xi unset (None): the
    solver reads only psi, psi_r and psi_tau."""

    psi: np.ndarray
    psi_r: np.ndarray
    psi_tau: np.ndarray
    psi_tautau: np.ndarray = None
    psi_xi: tuple = None


@dataclass
class Prescription:
    """Base class: a named family whose dataclass fields are its float
    parameters, with a pure evaluate().

    A family implements _check() (validate the fields) and
    _closed_form(r, xi, tau), which returns psi, psi_r, psi_tau,
    psi_tautau and the tuple of d psi/d xi_i, one entry per coordinate
    of xi, in any shapes that broadcast together (scalars for the terms
    that vanish).  evaluate() is its one reader.
    """

    name = "prescription"

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, float(getattr(self, f.name)))
        _check_numbers(self)
        self._check()

    def _check(self):
        pass

    def evaluate(self, r, xi, tau):
        """PsiEval at the sample points, each field at its closed form's
        own shape."""
        *parts, psi_xi = self._closed_form(
            np.asarray(r, dtype=float),
            tuple(np.asarray(c, dtype=float) for c in xi),
            np.asarray(tau, dtype=float))
        return PsiEval(*(np.asarray(a, dtype=float) for a in parts),
                       tuple(np.asarray(a, dtype=float) for a in psi_xi))

    def describe(self):
        return {"name": self.name, "params": asdict(self)}


@dataclass
class SpaceTiltPower(Prescription):
    """Model family a(xi) * tanh(r) * tau^p with a = a0 + a1 cos(xi_1).

    Smooth and positive for a0 > |a1|; vanishes at r = 0 so the lower
    slice inequality holds near the origin, and for p > 1 the tilt
    inequalities hold with margin (psi_tau tau = p psi).
    """

    name = "space_tilt_power"
    a0: float = 0.5
    a1: float = 0.0
    p: float = 2.0

    def _check(self):
        if self.a0 <= abs(self.a1):
            raise ValueError("need a0 > |a1| for a positive amplitude")
        if self.p <= 0:
            raise ValueError("tilt power p must be positive")

    def _closed_form(self, r, xi, tau):
        amp = self.a0 + self.a1 * np.cos(xi[0])
        p = self.p
        tanh_r = np.tanh(r)
        tau_p = tau ** p
        return (amp * tanh_r * tau_p,
                amp * tau_p / np.cosh(r) ** 2,
                amp * tanh_r * p * tau ** (p - 1.0),
                amp * tanh_r * p * (p - 1.0) * tau ** (p - 2.0),
                (-self.a1 * np.sin(xi[0]) * tanh_r * tau_p,)
                + (0.0,) * (len(xi) - 1))


@dataclass
class TiltPower(Prescription):
    """coef * tau^q; violates the tilt inequality for q < 1."""

    name = "tilt_power"
    coef: float = 1.0
    q: float = 0.5

    def _check(self):
        if self.coef <= 0:
            raise ValueError("coef must be positive")

    def _closed_form(self, r, xi, tau):
        q = self.q
        return (self.coef * tau ** q, 0.0,
                self.coef * q * tau ** (q - 1.0),
                self.coef * q * (q - 1.0) * tau ** (q - 2.0), (0.0,) * len(xi))


@dataclass
class ConstantPrescription(Prescription):
    """psi = const; fails the lower slice inequality near r = 0."""

    name = "constant"
    value: float = 0.2

    def _check(self):
        if self.value <= 0:
            raise ValueError("value must be positive")

    def _closed_form(self, r, xi, tau):
        return self.value, 0.0, 0.0, 0.0, (0.0,) * len(xi)


@dataclass
class TiltConcave(Prescription):
    """psi = tau (2 - exp(-tau)); psi_tautau = (2 - tau) e^{-tau} turns
    negative past tau = 2, violating convexity on any box reaching there."""

    name = "tilt_concave"

    def _closed_form(self, r, xi, tau):
        e = np.exp(-tau)
        return (tau * (2.0 - e), 0.0, 2.0 - e + tau * e, (2.0 - tau) * e,
                (0.0,) * len(xi))


@dataclass
class ReferencePrescription(Prescription):
    """Exactly solvable endpoint tau^p * u * tanh(u) of the deformation.

    The umbilic slice u = lam with lam cosh^p(lam) = 1 solves the
    curvature equation for this prescription in closed form.
    """

    name = "reference_power"
    p: float = 2.0

    def _check(self):
        if self.p < 1.0:
            raise ValueError("reference power p must be >= 1")

    def _closed_form(self, u, xi, tau):
        p = self.p
        tanh_u = np.tanh(u)
        tau_p = tau ** p
        return (tau_p * u * tanh_u,
                tau_p * (tanh_u + u / np.cosh(u) ** 2),
                p * tau ** (p - 1.0) * u * tanh_u,
                p * (p - 1.0) * tau ** (p - 2.0) * u * tanh_u,
                (0.0,) * len(xi))


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
        """PsiEval of the deformation at homotopy parameter t in [0, 1]:
        psi, psi_r and psi_tau, which broadcast together."""
        if not 0.0 <= t <= 1.0:
            raise ValueError("homotopy parameter t must lie in [0, 1]")
        u = np.asarray(r, dtype=float)
        if np.any(u <= 0.0):
            raise ValueError("graph value must be positive for an admissible graph")
        a = self.target.evaluate(u, xi, tau)
        b = self.reference.evaluate(u, xi, tau)
        s = 1.0 - t
        return PsiEval(t * a.psi + s * b.psi, t * a.psi_r + s * b.psi_r,
                       t * a.psi_tau + s * b.psi_tau)


# -- sampling lattices -------------------------------------------------

def _lattice_blocks(dim, n_xi):
    """The sphere lattice as blocks of coordinate axes, each a pair
    (offset, xi): xi holds one coordinate array per intrinsic coordinate,
    all of one ndim, which broadcast to the block's shape, and the
    block's points in C order are lattice points offset, offset + 1, ...

    On S^1 one block, the n_xi-point circle.  On S^2 the rings, phi down
    one axis (max(6, n_xi // 2) cell midpoints) and theta along the next
    (n_xi longitudes), then the two poles (phi = 0 and pi, theta = 0),
    where a prescription zonal in phi takes its extremes.
    """
    theta = 2.0 * np.pi * np.arange(n_xi) / n_xi
    if dim == 1:
        return ((0, (theta,)),)
    n_phi = max(6, n_xi // 2)
    phi = (np.arange(n_phi) + 0.5) * np.pi / n_phi
    return ((0, (phi[:, None], theta[None, :])),
            (n_phi * n_xi, (np.array([0.0, np.pi]), np.zeros(2))))


def sphere_lattice(dim, n_xi):
    """Flat tuple of coordinate sample arrays covering S^dim, the points
    of its blocks (_lattice_blocks) in order: n_xi on S^1, and
    max(6, n_xi // 2) * n_xi + 2 on S^2 (290 for n_xi = 24).
    """
    blocks = [np.broadcast_arrays(*xi) for _, xi in _lattice_blocks(dim, n_xi)]
    return tuple(np.concatenate([b[i].ravel() for b in blocks])
                 for i in range(dim))


@dataclass
class AuditBox:
    """Sampling box for the structural audit: n_r radii in [r_lo, r_hi],
    the sphere lattice of S^dim with n_xi longitudes (sphere_lattice: n_xi
    points on S^1, max(6, n_xi // 2) * n_xi + 2 on S^2), n_tau tilts in
    [1, tau_max], and scan_resolution radii for the barrier scan."""

    r_lo: float = 0.05
    r_hi: float = 2.0
    tau_max: float = 20.0
    dim: int = 2
    n_r: int = 40
    n_xi: int = 24
    n_tau: int = 40
    scan_resolution: int = 400

    def __post_init__(self):
        _check_numbers(self)
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
    """Result of the slice-inequality scan; R1 and R2 are None when no
    trap pair exists."""

    R1: float
    R2: float
    r_values: np.ndarray
    lo_margin: np.ndarray   # tanh(r) - max_xi psi(r, xi, cosh r)
    hi_margin: np.ndarray   # min_xi psi(r, xi, cosh r) - tanh(r)

    found = property(lambda self: self.R1 is not None)

    def sign_pattern(self):
        """One mark per scanned radius: '<' where tanh(r) exceeds psi at
        every sampled xi (lo_margin > 0), '>' where psi exceeds tanh(r)
        at every sampled xi (hi_margin > 0), '0' where neither holds."""
        marks = []
        for lo, hi in zip(self.lo_margin, self.hi_margin):
            marks.append("<" if lo > 0 else (">" if hi > 0 else "0"))
        return "".join(marks)


def _row_slabs(n_rows, per_row):
    """Slices splitting n_rows rows of per_row samples into equal slabs
    of at most SLAB_ELEMENTS samples (at least one row each)."""
    count = -(-n_rows // max(1, SLAB_ELEMENTS // per_row))
    rows = -(-n_rows // count)
    return [slice(i, i + rows) for i in range(0, n_rows, rows)]


def _lattice_slabs(box, r, per_point):
    """Each block of the sphere lattice of the box (_lattice_blocks) in
    slabs of the radii r (_row_slabs, per_point samples per lattice point
    and radius), as (rows, offset, block, rr, xi_cols): the slab's rows
    of r, the block's lattice offset and shape, and its radii and
    coordinates on axes (radius, *block, 1)."""
    for offset, xi in _lattice_blocks(box.dim, box.n_xi):
        block = np.broadcast_shapes(*(c.shape for c in xi))
        xi_cols = tuple(c[None, ..., None] for c in xi)
        for rows in _row_slabs(r.size, math.prod(block) * per_point):
            rr = r[rows].reshape((-1,) + (1,) * (len(block) + 1))
            yield rows, offset, block, rr, xi_cols


def scan_barriers(psi, box):
    """Scan for trap radii R1 < R2 on box.scan_resolution radii evenly
    spaced over [box.r_lo, box.r_hi], at every point of the sphere
    lattice of S^box.dim (sphere_lattice).

    Returns the largest R1 and smallest R2 such that the strict slice
    inequalities hold at every scanned radius on the respective side
    and every sampled xi; R1 = R2 = None (with the margin arrays for
    diagnosis) when no such pair exists.  Each block of the lattice is
    evaluated one slab of rows at a time, psi at its closed form's
    broadcast shape.
    """
    r = np.linspace(box.r_lo, box.r_hi, box.scan_resolution)
    psi_max = np.full_like(r, -np.inf)
    psi_min = np.full_like(r, np.inf)
    for rows, _, _, rr, xi_cols in _lattice_slabs(box, r, 1):
        vals = psi.evaluate(rr, xi_cols, np.cosh(rr)).psi
        vals = np.broadcast_to(vals, np.broadcast_shapes(vals.shape, rr.shape))
        axes = tuple(range(1, vals.ndim))
        psi_max[rows] = np.maximum(psi_max[rows], vals.max(axis=axes))
        psi_min[rows] = np.minimum(psi_min[rows], vals.min(axis=axes))
    tanh_r = np.tanh(r)
    lo_margin = tanh_r - psi_max
    hi_margin = psi_min - tanh_r
    lo_ok = lo_margin > 0.0
    hi_ok = hi_margin > 0.0
    lo_prefix = np.cumprod(lo_ok)          # 1 while all scanned r' <= r pass
    hi_suffix = np.cumprod(hi_ok[::-1])[::-1]
    r1_idx = np.flatnonzero(lo_prefix)
    r2_idx = np.flatnonzero(hi_suffix)
    if r1_idx.size and r2_idx.size and r[r1_idx[-1]] < r[r2_idx[0]]:
        return BarrierScan(float(r[r1_idx[-1]]), float(r[r2_idx[0]]),
                           r, lo_margin, hi_margin)
    return BarrierScan(None, None, r, lo_margin, hi_margin)


# The summary key of each condition's verdict in StructuralAudit.to_dict.
_SUMMARY_KEYS = {"positive": "positive", "A": "A_barriers",
                 "B": "B_tilt_inequality", "C": "C_growth_surrogate",
                 "D": "D_space_derivative", "E": "E_tilt_convexity"}


@dataclass
class StructuralAudit:
    """Outcome of the structural audit over a sample box; condition A
    and the barrier radii are those of its barrier scan.  A condition
    fails exactly when ``witnesses`` holds its key."""

    box: AuditBox
    constant_D: float
    scan: BarrierScan
    witnesses: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    positive = property(lambda self: "positive" not in self.witnesses)
    pass_A = property(lambda self: "A" not in self.witnesses)
    pass_B = property(lambda self: "B" not in self.witnesses)
    pass_C = property(lambda self: "C" not in self.witnesses)
    pass_D = property(lambda self: "D" not in self.witnesses)
    pass_E = property(lambda self: "E" not in self.witnesses)
    passed = property(lambda self: not self.witnesses)

    @property
    def barriers(self):
        return (self.scan.R1, self.scan.R2) if self.scan.found else None

    def to_dict(self):
        """The audit as JSON-ready values; a non-finite number (an
        overflowed margin, an infinite constant_D) is its name as a
        string: "nan", "inf" or "-inf"."""
        return _named_non_finite({
            "passed": self.passed,
            **{name: key not in self.witnesses
               for key, name in _SUMMARY_KEYS.items()},
            "constant_D": self.constant_D,
            "barriers": list(self.barriers) if self.barriers else None,
            "witnesses": self.witnesses,
            "diagnostics": self.diagnostics,
        })


def _named_non_finite(value):
    """value with every non-finite float in its dicts and lists replaced
    by str(float): "nan", "inf" or "-inf"."""
    if isinstance(value, dict):
        return {key: _named_non_finite(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_named_non_finite(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


# A condition fails when its least margin is not above its threshold
# (so a NaN margin fails it), and a sample with a margin at or below the
# threshold witnesses the failure; the audit reports the WITNESS_COUNT
# worst.
_THRESHOLDS = {"positive": 0.0, "B": -MARGIN_TOL, "E": -MARGIN_TOL, "C": 0.0}
WITNESS_COUNT = 3


def _slab_witnesses(margin, first, threshold):
    """The first WITNESS_COUNT samples of one slab of a lattice block in
    (margin, index) order with margin <= threshold, as (margin, (i_r,
    i_xi, i_tau)).  margin has the slab's shape (rows, *block, n_tau),
    and first is the index of its first sample.  A NaN margin (an
    overflowed closed form) ranks and is reported as -inf."""
    flat = np.where(np.isnan(margin), -np.inf, margin).ravel()
    k = min(WITNESS_COUNT, flat.size)
    cut = min(np.partition(flat, k - 1)[k - 1], threshold)
    below = np.flatnonzero(flat < cut)      # fewer than k samples
    below = below[np.argsort(flat[below], kind="stable")]
    tied = np.flatnonzero(flat == cut)[:WITNESS_COUNT - below.size]
    i_r0, i_xi0, _ = first
    n_tau = margin.shape[-1]
    picks = []
    for idx in (*below, *tied):
        i_r, rest = divmod(int(idx), flat.size // margin.shape[0])
        i_xi, i_tau = divmod(rest, n_tau)
        picks.append((float(flat[idx]), (i_r0 + i_r, i_xi0 + i_xi, i_tau)))
    return picks


# a closed form may overflow on the box (tau^q for a large q); its NaN
# margins fail their conditions, so the overflow has nothing to warn of
@np.errstate(over="ignore", invalid="ignore")
def audit_structural(psi, box):
    """Audit conditions B-E pointwise over the box, delegate A to the
    barrier scan, and report the empirical derivative constant for D.

    C is checked as a finite surrogate (monotone growth of psi/tau up
    to tau_max with a positive final slope) and flagged as such in the
    diagnostics; the solver only visits tilts below its monitor bound,
    so the surrogate is the operative condition.

    Each block of the sphere lattice (_lattice_blocks) is evaluated one
    slab of radii at a time (at most SLAB_ELEMENTS samples, or one
    radius), keeping only running minima, the running maximum for D and
    each condition's worst samples, so memory does not grow with n_r.
    Each field is reduced at its closed form's broadcast shape, so one
    zonal in phi costs one value per ring.  A failed condition's
    witnesses are its WITNESS_COUNT lowest margins; among equal margins
    the lowest (i_r, i_xi, i_tau) sample index comes first.
    """
    r = np.linspace(box.r_lo, box.r_hi, box.n_r)
    tau = np.linspace(1.0, box.tau_max, box.n_tau)
    lows = dict.fromkeys(_THRESHOLDS, np.inf)
    worst = {key: [] for key in _THRESHOLDS}
    max_d = 0.0
    for rows, offset, block, rr, xi_cols in _lattice_slabs(box, r, box.n_tau):
        TAU = tau.reshape((1,) * (rr.ndim - 1) + (-1,))
        slab = (rr.shape[0],) + block + (box.n_tau,)
        first = (rows.start, offset, 0)
        ev = psi.evaluate(rr, xi_cols, TAU)
        vals = ev.psi
        ratio = vals / TAU
        diffs = np.diff(ratio, axis=-1)
        scale = 1.0 + np.abs(ratio[..., :-1])
        monotone = np.min(diffs + MARGIN_TOL * scale, axis=-1)
        slope = diffs[..., -1]
        # each margin at its natural shape, with the slab shape it stands for
        margins = {
            "positive": (vals, slab),
            "B": (ev.psi_tau * TAU - vals, slab),
            "E": (ev.psi_tautau, slab),
            # per-(r, xi) margin: negative iff psi/tau dips, zero-or-negative
            # iff it also fails to keep growing at tau_max; its witnesses
            # sit at tau = 1
            "C": (np.minimum(monotone, slope)[..., None], slab[:-1] + (1,)),
        }
        for key, (margin, shape) in margins.items():
            # numpy's min and minimum keep a NaN, Python's min may drop it
            low = margin.min()
            lows[key] = np.minimum(lows[key], low)
            kept = worst[key]
            # a tie cannot displace the last kept witness when the slab's
            # first sample follows it, as a later ring slab's does; the
            # poles' samples precede the rings of later radii
            if not low > _THRESHOLDS[key] and (len(kept) < WITNESS_COUNT
                                               or not (low, first) > kept[-1]):
                worst[key] = sorted(kept + _slab_witnesses(
                    np.broadcast_to(margin, shape), first,
                    _THRESHOLDS[key]))[:WITNESS_COUNT]
        if lows["positive"] > 0.0:
            for c in (ev.psi_r, *ev.psi_xi):
                max_d = np.maximum(max_d, np.max(np.abs(c) / vals))
    xi = sphere_lattice(box.dim, box.n_xi)

    def witnesses_of(key):
        picks = []
        for margin, (i_r, i_xi, i_tau) in worst[key]:
            sample = {"r": float(r[i_r]), "tau": float(tau[i_tau])}
            for name, c in zip(("xi_1", "xi_2"), xi):
                sample[name] = float(c[i_xi])
            sample["margin"] = margin
            picks.append(sample)
        return picks

    witnesses = {key: witnesses_of(key)
                 for key, threshold in _THRESHOLDS.items()
                 if not lows[key] > threshold}
    constant_d = float("inf") if "positive" in witnesses else float(max_d)
    if not constant_d <= D_CAP:
        witnesses["D"] = [{"constant_D": constant_d, "cap": D_CAP}]
    scan = scan_barriers(psi, box)
    if not scan.found:
        witnesses["A"] = [{"sign_pattern": scan.sign_pattern()}]

    return StructuralAudit(
        box=box,
        constant_D=constant_d,
        scan=scan,
        witnesses=witnesses,
        diagnostics={
            "min_B_margin": float(lows["B"]),
            "min_E_value": float(lows["E"]),
            "C_surrogate_tau_max": box.tau_max,
            "min_psi": float(lows["positive"]),
        },
    )
