"""Output checks against properties of the method, not stored outputs.

Each check returns a list of ``(name, message)`` problems; an empty list
means the output passed.  The expected values are computed here from
closed forms, apart from the program:

* the target ``a(phi) tanh(r) tau^p`` with ``a = a0 + a1 cos(phi)`` is
  zonal, so the solution does not depend on longitude;
* the umbilic slice of radius r has curvature ``tanh(r)`` and tilt
  ``cosh(r)``, so the slice inequalities put the solution between
  ``arccosh(amax^(-1/p))`` and ``arccosh(amin^(-1/p))``, and the
  reference prescription crosses the slices at ``lam cosh^p(lam) = 1``;
* the identity residuals are second order, so halving the spacing
  divides them by about four, and they vanish on an umbilic slice.
"""

import math

TOL_NEWTON = 1e-10
ZONAL_TOL = 1e-10
UMBILIC_TOL = 1e-12
RATIO_WINDOW = (3.4, 4.6)

# The family's construction names the audit condition it must fail.
EXPECTED_AUDIT_FAILURE = {
    "tilt_power": "B_tilt_inequality",     # q < 1: psi_tau tau < psi
    "tilt_concave": "E_tilt_convexity",    # psi_tautau < 0 past tau = 2
    "constant": "A_barriers",              # tanh(r) < psi near r = 0
}


def slice_crossing(amplitude, p):
    """Radius where tanh(r) = amplitude tanh(r) cosh^p(r)."""
    return math.acosh(amplitude ** (-1.0 / p))


def start_radius(p):
    """The lam in (0, 1) with lam cosh^p(lam) = 1, by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.cosh(mid) ** p < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_solve(summary, fields, trace, target):
    """Properties of a completed solve.

    ``fields`` and ``trace`` map column names to sequences of floats
    read from ``fields.csv`` and ``trace.csv``; ``target`` holds the
    drawn ``a0``, ``a1`` and ``p``.
    """
    problems = []
    cont = summary.get("continuation", {})
    if cont.get("failed", True):
        return [("continuation", f"solve reported failure: {cont}")]
    if cont["t"] != 1.0:
        problems.append(("t_final", f"run ended at t = {cont['t']!r}, not 1.0"))

    worst = max(abs(r) for r in fields["residual"])
    if not worst <= TOL_NEWTON:
        problems.append(("residual", f"fields.csv residual {worst:.3e} "
                                     f"> {TOL_NEWTON:g}"))
    worst = max(abs(r) for r in trace["residual"])
    if not worst <= TOL_NEWTON:
        problems.append(("residual", f"trace.csv residual {worst:.3e} "
                                     f"> {TOL_NEWTON:g}"))

    rings = {}
    for phi, u in zip(fields["phi"], fields["u"]):
        lo, hi = rings.get(phi, (u, u))
        rings[phi] = (min(lo, u), max(hi, u))
    spread = max(hi - lo for lo, hi in rings.values())
    if not spread <= ZONAL_TOL:
        problems.append(("zonal", f"u varies by {spread:.3e} along a ring"))

    a0, a1, p = target["a0"], target["a1"], target["p"]
    r_lo = slice_crossing(a0 + abs(a1), p)
    r_hi = slice_crossing(a0 - abs(a1), p)
    u_min, u_max = min(fields["u"]), max(fields["u"])
    if not r_lo <= u_min <= u_max <= r_hi:
        problems.append(("barriers", f"u in [{u_min:.6f}, {u_max:.6f}] leaves "
                                     f"[{r_lo:.6f}, {r_hi:.6f}]"))
    return problems


def check_identity(summary, dim):
    """Refinement ratios of the CLI identity check."""
    problems = []
    block = summary.get("identity_check")
    if block is None:
        return [("identity", "summary has no identity_check block")]
    lo, hi = RATIO_WINDOW
    for name, ratio in block["ratios"].items():
        if name == "codazzi" and dim == 1:
            # one index has nothing to permute: exactly zero on both grids
            if block["coarse"][name] != 0.0 or block["fine"][name] != 0.0:
                problems.append(("identity", "S^1 Codazzi residual not zero"))
            continue
        if ratio is None or not lo <= ratio <= hi:
            problems.append(("identity", f"S^{dim} {name} refinement ratio "
                                         f"{ratio} outside [{lo}, {hi}]"))
    return problems


def check_umbilic(residuals):
    """Identity residuals of an umbilic slice: zero up to rounding."""
    worst = max(residuals)
    if not worst <= UMBILIC_TOL:
        return [("umbilic", f"slice identity residual {worst:.3e} "
                            f"> {UMBILIC_TOL:g}")]
    return []


def check_audit(family, params, exit_code, summary, scan):
    """Audit verdict, exit code and barrier radii of one family.

    ``scan`` holds the audit box's ``r_lo``, ``r_hi``, ``resolution``
    and the solver power ``solver_p``.
    """
    problems = []
    audit = summary.get("audit", {})
    if family == "space_tilt_power":
        if exit_code != 0 or audit.get("passed") is not True:
            problems.append(("audit", f"{family} should pass: exit "
                                      f"{exit_code}, passed {audit.get('passed')}"))
            return problems
        step = (scan["r_hi"] - scan["r_lo"]) / (scan["resolution"] - 1)
        a0, a1, p = params["a0"], params["a1"], params["p"]
        lam = start_radius(scan["solver_p"])
        r1, r2 = slice_crossing(a0 + abs(a1), p), slice_crossing(a0 - abs(a1), p)
        expected = {
            "target R1": (audit["barriers"][0], r1),
            "target R2": (audit["barriers"][1], r2),
            "combined R1": (summary["barriers"]["R1"], min(r1, lam)),
            "combined R2": (summary["barriers"]["R2"], max(r2, lam)),
        }
        for name, (got, want) in expected.items():
            if not abs(got - want) <= step:
                problems.append(("scan", f"{name} = {got:.6f}, closed form "
                                         f"{want:.6f}, lattice step {step:.6f}"))
        return problems
    condition = EXPECTED_AUDIT_FAILURE[family]
    if exit_code != 3 or audit.get("passed") is not False:
        problems.append(("audit", f"{family} should fail the audit: exit "
                                  f"{exit_code}, passed {audit.get('passed')}"))
    elif audit.get(condition) is not False:
        problems.append(("audit", f"{family} should fail {condition}"))
    return problems
