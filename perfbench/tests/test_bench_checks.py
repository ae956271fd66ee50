"""Each output check passes real outputs and rejects corrupted ones.

Run with:  python3 -m pytest perfbench/tests
"""

import copy
from pathlib import Path

import pytest

import checks
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def dscurv():
    return workloads.load_program(ROOT)


def _run_op(dscurv, tmp_path_factory, name):
    workload = workloads.Workload(name, 5, dscurv,
                                  tmp_path_factory.mktemp(name))
    execute, check = workload.next_op()
    result = execute()
    assert check(result) == []
    return workload.workdir / "op", result


@pytest.fixture(scope="module")
def solve(dscurv, tmp_path_factory):
    opdir, _ = _run_op(dscurv, tmp_path_factory, "solve-s2")
    out = opdir / "out"
    summary = workloads.read_summary(out)
    return (summary, workloads.read_columns(out / "fields.csv"),
            workloads.read_columns(out / "trace.csv"),
            summary["prescription"]["params"])


@pytest.fixture(scope="module")
def verify(dscurv, tmp_path_factory):
    return _run_op(dscurv, tmp_path_factory, "verify")


def _names(problems):
    return {name for name, _ in problems}


def test_clean_solve_passes(solve):
    assert checks.check_solve(*solve) == []


def _shift_one_longitude(summary, fields, trace):
    theta = sorted(set(fields["theta"]))[3]
    fields["u"] = [u + 1e-6 if th == theta else u
                   for u, th in zip(fields["u"], fields["theta"])]


def _scale_residuals(summary, fields, trace):
    scale = 1e3 * checks.TOL_NEWTON / max(abs(r) for r in fields["residual"])
    fields["residual"] = [r * scale for r in fields["residual"]]


def _end_short_of_one(summary, fields, trace):
    summary["continuation"]["t"] = 1 - 1e-16


def _lift_out_of_barriers(summary, fields, trace):
    fields["u"] = [u + 0.5 for u in fields["u"]]


@pytest.mark.parametrize("corrupt, name", [
    (_shift_one_longitude, "zonal"),
    (_scale_residuals, "residual"),
    (_end_short_of_one, "t_final"),
    (_lift_out_of_barriers, "barriers"),
])
def test_solve_check_rejects(solve, corrupt, name):
    summary, fields, trace, target = copy.deepcopy(solve)
    corrupt(summary, fields, trace)
    assert name in _names(checks.check_solve(summary, fields, trace, target))


def test_audit_check_rejects_flipped_verdict(verify):
    opdir, (codes, _) = verify
    for family in checks.EXPECTED_AUDIT_FAILURE.keys() | {"space_tilt_power"}:
        summary = workloads.read_summary(opdir / family)
        summary["audit"]["passed"] = not summary["audit"]["passed"]
        params = summary["prescription"]["params"]
        scan = dict(workloads.AUDIT_SCAN, solver_p=2.0)
        assert "audit" in _names(checks.check_audit(
            family, params, codes[family], summary, scan)), family


def test_scan_check_rejects_shifted_radius(verify):
    opdir, (codes, _) = verify
    summary = workloads.read_summary(opdir / "space_tilt_power")
    cfg = (opdir / "space_tilt_power.cfg").read_text()
    solver_p = float(cfg.split("solver.p = ")[1].split()[0])
    scan = dict(workloads.AUDIT_SCAN, solver_p=solver_p)
    params = summary["prescription"]["params"]
    assert checks.check_audit("space_tilt_power", params, 0, summary, scan) == []
    step = (scan["r_hi"] - scan["r_lo"]) / (scan["resolution"] - 1)
    summary["barriers"]["R2"] += 2 * step
    assert "scan" in _names(checks.check_audit(
        "space_tilt_power", params, 0, summary, scan))


def test_identity_and_umbilic_checks_reject(verify):
    opdir, (_, umbilic) = verify
    summary = workloads.read_summary(opdir / "ident2")
    summary["identity_check"]["ratios"]["r_eta"] /= 2.0
    assert "identity" in _names(checks.check_identity(summary, 2))
    assert "umbilic" in _names(checks.check_umbilic(
        [r + 1e-10 for r in umbilic]))
