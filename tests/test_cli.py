"""Config parsing, pipeline modes, exit codes, artifact contracts."""

import json

import numpy as np
import pytest

import dscurv.grid
from dscurv import (ConfigError, ContinuationSolver, InternalConsistencyError,
                    SolverConfig, build_grid)
from dscurv import cli
from dscurv.prescription import make_prescription

R_STAR = np.log(1.0 + np.sqrt(2.0))

BASE = """\
mode = solve
grid.dim = 2
grid.nlat = 16
grid.nlon = 32
k = 2
prescription.name = space_tilt_power
prescription.a0 = 0.5
prescription.p = 2.0
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_minimal_defaults(tmp_path):
    path = write_config(tmp_path, "grid.dim = 2\ngrid.nlat = 16\n"
                                  "grid.nlon = 32\nprescription.name = constant\n")
    config = cli.parse_config(path)
    assert config["k"] == 2
    assert config["solver.p"] == 2.0
    assert config["solver.tol_newton"] == 1e-10
    assert config["mode"] == "solve"


def test_parse_rejects_bad_inputs(tmp_path):
    cases = [
        "grid.dim = 2\ngrid.nlat = 16\ngrid.nlon = 32\n"
        "prescription.name = constant\nk = 5\n",              # k > n
        "grid.dim = 2\ngrid.dim = 2\ngrid.nlat = 16\ngrid.nlon = 32\n"
        "prescription.name = constant\n",                     # duplicate
        "grid.dim = 2\ngrid.nlat = 16\ngrid.nlon = 32\n"
        "prescription.name = constant\nwibble = 3\n",         # unknown key
        "grid.dim = 2\ngrid.nlat = 16\ngrid.nlon = 32\n",     # missing required
        "grid.dim = 1\nprescription.name = constant\n",       # S^1 without grid.n
        "grid.dim = 2\ngrid.nlat = 16\ngrid.nlon = 32\n"
        "prescription.name = constant\nprescription.q = 1\n",  # wrong param
        "grid.dim = 2\ngrid.nlat = 16\ngrid.nlon = 32\n"
        "prescription.name = constant\nk = not_an_int\n",     # bad literal
    ]
    for text in cases:
        with pytest.raises(ConfigError):
            cli.parse_config(write_config(tmp_path, text))


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        cli.parse_config(str(tmp_path / "absent.cfg"))


def test_solve_mode_closed_form_oracle(tmp_path):
    out = tmp_path / "run_out"
    path = write_config(tmp_path, BASE + f"out = {out}\n")
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_OK

    fields = (out / "fields.csv").read_text().splitlines()
    header = fields[0].split(",")
    assert header == ["phi", "theta", "u", "tau", "eta",
                      "lambda_1", "lambda_2", "residual"]
    u_col = header.index("u")
    u_vals = np.array([float(row.split(",")[u_col]) for row in fields[1:]])
    assert np.max(np.abs(u_vals - R_STAR)) <= 1e-8

    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == ("t,newton_iters,residual,min_u,max_u,max_tau,"
                        "max_abs_A,level")
    assert float(trace[-1].split(",")[0]) == 1.0

    summary = json.loads((out / "summary.json").read_text())
    assert summary["audit"]["passed"] is True
    assert summary["monitor"]["all_ok"] is True
    assert summary["continuation"]["failed"] is False


def test_summary_residual_matches_artifact_recomputation(tmp_path):
    out = tmp_path / "recompute"
    path = write_config(tmp_path, BASE + f"out = {out}\n")
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())

    lines = (out / "fields.csv").read_text().splitlines()
    header = lines[0].split(",")
    u = np.array([float(r.split(",")[header.index("u")]) for r in lines[1:]])
    grid = build_grid(2, (16, 32))
    solver = ContinuationSolver(
        grid, make_prescription("space_tilt_power", a0=0.5, p=2.0),
        SolverConfig(k=2, p=2.0), barriers=(0.6, 0.9))
    recomputed = float(np.max(np.abs(solver.residual(u.reshape(grid.shape), 1.0))))
    assert abs(recomputed - summary["continuation"]["residual_sup_norm"]) <= 1e-12


def test_summary_levels_and_trace_level_column(tmp_path):
    out = tmp_path / "levels"
    path = write_config(tmp_path, BASE + f"prescription.a1 = 0.1\nout = {out}\n")
    assert cli.main(["--config", path, "--resolution", "64x128",
                     "--quiet"]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fallback"] is None
    levels = summary["levels"]
    assert [level["resolution"] for level in levels] == ["16x32", "32x64",
                                                        "64x128"]
    assert [level["mean_u_ratio"] for level in levels[:2]] == [None, None]
    assert 3.4 <= levels[2]["mean_u_ratio"] <= 4.6
    assert levels[-1]["min_u"] == summary["continuation"]["min_u"]
    assert all(level["residual"] <= 1e-10 for level in levels)

    lines = (out / "trace.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), map(float, line.split(","))))
            for line in lines[1:]]
    for i, level in enumerate(levels):
        mine = [row for row in rows if row["level"] == i]
        assert len(mine) == level["steps"]
        assert sum(row["newton_iters"] for row in mine) == level["newton_iters"]
    assert [row["level"] for row in rows[-2:]] == [1.0, 2.0]


def test_summary_reports_fallback(tmp_path, monkeypatch):
    monkeypatch.setattr(dscurv.grid.SphereGrid, "prolong",
                        lambda self, f: np.zeros(self.refine().shape))
    out = tmp_path / "fallback"
    path = write_config(tmp_path, BASE + f"out = {out}\n")
    assert cli.main(["--config", path, "--resolution", "32x64",
                     "--quiet"]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fallback"].startswith("level 1 (32x64) failed")
    assert [level["resolution"] for level in summary["levels"]] == ["32x64"]
    assert summary["continuation"]["t"] == 1.0


def test_round_trip_from_echoed_config(tmp_path):
    out = tmp_path / "first"
    path = write_config(tmp_path, BASE + f"out = {out}\n")
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    replay_out = tmp_path / "replay"
    lines = [line if not line.startswith("out =") else f"out = {replay_out}"
             for line in summary["config_echo"]]
    replay_cfg = write_config(tmp_path, "\n".join(lines) + "\n", name="replay.cfg")
    assert cli.main(["--config", replay_cfg, "--quiet"]) == cli.EXIT_OK
    assert ((out / "fields.csv").read_bytes()
            == (replay_out / "fields.csv").read_bytes())
    assert ((out / "trace.csv").read_bytes()
            == (replay_out / "trace.csv").read_bytes())


def test_full_precision_round_trip(tmp_path):
    out = tmp_path / "precision"
    path = write_config(tmp_path, BASE + f"out = {out}\n")
    cli.main(["--config", path, "--quiet"])
    row = (out / "fields.csv").read_text().splitlines()[1].split(",")
    for text in row:
        value = float(text)
        assert format(value, ".17g") == text


def test_audit_only_mode(tmp_path):
    out = tmp_path / "audit"
    path = write_config(tmp_path, BASE.replace("mode = solve", "mode = audit-only")
                        + f"out = {out}\n")
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["audit"]["passed"] is True
    assert summary["barriers"]["found"] is True
    assert "continuation" not in summary


def test_identity_check_mode(tmp_path):
    out = tmp_path / "ident"
    path = write_config(tmp_path, BASE + f"out = {out}\n")
    assert cli.main(["--config", path, "--mode", "identity-check",
                     "--quiet"]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    ratios = summary["identity_check"]["ratios"]
    for name in ("r_eta", "r_tau1", "r_tau2", "codazzi"):
        assert 3.4 <= ratios[name] <= 4.6


def test_audit_failure_exit_code(tmp_path):
    text = BASE.replace("prescription.name = space_tilt_power",
                        "prescription.name = tilt_power")
    text = text.replace("prescription.a0 = 0.5", "prescription.q = 0.5")
    text = text.replace("prescription.p = 2.0", "")
    out = tmp_path / "bad_b"
    path = write_config(tmp_path, text + f"out = {out}\n")
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_AUDIT
    summary = json.loads((out / "summary.json").read_text())
    assert summary["audit"]["B_tilt_inequality"] is False
    assert summary["audit"]["witnesses"]["B"]


def test_barrier_failure_exit_code(tmp_path):
    text = BASE.replace("prescription.a0 = 0.5", "prescription.a0 = 5.0")
    out = tmp_path / "bad_bar"
    path = write_config(tmp_path, text + f"out = {out}\n")
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_BARRIER
    summary = json.loads((out / "summary.json").read_text())
    assert summary["barriers"]["found"] is False
    assert set(summary["barriers"]["target_sign_pattern"]) <= {"<", ">", "0"}


def test_continuation_failure_exit_code(tmp_path):
    out = tmp_path / "stall"
    path = write_config(tmp_path, BASE + f"out = {out}\nsolver.max_newton = 1\n")
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_CONTINUATION
    summary = json.loads((out / "summary.json").read_text())
    assert summary["continuation"]["failed"] is True
    assert (out / "trace.csv").exists()


def test_internal_consistency_failure_exit_code(tmp_path, monkeypatch):
    def broken_check(self, *args, **kwargs):
        raise InternalConsistencyError("Jacobian directional check failed")

    monkeypatch.setattr(ContinuationSolver, "directional_derivative_check",
                        broken_check)
    out = tmp_path / "inconsistent"
    path = write_config(tmp_path, BASE + f"out = {out}\n")
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_CONTINUATION
    summary = json.loads((out / "summary.json").read_text())
    assert summary["continuation"]["failed"] is True
    assert "Jacobian directional check failed" in summary["continuation"]["message"]


def test_config_error_exit_code(tmp_path):
    path = write_config(tmp_path, "grid.dim = 2\ngrid.nlat = 16\n"
                                  "grid.nlon = 32\nprescription.name = constant\n"
                                  "k = 5\n")
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_CONFIG


def test_solve_mode_on_circle(tmp_path):
    out = tmp_path / "s1"
    text = ("mode = solve\ngrid.dim = 1\ngrid.n = 128\nk = 1\n"
            "prescription.name = space_tilt_power\nprescription.a0 = 0.5\n"
            f"prescription.p = 2.0\nout = {out}\n")
    path = write_config(tmp_path, text, name="s1.cfg")
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_OK
    lines = (out / "fields.csv").read_text().splitlines()
    assert lines[0].split(",") == ["theta", "u", "tau", "eta",
                                   "lambda_1", "residual"]
    u = np.array([float(r.split(",")[1]) for r in lines[1:]])
    assert np.max(np.abs(u - R_STAR)) <= 1e-8


def test_cli_overrides(tmp_path):
    out = tmp_path / "override"
    path = write_config(tmp_path, BASE)
    code = cli.main(["--config", path, "--mode", "audit-only",
                     "--resolution", "16x32", "--out", str(out), "--quiet"])
    assert code == cli.EXIT_OK
    assert (out / "summary.json").exists()
