"""Config parsing, pipeline modes, exit codes, artifact contracts."""

import dataclasses
import json
import re

import numpy as np
import pytest

import dscurv.grid
from dscurv import (AuditBox, ConfigError, ContinuationSolver,
                    InternalConsistencyError, SolverConfig, SpaceTiltPower,
                    build_grid, run_homotopy)
from dscurv import cli
from dscurv.prescription import PRESCRIPTIONS, make_prescription

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


S1 = BASE.replace("grid.dim = 2\ngrid.nlat = 16\ngrid.nlon = 32\nk = 2",
                  "grid.dim = 1\ngrid.n = 16\nk = 1")


@pytest.mark.parametrize("text, argv, key", [
    (BASE, ["--resolution", "4x8"], "grid.nlat"),
    (BASE, ["--resolution", "16x33"], "grid.nlon"),
    (BASE, ["--resolution", "6"], "grid.n"),
    (S1, ["--resolution", "4"], "grid.n"),
    (S1, ["--resolution", "16x32"], "grid.nlat"),
    (BASE + "audit.n_tau = 1\n", [], "n_tau"),
    (BASE + "audit.n_r = 0\n", [], "n_r"),
    (BASE + "audit.n_xi = 0\n", [], "n_xi"),
    (BASE + "audit.scan_resolution = 0\n", [], "scan_resolution"),
], ids=["s2-too-few", "s2-odd-nlon", "s2-grid.n", "s1-too-few", "s1-grid.nlat",
        "n_tau", "n_r", "n_xi", "scan_resolution"])
def test_invalid_grid_and_sample_counts_exit_2(tmp_path, capsys, text, argv,
                                              key):
    path = write_config(tmp_path, text + f"out = {tmp_path / 'out'}\n")
    assert cli.main(["--config", path, "--quiet", *argv]) == cli.EXIT_CONFIG
    assert re.search(rf"{re.escape(key)}\b", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_solver_and_audit_keys_reach_their_fields(tmp_path):
    # one non-default value per key; the key list guards the schema that
    # cli builds from the SolverConfig and AuditBox fields
    values = {"solver.p": 3.0, "solver.tol_newton": 1e-9,
              "solver.max_newton": 31, "solver.dt_init": 0.2,
              "solver.dt_min": 0.002, "solver.dt_max": 0.6,
              "solver.c_tau": 60.0, "solver.c_a": 70.0,
              "audit.r_lo": 0.06, "audit.r_hi": 2.5, "audit.tau_max": 21.0,
              "audit.n_r": 41, "audit.n_xi": 25, "audit.n_tau": 42,
              "audit.scan_resolution": 401}
    assert values.keys() == {key for key in cli._SCHEMA
                             if key.startswith(("solver.", "audit."))}
    text = BASE + "".join(f"{key} = {value}\n" for key, value in values.items())
    config = cli.parse_config(write_config(tmp_path, text))
    built = {"solver": config.solver_config(), "audit": config.audit_box()}
    defaults = {"solver": SolverConfig(), "audit": AuditBox()}
    for key, value in values.items():
        section, name = key.split(".")
        assert getattr(defaults[section], name) != value
        got = getattr(built[section], name)
        assert got == value and type(got) is type(value), key


def test_prescription_keys_reach_their_fields(tmp_path):
    # one non-default value per field of each family; the key list guards
    # the schema that cli builds from the union of the families' fields
    values = {"space_tilt_power": {"a0": 0.6, "a1": 0.1, "p": 3.0},
              "tilt_power": {"coef": 2.0, "q": 0.7},
              "constant": {"value": 0.3},
              "tilt_concave": {},
              "reference_power": {"p": 1.5}}
    assert values.keys() == PRESCRIPTIONS.keys()
    keys = {key for key in cli._SCHEMA if key.startswith("prescription.")}
    fields = {f"prescription.{f.name}" for cls in PRESCRIPTIONS.values()
              for f in dataclasses.fields(cls)}
    assert keys - {"prescription.name"} == fields == {
        f"prescription.{name}" for params in values.values()
        for name in params}
    for family, params in values.items():
        text = ("grid.dim = 2\ngrid.nlat = 16\ngrid.nlon = 32\n"
                f"prescription.name = {family}\n"
                + "".join(f"prescription.{name} = {value}\n"
                          for name, value in params.items()))
        config = cli.parse_config(write_config(tmp_path, text))
        built = make_prescription(family, **config.prescription_params())
        default = PRESCRIPTIONS[family]()
        for name, value in params.items():
            assert getattr(default, name) != value
            got = getattr(built, name)
            assert got == value and type(got) is float, (family, name)
        assert built.describe() == {"name": family, "params": params}


def test_library_and_cli_agree_on_barriers(tmp_path):
    out = tmp_path / "model"
    path = write_config(tmp_path, BASE + f"out = {out}\n")
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_OK
    barriers = json.loads((out / "summary.json").read_text())["barriers"]
    state = run_homotopy(SpaceTiltPower(0.5, 0.0, 2.0),
                         build_grid(2, (16, 32)), SolverConfig(k=2, p=2.0))
    assert (state.monitor.R1, state.monitor.R2) == (barriers["R1"],
                                                    barriers["R2"])
    # the target's upper barrier lies past the default scan range: both
    # refuse it
    out = tmp_path / "flat"
    path = write_config(tmp_path, (
        f"out = {out}\ngrid.dim = 1\ngrid.n = 32\nk = 1\n"
        "prescription.name = space_tilt_power\nprescription.a0 = 0.05\n"
        "prescription.a1 = 0.0\nprescription.p = 2.0\n"), name="flat.cfg")
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_BARRIER
    with pytest.raises(ValueError, match="no barrier radii"):
        run_homotopy(SpaceTiltPower(0.05, 0.0, 2.0), build_grid(1, 32),
                     SolverConfig(k=1, p=2.0))


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
