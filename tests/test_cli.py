"""Config parsing, pipeline modes, exit codes, artifact contracts."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dscurv.grid
import dscurv.prescription
import dscurv.solver
from dscurv import (AuditBox, ConfigError, ContinuationSolver,
                    InternalConsistencyError, SolverConfig, SpaceTiltPower,
                    build_grid, induced_geometry, run_homotopy)
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
    (BASE, ["--resolution", "32x64x2"], "--resolution"),
    (BASE, ["--resolution", "32x"], "--resolution"),
    (BASE, ["--resolution", ""], "--resolution"),
    (BASE, ["--out", ""], "--out"),
    (BASE + "audit.n_tau = 1\n", [], "n_tau"),
    (BASE + "audit.n_r = 0\n", [], "n_r"),
    (BASE + "audit.n_xi = 0\n", [], "n_xi"),
    (BASE + "audit.scan_resolution = 0\n", [], "scan_resolution"),
], ids=["s2-too-few", "s2-odd-nlon", "s2-grid.n", "s1-too-few", "s1-grid.nlat",
        "s2-three-parts", "s2-empty-part", "empty-resolution", "empty-out",
        "n_tau", "n_r", "n_xi", "scan_resolution"])
def test_invalid_grid_and_sample_counts_exit_2(tmp_path, capsys, text, argv,
                                              key):
    path = write_config(tmp_path, text + f"out = {tmp_path / 'out'}\n")
    assert cli.main(["--config", path, "--quiet", *argv]) == cli.EXIT_CONFIG
    assert re.search(rf"{re.escape(key)}\b", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


_FLOAT_KEYS = [key for key, (kind, _) in cli._SCHEMA.items() if kind is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_non_finite_float_keys_exit_2(tmp_path, capsys, key, value):
    section, name = key.split(".")
    # the first family, or the first with the key if it is a prescription key
    family = next(family for family, cls in PRESCRIPTIONS.items()
                  if section != "prescription"
                  or name in {f.name for f in dataclasses.fields(cls)})
    path = write_config(tmp_path, (
        "grid.dim = 2\ngrid.nlat = 16\ngrid.nlon = 32\n"
        f"prescription.name = {family}\n{key} = {value}\n"
        f"out = {tmp_path / 'out'}\n"))
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_CONFIG
    assert f"{name} must be finite" in capsys.readouterr().err
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
    built = {"solver": config.solver, "audit": config.box}
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
        built = config.target
        default = PRESCRIPTIONS[family]()
        for name, value in params.items():
            assert getattr(default, name) != value
            got = getattr(built, name)
            assert got == value and type(got) is float, (family, name)
        assert built.describe() == {"name": family, "params": params}


def test_solve_builds_each_run_object_once(tmp_path, monkeypatch):
    built = {}

    def counting(name, build):
        def counted(*args, **kwargs):
            built[name] = built.get(name, 0) + 1
            return build(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)

    for name in ("build_grid", "make_prescription", "SolverConfig",
                 "AuditBox"):
        counting(name, getattr(cli, name))
    path = write_config(tmp_path, BASE + f"out = {tmp_path / 'out'}\n")
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_OK
    assert built == {"build_grid": 1, "make_prescription": 1,
                     "SolverConfig": 1, "AuditBox": 1}


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


# each summary verdict flag of the audit, with its witnesses key
_AUDIT_FLAGS = {"positive": "positive", "A_barriers": "A",
                "B_tilt_inequality": "B", "C_growth_surrogate": "C",
                "D_space_derivative": "D", "E_tilt_convexity": "E"}
_MONITOR_FLAGS = ("all_ok", "c0_ok", "tilt_ok", "curv_ok")
TILT_POWER = BASE.replace("space_tilt_power", "tilt_power").replace(
    "prescription.a0 = 0.5\nprescription.p = 2.0", "prescription.q = 0.4")


@pytest.mark.parametrize("text, code, failed", [
    (BASE, cli.EXIT_OK, []),
    (TILT_POWER, cli.EXIT_AUDIT, ["A", "B", "C", "E"]),
], ids=["solve", "failed-audit"])
def test_summary_verdict_blocks(tmp_path, text, code, failed):
    out = tmp_path / "verdicts"
    path = write_config(tmp_path, text + f"out = {out}\n")
    assert cli.main(["--config", path, "--quiet"]) == code
    summary = json.loads((out / "summary.json").read_text())
    audit = summary["audit"]
    assert audit.keys() == {"passed", *_AUDIT_FLAGS, "constant_D", "barriers",
                            "witnesses", "diagnostics"}
    assert audit["passed"] is (not failed)
    for flag, key in _AUDIT_FLAGS.items():
        assert audit[flag] is (key not in failed), flag
    assert sorted(audit["witnesses"]) == failed
    assert audit["diagnostics"].keys() == {"min_B_margin", "min_E_value",
                                           "C_surrogate_tau_max", "min_psi"}
    if failed:
        assert "monitor" not in summary
        return
    monitor = summary["monitor"]
    assert monitor.keys() == {*_MONITOR_FLAGS, "min_u", "max_u", "R1", "R2",
                              "max_tau", "C_tau", "max_abs_A", "C_A",
                              "min_sigma_margin", "node_violations"}
    assert all(monitor[flag] is True for flag in _MONITOR_FLAGS)
    assert monitor["node_violations"] == {}


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


S1_TILT = """\
mode = solve
grid.dim = 1
grid.n = 128
k = 1
prescription.name = space_tilt_power
prescription.a0 = 0.5
prescription.a1 = 0.4
prescription.p = 2.0
"""


@pytest.mark.parametrize("box, beyond", [("audit.tau_max = 2.0\n", True),
                                         ("", False)],
                         ids=["tau_max-2", "default-box"])
def test_summary_names_the_path_tilt_beyond_the_audited_box(
        tmp_path, capsys, box, beyond):
    # the path's largest tilt (2.897) lies above the final state's and,
    # with tau_max = 2, beyond the tilts the audit sampled
    out = tmp_path / "tilt"
    path = write_config(tmp_path, S1_TILT + box + f"out = {out}\n")
    assert cli.main(["--config", path]) == cli.EXIT_OK
    message = capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    lines = (out / "trace.csv").read_text().splitlines()
    column = lines[0].split(",").index("max_tau")
    max_tau = summary["continuation"]["max_tau"]
    assert max_tau == max(float(line.split(",")[column]) for line in lines[1:])
    assert max_tau > summary["monitor"]["max_tau"] > 2.0
    assert summary["audit"]["passed"] is True
    if beyond:
        assert (f"the path reached tau = {max_tau:.6g}, beyond the audited "
                "tau_max = 2" in message)
    else:
        assert "tau_max" not in message and "beyond" not in message


def test_summary_levels_and_trace_level_column(tmp_path):
    out = tmp_path / "levels"
    path = write_config(tmp_path, BASE + f"prescription.a1 = 0.1\nout = {out}\n")
    assert cli.main(["--config", path, "--resolution", "64x128",
                     "--quiet"]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    levels = summary["levels"]
    assert [level["resolution"] for level in levels] == ["8x16", "16x32",
                                                        "32x64", "64x128"]
    assert [level["mean_u_ratio"] for level in levels[:2]] == [None, None]
    assert all(3.4 <= level["mean_u_ratio"] <= 4.6 for level in levels[2:])
    assert levels[-1]["min_u"] == summary["continuation"]["min_u"]
    assert all(level["residual"] <= 1e-10 for level in levels)

    lines = (out / "trace.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), map(float, line.split(","))))
            for line in lines[1:]]
    for i, level in enumerate(levels):
        mine = [row for row in rows if row["level"] == i]
        assert len(mine) == level["steps"]
        assert sum(row["newton_iters"] for row in mine) == level["newton_iters"]
    assert [row["level"] for row in rows[-3:]] == [1.0, 2.0, 3.0]


def test_summary_levels_name_rejected_attempts(tmp_path):
    # a draw whose homotopy cannot reach t = 1 in one step
    out = tmp_path / "rejected"
    path = write_config(tmp_path, BASE.replace(
        "prescription.a0 = 0.5\nprescription.p = 2.0\n",
        "prescription.a0 = 0.19789276722589916\n"
        "prescription.a1 = -0.10865109055667578\n"
        "prescription.p = 1.911526042173001\n") + f"out = {out}\n")
    assert cli.main(["--config", path, "--resolution", "32x64",
                     "--quiet"]) == cli.EXIT_OK
    levels = json.loads((out / "summary.json").read_text())["levels"]
    state = run_homotopy(
        SpaceTiltPower(0.19789276722589916, -0.10865109055667578,
                       1.911526042173001), build_grid(2, (32, 64)),
        SolverConfig(k=2, p=2.0))
    assert levels[0]["rejected"] == state.levels[0].rejected != []
    assert all(set(r) == {"t", "cause"} for r in levels[0]["rejected"])
    assert [level["rejected"] for level in levels[1:]] == [[], []]


def test_stalled_homotopy_summary_keeps_every_rejected_attempt(tmp_path):
    # with dt_min = 0.3 this draw's homotopy stalls after three rejected
    # attempts at t = 1, from 0 and twice from 0.5
    out = tmp_path / "stalled"
    path = write_config(tmp_path, BASE.replace(
        "prescription.a0 = 0.5\nprescription.p = 2.0\n",
        "prescription.a0 = 0.19789276722589916\n"
        "prescription.a1 = -0.10865109055667578\n"
        "prescription.p = 1.911526042173001\n")
        + f"solver.dt_min = 0.3\nout = {out}\n")
    assert cli.main(["--config", path, "--resolution", "32x64",
                     "--quiet"]) == cli.EXIT_CONTINUATION
    summary = json.loads((out / "summary.json").read_text())
    (coarse,) = summary["levels"]
    assert coarse["resolution"] == "8x16" and coarse["steps"] == 2
    assert [attempt["t"] for attempt in coarse["rejected"]] == [1.0] * 3
    assert summary["continuation"]["message"].endswith(
        coarse["rejected"][-1]["cause"])


def test_failed_level_exit_code(tmp_path, monkeypatch):
    solved = tmp_path / "solved"
    path = write_config(tmp_path, BASE + f"out = {solved}\n")
    assert cli.main(["--config", path, "--resolution", "32x64",
                     "--quiet"]) == cli.EXIT_OK
    # the prolonged start u = 0 is inadmissible, so level 1 fails
    monkeypatch.setattr(dscurv.grid.SphereGrid, "prolong",
                        lambda self, f: np.zeros(self.refine().shape))
    out = tmp_path / "failed"
    path = write_config(tmp_path, BASE + f"out = {out}\n")
    assert cli.main(["--config", path, "--resolution", "32x64",
                     "--quiet"]) == cli.EXIT_CONTINUATION
    summary = json.loads((out / "summary.json").read_text())
    assert summary["continuation"]["failed"] is True
    assert summary["continuation"]["message"].startswith(
        "level 1 (16x32) failed")
    # the levels that finished before the failure: the coarse homotopy
    assert [level["resolution"] for level in summary["levels"]] == ["8x16"]
    # trace.csv holds the coarse homotopy's rows, those of level 0
    lines = (solved / "trace.csv").read_text().splitlines()
    level_0 = [line for line in lines[1:] if line.endswith(",0")]
    assert (out / "trace.csv").read_text().splitlines() == lines[:1] + level_0
    assert level_0 and not (out / "fields.csv").exists()


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


def test_artifacts_end_lines_in_newline_only(tmp_path):
    # every artifact is written with "\n" line ends, whatever the platform
    out = tmp_path / "run_out"
    path = write_config(tmp_path, BASE + f"out = {out}\n")
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_OK
    for name in ("fields.csv", "trace.csv", "summary.json"):
        data = (out / name).read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, name


def test_full_precision_round_trip(tmp_path):
    out = tmp_path / "precision"
    path = write_config(tmp_path, BASE + f"out = {out}\n")
    cli.main(["--config", path, "--quiet"])
    row = (out / "fields.csv").read_text().splitlines()[1].split(",")
    for text in row:
        value = float(text)
        assert format(value, ".17g") == text


def test_fields_csv_matches_per_value_formatting(tmp_path):
    # the writer's row template against formatting each value on its own
    grid = build_grid(2, (8, 16))
    geom = induced_geometry(
        0.8 + 0.05 * np.cos(grid.coords()[0]), grid)
    residual = np.linspace(-1e-10, 1e-10, grid.node_count).reshape(grid.shape)
    residual.flat[:6] = [-0.0, 5e-324, 1e300, 1e16, 0.1, -2.5]
    path = tmp_path / "fields.csv"
    cli._write_fields_csv(str(path), grid, geom, residual)
    columns = [c.ravel() for c in grid.coords()] + [
        geom.u.ravel(), geom.tau.ravel(), geom.eta.ravel(),
        geom.shape_eigs[..., 0].ravel(), geom.shape_eigs[..., 1].ravel(),
        residual.ravel()]
    lines = path.read_text().splitlines()
    assert lines[0] == "phi,theta,u,tau,eta,lambda_1,lambda_2,residual"
    assert lines[1:] == [",".join(format(float(x), ".17g") for x in row)
                         for row in zip(*columns)]


def _g17_cases(rng):
    """Float64 values for the '%.17g' formatter, about 210k of them."""
    powers = 10.0 ** np.arange(-320, 309)
    ints = rng.integers(10 ** 15, 4 * 10 ** 15, 20000)
    return np.concatenate([
        # random bit patterns, both signs: every exponent and nan payload
        rng.integers(0, 2 ** 64, 100000, dtype=np.uint64).view(np.float64),
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf,
         np.nan, 1e16, 1e17, 0.1, -2.5, 1e-4, 1e-5, 123456.0, 0.5,
         # just below a power of ten: log10 guesses E one too high, and
         # that E's rounded D lands exactly on 10^16
         9.9999999999999996e-281, 9.9999999999999995e-8,
         # integer parts that end in zeros
         6253579554216460.0, 1000000000000000.0, 2.5e15],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        -powers,
        # exact ties at the 17th digit: k + 1/4 and k + 3/4 above 10^15,
        # k + odd/8 above 10^14
        [1234567890123456.75, 1234567890123456.25, 123456789012345.125],
        ints + 0.25, ints - 0.25,
        rng.integers(10 ** 14, 10 ** 15, 20000)
        + (2 * rng.integers(0, 4, 20000) + 1) / 8,
        rng.integers(10 ** 15, 10 ** 17, 40000).astype(float),
        # the fields' own range: coordinates, u, curvatures, residuals
        rng.uniform(-4.0, 4.0, 20000) * 10.0 ** rng.integers(-16, 3, 20000),
    ])


def test_g17_formatter_matches_python_formatting(rng):
    values = _g17_cases(rng)
    assert len(values) >= 200000
    text = cli._format_values(values, 1)
    assert text.split(b"\n")[:-1] == [b"%.17g" % v for v in values.tolist()]
    # two per row: ',' between the values, '\n' after the row
    row = values[:4000]
    assert cli._format_values(row, 2).decode() == "".join(
        f"{a:.17g},{b:.17g}\n" for a, b in row.reshape(-1, 2).tolist())


@pytest.mark.parametrize("text", [
    "grid.dim = 1\ngrid.n = 128\nk = 1\nprescription.a1 = 0.4\n",
    "grid.dim = 2\ngrid.nlat = 48\ngrid.nlon = 96\nk = 2\n"
    "prescription.a1 = 0.1\n",
], ids=["S1-128", "S2-48x96"])
def test_cli_fields_csv_is_the_per_value_template(tmp_path, text):
    out = tmp_path / "fields"
    path = write_config(tmp_path, "mode = solve\nprescription.name = "
                        "space_tilt_power\nprescription.a0 = 0.5\n"
                        f"prescription.p = 2.0\nout = {out}\n" + text)
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_OK
    data = (out / "fields.csv").read_bytes()
    header, *rows = data.decode().split("\n")[:-1]
    values = [[float(x) for x in row.split(",")] for row in rows]
    template = ",".join(["%.17g"] * len(values[0])) + "\n"
    assert data == (header + "\n" + "".join(
        template % tuple(row) for row in values)).encode()


def test_fields_csv_traced_memory():
    # the peak of the per-value writer, 9.96 MB, less a margin; the
    # block writer measured 5.8 MB
    grid = build_grid(2, (128, 256))
    phi, theta = grid.coords()
    geom = induced_geometry(0.8 + 0.05 * np.cos(phi)
                            + 0.02 * np.sin(phi) ** 2 * np.cos(theta), grid)
    residual = 1e-13 * np.sin(3 * phi) * np.cos(theta)
    tracemalloc.start()
    try:
        cli._write_fields_csv(os.devnull, grid, geom, residual)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.5e6


def test_import_cli_loads_no_new_module():
    # beyond numpy and the standard modules the package imports, importing
    # dscurv.cli loads only the package's own modules
    deps = "argparse, dataclasses, functools, itertools, json, math, operator, os"
    script = (f"import sys, {deps}, numpy\nbefore = set(sys.modules)\n"
              "import dscurv.cli\nprint(sorted(set(sys.modules) - before))\n")
    src = Path(dscurv.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    package = sorted(["dscurv"] + [f"dscurv.{p.stem}" for p in
                                   (src / "dscurv").glob("*.py")
                                   if p.stem != "__init__"])
    assert proc.stdout.strip() == str(package)


def test_audit_only_mode(tmp_path, monkeypatch):
    scanned = []
    scan = dscurv.prescription.scan_barriers

    def counting_scan(psi, box):
        scanned.append(psi.name)
        return scan(psi, box)

    for module in (dscurv.prescription, dscurv.solver):
        monkeypatch.setattr(module, "scan_barriers", counting_scan)
    out = tmp_path / "audit"
    path = write_config(tmp_path, BASE.replace("mode = solve", "mode = audit-only")
                        + f"out = {out}\n")
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["audit"]["passed"] is True
    assert summary["barriers"]["found"] is True
    assert "continuation" not in summary
    # the barriers reuse the audit's scan of the target
    assert scanned == ["space_tilt_power", "reference_power"]


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


def test_start_failure_writes_no_trace(tmp_path):
    # tau = cosh(0.663) = 1.228 at the start exceeds c_tau = 1.1: no state
    # is accepted, so there is no trace row to write
    out = tmp_path / "start"
    path = write_config(tmp_path, S1 + f"out = {out}\nsolver.c_tau = 1.1\n")
    assert cli.main(["--config", path, "--resolution", "64",
                     "--quiet"]) == cli.EXIT_CONTINUATION
    summary = json.loads((out / "summary.json").read_text())
    assert "at the homotopy start" in summary["continuation"]["message"]
    assert not (out / "trace.csv").exists()
    assert not (out / "fields.csv").exists()


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


def test_singular_jacobian_exit_code(tmp_path, monkeypatch):
    # every Jacobian replaced by the constant-coefficient D_thth, whose
    # mode-0 system is zero: the Fourier factor meets a zero pivot (the
    # Jacobian check, which would catch the swap first, is switched off)
    assemble = dscurv.grid.StencilPattern.assemble

    def theta_laplacian(self, a_u, a_p, a_H):
        a_H = np.zeros_like(a_H)
        a_H[1, 1] = 1.0
        return assemble(self, np.zeros_like(a_u), np.zeros_like(a_p), a_H)

    monkeypatch.setattr(dscurv.grid.StencilPattern, "assemble",
                        theta_laplacian)
    monkeypatch.setattr(ContinuationSolver, "directional_derivative_check",
                        lambda self, *args, **kwargs: 0.0)
    out = tmp_path / "singular"
    path = write_config(tmp_path, BASE + f"out = {out}\n")
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_CONTINUATION
    summary = json.loads((out / "summary.json").read_text())
    assert summary["continuation"]["failed"] is True
    assert re.search(r"singular Jacobian at t = \S+: zero pivot in ring 0, "
                     "mode 0", summary["continuation"]["message"])


def test_overflowed_audit_writes_strict_json(tmp_path):
    # tau^300 overflows on the audit box: the audit fails, warns of
    # nothing (warnings are errors here) and names its non-finite numbers
    out = tmp_path / "overflow"
    path = write_config(tmp_path, (
        "mode = audit-only\ngrid.dim = 2\ngrid.nlat = 16\ngrid.nlon = 32\n"
        "k = 2\nprescription.name = tilt_power\nprescription.q = 300\n"
        f"out = {out}\n"))
    assert cli.main(["--config", path, "--quiet"]) == cli.EXIT_AUDIT

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    text = (out / "summary.json").read_text()
    audit = json.loads(text, parse_constant=refuse)["audit"]
    assert audit["passed"] is False
    assert audit["diagnostics"]["min_B_margin"] == "nan"
    assert {w["margin"] for w in audit["witnesses"]["B"]} == {"-inf"}


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


def test_runs_never_import_scipy(tmp_path):
    # numpy is the one runtime dependency: importing dscurv and running an
    # S^2 solve, identity check and audit and an S^1 solve, in a fresh
    # process, loads no scipy, and no module of the package imports it
    path = write_config(tmp_path, BASE)
    runs = [["--config", path, "--mode", mode, "--out", str(tmp_path / mode),
             "--quiet"] for mode in ("solve", "identity-check", "audit-only")]
    s1 = write_config(tmp_path, "mode = solve\ngrid.dim = 1\ngrid.n = 128\n"
                      "k = 1\nprescription.name = space_tilt_power\n"
                      "prescription.a0 = 0.5\nprescription.a1 = 0.4\n"
                      "prescription.p = 2.0\n", name="s1.cfg")
    runs.append(["--config", s1, "--out", str(tmp_path / "s1"), "--quiet"])
    script = ("import sys, dscurv, dscurv.cli\n"
              f"codes = [dscurv.cli.main(argv) for argv in {runs!r}]\n"
              "print(codes, sorted(m for m in sys.modules\n"
              "                    if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(dscurv.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0] []"
    for module in Path(dscurv.__file__).parent.glob("*.py"):
        assert not re.search(r"^\s*(import|from)\s+scipy\b",
                             module.read_text(), re.M), module.name
