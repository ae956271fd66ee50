"""Seeded workloads: each operation drives dscurv's public entry points.

An operation is built by ``Workload.next_op()``: the benchmark writes
its config files (untimed), ``execute()`` makes the program calls that
are timed, and ``check()`` checks the outputs on disk (untimed).  Every
operation draws its target parameters from the workload's own random
stream, so no operation repeats an earlier one.
"""

import csv
import json
import random
import shutil
import sys
from pathlib import Path

import checks
import numpy as np

# (nlat, nlon) of the two solve workloads
SOLVE_GRIDS = {"solve-s2": (32, 64), "solve-s2-fine": (48, 96)}
WORKLOADS = tuple(SOLVE_GRIDS) + ("verify",)

# Outcomes in which the operation did not finish: it raised, or the
# program itself reports that it stopped short.
FAILURES = ("exception", "continuation", "t_final")

AUDIT_SCAN = {"r_lo": 0.05, "r_hi": 2.0, "resolution": 400}


def load_program(root):
    """Import dscurv from the checkout's own sources, never from elsewhere."""
    src = Path(root) / "src"
    if not (src / "dscurv" / "__init__.py").is_file():
        raise SystemExit(f"dscurv sources not found under {src}")
    sys.path.insert(0, str(src))
    import dscurv
    import dscurv.cli
    if Path(dscurv.__file__).resolve().parent != (src / "dscurv").resolve():
        raise SystemExit(f"imported dscurv from {dscurv.__file__}, not {src}")
    return dscurv


def write_config(path, values):
    lines = [f"{key} = {value!r}" if isinstance(value, float)
             else f"{key} = {value}" for key, value in values.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def read_columns(path):
    """CSV file as {column name: list of floats}."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = csv.reader(handle)
        names = next(rows)
        columns = [[] for _ in names]
        for row in rows:
            for column, text in zip(columns, row):
                column.append(float(text))
    return dict(zip(names, columns))


def read_summary(outdir):
    with open(Path(outdir) / "summary.json", encoding="utf-8") as handle:
        return json.load(handle)


class Workload:
    """One workload's random stream and scratch directory."""

    def __init__(self, name, seed, dscurv, workdir):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choices: {WORKLOADS}")
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.dscurv = dscurv
        self.workdir = Path(workdir)
        self.grid = SOLVE_GRIDS.get(name)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def next_op(self):
        """(execute, check) for a fresh operation."""
        opdir = self.workdir / "op"
        shutil.rmtree(opdir, ignore_errors=True)
        opdir.mkdir()
        if self.name == "verify":
            return self._verify_op(opdir)
        return self._solve_op(opdir)

    def _solve_op(self, opdir):
        cli = self.dscurv.cli
        nlat, nlon = self.grid
        target = {"a0": 0.5, "a1": self.rng.uniform(0.05, 0.2), "p": 2.0}
        out = opdir / "out"
        path = write_config(opdir / "solve.cfg", {
            "mode": "solve", "out": out, "grid.dim": 2, "grid.nlat": nlat,
            "grid.nlon": nlon, "k": 2, "prescription.name": "space_tilt_power",
            "prescription.a0": target["a0"], "prescription.a1": target["a1"],
            "prescription.p": target["p"], "solver.p": 2.0,
            "solver.tol_newton": checks.TOL_NEWTON})

        def execute():
            return cli.run(cli.parse_config(path), quiet=True)

        def check(code):
            summary = read_summary(out)
            if code != 0:
                return [("continuation", f"exit code {code}")]
            return checks.check_solve(summary, read_columns(out / "fields.csv"),
                                      read_columns(out / "trace.csv"), target)
        return execute, check

    def _verify_op(self, opdir):
        dscurv = self.dscurv
        cli = dscurv.cli
        rng = self.rng
        stp = {"a0": rng.uniform(0.4, 0.6), "a1": rng.uniform(0.05, 0.2),
               "p": rng.uniform(1.5, 3.0)}
        solver_p = rng.uniform(1.5, 3.0)
        families = {
            "space_tilt_power": stp,
            "tilt_power": {"coef": rng.uniform(0.5, 2.0),
                           "q": rng.uniform(0.2, 0.8)},
            "tilt_concave": {},
            "constant": {"value": rng.uniform(0.1, 0.5)},
        }
        radius = rng.uniform(0.3, 1.2)
        configs = {}
        for dim, grid in ((2, {"grid.nlat": 64, "grid.nlon": 128}),
                          (1, {"grid.n": 128})):
            values = {"mode": "identity-check", "out": opdir / f"ident{dim}",
                      "grid.dim": dim, **grid, "k": dim,
                      "prescription.name": "space_tilt_power"}
            values.update({f"prescription.{k}": v for k, v in stp.items()})
            configs[f"identity{dim}"] = write_config(
                opdir / f"ident{dim}.cfg", values)
        for family, params in families.items():
            values = {"mode": "audit-only", "out": opdir / family,
                      "grid.dim": 2, "grid.nlat": 32, "grid.nlon": 64, "k": 2,
                      "prescription.name": family, "solver.p": solver_p,
                      "audit.r_lo": AUDIT_SCAN["r_lo"],
                      "audit.r_hi": AUDIT_SCAN["r_hi"],
                      "audit.scan_resolution": AUDIT_SCAN["resolution"]}
            values.update({f"prescription.{k}": v for k, v in params.items()})
            configs[family] = write_config(opdir / f"{family}.cfg", values)

        def execute():
            codes = {name: cli.run(cli.parse_config(path), quiet=True)
                     for name, path in configs.items()}
            grid = dscurv.build_grid(2, (64, 128))
            umbilic = dscurv.identity_residuals(np.full(grid.shape, radius),
                                                grid)
            return codes, umbilic.as_tuple()

        def check(result):
            codes, umbilic = result
            problems = []
            for dim in (2, 1):
                if codes[f"identity{dim}"] != 0:
                    problems.append(("identity", f"S^{dim} identity-check exit "
                                                 f"{codes[f'identity{dim}']}"))
                    continue
                problems += checks.check_identity(
                    read_summary(opdir / f"ident{dim}"), dim)
            problems += checks.check_umbilic(umbilic)
            scan = dict(AUDIT_SCAN, solver_p=solver_p)
            for family, params in families.items():
                problems += checks.check_audit(
                    family, params, codes[family],
                    read_summary(opdir / family), scan)
            return problems
        return execute, check
