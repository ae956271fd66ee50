"""Command-line front end: audit, barrier scan, solve, artifact export.

Configuration is a flat key = value text file ('#' comments allowed);
unknown and duplicate keys are rejected so a config echoed into a run
summary reproduces the run exactly.  parse_config validates by building
the run objects: the RunConfig it returns exposes ``grid``, ``target``,
``solver`` and ``box``, built once, and run uses them as they are.  All
numeric output is written with 17 significant digits, which round-trips
float64 exactly: every number in the artifacts can be checked against a
recomputation.

Exit codes: 0 success, 2 config error, 3 structural-audit failure,
4 barrier-scan failure, 5 continuation failure.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, ContinuationError, InternalConsistencyError
from .grid import build_grid
from .monitor import identity_residuals
from .prescription import (AuditBox, PRESCRIPTIONS, audit_structural,
                           make_prescription)
from .solver import ContinuationSolver, SolverConfig, combined_barriers

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_AUDIT = 3
EXIT_BARRIER = 4
EXIT_CONTINUATION = 5

_MODES = ("solve", "audit-only", "identity-check")

# key -> (type, default); REQUIRED means no default
_REQUIRED = object()


def _fields_schema(prefix, cls, skip):
    """Schema of the fields of dataclass cls, but skip, as prefix.* keys."""
    return {f"{prefix}.{f.name}": (f.type, f.default)
            for f in dataclasses.fields(cls) if f.name != skip}


_SCHEMA = {
    "mode": (str, "solve"),
    "out": (str, "out"),
    "grid.dim": (int, _REQUIRED),
    "grid.n": (int, None),
    "grid.nlat": (int, None),
    "grid.nlon": (int, None),
    "k": (int, SolverConfig.k),
    "prescription.name": (str, _REQUIRED),
    # the union of the families' fields; unset keys take the family default
    **{f"prescription.{f.name}": (f.type, None)
       for cls in PRESCRIPTIONS.values() for f in dataclasses.fields(cls)},
    **_fields_schema("solver", SolverConfig, "k"),
    **_fields_schema("audit", AuditBox, "dim"),
}

# the resolution keys of each grid.dim
_GRID_KEYS = {1: ("grid.n",), 2: ("grid.nlat", "grid.nlon")}


class RunConfig:
    """Validated flat configuration with defaults filled in, and the run
    objects built from it once each: ``grid``, ``target`` (the
    prescription), ``solver`` (a SolverConfig) and ``box`` (an AuditBox).
    Building them is the validation; a refused value raises ConfigError."""

    def __init__(self, values):
        self.values = values
        if values["mode"] not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}")
        dim = values["grid.dim"]
        if dim not in _GRID_KEYS:
            raise ConfigError("grid.dim must be 1 or 2")
        for key_dim, keys in _GRID_KEYS.items():
            for key in keys:
                if key_dim == dim and values[key] is None:
                    raise ConfigError(f"{key} is required for grid.dim = {dim}")
                if key_dim != dim and values[key] is not None:
                    raise ConfigError(f"{key} does not apply to grid.dim = {dim}")
        resolution = [values[key] for key in _GRID_KEYS[dim]]
        try:
            self.grid = build_grid(dim, resolution if dim == 2 else resolution[0])
        except ValueError as exc:
            raise ConfigError(f"{' x '.join(_GRID_KEYS[dim])} invalid: {exc}")
        if not 1 <= values["k"] <= dim:
            raise ConfigError(f"k = {values['k']} invalid: "
                              f"1 <= k <= n = {dim} required")
        name = values["prescription.name"]
        if name not in PRESCRIPTIONS:
            raise ConfigError(f"unknown prescription.name {name!r}; "
                              f"choices: {sorted(PRESCRIPTIONS)}")
        try:
            # prescription.name is make_prescription's name argument
            self.target = make_prescription(**self._section("prescription."))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"prescription parameters invalid for {name!r}: {exc}")
        try:
            self.solver = SolverConfig(k=values["k"], **self._section("solver."))
            self.box = AuditBox(dim=dim, **self._section("audit."))
        except ValueError as exc:
            raise ConfigError(str(exc))

    def __getitem__(self, key):
        return self.values[key]

    def echo_lines(self):
        # repr quotes a str and writes an int or float as str does
        return [f"{key} = {value!r}" for key, value in sorted(self.values.items())
                if value is not None]

    def _section(self, prefix):
        return {key[len(prefix):]: value
                for key, value in self.values.items()
                if key.startswith(prefix) and value is not None}


def _parse_scalar(key, text, caster):
    try:
        if caster is str:
            return text.strip().strip("'\"")
        return caster(text)
    except (TypeError, ValueError):
        raise ConfigError(f"invalid value {text!r} for key {key!r}")


def parse_config(path, overrides=None):
    """Read and validate a key = value config file.

    Unknown keys, duplicate keys, missing required keys, and every
    value RunConfig cannot build its run objects from (like k > n) raise
    ConfigError naming the offending key.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw_lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    values = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_scalar(key, text, _SCHEMA[key][0])
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = _parse_scalar(key, str(value), _SCHEMA[key][0])
    for key, (_, default) in _SCHEMA.items():
        if key not in values:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            values[key] = default
    return RunConfig(values)


def _write_fields_csv(path, grid, geom, residual):
    names = list(grid.coord_names) + ["u", "tau", "eta"]
    names += [f"lambda_{i + 1}" for i in range(grid.dim)]
    names += ["residual"]
    coords = [c.ravel() for c in grid.coords()]
    columns = coords + [geom.u.ravel(), geom.tau.ravel(), geom.eta.ravel()]
    eigs = geom.shape_eigs
    columns += [eigs[..., i].ravel() for i in range(grid.dim)]
    columns += [np.asarray(residual).ravel()]
    # one template per row and columns converted once keep the per-value
    # calls out of the loop
    columns = [np.asarray(c, dtype=float).tolist() for c in columns]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(names) + "\n")
        handle.writelines(row % values for values in zip(*columns))


def _write_trace_csv(path, history):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("t,newton_iters,residual,min_u,max_u,max_tau,max_abs_A,"
                     "level\n")
        handle.writelines(
            "%.17g,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"
            % (rec.t, rec.iters, rec.residual, rec.min_u, rec.max_u,
               rec.max_tau, rec.max_abs_A, rec.level) for rec in history)


def _level_summaries(levels):
    """The run's levels as dicts; from the third level on, mean_u_ratio is
    the observed Richardson ratio (Q_4h - Q_2h)/(Q_2h - Q_h) of the mean
    of u, which is about 4 for a second-order solution."""
    rows = [dict(dataclasses.asdict(level), mean_u_ratio=None)
            for level in levels]
    for coarse, mid, fine in zip(rows, rows[1:], rows[2:]):
        step = mid["mean_u"] - fine["mean_u"]
        if step != 0.0:
            fine["mean_u_ratio"] = (coarse["mean_u"] - mid["mean_u"]) / step
    return rows


def _write_summary(outdir, summary):
    path = os.path.join(outdir, "summary.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def _finish(outdir, summary, quiet, code, message):
    """Every stage's exit: summary.json, then message unless quiet."""
    _write_summary(outdir, summary)
    if not quiet:
        print(message)
    return code


def _identity_check(grid):
    """(summary entry, report lines) of the identity residuals of a
    smooth profile on grid and on its refinement."""
    if grid.dim == 1:
        profile = lambda g: 0.8 + 0.1 * np.cos(g.coords()[0])
    else:
        profile = lambda g: 0.8 + 0.1 * (1.5 * np.cos(g.coords()[0]) ** 2 - 0.5)
    fine_grid = grid.refine()
    coarse = dataclasses.asdict(identity_residuals(profile(grid), grid))
    fine = dataclasses.asdict(identity_residuals(profile(fine_grid), fine_grid))
    ratios = {name: coarse[name] / fine[name] if fine[name] > 0 else None
              for name in ("r_eta", "r_tau1", "r_tau2", "codazzi")}
    lines = []
    for name, ratio in ratios.items():
        shown = "exact" if ratio is None else f"{ratio:.2f}"
        lines.append(f"identity {name}: coarse {coarse[name]:.3e} "
                     f"fine {fine[name]:.3e} ratio {shown}")
    return {"coarse": coarse, "fine": fine, "ratios": ratios}, "\n".join(lines)


def run(config, quiet=False):
    """Execute the configured pipeline; returns the process exit code.

    Partial artifacts plus the summary are written even when a stage
    fails, so failed runs stay diagnosable from disk.
    """
    outdir = config["out"]
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {outdir!r} not writable: {exc}")
    grid = config.grid
    summary = {
        "code_version": __version__,
        "mode": config["mode"],
        "grid": {"dim": grid.dim, "resolution": list(grid.shape)},
        "config_echo": config.echo_lines(),
        "prescription": config.target.describe(),
    }

    if config["mode"] == "identity-check":
        summary["identity_check"], message = _identity_check(grid)
        return _finish(outdir, summary, quiet, EXIT_OK, message)

    audit = audit_structural(config.target, config.box)
    summary["audit"] = audit.to_dict()
    # condition A is decided with the reference's scan below
    if set(audit.witnesses) - {"A"}:
        return _finish(outdir, summary, quiet, EXIT_AUDIT, "structural audit "
                       "failed; see summary.json for witnesses")

    barriers, scans = combined_barriers(audit.scan, config.solver.p,
                                        config.box)
    if barriers is None:
        summary["barriers"] = {
            "found": False,
            "target_sign_pattern": scans[0].sign_pattern(),
            "reference_sign_pattern": scans[1].sign_pattern(),
        }
        return _finish(outdir, summary, quiet, EXIT_BARRIER, "barrier scan "
                       "failed; see summary.json for the sign pattern")
    summary["barriers"] = {"found": True, "R1": barriers[0], "R2": barriers[1]}

    if config["mode"] == "audit-only":
        return _finish(outdir, summary, quiet, EXIT_OK,
                       f"audit passed; barriers R1 = {barriers[0]:.6g}, "
                       f"R2 = {barriers[1]:.6g}")

    solver = ContinuationSolver(grid, config.target, config.solver,
                                barriers=barriers)
    try:
        state = solver.run()
    except (ContinuationError, InternalConsistencyError) as exc:
        summary["continuation"] = {"failed": True, "message": str(exc)}
        partial = getattr(exc, "state", None)
        if partial is not None:
            _write_trace_csv(os.path.join(outdir, "trace.csv"),
                             partial.step_history)
        return _finish(outdir, summary, quiet, EXIT_CONTINUATION,
                       f"continuation failed: {exc}")

    residual, geom, _ = solver.residual_with_geometry(state.u, state.t)
    _write_fields_csv(os.path.join(outdir, "fields.csv"), grid, geom, residual)
    _write_trace_csv(os.path.join(outdir, "trace.csv"), state.step_history)
    summary["continuation"] = {
        "failed": False,
        "t": state.t,
        "steps": len(state.step_history),
        "residual_sup_norm": state.residual_norm,
        "recomputed_residual_sup_norm": float(np.max(np.abs(residual))),
        "min_u": float(state.u.min()),
        "max_u": float(state.u.max()),
    }
    summary["levels"] = _level_summaries(state.levels)
    summary["monitor"] = state.monitor.to_dict()
    return _finish(outdir, summary, quiet, EXIT_OK,
                   f"solved: t = {state.t}, residual = {state.residual_norm:.3e}, "
                   f"u in [{state.u.min():.8f}, {state.u.max():.8f}]")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dscurv",
        description="Prescribed k-curvature graphs in de Sitter space: "
                    "audit, barrier scan, and homotopy-continuation solver.",
        epilog="exit codes: 0 success, 2 config error, 3 audit failure, "
               "4 barrier failure, 5 continuation failure")
    parser.add_argument("--config", required=True, help="path to key = value config")
    parser.add_argument("--mode", choices=_MODES, help="override config mode")
    parser.add_argument("--resolution",
                        help="override grid resolution: N or NLATxNLON")
    parser.add_argument("--k", type=int, help="override curvature order")
    parser.add_argument("--out", help="override output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress chatter")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # parse_config skips the None values of flags not given
    overrides = {"mode": args.mode, "k": args.k, "out": args.out}
    try:
        if args.out is not None and not args.out.strip():
            raise ConfigError(f"--out must name a directory, got {args.out!r}")
        if args.resolution is not None:
            parts = args.resolution.lower().split("x")
            if len(parts) > 2 or not all(part.strip() for part in parts):
                raise ConfigError("--resolution must be N or NLATxNLON, got "
                                  f"{args.resolution!r}")
            if len(parts) == 2:
                overrides["grid.nlat"], overrides["grid.nlon"] = parts
            else:
                overrides["grid.n"] = args.resolution
        config = parse_config(args.config, overrides)
        return run(config, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
