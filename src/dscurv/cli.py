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
import functools
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


# fields.csv is written a block of rows at a time, each value formatted
# in numpy to the bytes of Python's own '%.17g' (correctly rounded, round
# half to even): the exponent E = floor(log10|x|) is guessed from log10 and
# judged on the scaled value s = |x| 10^(16 - E) before it is rounded, s is
# formed in double-double arithmetic, and the 17-digit integer D = round(s)
# is laid out on a canvas of fixed-width slots whose zero bytes are
# dropped.  Zeros, non-finite values, |x| outside the range below and s
# within _TIE_GUARD of a rounding tie go through '%.17g' itself.  A block's
# arrays stay under glibc's 128 KB mmap threshold, so the blocks reuse
# heap memory instead of mapping fresh pages each time.
_ROWS_PER_BLOCK = 256
_FAST_RANGE = (1e-280, 1e280)
_TIE_GUARD = 2.0 ** -30
_E_MAX = 282               # tables cover |E| <= _E_MAX, row E + _E_MAX
_SPLIT = 134217729.0       # 2^27 + 1, Veltkamp's splitter
# one value's slots: sign, '0.000' (the fixed form's 0.000ddd), the 17
# digits each followed by a '.', the exponent 'e+ddd', the separator
_CANVAS = np.frombuffer(b"-0.000" + b"0." * 17 + b"e+000,", np.uint8)


@dataclasses.dataclass
class _G17Tables:
    powers: np.ndarray     # column E: 10^(16 - E) = hi + lo, hi = head + tail
    quads: np.ndarray      # the four ASCII digits of 0..9999, one uint32 each
    ends: np.ndarray       # ends[j, c], see _g17_tables
    exponents: np.ndarray  # row E: E's sign and three digits, one uint32
    forms: np.ndarray      # row E: 17 * form - 1, see masks
    masks: np.ndarray      # masks[17 * form + shown - 1], see _g17_tables


@functools.cache
def _g17_tables():
    """The formatter's tables, built on first use.

    hi + lo is 10^k to about 2^-106 relative, from integer arithmetic,
    which rounds correctly.  ends[j, c] counts the significant digits of
    D when c is chunk j of its last 16 digits in 4-digit chunks and the
    chunks after it are zero (0 for c = 0).  A value's form is E + 4 for
    the fixed form (-4 <= E < 17), and 21 or 22 for the exponent form
    with 2 or 3 exponent digits; its mask is 1 on the canvas slots that
    the form shows with that many significant digits, 0 elsewhere.  The
    tables come from Python values, slicing and broadcasting: array
    arithmetic here would page in numpy code that the formatter does not
    run (64 KB of resident memory for each new loop)."""
    powers = np.empty((4, 2 * _E_MAX + 1))
    for i, k in enumerate(range(16 + _E_MAX, 16 - _E_MAX - 1, -1)):
        if k >= 0:
            hi = float(10 ** k)
            powers[:2, i] = hi, float(10 ** k - int(hi))
        else:
            hi = 1 / 10 ** -k
            num, two = hi.as_integer_ratio()
            powers[:2, i] = hi, (two - num * 10 ** -k) / (two * 10 ** -k)
    powers[2:] = _split(powers[0])

    # the 10,000-entry tables are broadcasts of 100-entry ones, chunk
    # 100 h + l by its digit pairs h and l, so building them allocates
    # nothing beyond the tables themselves
    pairs = np.frombuffer(b"".join([b"%02d" % i for i in range(100)]),
                          np.uint8).reshape(100, 2)
    text = np.empty((100, 100, 4), np.uint8)
    text[..., :2] = pairs[:, None]
    text[..., 2:] = pairs
    quads = text.view(np.uint32).ravel()
    # a pair's digits up to its last nonzero one
    pair_length = [0] + [2 if i % 10 else 1 for i in range(1, 100)]
    ends = np.empty((4, 100, 100), np.uint8)
    for j, chunk in enumerate(ends):
        chunk[:, 0] = [4 * j + 1 + n if n else 0 for n in pair_length]
        chunk[:, 1:] = [4 * j + 3 + n for n in pair_length[1:]]
    ends = ends.reshape(4, -1)

    exponents = np.frombuffer(b"".join(
        [b"%+04d" % e for e in range(-_E_MAX, _E_MAX + 1)]), np.uint32)
    forms = np.array([e + 4 if -4 <= e < 17 else 21 if abs(e) < 100 else 22
                      for e in range(-_E_MAX, _E_MAX + 1)])

    below = np.array([[i < n for i in range(17)] for n in range(18)])
    masks = np.zeros((23, 17, len(_CANVAS)), bool)
    masks[..., [0, -1]] = True
    for form, mask in enumerate(masks):
        if form < 4:
            point = -1              # 0.000ddd: no '.' among the digits
        elif form <= 20:
            point = form - 4        # the '.' follows digit E
        else:
            point = 0
        # row n - 1 shows n significant digits, and all of an integer part
        mask[:, 6:40:2] = below[[max(n, point + 1) for n in range(1, 18)]]
        if point >= 0:
            mask[:, 7 + 2 * point] = [n > point + 1 for n in range(1, 18)]
        if form > 20:
            mask[:, 40:45] = True
            mask[:, 42] = form == 22
        elif form < 4:
            mask[:, 1:6 - form] = True      # '0.' and -E - 1 zeros
    return _G17Tables(powers, quads, ends, exponents, 17 * forms - 1,
                      masks.reshape(-1, len(_CANVAS)).view(np.uint8))


def _split(a):
    """Veltkamp's split a = head + tail, each of at most 26 bits."""
    c = _SPLIT * a
    head = c - (c - a)
    return head, a - head


def _scaled(a, row, powers):
    """a 10^(16 - E) as a double-double (s, r), E = row - _E_MAX."""
    hi, lo, head, tail = (column[row] for column in powers)
    a_head, a_tail = _split(a)
    s = a * hi
    err = ((a_head * head - s) + a_head * tail + a_tail * head) + a_tail * tail
    return s, err + a * lo


def _format_values(x, ncols):
    """The bytes of the float64 values x, each as '%.17g' formats it,
    followed by ',' and, after every ncols-th value, by a newline."""
    tables = _g17_tables()
    a = np.abs(x)
    fast = (a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1])
    a[~fast] = 1.0        # keeps the arithmetic finite; '%.17g' formats these
    row = np.floor(np.log10(a)).astype(np.int64) + _E_MAX
    s, r = _scaled(a, row, tables.powers)
    # the guess is one off only next to a power of ten; judge it on the
    # unrounded s, since a guess one too high can round up to D = 10^16
    low = (s < 1e16) | ((s == 1e16) & (r < 0.0))
    high = (s > 1e17) | ((s == 1e17) & (r >= 0.0))
    off = np.flatnonzero(low | high)
    if off.size:
        row[off] += high[off].astype(np.int64) - low[off]
        s[off], r[off] = _scaled(a[off], row[off], tables.powers)
    fast &= np.abs(r - np.floor(r) - 0.5) >= _TIE_GUARD
    r = np.floor(r + 0.5)
    # D = s + r is in [10^16, 10^17], compared through s - 10^k, which is
    # exact wherever the comparison is close
    fast &= ((s - 1e16) + r >= 0.0) & ((s - 1e17) + r <= 0.0)
    top = (s - 1e17) + r == 0.0     # rounded up into the next decade
    d = s.astype(np.int64) + r.astype(np.int64)
    d[top] = 10 ** 16
    row += top

    lead = d // 10 ** 16
    rest = d - lead * 10 ** 16
    digits = np.empty((len(x), 5), np.uint32)
    shown = np.ones(len(x), np.uint8)
    for j, scale in enumerate((10 ** 12, 10 ** 8, 10 ** 4, 1)):
        chunk = rest // scale
        rest -= chunk * scale
        digits[:, j + 1] = tables.quads[chunk]
        np.maximum(shown, tables.ends[j][chunk], out=shown)
    digits = digits.view(np.uint8)[:, 3:]
    digits[:, 0] = 48 + lead

    canvas = np.empty((len(x), len(_CANVAS)), np.uint8)
    canvas[:] = _CANVAS
    canvas[:, 0] *= np.signbit(x)
    canvas[:, 6:40:2] = digits
    canvas[:, 41:45] = tables.exponents[row].view(np.uint8).reshape(-1, 4)
    canvas[ncols - 1::ncols, -1] = ord("\n")
    canvas *= tables.masks[tables.forms[row] + shown]
    slow = np.flatnonzero(~fast)
    if slow.size:
        width = len(_CANVAS) - 1
        texts = b"".join([(b"%.17g" % v).ljust(width, b"\0")
                          for v in x[slow].tolist()])
        canvas[slow, :width] = np.frombuffer(texts, np.uint8).reshape(-1, width)
    return canvas.tobytes().translate(None, b"\0")


def _write_fields_csv(path, grid, geom, residual):
    names = list(grid.coord_names) + ["u", "tau", "eta"]
    names += [f"lambda_{i + 1}" for i in range(grid.dim)]
    names += ["residual"]
    coords = [c.ravel() for c in grid.coords()]
    columns = coords + [geom.u.ravel(), geom.tau.ravel(), geom.eta.ravel()]
    eigs = geom.shape_eigs.reshape(-1, grid.dim)
    columns += [eigs[:, i] for i in range(grid.dim)]
    columns += [np.asarray(residual, dtype=float).ravel()]
    with open(path, "wb") as handle:
        handle.write((",".join(names) + "\n").encode())
        for start in range(0, grid.node_count, _ROWS_PER_BLOCK):
            rows = np.column_stack(
                [c[start:start + _ROWS_PER_BLOCK] for c in columns])
            handle.write(_format_values(rows.ravel(), len(columns)))


def _write_trace_csv(path, history):
    # newline="\n": lines end in "\n" on every platform, as in fields.csv
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
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
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
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
    # the S^2 profile is formed on the ring vector, then repeated along
    # each ring: numpy's transcendentals run several times slower on the
    # node mesh's stride-0 view
    if grid.dim == 1:
        profile = lambda g: 0.8 + 0.1 * np.cos(g.theta)
    else:
        profile = lambda g: np.repeat(
            0.8 + 0.1 * (1.5 * np.cos(g.phi[:, None]) ** 2 - 0.5), g.n_lon,
            axis=1)
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

    # fields.csv's tables are built before the solve allocates, so that
    # they do not hold the heap up above the solve's freed arrays (about
    # 0.4 MB of peak RSS on a 48x96 solve)
    _g17_tables()
    solver = ContinuationSolver(grid, config.target, config.solver, barriers,
                                config.box.tau_max)
    try:
        state = solver.run()
    except (ContinuationError, InternalConsistencyError) as exc:
        summary["continuation"] = {"failed": True, "message": str(exc)}
        partial = getattr(exc, "state", None)
        if partial is not None:
            _write_trace_csv(os.path.join(outdir, "trace.csv"),
                             partial.step_history)
            summary["levels"] = _level_summaries(partial.levels)
        return _finish(outdir, summary, quiet, EXIT_CONTINUATION,
                       f"continuation failed: {exc}")

    residual, geom, _ = solver.residual_with_geometry(state.u, state.t)
    _write_fields_csv(os.path.join(outdir, "fields.csv"), grid, geom, residual)
    _write_trace_csv(os.path.join(outdir, "trace.csv"), state.step_history)
    # the largest tilt along the whole path, which the monitors cap at the
    # audited tau_max
    max_tau = max(rec.max_tau for rec in state.step_history)
    summary["continuation"] = {
        "failed": False,
        "t": state.t,
        "steps": len(state.step_history),
        "residual_sup_norm": state.residual_norm,
        "recomputed_residual_sup_norm": float(np.max(np.abs(residual))),
        "min_u": float(state.u.min()),
        "max_u": float(state.u.max()),
        "max_tau": max_tau,
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
