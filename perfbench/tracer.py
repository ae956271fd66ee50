"""Per-layer spans around the calls into dscurv's modules.

The tracer patches, from outside the program, every public function and
public method defined in a dscurv module (plus the CLI's artifact writers
and the sparse LU factorization the solver calls) so that each call opens
a span.  A layer is the defining module: ``grid``, ``geometry``,
``symmetric``, ``prescription``, ``monitor``, ``solver`` and ``cli``.

Spans are aggregated as they close, keyed by the layer and name of the
span, the layer of its parent span and its anchor (the nearest enclosing
Newton solve, Jacobian assembly or Jacobian check).  A span's self time
is its duration minus the durations of its direct children, so the self
times of all spans in one operation add up to the time covered by its
root spans.

Patching happens only inside ``Tracer.installed()``; untraced operations
run the program's own functions with no wrapper in between.
"""

import contextlib
import functools
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "solver", "geometry", "symmetric", "prescription",
          "monitor", "grid")

# Private helpers that are layer work in their own right.
_PRIVATE_SPANS = {
    "cli": ("_write_fields_csv", "_write_trace_csv", "_write_summary"),
}

_NEWTON = "ContinuationSolver.newton_solve"
_RUN = "ContinuationSolver.run"
_RESIDUAL = "ContinuationSolver.residual_with_geometry"
_JACOBIAN = "ContinuationSolver.jacobian"
_CHECK = "ContinuationSolver.directional_derivative_check"
_SPLU = "splu"
_LU_SOLVE = "splu.solve"
_ANCHORS = (_NEWTON, _JACOBIAN, _CHECK)
_DIFF = ("SphereGrid.partial_gradient", "SphereGrid.partial_hessian")
_WRITERS = _PRIVATE_SPANS["cli"]


class Tracer:
    """Span aggregates for the operations run while it is installed."""

    def __init__(self):
        self.reset()

    def reset(self):
        # open spans: [layer, name, anchor, context, start, child_time];
        # the context is what the span's children see as their anchor
        self._stack = []
        # (layer, name, parent_layer, anchor) -> [count, inclusive s, self s]
        self.records = defaultdict(lambda: [0, 0.0, 0.0])
        self.newton_iters = 0
        self.steps = 0
        self.lu_fill_max = 0

    # -- spans ------------------------------------------------------------

    def _open(self, layer, name):
        anchor = self._stack[-1][3] if self._stack else None
        context = name if name in _ANCHORS else anchor
        self._stack.append([layer, name, anchor, context,
                            time.perf_counter(), 0.0])

    def _close(self):
        end = time.perf_counter()
        layer, name, anchor, _, start, child = self._stack.pop()
        duration = end - start
        parent_layer = None
        if self._stack:
            parent = self._stack[-1]
            parent[5] += duration
            parent_layer = parent[0]
        rec = self.records[(layer, name, parent_layer, anchor)]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child

    def _wrap(self, fn, layer, name):
        tracer = self
        hook = {_NEWTON: tracer._on_newton, _RUN: tracer._on_run}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if hook is not None:
                    hook(None, exc)
                raise
            finally:
                tracer._close()
            if hook is not None:
                hook(result, None)
            return result
        return traced

    def _on_newton(self, result, exc):
        # accepted Newton steps, as the program counts them
        source = result if exc is None else exc
        self.newton_iters += int(getattr(source, "iterations", 0) or 0)

    def _on_run(self, state, exc):
        if exc is not None:
            state = getattr(exc, "state", None)
        if state is not None:
            self.steps += len(state.step_history)

    def _traced_splu(self, splu):
        tracer = self

        def traced_splu(*args, **kwargs):
            tracer._open("solver", _SPLU)
            try:
                lu = splu(*args, **kwargs)
            finally:
                tracer._close()
            # L and U are built anew on each access: a span outside every
            # layer keeps that copy out of the solver's self time
            tracer._open("trace", "lu_fill_count")
            try:
                fill = lu.L.nnz + lu.U.nnz
            finally:
                tracer._close()
            tracer.lu_fill_max = max(tracer.lu_fill_max, fill)
            return _TracedLU(lu, tracer)
        return traced_splu

    # -- patching -----------------------------------------------------------

    def _patches(self):
        """(owner, attribute, replacement) for every traced callable."""
        function = types.FunctionType
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "dscurv"
                                           or name.startswith("dscurv."))}
        wrappers = {}      # id(original function) -> wrapper
        patches = []
        for mod_name, mod in modules.items():
            layer = mod_name.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, value in vars(mod).items():
                if isinstance(value, type) and value.__module__ == mod_name:
                    for meth, fn in vars(value).items():
                        if isinstance(fn, function) and meth[0] != "_":
                            patches.append((value, meth, self._wrap(
                                fn, layer, fn.__qualname__)))
                elif (isinstance(value, function)
                      and value.__module__ == mod_name
                      and (attr[0] != "_"
                           or attr in _PRIVATE_SPANS.get(layer, ()))):
                    wrappers[id(value)] = self._wrap(value, layer,
                                                     value.__qualname__)
            if layer == "solver" and hasattr(mod, "spla"):
                patches.append((mod, "spla",
                                _ModuleProxy(mod.spla, splu=self._traced_splu(
                                    mod.spla.splu))))
        # re-point every module-level name bound to a traced function,
        # including names imported into other modules
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, function) and id(value) in wrappers:
                    patches.append((mod, attr, wrappers[id(value)]))
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Trace the calls made inside the block."""
        patches = self._patches()
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            if self._stack:
                raise RuntimeError("trace ended with open spans")

    # -- metrics --------------------------------------------------------

    def _sum(self, field, layer=None, names=None, entry=False, anchor=None):
        total = 0
        for (lay, name, parent_layer, anc), rec in self.records.items():
            if layer is not None and lay != layer:
                continue
            if names is not None and name not in names:
                continue
            if entry and parent_layer == lay:
                continue
            if anchor is not None and anc != anchor:
                continue
            total += rec[field]
        return total

    def layer_metrics(self):
        """Per-layer metrics of the operations traced since reset()."""
        count, incl, own = 0, 1, 2
        s = self._sum
        # every Newton solve is one homotopy step attempt
        attempts = s(count, names=(_NEWTON,))
        residuals = s(count, names=(_RESIDUAL,))
        jacobians = s(count, names=(_JACOBIAN,))
        # a Newton solve evaluates its start, then one residual per trial
        line_search = s(count, names=(_RESIDUAL,), anchor=_NEWTON) - attempts
        m = {
            "solver.homotopy_steps": self.steps,
            "solver.homotopy_rejections": attempts - self.steps,
            "solver.step_accept_ratio": _ratio(self.steps, attempts),
            "solver.newton_iters": self.newton_iters,
            "solver.residual_evals": residuals,
            "solver.residual_s": s(incl, names=(_RESIDUAL,)),
            "solver.jacobian_calls": jacobians,
            "solver.jacobian_s": s(incl, names=(_JACOBIAN,)),
            "solver.jacobian_self_s": s(own, names=(_JACOBIAN,)),
            "solver.residual_evals_per_jacobian": _ratio(
                s(count, names=(_RESIDUAL,), anchor=_JACOBIAN), jacobians),
            "solver.jacobian_check_calls": s(count, names=(_CHECK,)),
            "solver.jacobian_check_s": s(incl, names=(_CHECK,)),
            "solver.lu_factor_calls": s(count, names=(_SPLU,)),
            "solver.lu_factor_s": s(incl, names=(_SPLU,)),
            "solver.lu_fill_nnz": self.lu_fill_max,
            "solver.lu_solve_s": s(incl, names=(_LU_SOLVE,)),
            "solver.line_search_evals": line_search,
            "solver.line_search_accept_ratio": _ratio(self.newton_iters,
                                                      line_search),
        }
        for layer in ("geometry", "symmetric"):
            m[f"{layer}.calls"] = s(count, layer=layer, entry=True)
            m[f"{layer}.s"] = s(incl, layer=layer, entry=True)
        evaluates = tuple(name for (lay, name, _, _) in self.records
                          if lay == "prescription"
                          and name.endswith(".evaluate"))
        m["prescription.evaluate_calls"] = s(count, names=evaluates,
                                             entry=True)
        m["prescription.evaluate_s"] = s(incl, names=evaluates, entry=True)
        m["prescription.audit_s"] = s(incl, names=("audit_structural",))
        m["prescription.scan_s"] = s(incl, names=("scan_barriers",))
        m["monitor.bounds_calls"] = s(count, names=("check_bounds",))
        m["monitor.bounds_s"] = s(incl, names=("check_bounds",))
        m["monitor.identity_s"] = s(incl, names=("identity_residuals",))
        m["grid.diff_calls"] = s(count, names=_DIFF)
        m["grid.diff_s"] = s(incl, names=_DIFF)
        m["grid.stencil_table_s"] = s(incl, names=("SphereGrid.stencil_table",))
        m["cli.parse_s"] = s(incl, names=("parse_config",))
        m["cli.artifacts_s"] = s(incl, names=_WRITERS)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = s(own, layer=layer)
        return m


class _TracedLU:
    """A SuperLU factorization whose solve() opens a span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer._open("solver", _LU_SOLVE)
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer._close()

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class _ModuleProxy:
    """A module with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _ratio(num, den):
    return num / den if den else 0.0
