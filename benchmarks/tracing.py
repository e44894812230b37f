"""Spans around blockspin's functions, installed at run time from outside the package.

``installed(tracer)`` rebinds every name under which a traced function is
reachable inside the package: its home module and every module that imported
it (``background`` binds its own ``fine_average``, ``averaging_symbol``,
``fiber_split`` ...), plus the ``QuadraticAction.from_heat_minus_mu``
classmethod and scipy's ``gmres`` as ``background`` calls it.  Leaving the
context restores the originals, so untraced requests run the package as is.

Each wrapper records one span (name, binding site, start, end, parent span,
request id) in memory; ``layer_metrics`` turns the spans and the counters the
wrappers keep into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import scipy.sparse.linalg as spla

#: traced functions by home module; ``Class.method`` names a classmethod.
TRACED = {
    "torus": ("fiber_split", "fiber_merge", "fiber_momenta"),
    "lattice_ops": (
        "fine_average",
        "fine_average_adjoint",
        "apply_heat",
        "apply_heat_transpose",
        "operator_matrix",
        "profile_axis_symbol",
    ),
    "symbols": (
        "averaging_symbol",
        "heat_symbol",
        "well_matrix",
        "zero_field_symbol",
        "well_symbol",
        "small_k_fit",
    ),
    "background": ("solve_nonlinear", "solve_linear", "solve_well_linear", "nonlinear_residuals", "gmres"),
    "action": ("fluctuation_spectrum",),
    "flow": (
        "run_flow",
        "renormalize_mu",
        "quadratic_mass_correction",
        "QuadraticAction.from_heat_minus_mu",
        "block_spin_step",
        "localize_quadratic",
    ),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

#: counters and ratios reported beside the per-function calls and self times: name -> unit
COUNT_UNITS = {
    "lattice_ops.fine_average.sites": "sites/req",
    "lattice_ops.operator_matrix.columns": "cols/req",
    "symbols.zero_field_symbol.fiber_entries": "entries/req",
    "symbols.well_symbol.fiber_entries": "entries/req",
    "background.newton_iters": "iters/req",
    "background.residual_evals_per_newton": "1",
    "background.gmres.inner_iters": "iters/req",
    "background.solve_well_linear.failed": "fails/req",
    "flow.corrections_per_renormalize": "1",
    "flow.block_spin_step.grid_bytes": "B/req",
    "action.fluctuation_spectrum.eigenvalues": "eigs/req",
    "trace.overhead_frac": "1",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "calls/req"
        units[f"{name}.self_s"] = "s/req"
    units.update(COUNT_UNITS)
    return units


def _fiber_entries(args, kwargs) -> int:
    """Momenta times block momenta for zero_field_symbol / well_symbol(k, mu, d, shape, ...)."""
    k = args[0] if args else kwargs["k"]
    shape = args[3] if len(args) > 3 else kwargs["shape"]
    return np.size(k) // 4 * shape.mt * shape.mx**3


def _count_fine_average(counts, args, kwargs, out):
    counts["lattice_ops.fine_average.sites"] += (args[0] if args else kwargs["f"]).values.size


def _count_operator_matrix(counts, args, kwargs, out):
    counts["lattice_ops.operator_matrix.columns"] += out.shape[1]


def _count_zero_field(counts, args, kwargs, out):
    counts["symbols.zero_field_symbol.fiber_entries"] += _fiber_entries(args, kwargs)


def _count_well(counts, args, kwargs, out):
    counts["symbols.well_symbol.fiber_entries"] += _fiber_entries(args, kwargs)


def _count_newton(counts, args, kwargs, out):
    counts["background.newton_iters"] += out.iterations


def _count_grid(counts, args, kwargs, out):
    counts["flow.block_spin_step.grid_bytes"] += (args[0] if args else kwargs["action"]).symbol_grid.nbytes


def _count_eigenvalues(counts, args, kwargs, out):
    counts["action.fluctuation_spectrum.eigenvalues"] += len(out.eigenvalues)


#: per-function counter updates: name -> fn(counts, args, kwargs, result)
HOOKS = {
    "lattice_ops.fine_average": _count_fine_average,
    "lattice_ops.operator_matrix": _count_operator_matrix,
    "symbols.zero_field_symbol": _count_zero_field,
    "symbols.well_symbol": _count_well,
    "background.solve_nonlinear": _count_newton,
    "flow.block_spin_step": _count_grid,
    "action.fluctuation_spectrum": _count_eigenvalues,
}


class Tracer:
    """In-memory span recorder for one process (single-threaded use)."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, site, start, end, parent index or -1, request id)
        self.counts: Counter = Counter()
        self.request: int = -1
        self._stack: list[int] = []

    def call(self, name: str, site: str, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.counts[f"{name}.failed"] += 1
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, site, start, end, parent, self.request)
        hook = HOOKS.get(name)
        if hook is not None:
            hook(self.counts, args, kwargs, out)
        return out

    def wrap(self, fn, name: str, site: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, site, fn, args, kwargs)

        return traced

    def wrap_gmres(self, gmres):
        """scipy's gmres with an inner-iteration counter added as its callback."""

        def counted(A, b, *args, **kwargs):
            if kwargs.get("callback") is None:
                def tick(_residual):
                    self.counts["background.gmres.inner_iters"] += 1

                kwargs["callback"] = tick
                kwargs["callback_type"] = "pr_norm"
            return gmres(A, b, *args, **kwargs)

        return self.wrap(counted, "background.gmres", "background")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _ModuleView:
    """A module's attributes with some of them replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _package_modules() -> dict[str, object]:
    return {
        name.split(".", 1)[1]: mod
        for name, mod in list(sys.modules.items())
        if name.startswith("blockspin.") and mod is not None
    }


@contextmanager
def installed(tracer: Tracer):
    """Rebind every traced name in the package to a span-recording wrapper."""
    for mod in TRACED:
        importlib.import_module(f"blockspin.{mod}")
    modules = _package_modules()
    undo = []
    try:
        for mod, fns in TRACED.items():
            home = modules[mod]
            for fn_name in fns:
                name = f"{mod}.{fn_name}"
                if fn_name == "gmres":
                    view = _ModuleView(spla, gmres=tracer.wrap_gmres(spla.gmres))
                    undo.append((home, "spla", home.spla))
                    home.spla = view
                elif "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    raw = vars(cls)[meth]
                    undo.append((cls, meth, raw))
                    setattr(cls, meth, classmethod(tracer.wrap(raw.__func__, name, mod)))
                else:
                    original = getattr(home, fn_name)
                    for site, owner in modules.items():
                        for attr, value in list(vars(owner).items()):
                            if value is original:
                                undo.append((owner, attr, value))
                                setattr(owner, attr, tracer.wrap(original, name, site))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    child = defaultdict(float)
    for name, site, start, end, parent, request in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[3] - s[2]) - child[i] for i, s in enumerate(spans)]


def layer_metrics(tracer: Tracer, requests: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics, per traced request where the unit says so."""
    n = max(requests, 1)
    calls = Counter()
    selfs = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[0]] += 1
        selfs[span[0]] += own
    c = tracer.counts
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.self_s"] = selfs[name] / n
    for key, unit in COUNT_UNITS.items():
        if unit.endswith("/req"):
            out[key] = c[key] / n
    newton = c["background.newton_iters"]
    out["background.residual_evals_per_newton"] = (
        calls["background.nonlinear_residuals"] / newton if newton else 0.0
    )
    renorm = calls["flow.renormalize_mu"]
    out["flow.corrections_per_renormalize"] = (
        calls["flow.quadratic_mass_correction"] / renorm if renorm else 0.0
    )
    out["trace.overhead_frac"] = overhead_frac
    return out
