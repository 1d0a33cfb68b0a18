"""Per-layer tracing, installed from outside the package.

The layers are the modules of ``weiltrace``.  ``Tracer.install`` wraps
every public function a module defines, plus the ``__call__`` of the
test-function classes, and rebinds the wrapper under every name in the
package that is bound to the original: modules import names directly
(``from .transforms import mellin``), so wrapping only the defining
module would miss most calls.  ``uninstall`` restores the originals.

Each wrapped call records a span (id, parent id, name, start, end, time
spent in child spans, phase, amount).  Spans stay in memory and are
written out once, gzipped JSON lines, when the run ends.  ``amount``
carries the size a metric reads from a call: points evaluated, grid
points of a trace check, ordinates in a zero table.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

import numpy as np

PACKAGE = "weiltrace"
LAYERS = ("families", "grids", "transforms", "special", "zeros",
          "operators", "explicit", "traces", "exprs", "cli")

# Methods wrapped besides the module-level functions.
METHODS = (("families", "TestFunction", "__call__"),
           ("families", "ParityFunction", "__call__"))


def _points(args, kwargs, result):
    return np.size(args[1] if len(args) > 1 else kwargs.get("x"))


def _trapezoid_points(args, kwargs, result):
    return np.size(args[0] if args else kwargs.get("values"))


def _grid_points(args, kwargs, result):
    grid = args[3] if len(args) > 3 else kwargs.get("grid")
    return grid.n_points if grid is not None else 2048


def _table_size(args, kwargs, result):
    return len(result.ordinates) if result is not None else 0


# traced name -> amount(args, kwargs, result) recorded with each span
AMOUNTS = {
    "families.TestFunction.__call__": _points,
    "families.ParityFunction.__call__": _points,
    "grids.trapezoid": _trapezoid_points,
    "traces.toeplitz_trace_check": _grid_points,
    "zeros.find_zeros": _table_size,
    "zeros.load_zeros": _table_size,
}


# Per-layer metrics: (metric, unit, kind, traced names).  Kinds:
#   time        inclusive seconds per operation (outermost calls only)
#   self        seconds per operation outside child spans
#   calls       calls per operation
#   amount      summed amount per operation
#   mean        mean amount per call
#   setup_time  inclusive seconds in the warm-up of the set-up
PER_LAYER = (
    ("transforms.pair_log_fourier.s", "s", "time",
     ("transforms.pair_log_fourier",)),
    ("transforms.pair_log_fourier.calls", "count", "calls",
     ("transforms.pair_log_fourier",)),
    ("transforms.mellin.s", "s", "time", ("transforms.mellin",)),
    ("transforms.mellin.calls", "count", "calls", ("transforms.mellin",)),
    ("explicit.W_infty.s", "s", "time", ("explicit.W_infty",)),
    ("explicit.pv_regularised.s", "s", "time", ("explicit.pv_regularised",)),
    ("explicit.W_prime_total.s", "s", "time", ("explicit.W_prime_total",)),
    ("explicit.W_p.calls", "count", "calls", ("explicit.W_p",)),
    ("explicit.spectral_parts.s", "s", "time", ("explicit.spectral_parts",)),
    ("explicit.archimedean_constant.s", "s", "time",
     ("explicit.archimedean_constant",)),
    ("setup.explicit.archimedean_constant.s", "s", "setup_time",
     ("explicit.archimedean_constant",)),
    ("traces.toeplitz_trace_check.s", "s", "time",
     ("traces.toeplitz_trace_check",)),
    ("traces.commutator_kernel.s", "s", "time",
     ("traces.commutator_kernel",)),
    ("traces.trace_rhs.s", "s", "time", ("traces.trace_rhs",)),
    ("traces.grid_points", "count", "mean", ("traces.toeplitz_trace_check",)),
    ("special.hardy_z.s", "s", "time", ("special.hardy_z",)),
    ("special.hardy_z.calls", "count", "calls", ("special.hardy_z",)),
    ("special.zeta.calls", "count", "calls", ("special.zeta",)),
    ("special.hurwitz_zeta.calls", "count", "calls",
     ("special.hurwitz_zeta",)),
    ("special.l_chi.s", "s", "time", ("special.l_chi",)),
    ("zeros.find_zeros.s", "s", "time", ("zeros.find_zeros",)),
    ("zeros.load_zeros.s", "s", "time", ("zeros.load_zeros",)),
    ("zeros.save_zeros.s", "s", "time", ("zeros.save_zeros",)),
    ("zeros.table_size", "count", "mean",
     ("zeros.find_zeros", "zeros.load_zeros")),
    ("setup.zeros.find_zeros.s", "s", "setup_time", ("zeros.find_zeros",)),
    ("setup.zeros.save_zeros.s", "s", "setup_time", ("zeros.save_zeros",)),
    ("operators.z_image.calls", "count", "calls", ("operators.z_image",)),
    ("operators.apply_Z.s", "s", "time", ("operators.apply_Z",)),
    ("operators.apply_Z_inverse.s", "s", "time",
     ("operators.apply_Z_inverse",)),
    ("operators.twisted_poisson_check.s", "s", "time",
     ("operators.twisted_poisson_check",)),
    ("operators.zspectral_check.s", "s", "time",
     ("operators.zspectral_check",)),
    ("operators.mobius_up_to.s", "s", "time", ("operators.mobius_up_to",)),
    ("families.evaluations", "count", "calls",
     ("families.TestFunction.__call__", "families.ParityFunction.__call__")),
    ("families.points", "count", "amount",
     ("families.TestFunction.__call__", "families.ParityFunction.__call__")),
    ("grids.trapezoid.calls", "count", "calls", ("grids.trapezoid",)),
    ("grids.trapezoid.points", "count", "amount", ("grids.trapezoid",)),
    ("cli.main.self_s", "s", "self", ("cli.main",)),
    ("exprs.parse_function.calls", "count", "calls",
     ("exprs.parse_function",)),
)

# Reported by the run itself, not aggregated from spans.
RUN_METRICS = (("tracing.overhead_s", "s"), ("tracing.spans", "count"))


class Tracer:
    """Wraps the package's public functions and records spans."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._next_id = 0
        self._stack = []          # [span id, child seconds] per open span
        self._depth = {}          # name -> open calls (for recursion)
        self._patches = []        # (owner, attribute, original)
        self.wrapped = set()

    # -- installation -------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sys.modules.items()
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        originals = {}            # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{layer}"),
                          cls_name, None)
            if cls is None or meth not in vars(cls):
                continue
            original = vars(cls)[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth,
                    self._wrap(f"{layer}.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        self.wrapped.add(name)
        amount_of = AMOUNTS.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._next_id += 1
            span_id = tracer._next_id
            stack = tracer._stack
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            depth = tracer._depth.get(name, 0)
            tracer._depth[name] = depth + 1
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                tracer._depth[name] = depth
                if stack:
                    stack[-1][1] += end - start
                amount = (float(amount_of(args, kwargs, result))
                          if amount_of is not None else 0.0)
                tracer.spans.append((span_id, parent, name, start, end,
                                     frame[1], tracer.phase, depth == 0,
                                     amount))
        return wrapper

    # -- results ------------------------------------------------------

    def per_layer(self, ops: int) -> tuple[dict, list]:
        """Per-layer metrics per operation of the "run" phase; returns
        (metrics, names of traced functions the package no longer has)."""
        totals = {}
        for (_, _, name, start, end, child, phase, outer,
             amount) in self.spans:
            t = totals.setdefault((phase, name), [0, 0.0, 0.0, 0.0])
            t[0] += 1
            if outer:
                t[1] += end - start
            t[2] += end - start - child
            t[3] += amount
        metrics, absent = {}, []
        for metric, unit, kind, names in PER_LAYER:
            missing = [n for n in names if n not in self.wrapped]
            absent.extend(missing)
            phase = "setup" if kind == "setup_time" else "run"
            calls, inclusive, own, amount = (
                sum(totals.get((phase, n), (0, 0.0, 0.0, 0.0))[i]
                    for n in names) for i in range(4))
            if kind == "setup_time":
                value = inclusive
            elif kind == "time":
                value = inclusive / ops
            elif kind == "self":
                value = own / ops
            elif kind == "calls":
                value = calls / ops
            elif kind == "amount":
                value = amount / ops
            else:
                value = amount / calls if calls else 0.0
            metrics[metric] = {"value": value, "unit": unit}
        return metrics, sorted(set(absent))

    def write(self, path: str, meta: dict) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(meta) + "\n")
            for span in self.spans:
                (sid, parent, name, start, end, child, phase, outer,
                 amount) = span
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "child_s": child,
                    "phase": phase, "amount": amount}) + "\n")
