"""Per-layer spans around the public functions of the mpm modules.

The tracer replaces each listed function, in every loaded ``mpm``
namespace that holds it (defining module, package re-exports and
by-name imports such as ``matchdist``'s ``from .wasserstein import
min_cost_assignment``), with a wrapper that records a span.  Spans are
attributed by exclusive time: between two trace events the clock is
charged to the innermost active layer, so a layer's self time is its
span time minus the time of child spans in other layers.  Helper
modules (``grades``, ``field``, ``presentation``) are not wrapped and
count toward their caller.  Time outside every span is charged to
``bench``.

Only public names are wrapped.  The float box bound
``matchdist._deviation_f`` runs millions of times per op; wrapping it
would inflate the traced run instead of measuring it.  A listed name
that no longer exists is recorded in ``missing`` and the metrics that
depend on it are not reported.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer -> (module, public function names)
LAYERS = {
    "parse": [("mpm.fpm", ("parse_presentation", "serialize_presentation")),
              ("mpm.cellular", ("parse_complex",))],
    "cellular": [("mpm.cellular", ("homology_presentation", "kernel_basis",
                                   "boundary_morphism"))],
    "presdist": [("mpm.presdist", ("bounds", "pad_and_pair", "label_distance"))],
    "matchdist": [("mpm.matchdist", ("approx_matching_distance",
                                     "sampled_lower_bound"))],
    "lines": [("mpm.lines", ("barcode_along_line", "restrict_presentation"))],
    "onepar": [("mpm.onepar", ("barcode_pairs", "barcode_of"))],
    "wasserstein": [("mpm.wasserstein", ("wasserstein", "wasserstein_full",
                                         "min_cost_assignment",
                                         "bottleneck_assignment"))],
}

# metric -> the wrapped functions it is computed from
METRIC_SOURCES = {
    "matchdist.self_s": ["approx_matching_distance", "sampled_lower_bound"],
    "matchdist.lines": ["approx_matching_distance"],
    "matchdist.lines_per_s": ["approx_matching_distance"],
    "matchdist.max_depth": ["approx_matching_distance"],
    "matchdist.calls": ["approx_matching_distance"],
    "onepar.calls": ["barcode_pairs", "barcode_of"],
    "onepar.self_s": ["barcode_pairs", "barcode_of"],
    "onepar.distinct_orders": ["barcode_pairs"],
    "onepar.repeat_frac": ["barcode_pairs"],
    "wasserstein.assign_calls": ["min_cost_assignment"],
    "wasserstein.assign_s": ["min_cost_assignment"],
    "wasserstein.assign_mean_n": ["min_cost_assignment"],
    "wasserstein.bottleneck_calls": ["bottleneck_assignment"],
    "wasserstein.bottleneck_s": ["bottleneck_assignment"],
    "wasserstein.self_s": ["wasserstein", "min_cost_assignment",
                           "bottleneck_assignment"],
    "cellular.calls": ["homology_presentation"],
    "cellular.self_s": ["homology_presentation"],
    "cellular.cells": ["homology_presentation"],
    "lines.calls": ["barcode_along_line"],
    "lines.self_s": ["barcode_along_line"],
    "presdist.calls": ["bounds"],
    "presdist.self_s": ["bounds"],
    "parse.calls": ["parse_presentation", "parse_complex"],
    "parse.self_s": ["parse_presentation", "parse_complex"],
    "parse.bytes": ["parse_presentation", "parse_complex"],
}

# the layer counters that must repeat exactly for a fixed seed
COUNTERS = ("matchdist.lines", "matchdist.max_depth", "matchdist.calls",
            "onepar.calls", "onepar.distinct_orders", "wasserstein.assign_calls",
            "wasserstein.assign_mean_n", "wasserstein.bottleneck_calls",
            "cellular.calls", "cellular.cells", "lines.calls", "presdist.calls",
            "parse.calls", "parse.bytes")


def _order_key(args):
    """(matrix, row order, column order) of a barcode_pairs call."""
    row_values, col_values, columns = args[0], args[1], args[2]
    rows = tuple(sorted(range(len(row_values)), key=lambda i: (row_values[i], i)))
    cols = tuple(sorted(range(len(col_values)), key=lambda j: (col_values[j], j)))
    matrix = tuple(tuple(sorted(c.items())) for c in columns)
    return matrix, rows, cols


class Tracer:
    """Span and counter collection for one traced pass at a time."""

    def __init__(self):
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)      # layer -> exclusive seconds
        self.calls = defaultdict(int)          # layer -> calls entering it
        self.fn_calls = defaultdict(int)       # function -> calls
        self.fn_s = defaultdict(float)         # function -> inclusive seconds
        self.count = defaultdict(int)          # named counters
        self._orders: set = set()
        self._stack: list[str] = []
        self._last = time.perf_counter()

    # ------------------------------------------------------------------
    # installing and removing the wrappers

    def install(self):
        mpm_modules = [m for name, m in list(sys.modules.items())
                       if (name == "mpm" or name.startswith("mpm.")) and m is not None]
        self.missing = []
        for layer, groups in LAYERS.items():
            for module_name, names in groups:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.missing.extend(names)
                    continue
                for name in names:
                    fn = getattr(module, name, None)
                    if not callable(fn):
                        self.missing.append(name)
                        continue
                    wrapper = self._wrap(layer, name, fn)
                    for m in mpm_modules:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                self._patched.append((m, attr, fn))
                                setattr(m, attr, wrapper)

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched = []

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        hook = getattr(self, f"_on_{name}", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            now = time.perf_counter()
            stack = tracer._stack
            if stack:
                tracer.self_s[stack[-1]] += now - tracer._last
            else:
                tracer.self_s["bench"] += now - tracer._last
            if not stack or stack[-1] != layer:
                tracer.calls[layer] += 1
            stack.append(layer)
            tracer._last = start = now
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                tracer.self_s[stack.pop()] += end - tracer._last
                tracer._last = end
                tracer.fn_calls[name] += 1
                tracer.fn_s[name] += end - start
                if hook is not None:
                    hook(args, result, exc)

        return traced

    def close(self):
        """Charge the time since the last event to the bench."""
        now = time.perf_counter()
        self.self_s["bench"] += now - self._last
        self._last = now

    # ------------------------------------------------------------------
    # counters read at the layer boundaries

    def _on_approx_matching_distance(self, args, result, exc):
        report = result if result is not None else getattr(exc, "report", None)
        if report is not None:
            self.count["matchdist.lines"] += report.lines_evaluated
            depth = getattr(report, "max_depth_seen", 0)
            self.count["matchdist.max_depth"] = max(self.count["matchdist.max_depth"], depth)

    def _on_barcode_pairs(self, args, result, exc):
        self._orders.add(_order_key(args))

    def _on_min_cost_assignment(self, args, result, exc):
        self.count["wasserstein.assign_n_total"] += len(args[0])

    def _on_homology_presentation(self, args, result, exc):
        self.count["cellular.cells"] += len(args[0].cells)

    def _on_parse_presentation(self, args, result, exc):
        self.count["parse.bytes"] += len(args[0].encode())

    _on_parse_complex = _on_parse_presentation

    def end_op(self):
        """Distinct reduction orders are counted per op."""
        self.count["onepar.distinct_orders"] += len(self._orders)
        self._orders = set()

    # ------------------------------------------------------------------

    def metrics(self) -> dict:
        """Layer metrics of the pass traced since the last reset."""
        c, fn_calls, fn_s, self_s = self.count, self.fn_calls, self.fn_s, self.self_s
        md_time = fn_s["approx_matching_distance"]
        bp_calls = fn_calls["barcode_pairs"]
        assign = fn_calls["min_cost_assignment"]
        out = {
            "matchdist.self_s": self_s["matchdist"],
            "matchdist.lines": c["matchdist.lines"],
            "matchdist.lines_per_s": c["matchdist.lines"] / md_time if md_time else 0.0,
            "matchdist.max_depth": c["matchdist.max_depth"],
            "matchdist.calls": fn_calls["approx_matching_distance"],
            "onepar.calls": self.calls["onepar"],
            "onepar.self_s": self_s["onepar"],
            "onepar.distinct_orders": c["onepar.distinct_orders"],
            "onepar.repeat_frac": (1.0 - c["onepar.distinct_orders"] / bp_calls
                                   if bp_calls else 0.0),
            "wasserstein.assign_calls": assign,
            "wasserstein.assign_s": fn_s["min_cost_assignment"],
            "wasserstein.assign_mean_n": (c["wasserstein.assign_n_total"] / assign
                                          if assign else 0.0),
            "wasserstein.bottleneck_calls": fn_calls["bottleneck_assignment"],
            "wasserstein.bottleneck_s": fn_s["bottleneck_assignment"],
            "wasserstein.self_s": self_s["wasserstein"],
            "cellular.calls": self.calls["cellular"],
            "cellular.self_s": self_s["cellular"],
            "cellular.cells": c["cellular.cells"],
            "lines.calls": self.calls["lines"],
            "lines.self_s": self_s["lines"],
            "presdist.calls": self.calls["presdist"],
            "presdist.self_s": self_s["presdist"],
            "parse.calls": self.calls["parse"],
            "parse.self_s": self_s["parse"],
            "parse.bytes": c["parse.bytes"],
        }
        gone = set(self.missing)
        return {k: v for k, v in out.items()
                if not gone.intersection(METRIC_SOURCES[k])}
