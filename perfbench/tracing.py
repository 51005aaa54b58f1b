"""Span tracing of the covscatter layers from outside the program.

`Tracer.install()` replaces every public function of the loaded
``covscatter.*`` modules with a wrapper that records a span: name, start,
end, parent span and the id of the benchmark operation it ran under. A
function is wrapped under each name it is bound to in every module, so
calls through ``from .scattering import cst_fit`` are seen as well as calls
through the defining module. Spans stay in memory; `layer_metrics()`
reduces them to the per-layer metrics after the traced phase.

Self time is a span's duration minus the time its child spans cover.
Counts come from the arguments and results of a few functions (see
``HOOKS``); functions a later version of the program no longer has are
reported as absent and their metrics read 0.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "covscatter"
LAYERS = ("io", "spectral", "wavelets", "scattering", "readout", "bounds", "harness", "cli")

# (function, metrics) pairs; "calls" and "self_s" come from the spans
TIMED = (
    ("spectral.eig_sym", ("calls", "self_s")),
    ("spectral.sample_covariance", ("calls", "self_s")),
    ("spectral.wavelet_operator", ("calls", "self_s")),
    ("bounds.measured_wavelet_delta", ("calls", "self_s")),
    ("bounds.spectral_norm", ("calls", "self_s")),
    ("io.read_data_csv", ("calls", "self_s")),
    ("io.write_features_csv", ("calls", "self_s")),
    ("io.write_rows_csv", ("calls", "self_s")),
    ("io.write_provenance", ("calls", "self_s")),
    ("scattering.cst_fit", ("calls", "self_s")),
    ("scattering.decide_layout", ("calls", "self_s")),
    ("scattering.transform_with_layout", ("calls", "self_s")),
    ("scattering.cst_transform_batch", ("calls", "self_s")),
    ("readout.ridge_fit", ("calls", "self_s")),
    ("readout.pca_fit", ("calls", "self_s")),
    ("readout.pca_transform", ("calls", "self_s")),
    ("wavelets.build_filterbank", ("calls", "self_s")),
    ("wavelets.wavelet_matrices", ("calls", "self_s")),
    ("harness.run_stability", ("self_s",)),
    ("harness.grid_search", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
)

# counted metrics: name -> unit, better
COUNTED = {
    "spectral.eig_sym.distinct_frac": ("ratio", "higher"),
    "io.read_data_csv.cells": ("count", "lower"),
    "io.write_features_csv.values": ("count", "lower"),
    "io.write_features_csv.bytes": ("B", "lower"),
    "io.write_rows_csv.bytes": ("B", "lower"),
    "scattering.paths_attempted": ("count", "lower"),
    "scattering.paths_retained": ("count", "lower"),
    "scattering.retained_frac": ("ratio", "higher"),
    **{f"scattering.depth{d}.{k}": ("count", "lower") for d in (1, 2, 3) for k in ("retained", "pruned")},
    "scattering.transform_with_layout.values": ("count", "lower"),
    "scattering.gemm_gflop": ("GFLOP", "lower"),
    "readout.ridge_fit.wide_calls": ("count", "lower"),
    "readout.ridge_fit.max_d": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.accounted_frac": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.absent_functions": ("count", "lower"),
}


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for fn, kinds in TIMED:
        for kind in kinds:
            specs.append((f"{fn}.{kind}", "count" if kind == "calls" else "s", "lower"))
    specs += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [(name, unit, better) for name, (unit, better) in COUNTED.items()]
    return specs


def span_name(fn):
    return f"{fn.__module__[len(PACKAGE) + 1 :]}.{fn.__name__}"


def layer_of(name):
    return name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# counting hooks: called with the tracer, the bound argument values in
# signature order, and the result


def _hook_eig_sym(tracer, args, result):
    # redundancy within one pass: later passes repeat the first one's inputs
    if tracer.op_id.startswith("0:"):
        import numpy as np

        matrix = np.ascontiguousarray(args[0], dtype=np.float64)
        tracer.eig_inputs.append(hashlib.blake2b(matrix.tobytes()).digest())


def _hook_read_data_csv(tracer, args, result):
    tracer.counts["io.read_data_csv.cells"] += result.values.size


def _hook_write_features_csv(tracer, args, result):
    tracer.counts["io.write_features_csv.values"] += args[1].matrix.size
    tracer.counts["io.write_features_csv.bytes"] += os.path.getsize(args[0])


def _hook_write_rows_csv(tracer, args, result):
    tracer.counts["io.write_rows_csv.bytes"] += os.path.getsize(args[0])


def _gemm_flop(model, x, products):
    # one (N x N) @ (N x T) product per evaluated path
    n = model.n_features
    t = x.shape[1] if getattr(x, "ndim", 1) == 2 else 1
    return 2.0 * n * n * t * products


def _hook_decide_layout(tracer, args, result):
    model, x = args[0], args[1]
    retained = result.paths[1:]  # the root is not a decision
    c = tracer.counts
    c["scattering.paths_retained"] += len(retained)
    c["scattering.paths_attempted"] += len(retained) + len(result.pruned)
    for path in retained:
        c[f"scattering.depth{len(path)}.retained"] += 1
    for path in result.pruned:
        c[f"scattering.depth{len(path)}.pruned"] += 1
    c["scattering.gemm_gflop"] += _gemm_flop(model, x, len(retained) + len(result.pruned)) / 1e9


def _hook_transform_with_layout(tracer, args, result):
    model, x, layout = args[0], args[1], args[2]
    c = tracer.counts
    c["scattering.transform_with_layout.values"] += result.size
    c["scattering.gemm_gflop"] += _gemm_flop(model, x, len(layout.paths) - 1) / 1e9


def _hook_ridge_fit(tracer, args, result):
    shape = getattr(args[0], "shape", ())
    d, t = (shape if len(shape) == 2 else (1, shape[0]))
    c = tracer.counts
    c["readout.ridge_fit.wide_calls"] += int(d > t)
    c["readout.ridge_fit.max_d"] = max(c["readout.ridge_fit.max_d"], d)


HOOKS = {
    "spectral.eig_sym": _hook_eig_sym,
    "io.read_data_csv": _hook_read_data_csv,
    "io.write_features_csv": _hook_write_features_csv,
    "io.write_rows_csv": _hook_write_rows_csv,
    "scattering.decide_layout": _hook_decide_layout,
    "scattering.transform_with_layout": _hook_transform_with_layout,
    "readout.ridge_fit": _hook_ridge_fit,
}


class Tracer:
    """Records spans of the wrapped covscatter functions while installed."""

    def __init__(self):
        self.spans = []  # (span_id, name, start, end, parent_id, op_id)
        self.counts = Counter()
        self.eig_inputs = []  # digests of the first pass's eig_sym inputs
        self.op_id = None
        self.absent = []
        self._stack = []
        self._ids = itertools.count(1)
        self._patched = []

    def install(self):
        wrappers = {}
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            if mod_name.rpartition(".")[2].startswith("_"):
                continue  # private modules such as the Jacobi backend count as their caller's time
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(PACKAGE + "."):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj)
                setattr(module, attr, wrappers[id(obj)])
                self._patched.append((module, attr, obj))
        wrapped = {span_name(obj) for _, _, obj in self._patched}
        self.absent = sorted({fn for fn, _ in TIMED} - wrapped)

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched = []

    def _wrap(self, fn):
        name = span_name(fn)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.op_id))
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, list(bound.arguments.values()), result)
            return result

        return traced

    def self_times(self):
        """Self seconds per span id."""
        covered = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return {sid: (end - start) - covered[sid] for sid, _, start, end, _, _ in self.spans}


def layer_metrics(tracer, traced_pass_s, untraced_pass_s, traced_elapsed_s):
    """Per-layer metric values from the spans of the traced phase."""
    own = tracer.self_times()
    calls, self_s, layer_s = Counter(), defaultdict(float), defaultdict(float)
    for sid, name, *_ in tracer.spans:
        calls[name] += 1
        self_s[name] += own[sid]
        layer_s[layer_of(name)] += own[sid]
    values = {}
    for fn, kinds in TIMED:
        for kind in kinds:
            values[f"{fn}.{kind}"] = calls[fn] if kind == "calls" else self_s[fn]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_s[layer]
    c = tracer.counts
    eig = tracer.eig_inputs
    values.update(
        {
            "spectral.eig_sym.distinct_frac": len(set(eig)) / len(eig) if eig else 0.0,
            "scattering.retained_frac": (
                c["scattering.paths_retained"] / c["scattering.paths_attempted"]
                if c["scattering.paths_attempted"]
                else 0.0
            ),
            "trace.wall_s": traced_pass_s,
            "trace.overhead_frac": traced_pass_s / untraced_pass_s - 1.0,
            "trace.accounted_frac": sum(own.values()) / traced_elapsed_s,
            "trace.spans": len(tracer.spans),
            "trace.absent_functions": len(tracer.absent),
        }
    )
    for name in COUNTED:
        values.setdefault(name, c[name])
    return values


def op_breakdown(tracer, top=4):
    """Largest self-time functions of each operation label, as shares of its spans."""
    own = tracer.self_times()
    per_op, runs = defaultdict(Counter), defaultdict(set)
    for sid, name, _, _, _, op_id in tracer.spans:
        label = op_id.split(":", 1)[1]
        per_op[label][name] += own[sid]
        runs[label].add(op_id)
    lines = []
    for label, by_fn in per_op.items():
        total = sum(by_fn.values())
        parts = ", ".join(f"{fn} {100 * s / total:.0f}%" for fn, s in by_fn.most_common(top))
        lines.append(f"{label}: {total:.3f} s traced in {len(runs[label])} runs; {parts}")
    return lines
