"""Span tracer installed around hcr's layer boundaries from outside src/.

Wrappers replace the public functions of each hcr module, every name
re-bound by `from .x import y` in another hcr module, and a few class
methods.  Each call becomes a span (name, start, end, parent); a span's
self time is its duration minus the time its child spans cover.  Hot
scalar calls are only aggregated per name, so memory stays bounded; the
other spans are kept in memory and written out when the run ends.

Counters that need a call's arguments or result (branches, backtracks,
bytes, ...) are filled by hooks.  A hook runs with the clock paused: its
duration is removed from every open span, so it adds nothing to any
layer's time.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("basis1d", "tensor_basis", "dataset", "estimator", "density",
          "likelihood", "model_io", "cli")

# module -> public functions timed as layer boundaries
FUNCTIONS = {
    "tensor_basis": ("build_full", "build_sparse"),
    "dataset": ("load_table", "write_table", "fit_transform"),
    "estimator": ("fit", "adapt", "prune"),
    "density": ("evaluate_points", "evaluate", "marginalize",
                "conditional_slice", "impute"),
    "likelihood": ("log_likelihood", "gradient", "refine", "repair_negative",
                   "find_negative_witness"),
    "model_io": ("save_model", "load_model"),
    "cli": ("main", "cmd_fit", "cmd_impute", "cmd_refine"),
}
# module -> (class, methods); a method's span is named module.method
METHODS = {
    "basis1d": ("Family1D", ("eval", "eval_all")),
    "tensor_basis": ("BasisSpec", ("eval_function",)),
    "dataset": ("Dataset", ("transformed",)),
    "density": ("ConditionalSlice", ("expected_value", "top_mode",
                                     "modes_and_clusters")),
}
# called thousands of times per operation: aggregated, no span list entry
HOT = {"basis1d.eval", "basis1d.eval_all", "tensor_basis.eval_function",
       "density.evaluate", "density.conditional_slice", "density.expected_value",
       "density.top_mode", "density.modes_and_clusters", "density.impute",
       "estimator.adapt"}
MAX_SPANS = 20000


class _Frame:
    __slots__ = ("t0", "child", "span_id")

    def __init__(self, t0, span_id):
        self.t0, self.child, self.span_id = t0, 0.0, span_id


class Tracer:
    """Per-name aggregates (calls, inclusive s, self s, failed) plus spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.failed = defaultdict(int)
        self.counters = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._stack: list[_Frame] = []
        self._active = defaultdict(int)
        self._restore: list[tuple] = []
        self._hooks = {}
        self._paused = False

    # -- installation

    def install(self, hooks: dict):
        """Wrap every boundary; hooks map span name -> fn(args, kwargs, out)."""
        self._hooks = dict(hooks)
        modules = {m: importlib.import_module(f"hcr.{m}") for m in LAYERS}
        wrapped = {}
        for short, names in FUNCTIONS.items():
            mod = modules[short]
            for fname in names:
                fn = getattr(mod, fname)
                wrapped[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn))
        # re-point every hcr namespace that holds one of the originals
        for modname, mod in list(sys.modules.items()):
            if not (modname == "hcr" or modname.startswith("hcr.")) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for short, (cls_name, methods) in METHODS.items():
            cls = getattr(modules[short], cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{short}.{meth}", fn))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        stack, hooks = self._stack, self._hooks
        hot = name in HOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:  # a hook's own library calls are not layer time
                return fn(*args, **kwargs)
            span_id = None
            if not hot:
                if len(self.spans) < MAX_SPANS:
                    span_id = len(self.spans)
                    self.spans.append(None)
                else:
                    self.dropped_spans += 1
            frame = _Frame(time.perf_counter(), span_id)
            stack.append(frame)
            self._active[name] += 1
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                self._active[name] -= 1
                dur = end - frame.t0
                if stack:
                    stack[-1].child += dur
                self.calls[name] += 1
                if not self._active[name]:  # outermost of a recursion only
                    self.total[name] += dur
                self.self_s[name] += dur - frame.child
                if not ok:
                    self.failed[name] += 1
                if span_id is not None:
                    parent = next((f.span_id for f in reversed(stack)
                                   if f.span_id is not None), None)
                    self.spans[span_id] = (span_id, parent, name, frame.t0, end)
            hook = hooks.get(name)
            if hook is not None:
                paused = time.perf_counter()
                self._paused = True
                try:
                    hook(args, kwargs, out)
                finally:
                    self._paused = False
                shift = time.perf_counter() - paused
                for f in stack:
                    f.t0 += shift
            return out

        return traced

    # -- results

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_s), "failed": dict(self.failed),
                "counters": dict(self.counters)}

    def write_spans(self, path):
        rows = [s for s in self.spans if s is not None]
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "dropped": self.dropped_spans, "spans": rows}, fh)


def combine(setup: dict, total: dict, cycles: int) -> dict:
    """Set-up part once plus the mean over traced cycles of the rest."""
    out = {}
    for key in total:
        names = set(total[key]) | set(setup[key])
        out[key] = {n: setup[key].get(n, 0) + (total[key].get(n, 0)
                                               - setup[key].get(n, 0)) / cycles
                    for n in names}
    return out


def file_bytes(target) -> int:
    if isinstance(target, (str, os.PathLike)) and os.path.exists(target):
        return os.path.getsize(target)
    return 0


def standard_hooks(tracer: Tracer) -> dict:
    """Counters named in the per-layer metric list."""
    from hcr.density import evaluate_points
    c = tracer.counters

    def fit(args, kwargs, model):
        data = args[1] if len(args) > 1 else kwargs["data"]
        complete = data.complete_mask()
        if complete.any():
            rho = evaluate_points(model, data.values[complete])
            c["estimator.fit.nonpositive_train_rows"] += int(np.sum(rho <= 0))

    def impute(args, kwargs, completions):
        c["density.impute.branches"] += len(completions)
        c["density.impute.notes"] += sum(len(x.notes) for x in completions)

    def refine(args, kwargs, out):
        # shrinks per step, read back from each accepted step_scale
        config = args[2] if len(args) > 2 else kwargs["config"]
        c["likelihood.refine.steps"] += len(out[1])
        c["likelihood.refine.backtracks"] += sum(
            round(math.log(t.step_scale / config.step_size) / math.log(config.backtrack_factor))
            for t in out[1])

    def witness(args, kwargs, point):
        c["likelihood.find_negative_witness.found"] += point is not None

    def saved_bytes(args, kwargs, out):
        c["model_io.bytes"] += file_bytes(args[1] if len(args) > 1 else kwargs.get("dest"))

    def loaded_bytes(args, kwargs, out):
        c["model_io.bytes"] += file_bytes(args[0] if args else kwargs.get("source"))

    def cmd_impute(args, kwargs, code):
        out = getattr(args[0], "out", None)
        if code == 0 and out and os.path.exists(out):
            with open(out) as fh:
                c["cli.cmd_impute.unfilled_rows"] += sum("nonpositive-mass" in line
                                                         for line in fh)

    return {"estimator.fit": fit, "density.impute": impute,
            "likelihood.refine": refine, "likelihood.find_negative_witness": witness,
            "model_io.save_model": saved_bytes, "model_io.load_model": loaded_bytes,
            "cli.cmd_impute": cmd_impute}


def layer_metrics(agg: dict, import_s: float, overhead: float) -> dict:
    """The per-layer metric set, in the order BENCHMARK.json lists it."""
    calls, total, self_s = agg["calls"], agg["total"], agg["self"]
    failed, cnt = agg["failed"], agg["counters"]
    steps = cnt.get("likelihood.refine.steps", 0)
    backtracks = cnt.get("likelihood.refine.backtracks", 0)
    rows = [
        ("basis1d.eval.calls", calls.get("basis1d.eval", 0), "count"),
        ("basis1d.eval.self_s", self_s.get("basis1d.eval", 0.0), "s"),
        ("basis1d.eval_all.calls", calls.get("basis1d.eval_all", 0), "count"),
        ("basis1d.eval_all.self_s", self_s.get("basis1d.eval_all", 0.0), "s"),
        ("tensor_basis.build_full.s", total.get("tensor_basis.build_full", 0.0), "s"),
        ("tensor_basis.eval_function.calls",
         calls.get("tensor_basis.eval_function", 0), "count"),
        ("dataset.load_table.s", total.get("dataset.load_table", 0.0), "s"),
        ("dataset.write_table.s", total.get("dataset.write_table", 0.0), "s"),
        ("dataset.transformed.s", total.get("dataset.transformed", 0.0), "s"),
        ("estimator.fit.s", total.get("estimator.fit", 0.0), "s"),
        ("estimator.fit.nonpositive_train_rows",
         cnt.get("estimator.fit.nonpositive_train_rows", 0), "count"),
        ("estimator.adapt.calls", calls.get("estimator.adapt", 0), "count"),
        ("estimator.adapt.s", total.get("estimator.adapt", 0.0), "s"),
        ("density.evaluate_points.s", total.get("density.evaluate_points", 0.0), "s"),
        ("density.evaluate.calls", calls.get("density.evaluate", 0), "count"),
        ("density.evaluate.s", total.get("density.evaluate", 0.0), "s"),
        ("density.conditional_slice.calls",
         calls.get("density.conditional_slice", 0), "count"),
        ("density.conditional_slice.self_s",
         self_s.get("density.conditional_slice", 0.0), "s"),
        ("density.expected_value.s", total.get("density.expected_value", 0.0), "s"),
        ("density.top_mode.s", total.get("density.top_mode", 0.0), "s"),
        ("density.modes_and_clusters.s",
         total.get("density.modes_and_clusters", 0.0), "s"),
        ("density.impute.calls", calls.get("density.impute", 0), "count"),
        ("density.impute.self_s", self_s.get("density.impute", 0.0), "s"),
        ("density.impute.failed", failed.get("density.impute", 0), "count"),
        ("density.impute.branches", cnt.get("density.impute.branches", 0), "count"),
        ("density.impute.notes", cnt.get("density.impute.notes", 0), "count"),
        ("likelihood.refine.s", total.get("likelihood.refine", 0.0), "s"),
        ("likelihood.refine.backtracks", backtracks, "count"),
        ("likelihood.refine.accepted_ratio",
         steps / (steps + backtracks) if steps else 0.0, "ratio"),
        ("likelihood.find_negative_witness.s",
         total.get("likelihood.find_negative_witness", 0.0), "s"),
        ("likelihood.find_negative_witness.found",
         cnt.get("likelihood.find_negative_witness.found", 0), "count"),
        ("likelihood.repair_negative.s",
         total.get("likelihood.repair_negative", 0.0), "s"),
        ("model_io.save_model.s", total.get("model_io.save_model", 0.0), "s"),
        ("model_io.load_model.s", total.get("model_io.load_model", 0.0), "s"),
        ("model_io.bytes", cnt.get("model_io.bytes", 0), "bytes"),
        ("cli.import_s", import_s, "s"),
        ("cli.cmd_fit.self_s", self_s.get("cli.cmd_fit", 0.0), "s"),
        ("cli.cmd_impute.self_s", self_s.get("cli.cmd_impute", 0.0), "s"),
        ("cli.cmd_refine.self_s", self_s.get("cli.cmd_refine", 0.0), "s"),
        ("cli.cmd_impute.unfilled_rows", cnt.get("cli.cmd_impute.unfilled_rows", 0),
         "count"),
        ("trace.overhead_frac", overhead, "ratio"),
    ]
    return {name: {"value": float(value), "unit": unit} for name, value, unit in rows}
