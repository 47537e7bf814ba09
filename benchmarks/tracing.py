"""Span tracing for the benchmark's traced run.

The tracer wraps netrand functions and methods from outside the package.
A function is patched at every netrand module that holds it, so the wrapper
sits where the name is looked up, not only where it is defined. Spans
(name, start, end, parent, op) are kept in memory and folded into
per-layer metrics at the end. A name that a later version of netrand no
longer has is skipped, and the layer metrics it fed are left out.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager


def _rows(tracer, args, kwargs, result):
    tracer.count("assignment.draw_batch.rows", getattr(result, "shape", (0,))[0])


def _result_units(tracer, args, kwargs, result):
    tracer.count("exposure.compute_batch.unit_rows", getattr(result, "size", 0))


def _first_arg_units(tracer, args, kwargs, result):
    z = args[0] if args else kwargs.get("z")
    tracer.count("stats.masked_arm_variances.unit_rows", getattr(z, "size", 0))


def _dense_bytes(tracer, args, kwargs, result):
    graph = args[0]
    if graph not in tracer.dense_seen:
        tracer.dense_seen.add(graph)
        n = int(graph.n_units)
        tracer.count("graph.dense.bytes", n * n * 8)


def _conditioning_counts(tracer, args, kwargs, result):
    diag = result[1] if isinstance(result, tuple) and len(result) == 2 else None
    cand = getattr(diag, "n_candidates", None)
    acc = getattr(diag, "n_accepted", None)
    fails = getattr(diag, "failure_counts", None)
    if cand is not None and acc is not None:
        tracer.count("conditioning.candidates", cand)
        tracer.count("conditioning.accepted", acc)
    if isinstance(fails, dict):
        tracer.count("conditioning.inequality_failures", sum(fails.values()))


def _grid_points(tracer, args, kwargs, result):
    diagnostics = getattr(result, "diagnostics", None)
    if not isinstance(diagnostics, dict):
        return
    ci = diagnostics.get("ci")
    if isinstance(ci, dict) and isinstance(ci.get("grid_evaluations"), dict):
        n = sum(len(v) for v in ci["grid_evaluations"].values())
    else:
        n = len(getattr(result, "cells", ())) + (
            getattr(result, "combined", None) is not None)
    tracer.count("inference.grid_points", n)


# (span name, owning class name or None for a module-level function,
#  attribute, hook that reads counts from the call)
PATCHES = (
    ("data.ingest", None, "ingest", None),
    ("graph.dense", "Graph", "dense", _dense_bytes),
    ("assignment.draw_batch", "CompleteRandomization", "draw_batch", _rows),
    ("exposure.compute_batch", "FractionThreshold", "compute_batch", _result_units),
    ("conditioning.sample", None, "sample_conditioning_set", _conditioning_counts),
    ("conditioning.select_focal", None, "select_observed_focal", None),
    ("stats.masked_arm_variances", None, "masked_arm_variances", _first_arg_units),
    ("stats.ratio_stat_rows", None, "ratio_stat_rows", None),
    ("stats.observed", None, "ts_per_exposure", None),
    ("inference.test", None, "run_oracle_test", _grid_points),
    ("inference.test", None, "run_ci_test", _grid_points),
    ("simulation.run_table", None, "run_table", None),
    ("simulation.generate_regular_graph", None, "generate_regular_graph", None),
)

LAYERS = ("assignment", "exposure", "graph", "conditioning", "stats",
          "inference", "data", "simulation")


def _netrand_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "netrand" or name.startswith("netrand."))]


class Tracer:
    """Records spans while its patches are installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict = defaultdict(lambda: defaultdict(float))  # op -> name -> value
        self.op = -1  # -1 marks set-up
        self.dense_seen = weakref.WeakSet()
        self._stack: list[int] = []
        self._sites: list[tuple] = []  # (container, attr, original, was_own)
        self.patched: set[str] = set()
        self.missing: list[str] = []
        self._plan = self._find_sites()

    def count(self, name: str, value) -> None:
        self.counts[self.op][name] += float(value)

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return traced

    def _find_sites(self):
        """Resolve every patch to the containers that hold the name."""
        plan = []
        modules = _netrand_modules()
        for name, owner, attr, hook in PATCHES:
            sites = []
            if owner is None:
                for mod in modules:
                    fn = vars(mod).get(attr)
                    if inspect.isfunction(fn):
                        sites.append((mod, attr, fn, True))
            else:
                classes = {id(c): c for mod in modules
                           for c in [vars(mod).get(owner)] if isinstance(c, type)}
                for cls in classes.values():
                    fn = getattr(cls, attr, None)
                    if inspect.isfunction(fn):
                        sites.append((cls, attr, fn, attr in vars(cls)))
            if sites:
                plan.append((name, hook, sites))
            else:
                self.missing.append(f"{owner + '.' if owner else ''}{attr}")
        return plan

    def install(self) -> None:
        wrappers = {}
        for name, hook, sites in self._plan:
            for container, attr, fn, was_own in sites:
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn, hook)
                setattr(container, attr, wrappers[id(fn)])
                self._sites.append((container, attr, fn, was_own))
                self.patched.add(name)

    def uninstall(self) -> None:
        for container, attr, fn, was_own in reversed(self._sites):
            if was_own:
                setattr(container, attr, fn)
            else:
                delattr(container, attr)
        self._sites.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans]


def _per_span(spans):
    """Duration and self time (duration minus direct children) per span."""
    child = [0.0] * len(spans)
    for name, s, e, parent, op in spans:
        if parent >= 0:
            child[parent] += e - s
    return [(name, e - s, e - s - child[i], parent, op)
            for i, (name, s, e, parent, op) in enumerate(spans)]


def layer_metrics(tracer: Tracer, op_ids: list[int]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced set-up (op -1) and traced ops.

    Op-scoped values are means over the traced ops. ``data.ingest.s`` is
    the traced set-up's value, and ``graph.dense.*`` add the set-up's value
    to the per-op mean, because the adjacency is built either once in
    set-up or once per op depending on the workload.

    Returns the metrics every workload measures, and separately those of
    layers that only some workloads enter, present only where the layer ran.
    """
    k = len(op_ids)
    ops = set(op_ids)
    calls = defaultdict(lambda: [0.0, 0.0])   # scope -> name -> count
    dur = defaultdict(lambda: [0.0, 0.0])
    self_t = defaultdict(lambda: [0.0, 0.0])
    layer_self = defaultdict(float)
    op_wall = 0.0
    covered = 0.0
    info = _per_span(tracer.spans)
    for name, d, st, parent, op in info:
        if op != -1 and op not in ops:
            continue
        if name == "op":
            op_wall += d
            continue
        scope = 0 if op == -1 else 1
        calls[name][scope] += 1
        dur[name][scope] += d
        self_t[name][scope] += st
        if scope:
            layer_self[name.split(".")[0]] += st
            if parent >= 0 and info[parent][0] == "op":
                covered += d

    def per_op(table, name):
        return table[name][1] / k

    def count(name, scope):
        if scope == "setup":
            return tracer.counts[-1].get(name, 0.0)
        return sum(tracer.counts[i].get(name, 0.0) for i in op_ids) / k

    m = {}
    p = tracer.patched
    if "exposure.compute_batch" in p:
        m["exposure.compute_batch.calls"] = per_op(calls, "exposure.compute_batch")
        m["exposure.compute_batch.unit_rows"] = count("exposure.compute_batch.unit_rows", "op")
        m["exposure.compute_batch.s"] = per_op(dur, "exposure.compute_batch")
    if "graph.dense" in p:
        m["graph.dense.s"] = dur["graph.dense"][0] + per_op(dur, "graph.dense")
        m["graph.dense.bytes"] = (count("graph.dense.bytes", "setup")
                                  + count("graph.dense.bytes", "op"))
    if "assignment.draw_batch" in p:
        m["assignment.draw_batch.calls"] = per_op(calls, "assignment.draw_batch")
        m["assignment.draw_batch.rows"] = count("assignment.draw_batch.rows", "op")
        m["assignment.draw_batch.s"] = per_op(dur, "assignment.draw_batch")
    if "conditioning.sample" in p:
        m["conditioning.sample.calls"] = per_op(calls, "conditioning.sample")
        m["conditioning.sample.self_s"] = per_op(self_t, "conditioning.sample")
        cand = count("conditioning.candidates", "op")
        acc = count("conditioning.accepted", "op")
        if acc > 0:
            m["conditioning.candidates"] = cand
            m["conditioning.accepted"] = acc
            m["conditioning.candidates_per_accept"] = cand / acc
        m["conditioning.inequality_failures"] = count("conditioning.inequality_failures", "op")
    if "conditioning.select_focal" in p:
        m["conditioning.select_focal.s"] = per_op(dur, "conditioning.select_focal")
    if "stats.masked_arm_variances" in p:
        m["stats.masked_arm_variances.calls"] = per_op(calls, "stats.masked_arm_variances")
        m["stats.masked_arm_variances.unit_rows"] = count(
            "stats.masked_arm_variances.unit_rows", "op")
        m["stats.masked_arm_variances.s"] = per_op(dur, "stats.masked_arm_variances")
    if "stats.ratio_stat_rows" in p:
        m["stats.ratio_stat_rows.s"] = per_op(dur, "stats.ratio_stat_rows")
    if "stats.observed" in p:
        m["stats.observed.s"] = per_op(dur, "stats.observed")
    if "inference.test" in p:
        m["inference.test.s"] = per_op(dur, "inference.test")
        m["inference.self_s"] = per_op(self_t, "inference.test")
        m["inference.grid_points"] = count("inference.grid_points", "op")
    m["trace.op_s"] = op_wall / k
    m["trace.coverage_frac"] = covered / op_wall
    for layer in LAYERS:
        if layer not in ("data", "simulation"):
            m[f"{layer}.self_frac"] = layer_self[layer] / op_wall
    m["trace.spans_per_op"] = sum(calls[n][1] for n in calls) / k

    extra = {}
    if calls["inference.report"][1]:
        extra["inference.report.s"] = per_op(dur, "inference.report")
    if calls["data.ingest"][0]:
        extra["data.ingest.s"] = dur["data.ingest"][0]
    if calls["simulation.generate_regular_graph"][1]:
        extra["simulation.generate_regular_graph.s"] = per_op(
            dur, "simulation.generate_regular_graph")
    if calls["simulation.run_table"][1]:
        extra["simulation.run_table.self_s"] = per_op(self_t, "simulation.run_table")
        extra["simulation.self_frac"] = layer_self["simulation"] / op_wall
    return m, extra


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "op_s"):
        return "s/op" if name not in ("data.ingest.s", "graph.dense.s") else "s"
    if last == "bytes":
        return "bytes"
    if last.endswith("frac") or last == "candidates_per_accept":
        return "ratio"
    return "count/op"


def dominant_layer(metrics: dict) -> str:
    shares = {layer: metrics.get(f"{layer}.self_frac", 0.0) for layer in LAYERS}
    return max(shares, key=shares.get)
