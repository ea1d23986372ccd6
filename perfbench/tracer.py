"""Span recorder for the traced run.

``install`` wraps the public functions listed below by rebinding each name in
every ``rank1lab`` module that holds it (the defining module included, so
calls inside a module are seen too).  Every call becomes a span: name, start,
end and the span that was open when it began.  Spans live in flat arrays
until the run ends; self time is a span's duration minus the time its direct
child spans cover.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

FUNCTIONS = (
    ("construction", "stage_geometry"),
    ("tower", "apply_power_bounds"),
    ("tower", "refine"),
    ("tower", "intersect"),
    ("oracle", "oracle_intersection"),
    ("weak_limits", "scan_window"),
    ("weak_limits", "verify_limit"),
    ("weak_limits", "verify_mixture_law"),
    ("joinings", "partial_joining"),
    ("joinings", "domination_witness"),
    ("products", "product_return"),
    ("products", "dissipativity_scan"),
    ("spectral", "correlations"),
    ("spectral", "fejer_density"),
    ("spectral", "toeplitz_min_eigenvalue"),
)
METHODS = (
    ("oracle", "OrbitWalker", "step"),
    ("oracle", "IntervalSystem", "cells_of"),
)
CRITERIA = tuple(f"acceptance.criterion_{i}" for i in range(1, 10))

# Per-layer metrics the traced run reports: (metric, span name, statistic).
SPAN_METRICS = (
    [(f"{name}.calls", name, "calls") for name in (
        "construction.stage_geometry", "tower.apply_power_bounds", "tower.refine",
        "tower.intersect", "oracle.OrbitWalker.step", "oracle.oracle_intersection",
        "oracle.IntervalSystem.cells_of", "joinings.partial_joining",
        "joinings.domination_witness", "products.product_return",
        "products.dissipativity_scan")]
    + [(f"{module}.{attr}.self_s", f"{module}.{attr}", "self_s")
       for module, attr in FUNCTIONS]
    + [(f"{module}.{cls}.{attr}.self_s", f"{module}.{cls}.{attr}", "self_s")
       for module, cls, attr in METHODS]
    + [("tower.apply_power_bounds.max_call_s", "tower.apply_power_bounds", "max_s")]
    + [(f"{name}.wall_s", name, "total_s") for name in CRITERIA]
)
QUERY_METRICS = (
    "tower.apply_power_bounds.unresolved_frac",
    "tower.apply_power_bounds.stages_walked",
    "work.queries",
    "work.deepest_stage",
    "work.levels_enumerated_computed",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.queries = []          # (a, b, n, MeasureBound) of apply_power_bounds, n >= 0
        self._restore = []         # (owner, attribute, original) to undo install()
        for _, span, _ in SPAN_METRICS:
            self._id(span)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn):
        """Run ``fn()`` inside a span recorded by the benchmark itself."""
        return self.wrap(name, fn)()

    def _wrap_queries(self, fn):
        traced = self.wrap("tower.apply_power_bounds", fn)
        queries = self.queries
        signature = inspect.signature(fn)

        def apply_power_bounds(*args, **kwargs):
            result = traced(*args, **kwargs)
            if len(args) >= 3:
                a, b, n = args[:3]
            else:
                bound = signature.bind(*args, **kwargs).arguments
                a, b, n = (bound[name] for name in list(signature.parameters)[:3])
            if n >= 0:   # a negative power delegates to a traced call with -n
                queries.append((a, b, n, result))
            return result

        apply_power_bounds.__wrapped__ = fn
        return apply_power_bounds

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "rank1lab" or name.startswith("rank1lab.")]
        for module, attr in FUNCTIONS:
            original = getattr(sys.modules[f"rank1lab.{module}"], attr)
            if attr == "apply_power_bounds":
                wrapped = self._wrap_queries(original)
            else:
                wrapped = self.wrap(f"{module}.{attr}", original)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    self._restore.append((m, key, original))
                    setattr(m, key, wrapped)
        for module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"rank1lab.{module}"], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(f"{module}.{cls_name}.{attr}", original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _arrays(self):
        return (np.frombuffer(self.name, dtype=np.intc),
                np.frombuffer(self.parent, dtype=np.intc),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def metrics(self) -> dict[str, float]:
        name, parent, start, end = self._arrays()
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - covered
        slots = len(self.names)
        stats = {
            "calls": np.bincount(name, minlength=slots),
            "self_s": np.bincount(name, weights=self_time, minlength=slots),
            "total_s": np.bincount(name, weights=dur, minlength=slots),
            "max_s": np.zeros(slots),
        }
        np.maximum.at(stats["max_s"], name, dur)
        out = {metric: float(stats[stat][self._ids[span]])
               for metric, span, stat in SPAN_METRICS}
        out.update(self._query_metrics())
        return out

    def _query_metrics(self) -> dict[str, float]:
        from rank1lab.construction import stage_geometry

        unresolved = walked = deepest = levels = 0
        for a, b, n, bound in self.queries:
            unresolved += not bound.exact
            deepest = max(deepest, bound.resolved_stage)
            start = max(a.stage, b.stage)
            while n and stage_geometry(a.params, start).h <= n:
                start += 1
            walked += bound.resolved_stage - start
            # computed, not counted: |A| * prod r_k over the stages A is refined through
            size = len(a.levels)
            for k in range(a.stage, bound.resolved_stage):
                size *= stage_geometry(a.params, k).r
            levels += size
        queries = len(self.queries)
        return {
            "tower.apply_power_bounds.unresolved_frac": unresolved / queries if queries else 0.0,
            "tower.apply_power_bounds.stages_walked": float(walked),
            "work.queries": float(queries),
            "work.deepest_stage": float(deepest),
            "work.levels_enumerated_computed": float(levels),
        }

    def write(self, path):
        name, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)
