"""Spans recorded around the calls into each layer, from outside the package.

The package's layers call each other through module-level names (the
driver looks up `solve_binary` in its own module globals on every call, the
tracking module looks up `solve` and `Instance`, and so on).  `Tracer.install`
replaces those names with wrappers that record one span per call and puts
the originals back on exit.  Nothing under `src/` is changed.

A span is (item, id, parent, name, start, end, attrs).  Spans of one
benchmark item share the item number; `parent` is the id of the span that
was open when the call started.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    item: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceError(RuntimeError):
    """A wrapped name is missing, or a layer the workload needs was not reached."""


def solve_attrs(args, kwargs, result) -> dict:
    instance = args[0] if args else kwargs["instance"]
    return {
        "framed": instance.frames is not None,
        "nodes": instance.n,
        "lifted": len(instance.lifted_edges),
        "status": result.status,
        "rounds": result.rounds,
        "pool_rows": len(result.cuts),
        "cuts_added": sum(sum(r.cuts_added.values()) for r in result.trace),
    }


def _report_attrs(args, kwargs, report) -> dict:
    return {
        "cuts_found": len(report.constraints),
        "items_inspected": report.items_inspected,
    }


#: (module, attribute, span name, attrs from (args, kwargs, result)).
#: Every entry must resolve; a missing name is a `TraceError`.
WRAPPED = [
    ("liftedpaths.driver", "build_initial_constraints", "driver.initial_rows",
     lambda a, k, rows: {"rows": len(rows)}),
    ("liftedpaths.driver", "solve_binary", "milp.master",
     lambda a, k, res: {
         "nodes": res.nodes_explored,
         "rows": len(a[2] if len(a) > 2 else k["constraints"]),
     }),
    ("liftedpaths.driver", "separate_lifted_path", "separation.path", _report_attrs),
    ("liftedpaths.driver", "separate_lifted_cut", "separation.cut", _report_attrs),
    ("liftedpaths.tracking", "solve", "driver.solve", solve_attrs),
    ("liftedpaths.tracking", "split_track", "tracking.split", None),
    ("liftedpaths.tracking", "detection_objective", "tracking.objective", None),
    ("liftedpaths.tracking", "Instance", "instance.build", None),
    ("liftedpaths.reductions", "reduce_sat", "reductions.reduce", None),
    ("liftedpaths.reductions", "solve", "driver.solve", solve_attrs),
    ("liftedpaths.reductions", "Instance", "instance.build", None),
    ("liftedpaths.instance", "Instance", "instance.build", None),
]

#: Metrics of the layers every workload exercises; these go into the result
#: line.  Metrics of layers only one workload reaches (parse, reduction,
#: tracking) would read 0 on the others and are reported beside them.
SHARED_LAYERS = (
    "instance.build_s", "instance.builds",
    "driver.solves", "driver.rounds", "driver.solve_s", "driver.self_s",
    "driver.initial_rows_s", "driver.initial_rows", "driver.pool_rows", "driver.cut_yield",
    "milp.master_s", "milp.master_calls", "milp.bb_nodes", "milp.rows_per_master",
    "milp.ms_per_node",
    "separation.path_s", "separation.cut_s", "separation.items_inspected",
    "separation.cuts_found",
)


class Tracer:
    """Collects spans; `call` is the hook for the benchmark's own calls."""

    def __init__(self):
        self.spans: list[Span] = []
        # (instance, status, solution) of each solve since last cleared; the
        # row pool is dropped, since holding it slows the collector.
        self.solve_results: list = []
        self._stack: list[Span] = []
        self._item = -1
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def item(self, index: int):
        self._item = index
        try:
            yield
        finally:
            self._item = -1

    def call(self, name: str, fn, *args, attrs=None, **kwargs):
        """Run `fn(*args, **kwargs)` inside a span called `name`."""
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._item, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        if name == "driver.solve":
            self.solve_results.append((args[0], result.status, result.solution))
        return result

    def _wrapper(self, name, fn, attrs):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)

        return traced

    @contextmanager
    def install(self):
        """Wrap every name in `WRAPPED` for the duration of the block."""
        try:
            for module_name, attr, name, attrs in WRAPPED:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    raise TraceError(f"{module_name}.{attr} no longer exists")
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original, attrs))
            yield self
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)
            self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "item": s.item, "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration  # children of one span never overlap
    return [s.duration - c for s, c in zip(spans, covered)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over every span of the run."""
    own = self_times(spans)
    by: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s.name, []).append(i)

    def total(name: str) -> float:
        return sum(spans[i].duration for i in by.get(name, ()))

    def attr_sum(name: str, key: str) -> int:
        return sum(spans[i].attrs[key] for i in by.get(name, ()))

    solves = [spans[i] for i in by.get("driver.solve", ())]
    stage1 = [s for s in solves if s.attrs["framed"] and _under(spans, s, "tracking.run")]
    stage2 = [s for s in solves if not s.attrs["framed"] and _under(spans, s, "tracking.run")]
    master_s = total("milp.master")
    nodes = attr_sum("milp.master", "nodes")
    masters = len(by.get("milp.master", ()))
    found = attr_sum("separation.path", "cuts_found") + attr_sum("separation.cut", "cuts_found")
    added = sum(s.attrs["cuts_added"] for s in solves)
    return {
        "instance.parse_s": total("instance.parse"),
        "instance.build_s": total("instance.build"),
        "instance.builds": len(by.get("instance.build", ())),
        "reductions.reduce_s": total("reductions.reduce"),
        "driver.solves": len(solves),
        "driver.rounds": sum(s.attrs["rounds"] for s in solves),
        "driver.solve_s": sum(s.duration for s in solves),
        "driver.self_s": sum(own[i] for i in by.get("driver.solve", ())),
        "driver.initial_rows_s": total("driver.initial_rows"),
        "driver.initial_rows": attr_sum("driver.initial_rows", "rows"),
        "driver.pool_rows": sum(s.attrs["pool_rows"] for s in solves),
        "driver.cut_yield": added / found if found else 1.0,  # nothing found, nothing wasted
        "milp.master_s": master_s,
        "milp.master_calls": masters,
        "milp.bb_nodes": nodes,
        "milp.rows_per_master": attr_sum("milp.master", "rows") / masters if masters else 0.0,
        "milp.ms_per_node": 1000.0 * master_s / nodes if nodes else 0.0,
        "separation.path_s": total("separation.path"),
        "separation.cut_s": total("separation.cut"),
        "separation.items_inspected": attr_sum("separation.path", "items_inspected")
        + attr_sum("separation.cut", "items_inspected"),
        "separation.cuts_found": found,
        "tracking.stage1_s": sum(s.duration for s in stage1),
        "tracking.stage1_solves": len(stage1),
        "tracking.stage2_solve_s": sum(s.duration for s in stage2),
        "tracking.stage2_nodes": sum(s.attrs["nodes"] for s in stage2),
        "tracking.stage2_lifted": sum(s.attrs["lifted"] for s in stage2),
        "tracking.split_s": total("tracking.split"),
        "tracking.objective_s": total("tracking.objective"),
        "tracking.self_s": sum(own[i] for i in by.get("tracking.run", ())),
        "tracking.tracklets": attr_sum("tracking.run", "tracklets"),
        "tracking.iterations": attr_sum("tracking.run", "iterations"),
    }


def _under(spans: list[Span], span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
