"""The traced benchmark run wraps package names from outside; each must exist.

`perfbench/run.py --trace 1` fails when a name in `perfbench/tracer.py`'s
`WRAPPED` table no longer resolves, so a rename inside the package has to
show here first.  The tracer also takes `len()` of what the wrapped calls
take and return (the initial rows, the master's rows, the final pool), so a
traced solve and tracking run must yield every per-layer metric.  The tracer
module is only read, never changed.
"""

from __future__ import annotations

import importlib
import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest

from generators import demo_instance, planted_sequence
from liftedpaths.driver import build_initial_constraints, solve
from liftedpaths.tracking import TrackingConfig, run_tracking

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    name = "_perfbench_tracer"
    spec = importlib.util.spec_from_file_location(name, TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_in_the_package(tracer):
    assert tracer.WRAPPED
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer.WRAPPED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_a_traced_solve_and_tracking_run_yield_every_layer_metric(tracer):
    table = planted_sequence(random.Random(4), frames=30, noise=0.2, clutter=4)
    config = TrackingConfig(fps=5.0, max_gap_frames=10, interval_length=10)
    spans = tracer.Tracer()
    with spans.install():
        with spans.item(0):
            demo = spans.call(
                "driver.solve", solve, demo_instance(), attrs=tracer.solve_attrs
            )
        with spans.item(1):
            spans.call(
                "tracking.run", run_tracking, table, config,
                attrs=lambda a, k, r: {
                    "tracklets": r.tracklet_count, "iterations": r.iterations
                },
            )
    metrics = tracer.layer_metrics(spans.spans)

    assert set(tracer.SHARED_LAYERS) <= metrics.keys()
    assert all(math.isfinite(value) for value in metrics.values())
    by_name = {}
    for span in spans.spans:
        by_name.setdefault(span.name, []).append(span)
    assert {"driver.solve", "driver.initial_rows", "milp.master", "separation.path",
            "separation.cut", "tracking.run", "tracking.split"} <= by_name.keys()
    with_attrs = {name for _, _, name, attrs in tracer.WRAPPED if attrs is not None}
    for name in with_attrs | {"tracking.run"}:
        assert all(span.attrs for span in by_name[name]), name

    # The demo solves in one round: its master reads exactly the initial rows,
    # and its pool is those rows.
    initial = len(build_initial_constraints(demo_instance()))
    demo_rows = [s for s in by_name["driver.initial_rows"] if s.item == 0]
    demo_masters = [s for s in by_name["milp.master"] if s.item == 0]
    assert [s.attrs["rows"] for s in demo_rows] == [initial]
    assert [s.attrs["rows"] for s in demo_masters] == [initial]
    assert len(demo.cuts) == initial
    assert metrics["driver.solves"] == len(by_name["driver.solve"]) >= 2
    assert metrics["tracking.stage1_solves"] >= 1
    assert metrics["driver.initial_rows"] == sum(
        s.attrs["rows"] for s in by_name["driver.initial_rows"]
    )
    assert metrics["driver.pool_rows"] >= metrics["driver.initial_rows"]
    assert metrics["milp.rows_per_master"] > 0
