"""The traced benchmark run wraps package names from outside; each must exist.

`perfbench/run.py --trace 1` fails when a name in `perfbench/tracer.py`'s
`WRAPPED` table no longer resolves, so a rename inside the package has to
show here first.  The tracer module is only read, never changed.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_wrapped_name_resolves_in_the_package(monkeypatch):
    name = "_perfbench_tracer"
    spec = importlib.util.spec_from_file_location(name, TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, name, tracer)  # dataclasses look it up
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer.WRAPPED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
