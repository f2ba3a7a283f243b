"""The package needs NumPy only; SciPy is left to the test oracles.  Its
export lists name only what exists."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import liftedpaths


def test_package_and_cli_import_without_scipy():
    """Importing SciPy costs more memory and start-up time than the rest of
    the package together, so a fresh interpreter must not load any of it.
    Nor may it load the process pool, which only parallel interval solves use."""
    code = (
        "import sys, liftedpaths, liftedpaths.cli\n"
        "heavy = ('scipy', 'concurrent', 'multiprocessing')\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in heavy))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(liftedpaths.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_exported_name_resolves_and_re_exports_are_listed():
    """Every submodule has an `__all__`, every name in it and in
    `liftedpaths.__all__` resolves, and each name the package re-exports
    from a submodule is listed in that submodule's `__all__`."""
    submodules = {
        info.name: importlib.import_module(f"liftedpaths.{info.name}")
        for info in pkgutil.iter_modules(liftedpaths.__path__)
    }
    bare = [name for name, module in submodules.items() if not hasattr(module, "__all__")]
    assert not bare, f"submodules without __all__: {bare}"
    for module in (liftedpaths, *submodules.values()):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"
    tree = ast.parse(Path(liftedpaths.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = submodules[node.module].__all__
            unlisted = [a.name for a in node.names if a.name not in listed]
            assert not unlisted, f"liftedpaths.{node.module}.__all__ lacks {unlisted}"
