"""The package needs NumPy only; SciPy is left to the test oracles."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import liftedpaths


def test_package_and_cli_import_without_scipy():
    """Importing SciPy costs more memory and start-up time than the rest of
    the package together, so a fresh interpreter must not load any of it."""
    code = (
        "import sys, liftedpaths, liftedpaths.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(liftedpaths.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
