"""The scripts under `tools/`."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ANSWERS = Path(__file__).resolve().parent.parent / "tools" / "answers.py"
KEYS = {"items", "answers_sha256", "solves", "rounds", "nodes", "pivots", "pool_rows",
        "refactors"}


def test_answers_prints_one_json_line_of_answers_and_master_work():
    args = [sys.executable, str(ANSWERS), "--workload", "sat-decide", "--seed", "1",
            "--items", "0:5"]
    runs = [subprocess.run(args, capture_output=True, text=True, timeout=300) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("\n") == 1
    line = json.loads(runs[0].stdout)
    assert set(line) == KEYS
    assert line["items"] == line["solves"] == 5
    assert line["rounds"] >= 5 and line["nodes"] > 0 and line["pivots"] > 0
    assert line["refactors"] >= line["solves"]  # each solve inverts a crash basis
    assert len(line["answers_sha256"]) == 64
    assert runs[1].stdout == runs[0].stdout  # the same answers by the same work
