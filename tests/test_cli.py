"""The `ldp` command line: output formats, exit codes, file handling."""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import liftedpaths
from generators import DEMO_TEXT, ONE_CUT_TEXT
from liftedpaths.cli import main

NET_TEXT = """\
# two demands of two units each
edge 1 3
edge 1 4
edge 2 4
edge 2 5
edge 4 6
edge 4 7
edge 5 7
edge 3 8
edge 7 8
edge 6 9
edge 7 9
pair 1 8 2
pair 2 9 2
"""

NARROW_NET_TEXT = """\
edge 1 3
edge 3 2
pair 1 2 2
"""

CNF_TEXT = """\
p cnf 5 4
1 2 -3 0
1 3 -4 0
-1 3 5 0
-1 3 -5 0
"""

UNSAT_CNF_TEXT = (
    "p cnf 3 8\n"
    "1 2 3 0\n1 2 -3 0\n1 -2 3 0\n1 -2 -3 0\n"
    "-1 2 3 0\n-1 2 -3 0\n-1 -2 3 0\n-1 -2 -3 0\n"
)

SCENE_TEXT = """\
gt 0 0 1
gt 0 1 2
gt 1 0 1
gt 1 1 2
gt 2 0 1
gt 2 1 2
base 0 0 1 0 -1.0
base 1 0 2 0 -1.0
base 0 1 1 1 -1.0
base 1 1 2 1 -1.0
lift 0 0 2 0 -1.0
lift 0 1 2 1 -1.0
base 0 0 1 1 0.5
"""


def run_cli(*argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as stop:
                code = stop.code if stop.code is not None else 0
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.ldp"
    path.write_text(DEMO_TEXT)
    return str(path)


def test_solve_prints_objective_and_paths(demo_file):
    code, out, err = run_cli("solve", demo_file)
    assert code == 0
    assert out == "objective -2.25\npath 1 3 4\n"
    assert err == ""


def test_solve_trace_goes_to_stderr(demo_file):
    code, out, err = run_cli("solve", demo_file, "--trace")
    assert code == 0
    assert out == "objective -2.25\npath 1 3 4\n"
    assert err == "round 1: objective -2.25 done\n"


def test_solve_trace_reports_added_cuts(tmp_path):
    path = tmp_path / "two.ldp"
    path.write_text(ONE_CUT_TEXT)
    code, out, err = run_cli("solve", str(path), "--trace")
    assert code == 0
    assert out.startswith("objective -2.5\n")
    lines = err.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("round 1: objective -4.5")
    assert lines[1].endswith("done")


def test_solve_writes_output_files(demo_file, tmp_path):
    target = tmp_path / "solution.txt"
    code, out, _ = run_cli("solve", demo_file, "-o", str(target))
    assert code == 0
    assert target.read_text() == "objective -2.25\npath 1 3 4\n"


def test_solve_reads_stdin():
    code, out, _ = run_cli(
        "solve", "-", stdin="ldp 1\nnodes 1\nbase s 1 -1.0\nbase 1 t 0.0\n"
    )
    assert code == 0
    assert out == "objective -1\npath 1\n"


def test_solve_round_limit_exit(demo_file):
    code, out, err = run_cli("solve", demo_file, "--rounds", "0")
    assert code == 4
    assert "stopped early: round_limit" in err


def test_validate_summarizes(demo_file):
    code, out, err = run_cli("validate", demo_file)
    assert code == 0
    assert out == "ok: 4 nodes, 7 base edges, 2 lifted edges\n"


def test_validate_bad_header_exit_two():
    code, out, err = run_cli("validate", "-", stdin="nope\n")
    assert code == 2
    assert err == "error: line 1, column 1: file must start with an 'ldp 1' header\n"


def test_missing_file_exit_two():
    code, _, err = run_cli("validate", "no-such-file.ldp")
    assert code == 2
    assert "error:" in err


def test_usage_errors_exit_one():
    code, _, err = run_cli("--no-such-flag")
    assert code == 1
    assert "usage: ldp" in err


def test_oracle_agrees_with_solve(demo_file):
    code, out, _ = run_cli("oracle", demo_file)
    assert code == 0
    assert out == "objective -2.25\npath 1 3 4\n"


def test_oracle_limit_exit_four(demo_file):
    code, _, err = run_cli("oracle", demo_file, "--limit", "1")
    assert code == 4
    assert err == "limit: more than 1 feasible solutions; raise the limit\n"


def test_bound_selects_families(demo_file):
    code, out, _ = run_cli("bound", demo_file)
    assert code == 0
    assert out == "bound -2.25\n"
    code, out, _ = run_cli("bound", demo_file, "--families", "flow,single-cut")
    assert code == 0
    assert out == "bound -2.25\n"


def test_bound_rejects_unknown_families(demo_file):
    code, _, err = run_cli("bound", demo_file, "--families", "bogus")
    assert code == 1
    assert "unknown families: bogus" in err


def test_decide_mcf_exit_codes(tmp_path):
    yes = tmp_path / "net.mcf"
    yes.write_text(NET_TEXT)
    code, out, _ = run_cli("decide", "mcf", str(yes))
    assert code == 0
    assert out == "routable\n"
    no = tmp_path / "narrow.mcf"
    no.write_text(NARROW_NET_TEXT)
    code, out, _ = run_cli("decide", "mcf", str(no))
    assert code == 3
    assert out == "not routable\n"


def test_decide_on_a_round_limit_exits_four(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    code, out, err = run_cli("decide", "sat", str(cnf), "--rounds", "0")
    assert (code, out) == (4, "")
    assert err == "limit: reduction solve ended with status round_limit\n"
    net = tmp_path / "net.mcf"
    net.write_text(NET_TEXT)
    code, out, err = run_cli("decide", "mcf", str(net), "--rounds", "0")
    assert (code, out) == (4, "")
    assert err == "limit: reduction solve ended with status round_limit\n"


def test_decide_sat_prints_assignment(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(CNF_TEXT)
    code, out, _ = run_cli("decide", "sat", str(cnf))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "satisfiable"
    literals = [int(tok) for tok in lines[1].split()]
    assert sorted(abs(lit) for lit in literals) == [1, 2, 3, 4, 5]
    assignment = {abs(lit): lit > 0 for lit in literals}
    for clause in [(1, 2, -3), (1, 3, -4), (-1, 3, 5), (-1, 3, -5)]:
        assert any(assignment[abs(lit)] == (lit > 0) for lit in clause)


def test_decide_sat_reads_a_satlib_file(tmp_path):
    cnf = tmp_path / "uf3.cnf"
    cnf.write_text("c SATLIB style\np cnf 3 2\n 1 -2 3 0\n-1 2 3 0\n%\n0\n\n")
    code, out, _ = run_cli("decide", "sat", str(cnf))
    assert code == 0
    assert out.splitlines()[0] == "satisfiable"


def test_decide_sat_negative_exit_three(tmp_path):
    cnf = tmp_path / "u.cnf"
    cnf.write_text(UNSAT_CNF_TEXT)
    code, out, _ = run_cli("decide", "sat", str(cnf))
    assert code == 3
    assert out == "unsatisfiable\n"


def test_reduce_emits_an_instance_and_threshold(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(CNF_TEXT)
    code, out, err = run_cli("reduce", "sat", str(cnf))
    assert code == 0
    assert out.startswith("ldp 1\nnodes 12\n")
    assert err == "threshold -3\n"
    # the emitted text is a valid instance the solver can consume
    code2, solved, _ = run_cli("solve", "-", stdin=out)
    assert code2 == 0
    assert solved.startswith("objective -9\n")

    net = tmp_path / "net.mcf"
    net.write_text(NET_TEXT)
    code, out, err = run_cli("reduce", "mcf", str(net))
    assert code == 0
    assert out.startswith("ldp 1\n")
    assert err == "threshold -4\n"


def test_track_outputs_and_evaluation(tmp_path):
    scene = tmp_path / "scene.cost"
    scene.write_text(SCENE_TEXT)
    code, out, err = run_cli(
        "track", str(scene), "--max-gap-frames", "6", "--interval-len", "10"
    )
    assert code == 0
    assert out == "track 1: 0:0 1:0 2:0\ntrack 2: 0:1 1:1 2:1\n"
    assert err == "objective -6 after 1 iterations\n"

    code, out, _ = run_cli("track", str(scene), "--max-gap-frames", "6", "--evaluate")
    assert code == 0
    assert "idf1 1\n" in out
    assert "fp 0\n" in out
    assert "fn 0\n" in out
    assert "ids 0\n" in out


@pytest.mark.parametrize(
    "flag, value, message",
    [
        pytest.param("--interval-len", "0", "interval length must be at least 1", id="0"),
        pytest.param("--interval-len", "-5", "interval length must be at least 1", id="-5"),
        pytest.param("--K", "0", "successors per frame must be at least 1", id="K=0"),
        pytest.param("--K", "-1", "successors per frame must be at least 1", id="K=-1"),
        pytest.param(
            "--max-gap-frames", "-2", "max gap frames must be at least 1", id="max-gap-frames=-2"
        ),
        pytest.param("--fps", "0", "fps must be a positive finite number", id="fps=0"),
        pytest.param("--fps", "nan", "fps must be a positive finite number", id="fps=nan"),
        pytest.param(
            "--lift-epsilon", "nan", "lift epsilon must be a finite number of at least 0",
            id="lift-epsilon=nan",
        ),
        pytest.param(
            "--lift-epsilon", "-1", "lift epsilon must be a finite number of at least 0",
            id="lift-epsilon=-1",
        ),
        pytest.param("--jobs", "0", "jobs must be at least 1", id="jobs=0"),
        pytest.param("--jobs", "-3", "jobs must be at least 1", id="jobs=-3"),
    ],
)
def test_track_rejects_an_interval_length_below_one(tmp_path, flag, value, message):
    """So does every other knob with a floor."""
    scene = tmp_path / "scene.cost"
    scene.write_text(SCENE_TEXT)
    code, out, err = run_cli("track", str(scene), flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"



@pytest.mark.parametrize(
    "line, message",
    [
        pytest.param(
            "base 1 0 1 1 1.0", "base cost (1, 0)->(1, 1) must point to a later frame",
            id="same-frame",
        ),
        pytest.param("lift 0 0 2 1 inf", "lift cost (0, 0)->(2, 1) is not finite", id="inf"),
        pytest.param("gt 3 0 -1", "label of (3, 0) must be >= 0", id="negative-label"),
    ],
)
def test_track_names_the_line_of_an_invalid_cost_entry(tmp_path, line, message):
    scene = tmp_path / "scene.cost"
    scene.write_text(SCENE_TEXT + line + "\n")
    code, out, err = run_cli("track", str(scene))
    assert code == 2
    assert out == ""
    lines = len(SCENE_TEXT.splitlines()) + 1
    assert err == f"error: line {lines}, column 1: {message}\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--rounds", "-1", "max rounds must be at least 0"),
        ("--time-limit", "-1", "time limit must be at least 0"),
        ("--time-limit", "nan", "time limit must be at least 0"),
    ],
    ids=["rounds=-1", "time-limit=-1", "time-limit=nan"],
)
def test_solve_rejects_negative_and_nan_limits(tmp_path, flag, value, message):
    path = tmp_path / "demo.ldp"
    path.write_text(DEMO_TEXT)
    code, out, err = run_cli("solve", str(path), flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def _console_script_env(tmp_path):
    """Put an `ldp` built from `pyproject.toml` first on the child's PATH.

    The wrapper is the one an installer writes for a `[project.scripts]`
    entry, so the test checks the project's own declaration without an
    install, and the child imports the same package as the suite.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "ldp" in scripts, "pyproject.toml declares no `ldp` console script"
    module, func = scripts["ldp"].split(":")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    script = bindir / "ldp"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({func}())\n"
    )
    script.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(bindir), env.get("PATH")]))
    package_root = str(Path(liftedpaths.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return env


def run_ldp(*argv, env=None):
    return subprocess.run(
        ["ldp", *argv], capture_output=True, text=True, timeout=60, env=env
    )


def test_console_script_is_installed(demo_file, tmp_path):
    env = _console_script_env(tmp_path)
    proc = run_ldp("validate", demo_file, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "ok: 4 nodes, 7 base edges, 2 lifted edges\n"
    # nonzero exit codes cross the process boundary through sys.exit(main())
    proc = run_ldp("validate", str(tmp_path / "no-such-file.ldp"), env=env)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    proc = run_ldp("--no-such-flag", env=env)
    assert proc.returncode == 1
    assert "usage: ldp" in proc.stderr


@pytest.mark.skipif(shutil.which("ldp") is None, reason="ldp is not installed on PATH")
def test_installed_console_script_validates(demo_file):
    proc = run_ldp("validate", demo_file)
    assert proc.returncode == 0
    assert proc.stdout == "ok: 4 nodes, 7 base edges, 2 lifted edges\n"
