"""Seeded benchmark of the liftedpaths solver, its SAT reduction and tracking.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sat-decide --seed 1 --seconds 30 --trace 0

The package is imported from `src/` next to this directory.  Each workload is
a closed loop with one client: one item is answered at a time, and the next
starts when the previous one has finished.  The untraced run (`--trace 0`)
answers items for `--seconds` seconds in one process and reports the
end-to-end metrics; its set-up time is the median of several set-ups spread
over the run (see `untraced`).  The traced run (`--trace 1`) answers each item of the
workload's fixed traced batch twice, once plain and once with every layer
boundary wrapped, and reports the per-layer metrics and the tracing overhead (traced minus plain
time).  It writes its spans to `.perfbench/spans-<workload>-seed<seed>.jsonl`
and every layer metric to `.perfbench/layers-<workload>-seed<seed>.json`.

Every answer is checked after the timed section.  The last line of standard
output is one JSON object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEGMENTS = 3  # an untraced run pauses to time set-ups after each third of its budget
SETUPS_PER_PAUSE = 2  # fresh-process set-ups timed at each pause


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def closed_loop(workload, seconds: float, pause):
    """Answer items one after another, from the first, for `seconds` seconds
    of answering time.

    Another item starts only while the answering time is under budget and
    the item is expected (from the mean so far) to end within half an item
    past it.
    `pause()` runs, off the clock, before the first item, each time the
    answering time passes another 1/SEGMENTS of the budget, and after the
    last item.  Returns [(item index, latency, output or exception)].
    """
    answers = []
    answered = 0.0
    step = seconds / SEGMENTS
    next_pause = step
    pause()
    while answered < seconds:
        if answers and answered + 0.5 * answered / len(answers) > seconds:
            break
        index = len(answers) % len(workload.items)
        t = time.perf_counter()
        try:
            output = workload.answer(workload.items[index])
        except Exception as exc:  # a failed answer is counted, not fatal
            output = exc
        answers.append((index, time.perf_counter() - t, output))
        answered += answers[-1][1]
        if next_pause <= answered < seconds:
            while next_pause <= answered:
                next_pause += step
            pause()
    pause()
    return answers


def check_all(workload, answers) -> dict[int, list[str]]:
    """Problems found, keyed by the position of the failed answer."""
    failures = {}
    checked = {}  # item index -> (output, problems); a repeated answer is checked once
    for pos, (index, _, output) in enumerate(answers):
        if isinstance(output, Exception):
            failures[pos] = [f"raised {type(output).__name__}: {output}"]
            continue
        if index in checked and checked[index][0] == output:
            problems = checked[index][1]
        else:
            problems = workload.check(workload.items[index], output)
            checked[index] = (output, problems)
        if problems:
            failures[pos] = problems
    return failures


def fresh_setup(args) -> float:
    """Set-up time of a fresh process: import the package and build the inputs."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, check=True,
    )
    return float(proc.stdout.splitlines()[-1])


def untraced(args, workload, setup_s: float):
    """Answer items for `args.seconds` seconds in this process, then check
    every answer.

    The set-up is timed once in this process and SETUPS_PER_PAUSE times in
    fresh processes at every pause of the loop.  Other work on a shared
    machine slows identical work down for seconds at a time, so set-ups
    spread over the run give a steadier median than set-ups made one after
    another; `setup_s` is the median of them all.
    """
    setups = [setup_s]
    answers = closed_loop(
        workload, args.seconds,
        lambda: setups.extend(fresh_setup(args) for _ in range(SETUPS_PER_PAUSE)),
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_all(workload, answers)
    # Share of the reference answer recovered: 1 for an exact answer that
    # passed its checks; for a tracked sequence, IDF1 times the share of the
    # planted tracks' objective reached; 0 for a failed answer.
    quality = [
        0.0 if pos in failures else workload.quality(workload.items[index], output)
        for pos, (index, _, output) in enumerate(answers)
    ]
    ms = [1000.0 * lat for _, lat, _ in answers]
    per_s = len(ms) / sum(lat for _, lat, _ in answers)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "answers_per_s": (per_s, "1/s"),
        "answer_ms.p50": (percentile(ms, 50), "ms"),
        "answer_quality": (statistics.fmean(quality), "ratio"),
    }
    # The tail, and the same numbers under the names each workload's users
    # know them by.
    report = {"answer_ms.p90": (percentile(ms, 90), "ms"), "answers": (len(ms), "count"),
              "setups": (len(setups), "count"),
              "failed_ratio": (len(failures) / len(ms), "ratio")}
    if args.workload == "sat-decide":
        report["decisions_per_s"] = (per_s, "1/s")
        report["decide_s.p50"] = (percentile(ms, 50) / 1000.0, "s")
    elif args.workload == "batch-small":
        report["solves_per_s"] = (per_s, "1/s")
        report["solve_ms.p50"] = (percentile(ms, 50), "ms")
        report["solve_ms.p99"] = (percentile(ms, 99), "ms")
    else:
        passed = [(workload.items[index], out) for pos, (index, _, out) in enumerate(answers)
                  if pos not in failures]
        report["frames_per_s"] = (per_s * workload.params["frames"], "1/s")
        report["idf1"] = (mean(workload.idf1(*p) for p in passed), "ratio")
        report["track_objective"] = (mean(out.objective for _, out in passed), "1")
        report["track_objective_share"] = (mean(workload.objective_share(*p) for p in passed),
                                           "ratio")
    failed = [[answers[pos][0], problems] for pos, problems in failures.items()]
    return len(ms), failed, metrics, report


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else math.nan


def traced(workload, seed: int):
    from tracer import SHARED_LAYERS, TraceError, Tracer, layer_metrics

    import liftedpaths as lp

    tracer = Tracer()
    answers = []
    failures = {}
    plain_wall = 0.0
    workload.answer(workload.items[0])  # warm-up, so neither side pays first-call costs
    for index in range(workload.params["traced_batch"]):
        # Each item is answered once plain and once traced, alternating which
        # goes first, so drift in machine speed falls on both sides equally.
        for traced_side in ((False, True) if index % 2 == 0 else (True, False)):
            if not traced_side:
                t = time.perf_counter()
                workload.answer(workload.items[index])
                plain_wall += time.perf_counter() - t
                continue
            with tracer.install(), tracer.item(index):
                t = time.perf_counter()
                output = workload.answer(workload.items[index], tracer)
                answers.append((index, time.perf_counter() - t, output))
        # The traced run sees every solve, including those inside decide_sat
        # and run_tracking, so each is held to status optimal and an empty
        # certify().  Checked between items, unwrapped and off the clock, and
        # released so that held results do not slow the next items.
        for instance, status, solution in tracer.solve_results:
            if status != "optimal":
                problem = f"a solve ended with status {status}"
            elif lp.certify(instance, solution):
                problem = "certify() found violated rows at a solve's answer"
            else:
                continue
            failures.setdefault(len(answers) - 1, []).append(problem)
        tracer.solve_results.clear()
    traced_wall = sum(lat for _, lat, _ in answers)
    out_dir = ROOT / ".perfbench"
    tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    for pos, problems in check_all(workload, answers).items():
        failures.setdefault(pos, []).extend(problems)

    layers = layer_metrics(tracer.spans)
    seen = {s.name for s in tracer.spans}
    missing = sorted(workload.uses - seen)
    if missing:
        raise TraceError(f"{workload.name} never reached {', '.join(missing)}")
    if layers["milp.master_calls"] != layers["driver.rounds"]:
        raise TraceError(
            f"milp.master_calls {layers['milp.master_calls']} != "
            f"driver.rounds {layers['driver.rounds']}"
        )
    expected = sum(workload.solves(workload.items[i], out) for i, _, out in answers)
    if layers["driver.solves"] != expected:
        raise TraceError(f"driver.solves {layers['driver.solves']} != {expected} solve calls made")

    units = {"_s": "s", "rows_per_master": "rows", "ms_per_node": "ms",
             "cut_yield": "ratio", "_ratio": "ratio"}
    layers["trace.overhead_s"] = traced_wall - plain_wall
    layers["trace.overhead_ratio"] = (traced_wall - plain_wall) / plain_wall
    every = {
        name: (value, next((u for k, u in units.items() if name.endswith(k)), "count"))
        for name, value in layers.items()
    }
    (out_dir / f"layers-{workload.name}-seed{seed}.json").write_text(json.dumps(
        {k: {"value": v, "unit": u} for k, (v, u) in every.items()}, indent=1))
    shared = set(SHARED_LAYERS) | {"trace.overhead_s", "trace.overhead_ratio"}
    metrics = {k: v for k, v in every.items() if k in shared}
    report = {k: v for k, v in every.items() if k not in shared}
    report["spans"] = (len(tracer.spans), "count")
    failed = [[answers[pos][0], problems] for pos, problems in failures.items()]
    return len(answers), failed, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time in seconds and exit")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (ROOT / "src" / "liftedpaths" / "__init__.py").is_file():
        print(f"no liftedpaths sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS  # imports the package: part of set-up

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(repr(setup_s))
        return 0
    if args.trace:
        attempted, failures, metrics, report = traced(workload, args.seed)
    else:
        attempted, failures, metrics, report = untraced(args, workload, setup_s)

    print(f"{args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"  {name:28s} {value:>16.6g} {unit}")
    for index, problems in failures[:20]:
        print(f"  FAILED item {index}: " + "; ".join(problems))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
