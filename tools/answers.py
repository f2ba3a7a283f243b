"""Fingerprint of a benchmark workload's answers and of the master work behind them.

Run from the root of a source checkout:

    python3 tools/answers.py --workload sat-decide --seed 1 --items 0:1000

Answers the items of the `perfbench/workloads.py` pool for that seed
(all of them without `--items`) in order, and prints one JSON line:
`items`, `answers_sha256` (a hash of every answer, see `fingerprint`),
`solves` (driver `solve` calls), `rounds`, `nodes`, `pivots`
(simplex pivots and bound flips) and `pool_rows` (rows of each solve's
final pool, `len(result.cuts)`) summed over those solves, and
`refactors` (calls of `milp._Simplex._refactor`, the basis inversion).
A change that keeps every answer and the master work behind it prints the
same line as its parent.  Set `OPENBLAS_NUM_THREADS=1` on both sides.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Every module attribute a workload reaches `driver.solve` through.
SOLVE_NAMES = [
    ("liftedpaths", "solve"),
    ("liftedpaths.reductions", "solve"),
    ("liftedpaths.tracking", "solve"),
]


def fingerprint(workload: str, output) -> list:
    """The fields of one answer that the hash covers, as JSON values."""
    if workload == "sat-decide":
        satisfiable, assignment = output
        return [satisfiable, None if assignment is None else sorted(assignment.items())]
    if workload == "batch-small":
        status, solution, objective = output
        fields = [status, None if objective is None else float.hex(objective)]
        if solution is not None:
            fields += [solution.x, solution.y, solution.y_lifted]
        return fields
    return [output.tracks, float.hex(output.objective), output.iterations, output.tracklet_count]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--items", default=":", help="a slice A:B of the item pool")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    start, _, stop = args.items.partition(":")
    workload = WORKLOADS[args.workload](args.seed)
    items = workload.items[slice(int(start) if start else None, int(stop) if stop else None)]

    totals = {"solves": 0, "rounds": 0, "nodes": 0, "pivots": 0, "pool_rows": 0,
              "refactors": 0}

    def counted(solve):
        def run(*args, **kwargs):
            result = solve(*args, **kwargs)
            totals["solves"] += 1
            totals["rounds"] += result.rounds
            totals["nodes"] += sum(r.master_nodes for r in result.trace)
            totals["pivots"] += sum(r.master_pivots for r in result.trace)
            totals["pool_rows"] += len(result.cuts)
            return result

        return run

    from liftedpaths.milp import _Simplex

    refactor = _Simplex._refactor

    def counted_refactor(lp):
        totals["refactors"] += 1
        refactor(lp)

    _Simplex._refactor = counted_refactor
    for module, name in SOLVE_NAMES:
        owner = importlib.import_module(module)
        setattr(owner, name, counted(getattr(owner, name)))
    digest = hashlib.sha256()
    for item in items:
        answer = fingerprint(args.workload, workload.answer(item))
        digest.update(json.dumps(answer).encode() + b"\n")
    print(json.dumps({"items": len(items), "answers_sha256": digest.hexdigest(), **totals}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
