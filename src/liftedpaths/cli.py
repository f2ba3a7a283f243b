"""Command-line interface.

Results go to stdout, progress and diagnostics to stderr.  Exit codes:
0 success, 1 usage error, 2 unreadable or invalid input, 3 a decision
question answered "no", 4 a configured resource limit was hit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bounds import ALL_FAMILIES, BudgetError, lp_bound
from .driver import SolverConfig, solve
from .instance import (
    InstanceError,
    format_solution,
    parse_instance,
    serialize_instance,
)
from .oracle import OracleLimitError, brute_force_optimum
from .reductions import (
    DecisionLimitError,
    ReductionError,
    decide_mcf,
    decide_sat,
    parse_dimacs,
    parse_mcf,
    reduce_mcf,
    reduce_sat,
)
from .tracking import (
    TrackingConfig,
    evaluate_tracking,
    format_tracks,
    parse_costs,
    run_tracking,
)

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_INPUT = 2
_EXIT_NEGATIVE = 3
_EXIT_LIMIT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we keep 2 for input
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write(text: str, out: str | None) -> None:
    if out and out != "-":
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ldp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance to optimality")
    p.add_argument("instance")
    p.add_argument("--rounds", type=int, default=200, help="cutting-plane round cap")
    p.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    p.add_argument("--trace", action="store_true", help="log per-round progress")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("oracle", help="solve by exhaustive enumeration")
    p.add_argument("instance")
    p.add_argument("--limit", type=int, default=1_000_000, help="solution budget")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=_cmd_oracle)

    p = sub.add_parser("bound", help="LP bound from enumerated inequality families")
    p.add_argument("instance")
    p.add_argument(
        "--families",
        default="flow,single-cut",
        help="comma-separated subset of: " + ",".join(ALL_FAMILIES),
    )
    p.add_argument("--max-path-len", type=int, default=8, help="witness node cap")
    p.set_defaults(run=lambda args: _cmd_bound(args, parser))

    p = sub.add_parser("reduce", help="encode another problem as an instance")
    p.add_argument("kind", choices=("sat", "mcf"))
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("decide", help="reduce, solve, and answer yes or no")
    p.add_argument("kind", choices=("sat", "mcf"))
    p.add_argument("input")
    p.add_argument("--rounds", type=int, default=200)
    p.set_defaults(run=_cmd_decide)

    p = sub.add_parser("track", help="run the tracking pipeline on a cost table")
    p.add_argument("costs")
    p.add_argument("--interval-len", type=int, default=50)
    p.add_argument("--K", type=int, default=3, help="successors kept per frame")
    p.add_argument("--max-gap-frames", type=int, default=None)
    p.add_argument("--lift-epsilon", type=float, default=0.05)
    p.add_argument("--fps", type=float, default=5.0)
    p.add_argument("--jobs", type=int, default=1, help="parallel interval solves")
    p.add_argument("--evaluate", action="store_true", help="score against gt labels")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=_cmd_track)

    p = sub.add_parser("validate", help="parse and validate an instance file")
    p.add_argument("instance")
    p.set_defaults(run=_cmd_validate)
    return parser


def _cmd_solve(args) -> int:
    instance = parse_instance(_read(args.instance))
    config = SolverConfig(max_rounds=args.rounds, time_limit=args.time_limit)
    result = solve(instance, config)
    if args.trace:
        for row in result.trace:
            cuts = " ".join(f"{k}={v}" for k, v in sorted(row.cuts_added.items()))
            print(
                f"round {row.round}: objective {row.master_objective:.9g}"
                + (f" cuts {cuts}" if cuts else " done"),
                file=sys.stderr,
            )
    if result.solution is not None:
        _write(format_solution(instance, result.solution), args.output)
    if result.status != "optimal":
        print(f"stopped early: {result.status}", file=sys.stderr)
        return _EXIT_LIMIT
    return _EXIT_OK


def _cmd_oracle(args) -> int:
    instance = parse_instance(_read(args.instance))
    solution = brute_force_optimum(instance, limit=args.limit)
    _write(format_solution(instance, solution), args.output)
    return _EXIT_OK


def _cmd_bound(args, parser: _Parser) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    bad = [f for f in families if f not in ALL_FAMILIES]
    if bad:
        parser.error(f"unknown families: {', '.join(bad)}")
    instance = parse_instance(_read(args.instance))
    value = lp_bound(instance, families, max_path_len=args.max_path_len)
    print(f"bound {value:.9g}")
    return _EXIT_OK


def _cmd_reduce(args) -> int:
    text = _read(args.input)
    if args.kind == "sat":
        reduction = reduce_sat(parse_dimacs(text))
    else:
        reduction = reduce_mcf(parse_mcf(text))
    _write(serialize_instance(reduction.instance), args.output)
    print(f"threshold {reduction.threshold:.9g}", file=sys.stderr)
    return _EXIT_OK


def _cmd_decide(args) -> int:
    text = _read(args.input)
    config = SolverConfig(max_rounds=args.rounds)
    if args.kind == "sat":
        yes, assignment = decide_sat(parse_dimacs(text), config)
        if yes:
            print("satisfiable")
            lits = [v if val else -v for v, val in sorted(assignment.items())]
            print(" ".join(str(l) for l in lits))
            return _EXIT_OK
        print("unsatisfiable")
        return _EXIT_NEGATIVE
    yes = decide_mcf(parse_mcf(text), config)
    print("routable" if yes else "not routable")
    return _EXIT_OK if yes else _EXIT_NEGATIVE


def _cmd_track(args) -> int:
    table = parse_costs(_read(args.costs))
    config = TrackingConfig(
        fps=args.fps,
        max_gap_frames=args.max_gap_frames,
        interval_length=args.interval_len,
        successors_per_frame=args.K,
        lift_epsilon=args.lift_epsilon,
        jobs=args.jobs,
    )
    result = run_tracking(table, config)
    print(
        f"objective {result.objective:.9g} after {result.iterations} iterations",
        file=sys.stderr,
    )
    _write(format_tracks(result.tracks), args.output)
    if args.evaluate:
        m = evaluate_tracking(table, result.tracks)
        print(f"idp {m.idp:.9g}")
        print(f"idr {m.idr:.9g}")
        print(f"idf1 {m.idf1:.9g}")
        print(f"mota {m.mota:.9g}")
        print(f"fp {m.false_positives}")
        print(f"fn {m.misses}")
        print(f"ids {m.identity_switches}")
    return _EXIT_OK


def _cmd_validate(args) -> int:
    instance = parse_instance(_read(args.instance))
    print(
        f"ok: {instance.n} nodes, {len(instance.base_edges)} base edges, "
        f"{len(instance.lifted_edges)} lifted edges"
    )
    return _EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (OSError, InstanceError, ReductionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except (OracleLimitError, BudgetError, DecisionLimitError) as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return _EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
