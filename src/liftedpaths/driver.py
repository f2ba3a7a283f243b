"""Cutting-plane driver: exact solver for lifted disjoint paths instances.

The master problem is a binary program over node indicators, base-edge flow
variables and lifted-edge labels.  It starts from always-valid rows (flow
conservation and, on small instances, the single-node cuts, which are the
cut and mirrored cut along each lifted edge's one-node witnesses, the
per-frame label bounds when frame data is present, and the path
inequalities of one- and two-edge witness paths) and alternates

    solve master  ->  separate at the integral optimum  ->  add cuts

until neither separation routine finds anything, at which point the master
optimum is an optimum of the full problem: the separators are complete, so
an unviolated integral point carries exactly the labels its flow realizes.

The pool is one row store (`milp._RowStore`).  `build_initial_constraints`
appends the starting rows to it from the family builders in `constraints`,
and each round appends every row it separates, none of which can already be
in the pool or repeat another of the round: the round's master point
violates each of them and satisfies every pool row, and the only other row
of a round with a +1 on a lifted edge's label is that edge's mirrored cut,
which `separate_lifted_cut` leaves out when it equals the cut.  The master
reads the store as it is.  From
`_FLOW_ONLY_FROM` (2n + lifted edges) on, the store starts from the flow
rows alone: since the separators are complete, the other starting rows only
save rounds, and on large instances they do not pay for their building.

Each round makes one `solve_binary` call, which from round 2 on resumes the
previous round's branch-and-bound search over the grown pool.

The master objective is monotonically non-decreasing over rounds, and every
row a round appends must be violated by its master point — both facts are
asserted, since their failure would mean the separation logic is unsound.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .constraints import (
    PathWitness,
    base_var,
    build_flow_conservation,
    build_lifted_flow_inequalities,
    build_lifted_path_induced_cut,
    build_lifted_path_inequality,
    build_symmetric_cut,
    lift_var,
    node_var,
)
from .instance import _LABELS, FlowSolution, Instance
from .milp import (
    BinaryResult,
    LinearConstraint,
    MilpError,
    VariableHandle,
    _RowStore,
    solve_binary,
)
from .separation import separate_lifted_cut, separate_lifted_path

__all__ = [
    "SolverConfig",
    "master_variables",
    "RoundStats",
    "SolveResult",
    "build_initial_constraints",
    "certify",
    "solve",
]

STATUS_OPTIMAL = "optimal"
STATUS_ROUND_LIMIT = "round_limit"
STATUS_TIME_LIMIT = "time_limit"
STATUS_CUTOFF = "cutoff"
#: The run's status when the master stops on its cutoff or a limit.
_STOPPED = {"cutoff": STATUS_CUTOFF, "node_limit": STATUS_ROUND_LIMIT,
            "time_limit": STATUS_TIME_LIMIT}


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for `solve`.

    `max_rounds` caps the master-separate rounds; reaching it before a
    round certifies ends the run with `round_limit` (0 solves no master).
    `node_limit` caps the LPs of each round's master call, re-solves of
    nodes that new rows cut off included; exhausting it ends the run with
    `round_limit`.
    `time_limit` (seconds) is checked before each round and at every
    simplex pass of every LP the master solves but round 1's root;
    exceeding it ends the run with `time_limit`, keeping the last completed
    round's solution.
    """

    max_rounds: int = 200
    time_limit: float | None = None
    node_limit: int | None = None

    def __post_init__(self):
        for name in ("max_rounds", "node_limit", "time_limit"):
            value, label = getattr(self, name), name.replace("_", " ")
            if value is None and name != "max_rounds":
                continue
            if name != "time_limit" and not isinstance(value, numbers.Integral):
                raise ValueError(f"{label} must be an integer")
            # `not >= 0` also rejects NaN, which would fail every deadline check.
            if not value >= 0:
                raise ValueError(f"{label} must be at least 0")


@dataclass(frozen=True)
class RoundStats:
    """One master-separate round: objective reached and cuts contributed,
    with the branch-and-bound nodes and the simplex pivots and bound flips
    of this round's master call (resumed from the previous round's search)."""

    round: int
    master_objective: float
    cuts_added: dict[str, int]
    items_inspected: int
    master_nodes: int = 0
    master_pivots: int = 0


@dataclass
class SolveResult:
    """`status` is "optimal", "round_limit", "time_limit" or, with a
    cutoff, "cutoff".  `cuts` is the whole final pool, initial rows and
    separated rows: a row store that yields each row as a
    `LinearConstraint` when read."""

    status: str
    solution: FlowSolution | None
    objective: float | None
    rounds: int
    trace: list[RoundStats]
    cuts: Sequence[LinearConstraint]
    certified: bool


def master_variables(
    instance: Instance,
) -> tuple[list[VariableHandle], list[float]]:
    """Master variable order (node indicators, then base flows, then lifted
    labels) with the matching cost vector."""
    return _master_handles(instance), _master_costs(instance)


def _master_handles(instance: Instance) -> list[VariableHandle]:
    variables: list[VariableHandle] = [node_var(v) for v in instance.inner_nodes()]
    variables += [base_var(idx) for idx in range(len(instance.base_edges))]
    variables += [lift_var(idx) for idx in range(len(instance.lifted_edges))]
    return variables


def _master_costs(instance: Instance) -> list[float]:
    costs = [instance.node_costs[v] for v in instance.inner_nodes()]
    return costs + [e[2] for e in instance.base_edges] + [e[2] for e in instance.lifted_edges]


def build_initial_constraints(
    instance: Instance, variables: list[VariableHandle] | None = None
) -> _RowStore:
    """The always-valid starting pool, as a row store over `variables`
    (`master_variables(instance)[0]` when not given, or those handles in any
    order).

    Every instance starts from flow conservation.  Below `_FLOW_ONLY_FROM`,
    the pool also holds the two single-node cuts per lifted edge, the
    per-frame label bounds (when the instance has frames) and the path
    inequalities of one- and two-edge witness paths; larger instances get
    those rows from separation only.  The rows come from the family builders
    in `constraints`; the single-node cuts of (v, w) are the cut along the
    one-node witness (v,) and the mirrored cut along (w,).  A lifted edge's
    mirrored row is left out when its terms are those of its cut row; that
    is the only way two of these rows can be equal.
    """
    store = _RowStore(_master_handles(instance) if variables is None else variables)
    store.extend(_initial_rows(instance))
    return store


#: Size, as 2n + lifted edges, from which the initial pool holds the flow
#: rows only.  Below it the stored inequality rows save rounds: with flow
#: rows alone, the first 600 `sat-decide` formulas and 1,000 `batch-small`
#: instances of seed 1 took 3,594 rounds instead of 2,252.  Above it they
#: cost more to build than they save: on a `track-600` sequence only 247 of
#: about 125,000 stored inequality rows ever entered an LP.  A `sat-decide`
#: formula has size at most 41 (seeds 1-3 and 11), a `batch-small` instance
#: at most 55 (20 nodes, 15 lifted edges), and every `track-600` solve of
#: seeds 11-13 at least 137, so the benchmark has workloads on both sides.
#: Below the line there are at most (99 - 2n)(n - 1) <= 1,176 two-hop rows,
#: so they need no cap.
_FLOW_ONLY_FROM = 100


def _flow_rows_only(instance: Instance) -> bool:
    return 2 * instance.n + len(instance.lifted_edges) >= _FLOW_ONLY_FROM


def _initial_rows(instance: Instance) -> Iterator[LinearConstraint]:
    for v in instance.inner_nodes():
        yield from build_flow_conservation(instance, v)
    if _flow_rows_only(instance):
        return
    reach = instance.reachability
    for li, (v, w, _) in enumerate(instance.lifted_edges):
        cut_out = build_lifted_path_induced_cut(instance, reach, li, PathWitness((v,)))
        yield cut_out
        cut_in = build_symmetric_cut(instance, reach, li, PathWitness((w,)))
        if cut_in.terms != cut_out.terms:
            yield cut_in
    if instance.frames is not None:
        yield from build_lifted_flow_inequalities(instance)
    # Path inequalities of one-edge, then two-edge base witnesses: the
    # shortest of the family and the first the LP relaxation violates.
    for li, (v, w, _) in enumerate(instance.lifted_edges):
        e = instance.base_index.get((v, w))
        if e is not None:
            yield build_lifted_path_inequality(instance, li, PathWitness((v, w), (e,)))
    for li, (v, w, _) in enumerate(instance.lifted_edges):
        for e1, mid in instance.out_edges[v]:
            e2 = instance.base_index.get((mid, w))
            if e2 is not None:
                witness = PathWitness((v, mid, w), (e1, e2))
                yield build_lifted_path_inequality(instance, li, witness)


def certify(instance: Instance, solution: FlowSolution) -> list[LinearConstraint]:
    """Violated inequalities at an integral solution, mirrored cuts
    included; empty means the lifted labels match the connectivity realized
    by the flow."""
    rep_path = separate_lifted_path(instance, solution)
    rep_cut = separate_lifted_cut(instance, solution)
    return rep_path.constraints + rep_cut.constraints


def _solution_from_values(instance: Instance, master: BinaryResult) -> FlowSolution:
    """The master's 0/1 values as a solution of `instance`.  `solve_binary`
    sums the costs of the chosen columns with `math.fsum`, as
    `evaluate_objective` does, so its objective is the solution's."""
    n, m = instance.n, len(instance.base_edges)
    labels = [_LABELS[v] for v in master.values.tolist()]
    x = (_LABELS[0], *labels[:n])
    y = tuple(labels[n : n + m])
    yl = tuple(labels[n + m : n + m + len(instance.lifted_edges)])
    return FlowSolution(x=x, y=y, y_lifted=yl, objective=master.objective)


def solve(
    instance: Instance,
    config: SolverConfig | None = None,
    *,
    cutoff: float | None = None,
) -> SolveResult:
    """Run the cutting-plane loop to optimality (or a configured limit).

    With a `cutoff`, a master whose bound proves that every solution costs
    more than the cutoff ends the run with status `cutoff` (each master is
    a relaxation); the last completed round's solution is kept, as on a
    limit.  A master optimum at or below the cutoff is never cut off.
    """
    config = config or SolverConfig()
    started = time.monotonic()
    deadline = None if config.time_limit is None else started + config.time_limit

    variables, objective = master_variables(instance)
    pool = build_initial_constraints(instance, variables)

    trace: list[RoundStats] = []
    best: FlowSolution | None = None
    master = None
    prev_objective = -math.inf
    status = STATUS_ROUND_LIMIT
    certified = False

    rounds = 0
    while rounds < config.max_rounds:
        if deadline is not None and time.monotonic() > deadline:
            status = STATUS_TIME_LIMIT
            break
        rounds += 1
        master = solve_binary(
            variables,
            objective,
            pool,
            node_limit=config.node_limit,
            deadline=deadline,
            cutoff=cutoff,
            resume=master,
        )
        if master.status == "infeasible":
            raise MilpError("master problem infeasible; the empty flow should always fit")
        if master.status in _STOPPED:
            status = _STOPPED[master.status]
            break
        best = _solution_from_values(instance, master)
        assert best.objective >= prev_objective - 1e-9, (
            "master objective decreased across rounds"
        )
        prev_objective = best.objective

        rep_path = separate_lifted_path(instance, best)
        rep_cut = separate_lifted_cut(instance, best)
        found = rep_path.constraints + rep_cut.constraints
        before = len(pool)
        pool.extend(found)
        trace.append(
            RoundStats(
                round=rounds,
                master_objective=best.objective,
                cuts_added=dict(Counter(row.tag for row in found)),
                items_inspected=rep_path.items_inspected + rep_cut.items_inspected,
                master_nodes=master.nodes_explored,
                master_pivots=master.lp_iterations,
            )
        )
        if not found:
            status = STATUS_OPTIMAL
            certified = True
            break
        if not pool.violated(master.values, first=before).all():
            raise RuntimeError(
                "separation produced only cuts already in the pool; "
                "the master solution should have satisfied them"
            )

    return SolveResult(
        status=status,
        solution=best,
        objective=None if best is None else best.objective,
        rounds=rounds,
        trace=trace,
        cuts=pool,
        certified=certified,
    )

