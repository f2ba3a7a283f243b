"""Cutting-plane driver: exact solver for lifted disjoint paths instances.

The master problem is a binary program over node indicators, base-edge flow
variables and lifted-edge labels.  It starts from always-valid rows (flow
conservation and, on small instances, the two single-node cuts per lifted
edge, the per-frame label bounds when frame data is present, and the path
inequalities of one- and two-edge witness paths) and alternates

    solve master  ->  separate at the integral optimum  ->  add cuts

until neither separation routine finds anything, at which point the master
optimum is an optimum of the full problem: the separators are complete, so
an unviolated integral point carries exactly the labels its flow realizes.

The pool is one row store (`milp._RowStore`).  `build_initial_constraints`
writes the starting rows into it as arrays, straight from the instance, and
each round appends only the separated rows that are new; only those are
keyed for deduplication.  The master reads the store as it is.  From
`_FLOW_ONLY_FROM` (2n + lifted edges) on, the store starts from the flow
rows alone: since the separators are complete, the other starting rows only
save rounds, and on large instances they do not pay for their building.

Each round makes one `solve_binary` call, which from round 2 on resumes the
previous round's branch-and-bound search over the grown pool.

The master objective is monotonically non-decreasing over rounds, and every
round must contribute at least one previously unseen cut — both facts are
asserted, since their failure would mean the separation logic is unsound.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from .constraints import (
    TAG_CUT_IN,
    TAG_CUT_OUT,
    TAG_FLOW,
    TAG_LIFTED_FLOW,
    TAG_PATH,
    base_var,
    lift_var,
    node_var,
)
from .instance import SINK, SOURCE, FlowSolution, Instance
from .milp import (
    _SENSE_EQ,
    _SENSE_GE,
    _SENSE_LE,
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


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for `solve`.

    `node_limit` caps the LPs of each round's master call, re-solves of
    nodes that new rows cut off included; exhausting it ends the run with
    `round_limit`.
    `time_limit` (seconds) is checked before each round and before each
    LP the master solves; exceeding it ends the run with
    `time_limit`, keeping the last completed round's solution.
    """

    max_rounds: int = 200
    time_limit: float | None = None
    include_symmetric: bool = True
    node_limit: int | None = None

    def __post_init__(self):
        for name in ("max_rounds", "node_limit", "time_limit"):
            value = getattr(self, name)
            # `not >= 0` also rejects NaN, which would fail every deadline check.
            if value is not None and not value >= 0:
                raise ValueError(f"{name.replace('_', ' ')} must be at least 0")


@dataclass(frozen=True)
class RoundStats:
    """One master-separate round: objective reached and cuts contributed,
    with the branch-and-bound nodes and simplex pivots of this round's
    master call (the search resumed from the previous round)."""

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
    (`master_variables(instance)[0]` when not given).

    Every instance starts from flow conservation.  Below `_FLOW_ONLY_FROM`,
    the pool also holds the two single-node cuts per lifted edge, the
    per-frame label bounds (when the instance has frames) and the path
    inequalities of one- and two-edge witness paths; larger instances get
    those rows from separation only.  The rows are written straight from the
    edge lists and reachability, in the row and term order of the per-row
    builders in `constraints`.  A lifted edge's cut-in row is left out when
    its base edges are those of its cut-out row; that is the only way two of
    these rows can be equal.
    """
    if variables is None:
        variables = _master_handles(instance)
    n = instance.n
    count: list[int] = []
    col: list[int] = []
    val: list[float] = []
    sense: list[int] = []
    tag: list[int] = []

    def add(cols: list[int], vals: list[float], row_sense: int, row_tag: int) -> None:
        count.append(len(cols))
        col.extend(cols)
        val.extend(vals)
        sense.append(row_sense)
        tag.append(row_tag)

    for v in instance.inner_nodes():
        for edges in (instance.in_edges[v], instance.out_edges[v]):
            # inflow (outflow) - x_v == 0
            add([n + e for e, _ in edges] + [v - 1], [1.0] * len(edges) + [-1.0], _SENSE_EQ, _FLOW)
    if not _flow_rows_only(instance):
        _add_inequalities(instance, add)
    return _RowStore(variables, count, col, val, sense, [0.0] * len(count), tag, _TAGS)


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


def _add_inequalities(instance: Instance, add) -> None:
    """The initial inequality rows, one row at a time through `add`."""
    n = instance.n
    lift0 = n + len(instance.base_edges)  # column of lift[0]
    out_edges, in_edges = instance.out_edges, instance.in_edges
    reach = instance.reachability.row
    for li, (v, w, _) in enumerate(instance.lifted_edges):
        cut_out = [n + e for e, u in out_edges[v] if reach(u) >> w & 1]
        add([lift0 + li] + cut_out, [1.0] + [-1.0] * len(cut_out), _SENSE_LE, _CUT_OUT)
        from_v = reach(v)
        cut_in = [n + e for e, u in in_edges[w] if u != SOURCE and from_v >> u & 1]
        if len(cut_in) != len(cut_out) or set(cut_in) != set(cut_out):
            add([lift0 + li] + cut_in, [1.0] + [-1.0] * len(cut_in), _SENSE_LE, _CUT_IN)

    if instance.frames is not None:
        frames = instance.frames
        for v in instance.inner_nodes():
            for lifted in (instance.lifted_out.get(v, ()), instance.lifted_in.get(v, ())):
                by_frame: dict[int, list[int]] = {}
                for li, u in lifted:
                    by_frame.setdefault(frames[u], []).append(li)
                for f in sorted(by_frame):
                    # v's labels to (from) the nodes of frame f - x_v <= 0
                    lis = sorted(by_frame[f])
                    add(
                        [lift0 + li for li in lis] + [v - 1],
                        [1.0] * len(lis) + [-1.0],
                        _SENSE_LE,
                        _LIFTED_FLOW,
                    )

    # Path inequalities for one- and two-edge witness paths: the shortest
    # members of the general family and the ones the LP relaxation violates
    # first on labels that undershoot realized connectivity; seeding them
    # saves several cutting rounds per solve.
    base_index = instance.base_index
    two_hop: list[tuple[int, int | None, int, int, int]] = []
    for li, (v, w, _) in enumerate(instance.lifted_edges):
        vw = base_index.get((v, w))
        if vw is not None:
            add([lift0 + li, n + vw], [1.0, -1.0], _SENSE_GE, _PATH)
        for v_mid, mid in out_edges[v]:
            mid_w = base_index.get((mid, w))
            if mid != SINK and mid_w is not None:
                two_hop.append((li, vw, v_mid, mid, mid_w))
    for li, vw, v_mid, mid, mid_w in two_hop:
        # y'_vw - (flow from v onto the path) + (flow leaving it at mid) >= 0.
        # Edge lists run in edge-index order, and mid's only out-edge back
        # onto the path is (mid, w): v -> mid -> v would be a cycle.
        onto = [n + v_mid] if vw is None else sorted((n + v_mid, n + vw))
        leaving = [n + e for e, _ in out_edges[mid] if e != mid_w]
        add(
            [lift0 + li] + onto + leaving,
            [1.0] + [-1.0] * len(onto) + [1.0] * len(leaving),
            _SENSE_GE,
            _PATH,
        )


#: Tag codes of the initial rows, indices into `_TAGS`.
_TAGS = (TAG_FLOW, TAG_CUT_OUT, TAG_CUT_IN, TAG_LIFTED_FLOW, TAG_PATH)
_FLOW, _CUT_OUT, _CUT_IN, _LIFTED_FLOW, _PATH = range(len(_TAGS))


def certify(
    instance: Instance, solution: FlowSolution, include_symmetric: bool = True
) -> list[LinearConstraint]:
    """Violated inequalities at an integral solution; empty means the lifted
    labels match the connectivity realized by the flow."""
    rep_path = separate_lifted_path(instance, solution)
    rep_cut = separate_lifted_cut(instance, solution, include_symmetric)
    return rep_path.constraints + rep_cut.constraints


def _solution_from_values(instance: Instance, values) -> FlowSolution:
    n, m = instance.n, len(instance.base_edges)
    x = tuple([0.0] + [float(values[i]) for i in range(n)])
    y = tuple(float(values[n + i]) for i in range(m))
    yl = tuple(float(values[n + m + i]) for i in range(len(instance.lifted_edges)))
    objective = math.fsum(
        (
            math.fsum(c * xi for c, xi in zip(instance.node_costs[1:], x[1:])),
            math.fsum(e[2] * yi for e, yi in zip(instance.base_edges, y)),
            math.fsum(e[2] * yi for e, yi in zip(instance.lifted_edges, yl)),
        )
    )
    return FlowSolution(x=x, y=y, y_lifted=yl, objective=objective)


def solve(
    instance: Instance,
    config: SolverConfig | None = None,
    initial_cuts: Sequence[LinearConstraint] = (),
    *,
    cutoff: float | None = None,
) -> SolveResult:
    """Run the cutting-plane loop to optimality (or a configured limit).

    `initial_cuts` seeds the pool with extra rows, e.g. the final pool of a
    previous run; re-solving with that pool certifies in one round.
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
    # The initial rows are distinct, and the master satisfies every pool row,
    # so a separated row can only repeat another separated row: only those
    # are keyed, unless extra rows must be checked against the pool.
    seen: set = set()
    if initial_cuts:
        seen = {row.key() for row in pool}
        pool.extend(_unseen(initial_cuts, seen))

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
        if master.status == "cutoff":
            status = STATUS_CUTOFF
            break
        if master.status == "node_limit":
            status = STATUS_ROUND_LIMIT
            break
        if master.status == "time_limit":
            status = STATUS_TIME_LIMIT
            break
        best = _solution_from_values(instance, master.values)
        assert best.objective >= prev_objective - 1e-9, (
            "master objective decreased across rounds"
        )
        prev_objective = best.objective

        rep_path = separate_lifted_path(instance, best)
        rep_cut = separate_lifted_cut(instance, best, config.include_symmetric)
        found = rep_path.constraints + rep_cut.constraints
        fresh = _unseen(found, seen)
        pool.extend(fresh)
        added = Counter(row.tag for row in fresh)
        trace.append(
            RoundStats(
                round=rounds,
                master_objective=best.objective,
                cuts_added=dict(added),
                items_inspected=rep_path.items_inspected + rep_cut.items_inspected,
                master_nodes=master.nodes_explored,
                master_pivots=master.lp_iterations,
            )
        )
        if not found:
            status = STATUS_OPTIMAL
            certified = True
            break
        if not added:
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


def _unseen(rows, seen: set) -> list[LinearConstraint]:
    """The rows whose `key()` is not in `seen`, first copies only; their keys
    join `seen`."""
    fresh = []
    for row in rows:
        key = row.key()
        if key not in seen:
            seen.add(key)
            fresh.append(row)
    return fresh
