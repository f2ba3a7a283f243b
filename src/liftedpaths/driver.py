"""Cutting-plane driver: exact solver for lifted disjoint paths instances.

The master problem is a binary program over node indicators, base-edge flow
variables and lifted-edge labels.  It starts from the always-valid rows
(flow conservation, the two single-node cuts per lifted edge, and the
per-frame label bounds when frame data is present) and alternates

    solve master  ->  separate at the integral optimum  ->  add cuts

until neither separation routine finds anything, at which point the master
optimum is an optimum of the full problem: the separators are complete, so
an unviolated integral point carries exactly the labels its flow realizes.

The master objective is monotonically non-decreasing over rounds, and every
round must contribute at least one previously unseen cut — both facts are
asserted, since their failure would mean the separation logic is unsound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .constraints import (
    base_var,
    build_flow_conservation,
    build_lifted_flow_inequalities,
    build_path_inequality,
    build_single_node_cut,
    lift_var,
    node_var,
)
from .instance import SINK, FlowSolution, Instance
from .milp import LinearConstraint, MilpError, VariableHandle, solve_binary
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


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for `solve`.

    `lifted_flow=None` means: add the per-frame label bounds exactly when the
    instance carries frame data.  `node_limit` caps the branch-and-bound tree
    of each master solve; exhausting it ends the run with `round_limit`.
    `time_limit` (seconds) is checked before each round and before each
    branch-and-bound node of the master; exceeding it ends the run with
    `time_limit`, keeping the last completed round's solution.
    """

    max_rounds: int = 200
    time_limit: float | None = None
    include_symmetric: bool = True
    lifted_flow: bool | None = None
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
    with the master's branch-and-bound nodes and simplex pivots."""

    round: int
    master_objective: float
    cuts_added: dict[str, int]
    items_inspected: int
    master_nodes: int = 0
    master_pivots: int = 0


@dataclass
class SolveResult:
    status: str
    solution: FlowSolution | None
    objective: float | None
    rounds: int
    trace: list[RoundStats]
    cuts: tuple[LinearConstraint, ...]
    certified: bool


def master_variables(
    instance: Instance,
) -> tuple[list[VariableHandle], list[float]]:
    """Master variable order (node indicators, then base flows, then lifted
    labels) with the matching cost vector."""
    variables: list[VariableHandle] = [node_var(v) for v in instance.inner_nodes()]
    costs: list[float] = [instance.node_costs[v] for v in instance.inner_nodes()]
    for idx, (_, _, cost) in enumerate(instance.base_edges):
        variables.append(base_var(idx))
        costs.append(cost)
    for idx, (_, _, cost) in enumerate(instance.lifted_edges):
        variables.append(lift_var(idx))
        costs.append(cost)
    return variables, costs


def build_initial_constraints(
    instance: Instance, config: SolverConfig | None = None
) -> list[LinearConstraint]:
    """The always-valid starting pool: conservation, single-node cuts, and
    (when frames are available and not disabled) per-frame label bounds."""
    config = config or SolverConfig()
    reach = instance.reachability
    rows: list[LinearConstraint] = []
    for v in instance.inner_nodes():
        rows.extend(build_flow_conservation(instance, v))
    for li in range(len(instance.lifted_edges)):
        rows.append(build_single_node_cut(instance, reach, li, "out_of_v"))
        rows.append(build_single_node_cut(instance, reach, li, "into_w"))
    want_frames = (
        instance.frames is not None
        if config.lifted_flow is None
        else config.lifted_flow
    )
    if want_frames:
        rows.extend(build_lifted_flow_inequalities(instance))
    rows.extend(_short_path_rows(instance))
    return rows


#: Cap on preseeded two-hop rows; past it, separation finds them on demand.
_TWO_HOP_ROW_BUDGET = 2000


def _short_path_rows(instance: Instance) -> list[LinearConstraint]:
    """Path inequalities for one- and two-edge witness paths.

    These are the shortest members of the general family and the ones the
    LP relaxation violates first on labels that undershoot realized
    connectivity; seeding them saves several cutting rounds per solve.
    """
    rows: list[LinearConstraint] = []
    two_hop: list[tuple[int, tuple[int, int, int]]] = []
    for li, (v, w, _) in enumerate(instance.lifted_edges):
        if (v, w) in instance.base_index:
            rows.append(build_path_inequality(instance, li, (v, w)))
        for _, mid in instance.out_edges[v]:
            if mid != SINK and (mid, w) in instance.base_index:
                two_hop.append((li, (v, mid, w)))
    for li, nodes in two_hop[:_TWO_HOP_ROW_BUDGET]:
        rows.append(build_path_inequality(instance, li, nodes))
    return rows


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
    initial_cuts: tuple[LinearConstraint, ...] = (),
) -> SolveResult:
    """Run the cutting-plane loop to optimality (or a configured limit).

    `initial_cuts` seeds the pool with extra rows, e.g. the final pool of a
    previous run; re-solving with that pool certifies in one round.
    """
    config = config or SolverConfig()
    started = time.monotonic()
    deadline = None if config.time_limit is None else started + config.time_limit
    variables, objective = master_variables(instance)

    pool: list[LinearConstraint] = []
    seen: set = set()
    for row in list(build_initial_constraints(instance, config)) + list(initial_cuts):
        key = row.key()
        if key not in seen:
            seen.add(key)
            pool.append(row)

    trace: list[RoundStats] = []
    best: FlowSolution | None = None
    warm = None
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
            warm_start=warm,
            deadline=deadline,
        )
        if master.status == "infeasible":
            raise MilpError("master problem infeasible; the empty flow should always fit")
        if master.status == "node_limit":
            status = STATUS_ROUND_LIMIT
            break
        if master.status == "time_limit":
            status = STATUS_TIME_LIMIT
            break
        warm = master.values
        best = _solution_from_values(instance, master.values)
        assert best.objective >= prev_objective - 1e-9, (
            "master objective decreased across rounds"
        )
        prev_objective = best.objective

        rep_path = separate_lifted_path(instance, best)
        rep_cut = separate_lifted_cut(instance, best, config.include_symmetric)
        found = rep_path.constraints + rep_cut.constraints
        added: dict[str, int] = {}
        for row in found:
            key = row.key()
            if key in seen:
                continue
            seen.add(key)
            pool.append(row)
            added[row.tag] = added.get(row.tag, 0) + 1
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
        cuts=tuple(pool),
        certified=certified,
    )
