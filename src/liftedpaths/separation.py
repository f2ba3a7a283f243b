"""Exact separation of lifted-label inconsistencies at integral flows.

Given an integral flow plus a candidate lifted labeling, two routines find
violated inequalities whenever the labeling disagrees with the connectivity
the flow actually realizes:

  * `separate_lifted_path`   — labels that are 0 but should be 1: the two
    endpoints lie on one active path in order.  Emits one lifted path
    inequality per offending edge, violated by exactly 1.
  * `separate_lifted_cut`    — labels that are 1 but should be 0.  Emits one
    (possibly strengthened) path-induced cut per offending edge and its
    mirrored cut, each violated by exactly 1; an endpoint that carries no
    flow gets the cut along its one-node witness, the single-node cut.  A
    mirror whose terms are its cut's is left out, so no two returned rows
    are equal.

Both run in one scan over the active paths plus one scan over the lifted
edges; witness construction only reuses the indexes built during those scans,
so the per-call work inspected is exactly (active base edges) + (lifted
edges).  Together the routines are complete: both return nothing if and only
if the labeling equals `lifted_labels_from_flow`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field

from .constraints import (
    SolutionValues,
    PathWitness,
    build_lifted_path_induced_cut,
    build_lifted_path_inequality,
    build_symmetric_cut,
    check_violation,
)
from .instance import FlowSolution, Instance, active_st_paths
from .milp import LinearConstraint

__all__ = ["SeparationReport", "separate_lifted_path", "separate_lifted_cut"]


@dataclass
class SeparationReport:
    """Constraints found by one separation call, and the items its scans
    inspected: (active base edges) + (lifted edges)."""

    constraints: list[LinearConstraint] = field(default_factory=list)
    items_inspected: int = 0


class _PathIndex:
    """Shared per-call indexes, filled in one pass over the lifted edges:
    node positions, active same-path shortcuts, inactive lifted edges by
    head and by tail, and the two candidate lists `ones` (labeled 1, not
    connected) and `zeros_same_path` (labeled 0, connected in order)."""

    def __init__(self, instance: Instance, solution: FlowSolution):
        self.instance = instance
        self.paths = active_st_paths(instance, solution)
        self.where: dict[int, tuple[int, int]] = {}
        for pid, path in enumerate(self.paths):
            for pos, v in enumerate(path):
                self.where[v] = (pid, pos)
        # Active same-path lifted edges, bucketed by (path, head) and kept
        # sorted by tail position — the raw material for shortcut jumps.
        self.shortcuts: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        # Inactive lifted edges grouped by head / by tail, for the
        # strengthened-cut searches.
        self.zeros_in: dict[int, list[tuple[int, int]]] = {}
        self.zeros_out: dict[int, list[tuple[int, int]]] = {}
        self.ones: list[tuple[int, int, int]] = []  # (li, u, v)
        self.zeros_same_path: list[tuple[int, int, int]] = []
        where = self.where
        labels = solution.y_lifted
        for li, (u, v, _) in enumerate(instance.lifted_edges):
            lu = where.get(u)
            lv = where.get(v)
            connected = lu is not None and lv is not None and lu[0] == lv[0] and lu[1] < lv[1]
            if labels[li]:
                if connected:
                    insort(self.shortcuts.setdefault((lu[0], v), []), (lu[1], u, li))
                else:
                    self.ones.append((li, u, v))
            else:
                if connected:
                    self.zeros_same_path.append((li, u, v))
                self.zeros_in.setdefault(v, []).append((u, li))
                self.zeros_out.setdefault(u, []).append((v, li))
        # Every active path contributes len(path)+1 active base edges.
        self.items_inspected = sum(len(p) + 1 for p in self.paths) + len(instance.lifted_edges)


def _extract(
    index: _PathIndex, pid: int, v: int, w: int
) -> PathWitness:
    """Walk the v..w stretch of path `pid` backward, jumping along active
    lifted shortcuts whenever one lands at or after v (earliest tail wins,
    i.e. the longest valid jump)."""
    inst = index.instance
    path = index.paths[pid]
    pos_v = index.where[v][1]
    rev_nodes = [w]
    base_steps: list[int] = []
    lift_steps: list[int] = []
    j = w
    pos_j = index.where[w][1]
    while j != v:
        bucket = index.shortcuts.get((pid, j))
        jumped = False
        if bucket:
            k = bisect_left(bucket, (pos_v, -1, -1))
            if k < len(bucket):
                pos_t, tail, li = bucket[k]
                lift_steps.append(li)
                rev_nodes.append(tail)
                j, pos_j = tail, pos_t
                jumped = True
        if not jumped:
            prev = path[pos_j - 1]
            base_steps.append(inst.base_index[(prev, j)])
            rev_nodes.append(prev)
            j, pos_j = prev, pos_j - 1
    return PathWitness(
        tuple(reversed(rev_nodes)),
        tuple(reversed(base_steps)),
        tuple(reversed(lift_steps)),
    )


def separate_lifted_path(
    instance: Instance, solution: FlowSolution
) -> SeparationReport:
    """Violated lifted path inequalities: labels stuck at 0 across a path."""
    index = _PathIndex(instance, solution)
    report = SeparationReport(items_inspected=index.items_inspected)
    values = SolutionValues(instance, solution)
    for li, u, v in index.zeros_same_path:
        pid = index.where[u][0]
        witness = _extract(index, pid, u, v)
        con = build_lifted_path_inequality(instance, li, witness)
        violation = check_violation(con, values)
        assert violation > 0, f"unviolated separation output: {con.format()}"
        report.constraints.append(con)
    return report


def separate_lifted_cut(
    instance: Instance, solution: FlowSolution
) -> SeparationReport:
    """Violated cuts: labels stuck at 1 that the flow does not realize.

    For each offending lifted edge (v, w) with v on an active path, one cut is
    emitted along that path (strengthened to reuse a 0-labeled lifted edge
    (u, w) when one exists — the latest such u wins).  A mirrored cut along
    w's path is emitted as well (earliest 0-labeled (v, u); mirror-image
    fallback otherwise).  An endpoint on no path gives a one-node witness:
    (v,) for the cut, and (w,) for the mirror when v is on a path.  The cut
    comes before its mirror, and a mirror with its cut's terms is left out.
    """
    index = _PathIndex(instance, solution)
    report = SeparationReport(items_inspected=index.items_inspected)
    values = SolutionValues(instance, solution)
    reach = instance.reachability

    for li, v, w in index.ones:
        lv = index.where.get(v)
        lw = index.where.get(w)
        best: tuple[int, int] | None = None
        if lv is None:
            # v carries no flow at all: its single-node cut is already violated.
            witness = PathWitness((v,))
        else:
            pid, pos_v = lv
            path = index.paths[pid]
            # strengthened: latest u after v on this path with (u,w) labeled 0
            for u, _lj in index.zeros_in.get(w, ()):
                lu = index.where.get(u)
                if lu is not None and lu[0] == pid and lu[1] > pos_v:
                    if best is None or lu[1] > best[0]:
                        best = (lu[1], u)
            if best is None:
                # plain: last path vertex that still reaches w (v qualifies)
                u = next(
                    path[i] for i in range(len(path) - 1, -1, -1)
                    if reach.reaches(path[i], w)
                )
            else:
                u = best[1]
            witness = _extract(index, pid, v, u)
        cut = build_lifted_path_induced_cut(instance, reach, li, witness, best is not None)
        mirror = None
        if lw is not None:
            qid, pos_w = lw
            path = index.paths[qid]
            best = None
            for u, _lj in index.zeros_out.get(v, ()):
                lu = index.where.get(u)
                if lu is not None and lu[0] == qid and lu[1] < pos_w:
                    if best is None or lu[1] < best[0]:
                        best = (lu[1], u)
            if best is None:
                # first path vertex reachable from v (w qualifies)
                u = next(p for p in path if reach.reaches(v, p))
            else:
                u = best[1]
            witness = _extract(index, qid, u, w)
            mirror = build_symmetric_cut(instance, reach, li, witness, best is not None)
        elif lv is not None:
            # w carries no flow: its mirrored single-node cut.
            mirror = build_symmetric_cut(instance, reach, li, PathWitness((w,)))

        rows = [cut] if mirror is None or mirror.terms == cut.terms else [cut, mirror]
        for con in rows:
            violation = check_violation(con, values)
            assert violation > 0, f"unviolated separation output: {con.format()}"
        report.constraints.extend(rows)
    return report
