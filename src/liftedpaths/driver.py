"""Cutting-plane driver: exact solver for lifted disjoint paths instances.

The master problem is a binary program over node indicators, base-edge flow
variables and lifted-edge labels.  It starts from the always-valid rows
(flow conservation, the two single-node cuts per lifted edge, the per-frame
label bounds when frame data is present, and the path inequalities of one-
and two-edge witness paths) and alternates

    solve master  ->  separate at the integral optimum  ->  add cuts

until neither separation routine finds anything, at which point the master
optimum is an optimum of the full problem: the separators are complete, so
an unviolated integral point carries exactly the labels its flow realizes.

The pool is one row store (`milp._RowStore`).  `build_initial_constraints`
writes the starting rows into it as arrays, straight from the instance, and
each round appends only the separated rows that are new; only those are
keyed for deduplication.  The master reads the store as it is.  Small
instances get their starting rows from a per-row loop, larger ones (2n +
lifted edges from `_ARRAY_ROWS_FROM` on) from NumPy array operations; both
write the same rows, entry for entry.

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

import numpy as np

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

    `lifted_flow=None` means: add the per-frame label bounds exactly when the
    instance carries frame data.  `node_limit` caps the LPs of each round's
    master call, re-solves of nodes that new rows cut off included;
    exhausting it ends the run with `round_limit`.
    `time_limit` (seconds) is checked before each round and before each
    LP the master solves; exceeding it ends the run with
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
    instance: Instance,
    config: SolverConfig | None = None,
    variables: list[VariableHandle] | None = None,
) -> _RowStore:
    """The always-valid starting pool, as a row store over `variables`
    (`master_variables(instance)[0]` when not given): flow conservation,
    the two single-node cuts per lifted edge, the per-frame label bounds
    (when frames are available and not disabled) and the path inequalities
    of one- and two-edge witness paths.

    The rows are written straight from the edge lists and reachability, in
    the row and term order of the per-row builders in `constraints`.  A
    lifted edge's cut-in row is left out when its base edges are those of
    its cut-out row; that is the only way two of these rows can be equal.
    Two builders write exactly the same rows, entry for entry:
    `_array_rows`, with NumPy array operations, once 2n + lifted edges
    reaches `_ARRAY_ROWS_FROM`, and the per-row loop `_loop_rows`, whose
    fixed cost is lower, below that.
    """
    config = config or SolverConfig()
    if variables is None:
        variables = _master_handles(instance)
    build = _array_rows if _uses_arrays(instance) else _loop_rows
    return build(instance, config, variables)


#: Size, as 2n + lifted edges, from which `_array_rows` writes the initial
#: rows.  The measure is a lower bound on the row count (two flow rows per
#: node, a cut-out row per lifted edge), known before any row is built.
#: On random instances the two builders break even at sizes of 80-120;
#: below 40 the loop is 3-8x faster, since the arrays cost about 0.5 ms
#: whatever the size.
_ARRAY_ROWS_FROM = 100


def _uses_arrays(instance: Instance) -> bool:
    return 2 * instance.n + len(instance.lifted_edges) >= _ARRAY_ROWS_FROM


def _wants_frames(instance: Instance, config: SolverConfig) -> bool:
    """Whether the per-frame label bounds are written; they need frames."""
    want = instance.frames is not None if config.lifted_flow is None else config.lifted_flow
    if want and not instance.frames:
        raise ValueError("lifted-flow inequalities need frame annotations")
    return want


def _loop_rows(
    instance: Instance, config: SolverConfig, variables: list[VariableHandle]
) -> _RowStore:
    """The initial rows, written one row at a time."""
    want_frames = _wants_frames(instance, config)
    n = instance.n
    lift0 = n + len(instance.base_edges)  # column of lift[0]
    out_edges, in_edges = instance.out_edges, instance.in_edges
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
        for edges in (in_edges[v], out_edges[v]):
            # inflow (outflow) - x_v == 0
            add([n + e for e, _ in edges] + [v - 1], [1.0] * len(edges) + [-1.0], _SENSE_EQ, _FLOW)

    reach = instance.reachability.row
    for li, (v, w, _) in enumerate(instance.lifted_edges):
        cut_out = [n + e for e, u in out_edges[v] if reach(u) >> w & 1]
        add([lift0 + li] + cut_out, [1.0] + [-1.0] * len(cut_out), _SENSE_LE, _CUT_OUT)
        from_v = reach(v)
        cut_in = [n + e for e, u in in_edges[w] if u != SOURCE and from_v >> u & 1]
        if len(cut_in) != len(cut_out) or set(cut_in) != set(cut_out):
            add([lift0 + li] + cut_in, [1.0] + [-1.0] * len(cut_in), _SENSE_LE, _CUT_IN)

    if want_frames:
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
    for li, vw, v_mid, mid, mid_w in two_hop[:_TWO_HOP_ROW_BUDGET]:
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

    return _RowStore(variables, count, col, val, sense, [0.0] * len(count), tag, _TAGS)


def _array_rows(
    instance: Instance, config: SolverConfig, variables: list[VariableHandle]
) -> _RowStore:
    """The rows of `_loop_rows`, written with array operations.

    Nodes are slots: the source and inner nodes keep their ids and the sink
    is n + 1, which is also its reachability bit.  Every entry is written
    with the id of its row, one piece of entries at a time; a stable sort by
    row id then puts each row's pieces in the order they were written.
    Every row has an entry, so a row id left without one (a cut-in row that
    repeats its cut-out row) is simply dropped.
    """
    want_frames = _wants_frames(instance, config)
    n, n_lifted = instance.n, len(instance.lifted_edges)
    lift0 = n + len(instance.base_edges)  # column of lift[0]
    sink = n + 1
    ends = np.array([(u, v) for u, v, _ in instance.base_edges], dtype=np.int64).reshape(-1, 2)
    tail, head = ends[:, 0], np.where(ends[:, 1] == SINK, sink, ends[:, 1])
    out_ptr, out_edge = _csr(tail, n + 2)
    in_ptr, in_edge = _csr(head, n + 2)
    pairs = np.array([(v, w) for v, w, _ in instance.lifted_edges], dtype=np.int64)
    lv, lw = pairs.reshape(-1, 2).T
    li = np.arange(n_lifted)

    ids: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[float] = []  # one value per piece
    senses: list[np.ndarray] = []
    tags: list[np.ndarray] = []

    def rows(k: int, row_sense: int, row_tag) -> np.ndarray:
        """Ids for k new rows."""
        first = sum(map(len, senses))
        senses.append(np.full(k, row_sense))
        tags.append(np.broadcast_to(row_tag, (k,)))
        return np.arange(first, first + k)

    def put(row_ids: np.ndarray, col_ids: np.ndarray, value: float) -> None:
        ids.append(row_ids)
        cols.append(col_ids)
        vals.append(value)

    # inflow (outflow) - x_v == 0, as rows 2(v-1) (and 2(v-1) + 1)
    flow = rows(2 * n, _SENSE_EQ, _FLOW)
    ins = in_edge[in_ptr[1] : in_ptr[n + 1]]
    put(flow[2 * (head[ins] - 1)], n + ins, 1.0)
    outs = out_edge[out_ptr[1] : out_ptr[n + 1]]
    put(flow[2 * (tail[outs] - 1) + 1], n + outs, 1.0)
    put(flow, np.repeat(np.arange(n), 2), -1.0)

    # Cut-out row 2 li and cut-in row 2 li + 1 of lifted edge li = (v, w):
    # v's out-edges (v, u) with w reachable from u, and w's in-edges (u, w)
    # with u reachable from v (never the source, which nothing reaches).
    owner, pos = _gather(out_ptr, lv)
    v_out, u_out = out_edge[pos], head[out_edge[pos]]
    reaches = _reach_test(instance, np.concatenate([u_out, lv]))
    cut = rows(2 * n_lifted, _SENSE_LE, np.tile([_CUT_OUT, _CUT_IN], n_lifted))
    hit = reaches(u_out, lw[owner])
    out_li, out_e = owner[hit], v_out[hit]
    owner_in, pos_in = _gather(in_ptr, lw)
    e_in = in_edge[pos_in]
    hit = reaches(lv[owner_in], tail[e_in])
    in_li, in_e = owner_in[hit], e_in[hit]
    # The two rows share at most the edge (v, w), so they are equal only
    # when both are empty or both hold just that edge.
    n_out = np.bincount(out_li, minlength=n_lifted)
    only_out, only_in = np.full(n_lifted, -1), np.full(n_lifted, -1)
    only_out[out_li], only_in[in_li] = out_e, in_e
    cut_in = (n_out != np.bincount(in_li, minlength=n_lifted)) | (n_out > 1) | (only_out != only_in)
    put(cut[2 * li], lift0 + li, 1.0)
    put(cut[2 * li[cut_in] + 1], lift0 + li[cut_in], 1.0)
    put(cut[2 * out_li], n + out_e, -1.0)
    kept = cut_in[in_li]
    put(cut[2 * in_li[kept] + 1], n + in_e[kept], -1.0)

    if want_frames:
        # One row per (node, side, frame of the other end): the node's
        # labels to (side 0) or from (side 1) that frame, minus x_node.
        frame = np.zeros(n + 1, dtype=np.int64)
        frame[list(instance.frames)] = list(instance.frames.values())
        node = np.concatenate([lv, lw])
        side = np.repeat([0, 1], n_lifted)
        other = frame[np.concatenate([lw, lv])]
        lis = np.concatenate([li, li])
        order = np.lexsort((lis, other, side, node))
        node, side, other, lis = node[order], side[order], other[order], lis[order]
        new = np.ones(len(node), dtype=bool)
        new[1:] = (node[1:] != node[:-1]) | (side[1:] != side[:-1]) | (other[1:] != other[:-1])
        bounds = rows(int(new.sum()), _SENSE_LE, _LIFTED_FLOW)
        put(bounds[np.cumsum(new) - 1], lift0 + lis, 1.0)
        put(bounds, node[new] - 1, -1.0)

    # Path rows: y'_vw - y_vw >= 0 for every base edge (v, w), then the
    # two-hop rows of `_loop_rows`, the first `_TWO_HOP_ROW_BUDGET` only.
    edge = _edge_finder(tail, head, n + 2)
    vw = edge(lv, lw)
    direct = vw >= 0
    one_hop = rows(int(direct.sum()), _SENSE_GE, _PATH)
    put(one_hop, lift0 + li[direct], 1.0)
    put(one_hop, n + vw[direct], -1.0)
    # Two-hop paths v -> mid -> w; no edge leaves the sink, so none turns there.
    mid_w = edge(u_out, lw[owner])
    hop = np.flatnonzero(mid_w >= 0)[:_TWO_HOP_ROW_BUDGET]
    hop_li, v_mid, mid, mid_w = owner[hop], v_out[hop], u_out[hop], mid_w[hop]
    hop_vw = vw[hop_li]
    two_hop = rows(len(hop), _SENSE_GE, _PATH)
    put(two_hop, lift0 + hop_li, 1.0)
    both = hop_vw >= 0
    put(two_hop, n + np.where(both, np.minimum(v_mid, hop_vw), v_mid), -1.0)
    put(two_hop[both], n + np.maximum(v_mid, hop_vw)[both], -1.0)
    owner, pos = _gather(out_ptr, mid)
    leaving = out_edge[pos]
    kept = leaving != mid_w[owner]
    put(two_hop[owner[kept]], n + leaving[kept], 1.0)

    row_of = np.concatenate(ids)
    order = np.argsort(row_of, kind="stable")
    count = np.bincount(row_of, minlength=sum(map(len, senses)))
    written = count > 0
    return _RowStore(
        variables,
        count[written],
        np.concatenate(cols)[order],
        np.repeat(vals, [len(piece) for piece in ids])[order],
        np.concatenate(senses)[written],
        np.zeros(np.count_nonzero(written)),
        np.concatenate(tags)[written],
        _TAGS,
    )


def _csr(ends: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges grouped by end slot: slot s has edges `edge[ptr[s]:ptr[s + 1]]`,
    in edge-index order."""
    ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=size), out=ptr[1:])
    return ptr, np.argsort(ends, kind="stable")


def _gather(ptr: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions `ptr[k]:ptr[k + 1]` of every k in `keys`, concatenated,
    and for each position the index into `keys` it came from."""
    lengths = ptr[keys + 1] - ptr[keys]
    owner = np.repeat(np.arange(len(keys)), lengths)
    skip = np.repeat(ptr[keys] - (np.cumsum(lengths) - lengths), lengths)
    return owner, np.arange(len(owner)) + skip


def _reach_test(instance: Instance, slots: np.ndarray):
    """A test of `b in reach(a)` for slot arrays a and b, a among `slots`.

    Each needed reachability row is one row of packed bytes; bit b of a row
    is byte b >> 3, bit b & 7 (little-endian)."""
    sink = instance.n + 1
    needed = np.zeros(sink + 1, dtype=bool)
    needed[slots] = True
    at = np.cumsum(needed) - 1  # slot -> its row in `packed`
    width = (instance.n + 2 + 7) // 8
    row = instance.reachability.row
    packed = np.frombuffer(
        b"".join(
            row(SINK if s == sink else s).to_bytes(width, "little")
            for s in np.flatnonzero(needed).tolist()
        ),
        dtype=np.uint8,
    ).reshape(-1, width)

    def reaches(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (packed[at[a], b >> 3] >> (b & 7) & 1).astype(bool)

    return reaches


def _edge_finder(tail: np.ndarray, head: np.ndarray, size: int):
    """A lookup of base edges (a, b) by slot arrays: the edge's index, or -1."""
    keys = tail * size + head
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]

    def edge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        wanted = a * size + b
        # Without base edges there are no lifted edges, so nothing is wanted.
        at = np.minimum(np.searchsorted(sorted_keys, wanted), len(keys) - 1)
        return np.where(sorted_keys[at] == wanted, by_key[at], -1)

    return edge


#: Cap on preseeded two-hop rows; past it, separation finds them on demand.
_TWO_HOP_ROW_BUDGET = 2000

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
    pool = build_initial_constraints(instance, config, variables)
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
