"""Polynomial reductions of two classic problems to lifted disjoint paths.

Three-literal satisfiability: one layer of three literal nodes per clause,
zero-cost entry and exit arcs, cost −1 arcs between consecutive layers for
compatible literal pairs, and a heavily priced lifted edge for every
contradicting pair of non-adjacent layers.  A formula with k clauses is
satisfiable exactly when the optimum reaches −(k−1): that price is only
attainable by routes that pick one literal per clause without ever paying a
contradiction penalty, and every such route reads off a satisfying
assignment.

Integral multicommodity flow (unit edge capacities, acyclic network): one
node per network edge with adjacency chaining, plus one demand source node
and one demand sink node per unit of demand.  A demand source's only
predecessor is the global source and a demand sink's only successor is the
global sink, so every route can serve at most one demand unit; a lifted
reward of −1 between same-commodity demand pairs is collected exactly by
routes that actually travel from the commodity's source to its terminal.
All demands are routable simultaneously (edge-disjointly) exactly when the
optimum reaches minus the total demand.

Both constructions drop nodes that cannot lie on any source-sink route and
keep only lifted pairs whose endpoints stay reachable, so reduced instances
always pass instance validation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .driver import SolverConfig, solve
from .instance import (
    SINK,
    SOURCE,
    Instance,
    InstanceFormatError,
    InstanceValidationError,
    Reachability,
    active_st_paths,
    solution_from_paths,
)

__all__ = [
    "ReductionError",
    "DecisionLimitError",
    "parse_dimacs",
    "SatReduction",
    "reduce_sat",
    "decide_sat",
    "McfProblem",
    "parse_mcf",
    "McfReduction",
    "reduce_mcf",
    "decide_mcf",
]

_DECISION_TOL = 1e-9


class ReductionError(ValueError):
    """Invalid input for a reduction (malformed formula or network)."""


class DecisionLimitError(RuntimeError):
    """The reduced instance's solve hit a configured limit before it could
    decide; `status` is the solve's status."""

    def __init__(self, status: str):
        super().__init__(f"reduction solve ended with status {status}")
        self.status = status


def _prune_to_routes(
    inner_count: int,
    base_edges: list[tuple[int, int, float]],
    lifted_edges: list[tuple[int, int, float]],
) -> tuple[Instance, dict[int, int]]:
    """Drop inner nodes missing from every source-sink route, renumber the
    survivors densely, and keep only lifted pairs that remain reachable.
    Returns the instance plus the old-id -> new-id map.

    One reachability over the unpruned (acyclic) graph decides both: a node
    is kept when the source reaches it and it reaches the sink, and a path
    between two kept nodes passes only through kept nodes, so a lifted pair
    survives pruning exactly when its endpoints are kept and connected."""
    reach = Reachability(inner_count, base_edges)
    kept = [
        v for v in range(1, inner_count + 1)
        if reach.reaches(SOURCE, v) and reach.reaches(v, SINK)
    ]
    remap = {old: new for new, old in enumerate(kept, start=1)}
    remap[SOURCE] = SOURCE
    remap[SINK] = SINK
    base_kept = [
        (remap[u], remap[v], c)
        for u, v, c in base_edges
        if u in remap and v in remap
    ]
    lifted_kept = [
        (remap[u], remap[v], c)
        for u, v, c in lifted_edges
        if u in remap and v in remap and reach.reaches(u, v)
    ]
    return Instance(len(kept), base_kept, lifted_kept), remap


# --------------------------------------------------------------------------
# three-literal satisfiability


def parse_dimacs(text: str) -> list[tuple[int, int, int]]:
    """Parse a DIMACS CNF file whose clauses all have exactly three
    literals.  Returns the clause list.  A line that is exactly `%` ends
    the file, as in the SATLIB benchmark files."""
    clauses: list[tuple[int, int, int]] = []
    nvars = nclauses = None
    pending: list[int] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line == "%":
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if nvars is not None:
                raise InstanceFormatError("duplicate problem line", ln)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise InstanceFormatError("expected 'p cnf <vars> <clauses>'", ln)
            try:
                nvars, nclauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise InstanceFormatError("non-integer problem sizes", ln) from None
            if nvars < 0 or nclauses < 0:
                raise InstanceFormatError("negative problem sizes", ln)
            continue
        if nvars is None:
            raise InstanceFormatError("clause before problem line", ln)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise InstanceFormatError(f"bad literal {tok!r}", ln) from None
            if lit == 0:
                if len(pending) != 3:
                    raise InstanceFormatError(
                        f"clause has {len(pending)} literals, need exactly 3", ln
                    )
                clauses.append((pending[0], pending[1], pending[2]))
                pending.clear()
            else:
                if abs(lit) > nvars:
                    raise InstanceFormatError(f"literal {lit} out of range", ln)
                pending.append(lit)
    if pending:
        raise ReductionError("unterminated clause at end of file")
    if nvars is None:
        raise ReductionError("missing problem line")
    if nclauses is not None and len(clauses) != nclauses:
        raise ReductionError(
            f"header promises {nclauses} clauses, file has {len(clauses)}"
        )
    return clauses


@dataclass(frozen=True)
class SatReduction:
    clauses: tuple[tuple[int, int, int], ...]
    instance: Instance
    node_literal: dict[int, int]  # dense inner node id -> literal it encodes
    threshold: float  # satisfiable iff optimum <= threshold


def reduce_sat(clauses) -> SatReduction:
    """Encode a three-literal CNF as a lifted disjoint paths instance."""
    clauses = tuple(tuple(cl) for cl in clauses)
    for cl in clauses:
        if len(cl) != 3 or any(not isinstance(l, int) or l == 0 for l in cl):
            raise ReductionError(f"not a three-literal clause: {cl!r}")
    k = len(clauses)
    penalty = float(max(k, 1))

    def node(i: int, pos: int) -> int:  # clause index and literal slot, 1-based
        return 3 * (i - 1) + pos

    literal_of = {
        node(i, p): clauses[i - 1][p - 1]
        for i in range(1, k + 1)
        for p in range(1, 4)
    }
    base: list[tuple[int, int, float]] = []
    lifted: list[tuple[int, int, float]] = []
    for p in range(1, 4):
        if k:
            base.append((SOURCE, node(1, p), 0.0))
            base.append((node(k, p), SINK, 0.0))
    for i in range(1, k):
        for p in range(1, 4):
            for q in range(1, 4):
                a, b = node(i, p), node(i + 1, q)
                if literal_of[a] != -literal_of[b]:
                    base.append((a, b, -1.0))
    for i in range(1, k + 1):
        for j in range(i + 2, k + 1):
            for p in range(1, 4):
                for q in range(1, 4):
                    a, b = node(i, p), node(j, q)
                    if literal_of[a] == -literal_of[b]:
                        lifted.append((a, b, penalty))

    instance, remap = _prune_to_routes(3 * k, base, lifted)
    node_literal = {
        remap[old]: lit for old, lit in literal_of.items() if old in remap
    }
    return SatReduction(
        clauses=clauses,
        instance=instance,
        node_literal=node_literal,
        threshold=-(k - 1.0),
    )


def _assignment_from_path(
    reduction: SatReduction, path: tuple[int, ...]
) -> dict[int, bool]:
    assignment: dict[int, bool] = {}
    for v in path:
        lit = reduction.node_literal[v]
        var, value = abs(lit), lit > 0
        assert assignment.get(var, value) == value, "contradicting certificate path"
        assignment[var] = value
    for cl in reduction.clauses:
        for lit in cl:
            assignment.setdefault(abs(lit), True)
    return assignment


def decide_sat(
    clauses, config: SolverConfig | None = None
) -> tuple[bool, dict[int, bool] | None]:
    """Solve the reduced instance and decide satisfiability; on success also
    return a satisfying assignment read off a cheapest route.  The solve
    stops, deciding "no", once a master bound passes the threshold."""
    reduction = reduce_sat(clauses)
    result = solve(reduction.instance, config, cutoff=reduction.threshold + _DECISION_TOL)
    if result.status == "cutoff":
        return False, None
    if result.status != "optimal":
        raise DecisionLimitError(result.status)
    if result.objective > reduction.threshold + _DECISION_TOL:
        return False, None
    assignment: dict[int, bool] | None = None
    for path in active_st_paths(reduction.instance, result.solution):
        standalone = solution_from_paths(reduction.instance, [path]).objective
        if standalone <= reduction.threshold + _DECISION_TOL:
            assignment = _assignment_from_path(reduction, path)
            break
    if assignment is None:
        # Only reachable when the threshold is non-negative (at most one
        # clause), where the empty solution already meets it.
        assert len(reduction.clauses) <= 1
        assignment = {}
        for cl in reduction.clauses:
            assignment[abs(cl[0])] = cl[0] > 0
            for lit in cl:
                assignment.setdefault(abs(lit), True)
    return True, assignment


# --------------------------------------------------------------------------
# integral multicommodity flow with unit edge capacities


@dataclass(frozen=True)
class McfProblem:
    """An acyclic unit-capacity network with integer demands.

    `edges` are distinct directed arcs; `commodities` are (source, terminal,
    demand) triples.  Arcs straight from a commodity's source to its own
    terminal are rejected — route them through an intermediate node.
    """

    edges: tuple[tuple[int, int], ...]
    commodities: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen: set[tuple[int, int]] = set()
        nodes: set[int] = set()
        for u, v in self.edges:
            if u == v:
                raise ReductionError(f"self-loop {u}->{v}")
            if (u, v) in seen:
                raise ReductionError(f"duplicate edge {u}->{v}")
            seen.add((u, v))
            nodes.update((u, v))
        # Number the nodes 1..k; a reachability row raises on any cycle
        # through the node it is computed for.
        ids = {v: i for i, v in enumerate(sorted(nodes), start=1)}
        reach = Reachability(len(ids), [(ids[u], ids[v], 0.0) for u, v in self.edges])
        try:
            for i in ids.values():
                reach.row(i)
        except InstanceValidationError:
            raise ReductionError("network contains a directed cycle") from None
        for s, t, demand in self.commodities:
            if s == t:
                raise ReductionError(f"commodity with equal endpoints {s}")
            if demand < 1:
                raise ReductionError(f"demand must be positive, got {demand}")
            if (s, t) in seen:
                raise ReductionError(
                    f"direct arc {s}->{t} shadows its own commodity; "
                    "route it through an intermediate node"
                )


def parse_mcf(text: str) -> McfProblem:
    """Parse `edge u v` / `pair s t R` lines ('#' starts a comment)."""
    edges: list[tuple[int, int]] = []
    commodities: list[tuple[int, int, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "edge" and len(parts) == 3:
                edges.append((int(parts[1]), int(parts[2])))
                continue
            if parts[0] == "pair" and len(parts) == 4:
                commodities.append((int(parts[1]), int(parts[2]), int(parts[3])))
                continue
        except ValueError:
            raise InstanceFormatError(f"non-integer field in {line!r}", ln) from None
        raise InstanceFormatError(f"expected 'edge u v' or 'pair s t R', got {line!r}", ln)
    return McfProblem(edges=tuple(edges), commodities=tuple(commodities))


@dataclass(frozen=True)
class McfReduction:
    problem: McfProblem
    instance: Instance
    threshold: float  # routable iff optimum <= threshold (== -total demand)


def reduce_mcf(problem: McfProblem) -> McfReduction:
    """Encode the routing question as a lifted disjoint paths instance."""
    edge_node = {e: i for i, e in enumerate(problem.edges, start=1)}
    nxt = len(problem.edges) + 1
    demand_src: dict[tuple[int, int], int] = {}
    demand_snk: dict[tuple[int, int], int] = {}
    for ci, (_, _, demand) in enumerate(problem.commodities):
        for r in range(demand):
            demand_src[(ci, r)] = nxt
            nxt += 1
        for r in range(demand):
            demand_snk[(ci, r)] = nxt
            nxt += 1

    by_tail: dict[int, list[tuple[int, int]]] = {}
    by_head: dict[int, list[tuple[int, int]]] = {}
    for e in problem.edges:
        by_tail.setdefault(e[0], []).append(e)
        by_head.setdefault(e[1], []).append(e)

    base: list[tuple[int, int, float]] = []
    lifted: list[tuple[int, int, float]] = []
    for (a, b) in problem.edges:
        for e2 in by_tail.get(b, ()):
            base.append((edge_node[(a, b)], edge_node[e2], 0.0))
    for ci, (s, t, demand) in enumerate(problem.commodities):
        for r in range(demand):
            src, snk = demand_src[(ci, r)], demand_snk[(ci, r)]
            base.append((SOURCE, src, 0.0))
            base.append((snk, SINK, 0.0))
            for e in by_tail.get(s, ()):
                base.append((src, edge_node[e], 0.0))
            for e in by_head.get(t, ()):
                base.append((edge_node[e], snk, 0.0))
        for r in range(demand):
            for r2 in range(demand):
                lifted.append(
                    (demand_src[(ci, r)], demand_snk[(ci, r2)], -1.0)
                )

    instance, _ = _prune_to_routes(nxt - 1, base, lifted)
    total = sum(d for _, _, d in problem.commodities)
    return McfReduction(problem=problem, instance=instance, threshold=-float(total))


def decide_mcf(problem: McfProblem, config: SolverConfig | None = None) -> bool:
    """True when every commodity's full demand can be routed over pairwise
    edge-disjoint paths simultaneously.  The solve stops, deciding "no",
    once a master bound passes the threshold."""
    reduction = reduce_mcf(problem)
    result = solve(reduction.instance, config, cutoff=reduction.threshold + _DECISION_TOL)
    if result.status == "cutoff":
        return False
    if result.status != "optimal":
        raise DecisionLimitError(result.status)
    return result.objective <= reduction.threshold + _DECISION_TOL
