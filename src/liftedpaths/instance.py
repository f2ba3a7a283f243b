"""Problem instances: a DAG with source/sink, base edges, and lifted edges.

An instance consists of
  * inner nodes 1..n, plus the virtual source and sink,
  * base (flow) edges with costs: source->inner, inner->inner, inner->sink,
  * lifted edges between inner nodes, each with its own cost,
  * optional node costs, and optional time-frame annotations.

A feasible solution is a set of pairwise node-disjoint source-sink paths.
A lifted edge (u, v) is labeled 1 exactly when u and v lie on the same
active path with u before v.  The same ordered pair may carry both a base
edge and a lifted edge; these are independent variables with independent
costs.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

__all__ = [
    "SOURCE",
    "SINK",
    "InstanceError",
    "InstanceFormatError",
    "InstanceValidationError",
    "Instance",
    "Reachability",
    "FlowSolution",
    "evaluate_objective",
    "active_st_paths",
    "lifted_labels_from_flow",
    "solution_from_paths",
    "parse_instance",
    "serialize_instance",
    "format_solution",
    "parse_solution",
]

#: Sentinel node ids.  Inner nodes are 1..n, so these never collide.
SOURCE = 0
SINK = -1


class InstanceError(ValueError):
    """Base class for anything wrong with an instance or its file form."""


class InstanceFormatError(InstanceError):
    """Syntax error in the instance file format."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InstanceValidationError(InstanceError):
    """Structurally well-formed input that violates an instance invariant."""


def _node_name(v: int) -> str:
    if v == SOURCE:
        return "s"
    if v == SINK:
        return "t"
    return str(v)


class Instance:
    """Immutable problem instance.

    Parameters
    ----------
    inner_node_count:
        n; inner nodes are the ids 1..n.
    base_edges:
        iterable of (u, v, cost) with u in {SOURCE} | 1..n and
        v in 1..n | {SINK}.  Edge order is preserved and defines the
        base-edge variable indexing.
    lifted_edges:
        iterable of (u, v, cost), both endpoints inner.  Order defines the
        lifted-edge variable indexing.
    node_costs:
        mapping node id -> cost; missing ids cost 0.
    frames:
        optional mapping node id -> time frame.  If given, every inner node
        must be assigned and every edge (base and lifted) must go strictly
        forward in frame order.

    Construction validates everything, cheapest checks first: no more inner
    nodes than base edges, finite costs, edge endpoints, then the base-graph
    `reachability` (built once, here) rejects a cycle and decides that every
    inner node lies on a source-sink route and that every lifted pair is
    joined by a base path.
    """

    def __init__(
        self,
        inner_node_count: int,
        base_edges: Iterable[tuple[int, int, float]],
        lifted_edges: Iterable[tuple[int, int, float]] = (),
        node_costs: dict[int, float] | None = None,
        frames: dict[int, int] | None = None,
    ):
        n = int(inner_node_count)
        if n < 0:
            raise InstanceValidationError("inner node count must be >= 0")
        self.n = n
        self.base_edges: tuple[tuple[int, int, float], ...] = tuple(
            (int(u), int(v), float(c)) for (u, v, c) in base_edges
        )
        # Every inner node needs an outgoing base edge of its own; checking
        # that first bounds everything allocated per node by the input size.
        if n > len(self.base_edges):
            raise InstanceValidationError(
                f"{n} inner nodes but only {len(self.base_edges)} base edges"
                " (every inner node needs an outgoing base edge)"
            )
        self.lifted_edges: tuple[tuple[int, int, float], ...] = tuple(
            (int(u), int(v), float(c)) for (u, v, c) in lifted_edges
        )
        costs = [0.0] * (n + 1)
        for v, c in (node_costs or {}).items():
            if not 1 <= v <= n:
                raise InstanceValidationError(f"node cost for unknown node {v}")
            costs[v] = float(c)
        self.node_costs: tuple[float, ...] = tuple(costs)
        self.frames: dict[int, int] | None = dict(frames) if frames else None

        self._check_finite()
        self._build_adjacency()
        self.reachability = Reachability(n, self.base_edges)
        self._validate()

    # -- construction internals ------------------------------------------

    def _check_finite(self) -> None:
        for u, v, c in self.base_edges + self.lifted_edges:
            if not math.isfinite(c):
                raise InstanceValidationError(f"non-finite cost on edge ({_node_name(u)},{_node_name(v)})")
        for c in self.node_costs:
            if not math.isfinite(c):
                raise InstanceValidationError("non-finite node cost")

    def _build_adjacency(self) -> None:
        n = self.n
        out: dict[int, list[tuple[int, int]]] = {SOURCE: []}
        inn: dict[int, list[tuple[int, int]]] = {SINK: []}
        for v in range(1, n + 1):
            out[v] = []
            inn[v] = []
        base_index: dict[tuple[int, int], int] = {}
        for idx, (u, v, _) in enumerate(self.base_edges):
            if u == v:
                raise InstanceValidationError(f"self-loop at {_node_name(u)}")
            if not (u == SOURCE or 1 <= u <= n):
                raise InstanceValidationError(f"dangling node id {u} in base edge")
            if not (v == SINK or 1 <= v <= n):
                raise InstanceValidationError(f"dangling node id {v} in base edge")
            if u == SOURCE and v == SINK:
                raise InstanceValidationError("direct source->sink edge is not allowed")
            if (u, v) in base_index:
                raise InstanceValidationError(f"duplicate base edge ({_node_name(u)},{_node_name(v)})")
            base_index[(u, v)] = idx
            out.setdefault(u, []).append((idx, v))
            inn.setdefault(v, []).append((idx, u))
        lifted_index: dict[tuple[int, int], int] = {}
        lifted_out: dict[int, list[tuple[int, int]]] = {}
        lifted_in: dict[int, list[tuple[int, int]]] = {}
        for idx, (u, v, _) in enumerate(self.lifted_edges):
            if not (1 <= u <= n and 1 <= v <= n):
                raise InstanceValidationError(f"lifted edge endpoint outside inner nodes: ({u},{v})")
            if u == v:
                raise InstanceValidationError(f"lifted self-loop at {u}")
            if (u, v) in lifted_index:
                raise InstanceValidationError(f"duplicate lifted edge ({u},{v})")
            lifted_index[(u, v)] = idx
            lifted_out.setdefault(u, []).append((idx, v))
            lifted_in.setdefault(v, []).append((idx, u))
        self.out_edges = {v: tuple(es) for v, es in out.items()}
        self.in_edges = {v: tuple(es) for v, es in inn.items()}
        self.base_index = base_index
        self.lifted_index = lifted_index
        self.lifted_out = {v: tuple(es) for v, es in lifted_out.items()}
        self.lifted_in = {v: tuple(es) for v, es in lifted_in.items()}

    def _validate(self) -> None:
        n = self.n
        reach = self.reachability
        # Every inner node must lie on some source-sink route.  The source's
        # row searches every node it reaches and raises on a cycle among
        # them; a node it misses is unreachable.
        from_source = reach.row(SOURCE)
        for v in range(1, n + 1):
            if not (from_source >> v) & 1:
                raise InstanceValidationError(f"unreachable node {v} (no route from source)")
            if not reach.reaches(v, SINK):
                raise InstanceValidationError(f"unreachable node {v} (no route to sink)")
        # Lifted edges must connect reachability-ordered pairs.
        for u, v, _ in self.lifted_edges:
            if not reach.reaches(u, v):
                raise InstanceValidationError(f"lifted edge ({u},{v}) with no base route u->v")
        # Frames: all-or-nothing, strictly forward along every base edge, and
        # so along every lifted edge, whose base route was checked above.
        if self.frames is not None:
            for v in range(1, n + 1):
                if v not in self.frames:
                    raise InstanceValidationError(f"node {v} has no frame but frames are in use")
            for u, v, _ in self.base_edges:
                if u == SOURCE or v == SINK:
                    continue
                if self.frames[u] >= self.frames[v]:
                    raise InstanceValidationError(f"base edge ({u},{v}) does not advance in frame order")

    # -- public helpers ----------------------------------------------------

    def inner_nodes(self) -> range:
        return range(1, self.n + 1)

    def base_cost(self, idx: int) -> float:
        return self.base_edges[idx][2]

    def lifted_cost(self, idx: int) -> float:
        return self.lifted_edges[idx][2]

    def __repr__(self) -> str:  # debugging aid only
        return (
            f"Instance(n={self.n}, base={len(self.base_edges)}, "
            f"lifted={len(self.lifted_edges)}, frames={'yes' if self.frames else 'no'})"
        )


class Reachability:
    """Reflexive reachability relation over source, inner nodes, and sink,
    along the base edges of a graph with inner nodes 1..n.

    Built from the edge list alone, so a caller can filter lifted pairs
    before it builds the instance that carries them.  `base_edges` holds
    (u, v, cost) triples with endpoints in {SOURCE, 1..n, SINK} and must be
    acyclic; a cycle met while computing a row raises
    `InstanceValidationError`.  Rows are computed on demand by one iterative
    post-order DFS and memoized, so each row costs one pass over its
    successors.  Nothing refers back to an instance: the instance keeps its
    reachability, and a reference back would make a cycle.
    """

    def __init__(self, n: int, base_edges: Iterable[tuple[int, int, float]]):
        # Lists indexed by node id; the sink's slot is index n+1, which is
        # also index SINK = -1, so the bit of a node is its slot.
        self._n = n
        self._succ: list[list[int]] = [[] for _ in range(n + 2)]
        for u, v, _ in base_edges:
            self._succ[u].append(v)
        self._rows: list[int | None] = [None] * (n + 2)

    def _bit(self, v: int) -> int:
        # source -> bit 0, inner v -> bit v, sink -> bit n+1
        return self._n + 1 if v == SINK else v

    def row(self, v: int) -> int:
        """Bitmask of the nodes v reaches: bit w for inner w, bit 0 for the
        source and bit n+1 for the sink."""
        rows = self._rows
        if rows[v] is not None:
            return rows[v]
        # Iterative post-order: compute all uncached rows below v once.  A
        # row of 0 marks a node whose DFS is still open, so an edge into
        # one closes a cycle.
        succ = self._succ
        stack: list[tuple[int, bool]] = [(v, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                mask = 1 << self._bit(node)
                for w in succ[node]:
                    mask |= rows[w]
                rows[node] = mask
            elif rows[node] is None:
                rows[node] = 0
                stack.append((node, True))
                for w in succ[node]:
                    if rows[w] is None:
                        stack.append((w, False))
                    elif not rows[w]:
                        raise InstanceValidationError(f"cycle through node {_node_name(w)}")
        return rows[v]

    def reaches(self, v: int, w: int) -> bool:
        if v == w:
            return True
        if v == SINK:
            return False
        return bool((self.row(v) >> self._bit(w)) & 1)


# -- solutions -------------------------------------------------------------


#: The two label objects every solution shares, so a held one costs a
#: pointer per label.
_LABELS = (0.0, 1.0)


@dataclass(frozen=True)
class FlowSolution:
    """A binary assignment: node labels x, base-edge labels y, lifted labels.

    Each label is one of the two floats of `_LABELS`, 0.0 or 1.0, in the
    solutions that `solve` and `solution_from_paths` build alike.  ``x[v]``
    is indexed by node id (entry 0 is unused padding); ``y`` and
    ``y_lifted`` follow the instance's edge list order.
    """

    x: tuple[float, ...]
    y: tuple[float, ...]
    y_lifted: tuple[float, ...]
    objective: float

    def active_nodes(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, len(self.x)) if self.x[v])


def evaluate_objective(instance: Instance, solution: FlowSolution) -> float:
    """Total cost of a labeling: node costs + base edge costs + lifted costs."""
    terms: list[float] = []
    for v in instance.inner_nodes():
        if solution.x[v]:
            terms.append(instance.node_costs[v])
    for idx, (_, _, c) in enumerate(instance.base_edges):
        if solution.y[idx]:
            terms.append(c)
    for idx, (_, _, c) in enumerate(instance.lifted_edges):
        if solution.y_lifted[idx]:
            terms.append(c)
    return math.fsum(terms)


def _check_flow(instance: Instance, x: tuple[float, ...], y: tuple[float, ...]) -> None:
    for val in y:
        if val not in (0, 1):
            raise InstanceValidationError("flow not integral")
    for v in instance.inner_nodes():
        inflow = sum(y[e] for e, _ in instance.in_edges[v])
        outflow = sum(y[e] for e, _ in instance.out_edges[v])
        if inflow != outflow or inflow != x[v]:
            raise InstanceValidationError(
                f"flow conservation violated at node {v} (in={inflow}, out={outflow}, x={x[v]})"
            )
        if x[v] not in (0, 1):
            raise InstanceValidationError("flow not integral")


def active_st_paths(instance: Instance, solution: FlowSolution) -> list[tuple[int, ...]]:
    """Decompose an integral flow into its node-disjoint source-sink paths.

    Paths are returned as tuples of inner nodes, sorted by their first node.
    """
    _check_flow(instance, solution.x, solution.y)
    y = solution.y
    next_node: dict[int, int] = {}
    starts: list[int] = []
    for e, w in instance.out_edges[SOURCE]:
        if y[e]:
            starts.append(w)
    for v in instance.inner_nodes():
        for e, w in instance.out_edges[v]:
            if y[e]:
                next_node[v] = w
    paths: list[tuple[int, ...]] = []
    for start in starts:
        path = [start]
        v = start
        while True:
            w = next_node[v]
            if w == SINK:
                break
            path.append(w)
            v = w
        paths.append(tuple(path))
    paths.sort(key=lambda p: p[0])
    return paths


def lifted_labels_from_flow(
    instance: Instance, x: tuple[float, ...], y: tuple[float, ...]
) -> tuple[float, ...]:
    """The unique lifted labeling induced by an integral flow.

    A lifted edge (u, v) is 1 iff u and v lie on the same active path with
    u strictly before v.
    """
    probe = FlowSolution(x=tuple(x), y=tuple(y), y_lifted=(), objective=0.0)
    paths = active_st_paths(instance, probe)
    where: dict[int, tuple[int, int]] = {}
    for pid, path in enumerate(paths):
        for pos, v in enumerate(path):
            where[v] = (pid, pos)
    labels = []
    for u, v, _ in instance.lifted_edges:
        pu = where.get(u)
        pv = where.get(v)
        labels.append(_LABELS[bool(pu and pv and pu[0] == pv[0] and pu[1] < pv[1])])
    return tuple(labels)


def solution_from_paths(
    instance: Instance, paths: Iterable[Iterable[int]]
) -> FlowSolution:
    """Build the full labeling for a set of node-disjoint inner-node paths."""
    zero, one = _LABELS
    x = [zero] * (instance.n + 1)
    y = [zero] * len(instance.base_edges)
    for path in paths:
        nodes = list(path)
        prev = SOURCE
        for v in nodes:
            if x[v]:
                raise InstanceValidationError(f"paths share node {v}")
            x[v] = one
            y[_edge_or_die(instance, prev, v)] = one
            prev = v
        y[_edge_or_die(instance, prev, SINK)] = one
    y_t = tuple(y)
    x_t = tuple(x)
    labels = lifted_labels_from_flow(instance, x_t, y_t)
    sol = FlowSolution(x=x_t, y=y_t, y_lifted=labels, objective=0.0)
    return FlowSolution(x=x_t, y=y_t, y_lifted=labels, objective=evaluate_objective(instance, sol))


def _edge_or_die(instance: Instance, u: int, v: int) -> int:
    try:
        return instance.base_index[(u, v)]
    except KeyError:
        raise InstanceValidationError(
            f"no base edge ({_node_name(u)},{_node_name(v)}) for the given path"
        ) from None


# -- file format ------------------------------------------------------------


def _tokenize(text: str) -> Iterator[tuple[int, list[tuple[str, int]]]]:
    """Yield (line_number, [(token, column), ...]) for non-empty lines."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens: list[tuple[str, int]] = []
        col = 0
        for tok in line.split():
            col = line.index(tok, col)
            tokens.append((tok, col + 1))
            col += len(tok)
        yield ln, tokens


def _parse_node(tok: str, n: int, ln: int, col: int, *, allow_source: bool, allow_sink: bool) -> int:
    if tok == "s":
        if not allow_source:
            raise InstanceFormatError("source not allowed here", ln, col)
        return SOURCE
    if tok == "t":
        if not allow_sink:
            raise InstanceFormatError("sink not allowed here", ln, col)
        return SINK
    try:
        v = int(tok)
    except ValueError:
        raise InstanceFormatError(f"expected a node id, got {tok!r}", ln, col) from None
    if not 1 <= v <= n:
        raise InstanceFormatError(f"dangling node id {v} (nodes are 1..{n})", ln, col)
    return v


def _parse_float(tok: str, ln: int, col: int) -> float:
    try:
        val = float(tok)
    except ValueError:
        raise InstanceFormatError(f"expected a number, got {tok!r}", ln, col) from None
    if not math.isfinite(val):
        raise InstanceFormatError("costs must be finite", ln, col)
    return val


def parse_instance(data: str | bytes | IO[str] | IO[bytes]) -> Instance:
    """Parse the text instance format.

    The format is line-oriented::

        ldp 1
        nodes N
        frame v t        # optional; all inner nodes or none
        ncost v c        # optional; default 0
        base u v c       # u in {s, 1..N}, v in {1..N, t}
        lift u v c       # u, v inner

    ``#`` starts a comment.  Numbers are plain decimal floats.
    """
    if isinstance(data, (io.IOBase,)) or hasattr(data, "read"):
        data = data.read()  # type: ignore[union-attr]
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InstanceFormatError(f"not valid UTF-8: {exc}", 1) from None
    else:
        text = data

    n: int | None = None
    saw_header = False
    base: list[tuple[int, int, float]] = []
    lifted: list[tuple[int, int, float]] = []
    ncost: dict[int, float] = {}
    frames: dict[int, int] = {}

    for ln, tokens in _tokenize(text):
        (word, wcol) = tokens[0]
        args = tokens[1:]
        if not saw_header:
            if word != "ldp":
                raise InstanceFormatError("file must start with an 'ldp 1' header", ln, wcol)
            if len(args) != 1 or args[0][0] != "1":
                raise InstanceFormatError("unsupported format version", ln, wcol)
            saw_header = True
            continue
        if word == "ldp":
            raise InstanceFormatError("duplicate header", ln, wcol)
        if word == "nodes":
            if n is not None:
                raise InstanceFormatError("duplicate 'nodes' line", ln, wcol)
            if len(args) != 1:
                raise InstanceFormatError("'nodes' takes one argument", ln, wcol)
            try:
                n = int(args[0][0])
            except ValueError:
                raise InstanceFormatError("node count must be an integer", ln, args[0][1]) from None
            if n < 0:
                raise InstanceFormatError("node count must be >= 0", ln, args[0][1])
            continue
        if n is None:
            raise InstanceFormatError("'nodes' must precede node data", ln, wcol)
        if word == "frame":
            if len(args) != 2:
                raise InstanceFormatError("'frame' takes node and frame", ln, wcol)
            v = _parse_node(args[0][0], n, ln, args[0][1], allow_source=False, allow_sink=False)
            try:
                t = int(args[1][0])
            except ValueError:
                raise InstanceFormatError("frame must be an integer", ln, args[1][1]) from None
            if v in frames:
                raise InstanceFormatError(f"duplicate frame for node {v}", ln, wcol)
            frames[v] = t
        elif word == "ncost":
            if len(args) != 2:
                raise InstanceFormatError("'ncost' takes node and cost", ln, wcol)
            v = _parse_node(args[0][0], n, ln, args[0][1], allow_source=False, allow_sink=False)
            if v in ncost:
                raise InstanceFormatError(f"duplicate node cost for node {v}", ln, wcol)
            ncost[v] = _parse_float(args[1][0], ln, args[1][1])
        elif word == "base":
            if len(args) != 3:
                raise InstanceFormatError("'base' takes tail, head, cost", ln, wcol)
            u = _parse_node(args[0][0], n, ln, args[0][1], allow_source=True, allow_sink=False)
            v = _parse_node(args[1][0], n, ln, args[1][1], allow_source=False, allow_sink=True)
            base.append((u, v, _parse_float(args[2][0], ln, args[2][1])))
        elif word == "lift":
            if len(args) != 3:
                raise InstanceFormatError("'lift' takes tail, head, cost", ln, wcol)
            u = _parse_node(args[0][0], n, ln, args[0][1], allow_source=False, allow_sink=False)
            v = _parse_node(args[1][0], n, ln, args[1][1], allow_source=False, allow_sink=False)
            lifted.append((u, v, _parse_float(args[2][0], ln, args[2][1])))
        else:
            raise InstanceFormatError(f"unknown directive {word!r}", ln, wcol)

    if not saw_header:
        raise InstanceFormatError("empty input (missing 'ldp 1' header)", 1)
    if n is None:
        raise InstanceFormatError("missing 'nodes' line", 1)
    return Instance(n, base, lifted, ncost or None, frames or None)


def _edge_sort_key(n: int, u: int, v: int) -> tuple[int, int]:
    def key(x: int) -> int:
        if x == SOURCE:
            return 0
        if x == SINK:
            return n + 1
        return x

    return (key(u), key(v))


def serialize_instance(instance: Instance) -> str:
    """Canonical text form; `parse_instance` round-trips it byte-for-byte."""
    out = ["ldp 1", f"nodes {instance.n}"]
    if instance.frames:
        for v in sorted(instance.frames):
            out.append(f"frame {v} {instance.frames[v]}")
    for v in instance.inner_nodes():
        c = instance.node_costs[v]
        if c != 0.0:
            out.append(f"ncost {v} {c!r}")
    for u, v, c in sorted(instance.base_edges, key=lambda e: _edge_sort_key(instance.n, e[0], e[1])):
        out.append(f"base {_node_name(u)} {_node_name(v)} {c!r}")
    for u, v, c in sorted(instance.lifted_edges, key=lambda e: (e[0], e[1])):
        out.append(f"lift {u} {v} {c!r}")
    return "\n".join(out) + "\n"


def format_solution(instance: Instance, solution: FlowSolution) -> str:
    """Solution text: one objective line, then one `path ...` line per path."""
    lines = [f"objective {solution.objective:.9g}"]
    for path in active_st_paths(instance, solution):
        lines.append("path " + " ".join(str(v) for v in path))
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> tuple[float, list[tuple[int, ...]]]:
    """Inverse of `format_solution` (used by tooling and tests)."""
    objective: float | None = None
    paths: list[tuple[int, ...]] = []
    for ln, tokens in _tokenize(text):
        word, wcol = tokens[0]
        if word == "objective":
            if objective is not None or len(tokens) != 2:
                raise InstanceFormatError("malformed objective line", ln, wcol)
            objective = _parse_float(tokens[1][0], ln, tokens[1][1])
        elif word == "path":
            try:
                paths.append(tuple(int(tok) for tok, _ in tokens[1:]))
            except ValueError:
                raise InstanceFormatError("malformed path line", ln, wcol) from None
        else:
            raise InstanceFormatError(f"unknown directive {word!r}", ln, wcol)
    if objective is None:
        raise InstanceFormatError("missing objective line", 1)
    return objective, paths
