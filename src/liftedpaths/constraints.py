"""Valid inequality families linking flow variables and lifted-edge labels.

Variable handles:
  * ``node[v]``  — node indicator x_v, index is the node id,
  * ``base[e]``  — base-edge indicator y_e, index into instance.base_edges,
  * ``lift[e]``  — lifted-edge indicator, index into instance.lifted_edges.

Every family is stated for a lifted edge (v, w).  Lower-bound families force
the label on when flow connects v to w; upper-bound (cut) families force it
off when flow provably cannot connect them.  Each inequality shape has one
builder, which takes a `PathWitness`: a witness may take already-labeled
lifted edges as shortcuts, which is what makes the separation of integral
points exact, and a witness with none gives the plain inequality.  The
single-node cuts of (v, w) are the cut along the one-node witness (v,) and
the mirrored cut along (w,).  A row's tag names its builder; the families of
`bounds` name which witnesses they enumerate, so the plain and lifted
families share tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .instance import SOURCE, FlowSolution, Instance, Reachability
from .milp import (
    KIND_BASE,
    KIND_LIFT,
    KIND_NODE,
    LinearConstraint,
    VariableHandle,
    check_violation,
)

__all__ = [
    "PathWitness",
    "SolutionValues",
    "witness_from_base_path",
    "node_var",
    "base_var",
    "lift_var",
    "build_flow_conservation",
    "build_lifted_path_inequality",
    "build_lifted_path_induced_cut",
    "build_symmetric_cut",
    "build_lifted_flow_inequalities",
    "build_multicut_path_inequality",
    "check_violation",
    "TAG_FLOW",
    "TAG_LIFTED_PATH",
    "TAG_LIFTED_PATH_CUT",
    "TAG_LIFTED_PATH_CUT_STRONG",
    "TAG_SYM_LIFTED_PATH_CUT",
    "TAG_SYM_LIFTED_PATH_CUT_STRONG",
    "TAG_LIFTED_FLOW",
    "TAG_MULTICUT_PATH",
]

TAG_FLOW = "flow"
TAG_LIFTED_PATH = "lifted-path"
TAG_LIFTED_PATH_CUT = "lifted-path-cut"
TAG_LIFTED_PATH_CUT_STRONG = "lifted-path-cut-strong"
TAG_SYM_LIFTED_PATH_CUT = "sym-lifted-path-cut"
TAG_SYM_LIFTED_PATH_CUT_STRONG = "sym-lifted-path-cut-strong"
TAG_LIFTED_FLOW = "lifted-flow"
TAG_MULTICUT_PATH = "multicut-path"


def node_var(v: int) -> VariableHandle:
    return VariableHandle(KIND_NODE, v)


def base_var(idx: int) -> VariableHandle:
    return VariableHandle(KIND_BASE, idx)


def lift_var(idx: int) -> VariableHandle:
    return VariableHandle(KIND_LIFT, idx)


class SolutionValues:
    """Handle-keyed view of a FlowSolution, for `check_violation`."""

    def __init__(self, instance: Instance, solution: FlowSolution):
        self._inst = instance
        self._sol = solution

    def __getitem__(self, handle: VariableHandle) -> float:
        kind, idx = handle
        if kind == KIND_NODE and 1 <= idx <= self._inst.n:
            return float(self._sol.x[idx])
        if kind == KIND_BASE and 0 <= idx < len(self._sol.y):
            return float(self._sol.y[idx])
        if kind == KIND_LIFT and 0 <= idx < len(self._sol.y_lifted):
            return float(self._sol.y_lifted[idx])
        raise KeyError(f"missing handle {handle.label()}")


@dataclass(frozen=True)
class PathWitness:
    """A directed path mixing base edges and lifted-edge shortcuts.

    ``nodes`` is the visited node sequence; ``base_edges`` and
    ``lifted_edges`` list the edge indices used, each in path order.  Every
    consecutive node pair is covered by exactly one of the two, so a pair
    never appears as both a base step and a lifted step.
    """

    nodes: tuple[int, ...]
    base_edges: tuple[int, ...] = ()
    lifted_edges: tuple[int, ...] = ()

    def validate(self, instance: Instance) -> None:
        if not self.nodes:
            raise ValueError("witness needs at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("witness revisits a node")
        for v in self.nodes:
            if not 1 <= v <= instance.n:
                raise ValueError(f"witness node {v} is not an inner node")
        bi = 0
        li = 0
        for a, b in zip(self.nodes, self.nodes[1:]):
            if bi < len(self.base_edges) and instance.base_edges[self.base_edges[bi]][:2] == (a, b):
                bi += 1
            elif li < len(self.lifted_edges) and instance.lifted_edges[self.lifted_edges[li]][:2] == (a, b):
                li += 1
            else:
                raise ValueError(f"witness step ({a},{b}) not covered by its edges")
        if bi != len(self.base_edges) or li != len(self.lifted_edges):
            raise ValueError("witness lists edges it does not traverse")

    @property
    def node_set(self) -> frozenset[int]:
        return frozenset(self.nodes)


def witness_from_base_path(instance: Instance, nodes: Iterable[int]) -> PathWitness:
    """Witness for a pure base path given as its node sequence."""
    seq = tuple(nodes)
    edges = []
    for a, b in zip(seq, seq[1:]):
        try:
            edges.append(instance.base_index[(a, b)])
        except KeyError:
            raise ValueError(f"no base edge ({a},{b})") from None
    w = PathWitness(seq, tuple(edges), ())
    w.validate(instance)
    return w


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------


def build_flow_conservation(
    instance: Instance, v: int
) -> tuple[LinearConstraint, LinearConstraint]:
    """(inflow == x_v, outflow == x_v) for an inner node."""
    if not 1 <= v <= instance.n:
        raise ValueError(f"not an inner node: {v}")
    xin = [(base_var(e), 1.0) for e, _ in instance.in_edges[v]]
    xout = [(base_var(e), 1.0) for e, _ in instance.out_edges[v]]
    nv = (node_var(v), -1.0)
    return (
        LinearConstraint(tuple(xin) + (nv,), "=", 0.0, TAG_FLOW),
        LinearConstraint(tuple(xout) + (nv,), "=", 0.0, TAG_FLOW),
    )


def _witness_shortcut_terms(
    instance: Instance, witness: PathWitness, sign: float
) -> list[tuple[VariableHandle, float]]:
    """+-(sum over shortcut labels) and the parallel-base correction terms."""
    terms: list[tuple[VariableHandle, float]] = []
    for li in witness.lifted_edges:
        u, v, _ = instance.lifted_edges[li]
        terms.append((lift_var(li), sign))
        parallel = instance.base_index.get((u, v))
        if parallel is not None:
            terms.append((base_var(parallel), -sign))
    return terms


def build_lifted_path_inequality(
    instance: Instance, lift_idx: int, witness: PathWitness
) -> LinearConstraint:
    """Path inequality along a witness that may take lifted shortcuts.

    y'_vw >= sum_{j in P} y_vj - sum_{i in P \\ {v,w}} sum_{k not in P} y_ik
             + sum_{shortcuts} y'_ij - sum_{shortcuts parallel to a base edge} y_ij
    """
    v, w, _ = instance.lifted_edges[lift_idx]
    witness.validate(instance)
    nodes = witness.nodes
    if nodes[0] != v or nodes[-1] != w:
        raise ValueError("witness must run from the lifted tail to the lifted head")
    on_path = witness.node_set
    terms: list[tuple[VariableHandle, float]] = [(lift_var(lift_idx), 1.0)]
    for e, j in instance.out_edges[v]:
        if j in on_path:
            terms.append((base_var(e), -1.0))
    for i in nodes[1:-1]:
        for e, k in instance.out_edges[i]:
            if k not in on_path:
                terms.append((base_var(e), 1.0))
    terms.extend(_witness_shortcut_terms(instance, witness, -1.0))
    return LinearConstraint(tuple(terms), ">=", 0.0, TAG_LIFTED_PATH).canonicalized()


def build_multicut_path_inequality(
    instance: Instance, lift_idx: int, witness: PathWitness
) -> LinearConstraint:
    """Weaker decomposition-style lower bound along a pure base v-w witness:
    y'_vw >= sum_{e in P} (y_e - 1) + 1."""
    v, w, _ = instance.lifted_edges[lift_idx]
    witness.validate(instance)
    if witness.lifted_edges:
        raise ValueError("multicut path inequality takes a pure base witness")
    if witness.nodes[0] != v or witness.nodes[-1] != w:
        raise ValueError("witness must run from the lifted tail to the lifted head")
    terms = [(lift_var(lift_idx), 1.0)] + [(base_var(e), -1.0) for e in witness.base_edges]
    return LinearConstraint(
        tuple(terms), ">=", float(1 - len(witness.base_edges)), TAG_MULTICUT_PATH
    )


def build_lifted_path_induced_cut(
    instance: Instance,
    reach: Reachability,
    lift_idx: int,
    witness: PathWitness,
    strengthened: bool = False,
) -> LinearConstraint:
    """Cut along a v-u witness; `strengthened` needs (u, w) to be a lifted edge.

    Plain:         y'_vw <= sum_{i in P} sum_{k not in P, k->w} y_ik
                            - sum_{shortcuts} y'_ij + sum_{parallel} y_ij
    Strengthened:  the outgoing sum skips i = u, and + y'_uw joins the bound.
    """
    v, w, _ = instance.lifted_edges[lift_idx]
    witness.validate(instance)
    nodes = witness.nodes
    if nodes[0] != v:
        raise ValueError("witness must start at the lifted tail")
    u = nodes[-1]
    if u == w or not reach.reaches(u, w):
        raise ValueError("witness endpoint must reach the lifted head and differ from it")
    on_path = witness.node_set
    terms: list[tuple[VariableHandle, float]] = [(lift_var(lift_idx), 1.0)]
    skip = {u} if strengthened else set()
    for i in nodes:
        if i in skip:
            continue
        for e, k in instance.out_edges[i]:
            if k not in on_path and reach.reaches(k, w):
                terms.append((base_var(e), -1.0))
    terms.extend(_witness_shortcut_terms(instance, witness, 1.0))
    tag = TAG_LIFTED_PATH_CUT
    if strengthened:
        uw = instance.lifted_index.get((u, w))
        if uw is None:
            raise ValueError(f"strengthened form needs a lifted edge ({u},{w})")
        terms.append((lift_var(uw), -1.0))
        tag = TAG_LIFTED_PATH_CUT_STRONG
    return LinearConstraint(tuple(terms), "<=", 0.0, tag).canonicalized()


def build_symmetric_cut(
    instance: Instance,
    reach: Reachability,
    lift_idx: int,
    witness: PathWitness,
    strengthened: bool = False,
) -> LinearConstraint:
    """Mirror cut along a u-w witness; `strengthened` needs (v, u) to be a
    lifted edge, otherwise u != v must be reachable from v.

    Plain:         y'_vw <= sum_{i in P} sum_{(k,i) in E, k not in P, v->k} y_ki
                            - sum_{shortcuts} y'_ij + sum_{parallel} y_ij
    Strengthened:  the incoming sum skips i = u, and + y'_vu joins the bound.
    """
    v, w, _ = instance.lifted_edges[lift_idx]
    witness.validate(instance)
    nodes = witness.nodes
    if nodes[-1] != w:
        raise ValueError("witness must end at the lifted head")
    u = nodes[0]
    if not strengthened and (u == v or not reach.reaches(v, u)):
        raise ValueError("witness start must be reachable from the lifted tail")
    on_path = witness.node_set
    terms: list[tuple[VariableHandle, float]] = [(lift_var(lift_idx), 1.0)]
    skip = {u} if strengthened else set()
    for i in nodes:
        if i in skip:
            continue
        for e, k in instance.in_edges[i]:
            if k not in on_path and k != SOURCE and reach.reaches(v, k):
                terms.append((base_var(e), -1.0))
    terms.extend(_witness_shortcut_terms(instance, witness, 1.0))
    tag = TAG_SYM_LIFTED_PATH_CUT
    if strengthened:
        vu = instance.lifted_index.get((v, u))
        if vu is None:
            raise ValueError(f"strengthened form needs a lifted edge ({v},{u})")
        terms.append((lift_var(vu), -1.0))
        tag = TAG_SYM_LIFTED_PATH_CUT_STRONG
    return LinearConstraint(tuple(terms), "<=", 0.0, tag).canonicalized()


def build_lifted_flow_inequalities(instance: Instance) -> list[LinearConstraint]:
    """Per node and per other frame: at most x_v of that frame's lifted labels.

    Valid because an active path visits at most one node per time frame, so
    among lifted edges from v into one frame at most one can be on — and none
    unless v itself is on a path.  Requires frame annotations.
    """
    if not instance.frames:
        raise ValueError("lifted-flow inequalities need frame annotations")
    frames = instance.frames
    out: list[LinearConstraint] = []
    for v in instance.inner_nodes():
        for lifted in (instance.lifted_out, instance.lifted_in):
            by_frame: dict[int, list[int]] = {}
            for li, u in lifted.get(v, ()):
                by_frame.setdefault(frames[u], []).append(li)
            for f in sorted(by_frame):
                terms = [(lift_var(li), 1.0) for li in sorted(by_frame[f])]
                terms.append((node_var(v), -1.0))
                out.append(LinearConstraint(tuple(terms), "<=", 0.0, TAG_LIFTED_FLOW))
    return out
