"""Hand-built fractional points separating neighbouring inequality families.

Each case is a fractional flow with lifted labels that satisfies every row
of a weaker family yet violates one designated row of a stronger family by
exactly 1.  Together they witness that each family in the hierarchy cuts
off points its weaker neighbour admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from liftedpaths.constraints import (
    PathWitness,
    base_var,
    build_lifted_path_induced_cut,
    build_lifted_path_inequality,
    build_symmetric_cut,
    lift_var,
    node_var,
    witness_from_base_path,
)
from liftedpaths.instance import SINK as T
from liftedpaths.instance import Instance
from liftedpaths.milp import LinearConstraint

S = 0  # source label used in the flow dictionaries below


def point(n, flows, lifted):
    """Instance plus variable values for a (possibly fractional) labeling.

    `flows` maps base edges to flow values, `lifted` maps lifted pairs to
    label values; every edge gets cost zero since only geometry matters.
    Node values are the incoming flow.
    """
    inst = Instance(
        n,
        [(u, v, 0.0) for (u, v) in flows],
        [(v, w, 0.0) for (v, w) in lifted],
    )
    values = {node_var(v): 0.0 for v in inst.inner_nodes()}
    for (u, v), y in flows.items():
        values[base_var(inst.base_index[(u, v)])] = y
        if v != T:
            values[node_var(v)] = values[node_var(v)] + y
    for (v, w), y in lifted.items():
        values[lift_var(inst.lifted_index[(v, w)])] = y
    return inst, values


@dataclass(frozen=True)
class StrictnessCase:
    name: str
    weaker: str  # family the point satisfies in full
    stronger: str  # family owning the designated violated row
    build: Callable[[], tuple[Instance, dict]]
    designated: Callable[[Instance], LinearConstraint]


def _route_vs_multicut():
    # A half/half pair of parallel strands between node 1 and node 6; the
    # lifted label on (1, 6) stays 0 although every unit of flow out of 1
    # arrives at 6.
    flows = {
        (S, 1): 1,
        (1, 2): 0.5,
        (2, 3): 0.5,
        (3, 4): 0.5,
        (4, 5): 0.5,
        (5, 6): 1,
        (1, 3): 0.5,
        (3, 5): 0.5,
        (2, 7): 0,
        (5, 8): 0,
        (6, T): 1,
        (7, T): 0,
        (8, T): 0,
    }
    return point(8, flows, {(1, 6): 0})


def _mixed_route():
    # Flow splits and remerges twice between 2 and 8.  The inner lifted
    # labels (2,5) and (5,8) are honest, but chaining them with the base
    # hop (1,2) exposes the zero label on (1,8).
    flows = {
        (S, 1): 1,
        (1, 2): 1,
        (2, 3): 0.5,
        (2, 4): 0.5,
        (3, 5): 0.5,
        (4, 5): 0.5,
        (5, 6): 0.5,
        (5, 7): 0.5,
        (6, 8): 0.5,
        (7, 8): 0.5,
        (8, T): 1,
    }
    return point(8, flows, {(2, 5): 1, (5, 8): 1, (1, 8): 0})


# Two-strand geometries reused by the cut cases below.
_CUT_FLOWS_A = {
    (S, 1): 1,
    (S, 5): 1,
    (1, 2): 0.5,
    (2, 3): 0.5,
    (6, 3): 0.5,
    (5, 6): 0.5,
    (6, 7): 0.5,
    (7, 8): 1,
    (7, 4): 0,
    (2, 7): 0.5,
    (3, 8): 0,
    (5, 2): 0.5,
    (1, 6): 0.5,
    (3, 4): 1,
    (4, T): 1,
    (8, T): 1,
}

_CUT_FLOWS_B = {
    (S, 1): 1,
    (S, 5): 1,
    (1, 2): 1,
    (2, 3): 0.5,
    (6, 3): 0.5,
    (5, 6): 1,
    (6, 7): 0.5,
    (7, 8): 0.5,
    (7, 4): 0.5,
    (2, 7): 0.5,
    (3, 8): 0.5,
    (5, 2): 0,
    (1, 6): 0,
    (3, 4): 0.5,
    (4, T): 1,
    (8, T): 1,
}


def _induced_cut():
    return point(8, _CUT_FLOWS_A, {(5, 7): 1, (1, 3): 1, (5, 4): 1})


def _induced_cut_strengthened():
    return point(8, _CUT_FLOWS_B, {(6, 4): 0, (5, 4): 1})


def _symmetric_mixed():
    return point(8, _CUT_FLOWS_B, {(6, 8): 1, (2, 4): 1, (5, 4): 1})


def _symmetric_strengthened():
    return point(8, _CUT_FLOWS_A, {(5, 3): 0, (5, 4): 1})


def _symmetric_plain():
    # Two disjoint strands; the right strand carries all of the flow into
    # node 11 while the lifted label (1, 11) pretends the left strand
    # reaches it.
    flows = {
        (S, 2): 1,
        (S, 1): 1,
        (2, 3): 1,
        (2, 4): 0,
        (3, 6): 1,
        (4, 6): 0,
        (6, 8): 1,
        (6, 9): 0,
        (8, 11): 1,
        (9, 11): 0,
        (1, 5): 0.5,
        (1, 4): 0.5,
        (5, 7): 0.5,
        (4, 7): 0.5,
        (7, 9): 0.5,
        (7, 10): 0.5,
        (9, 12): 0.5,
        (10, 12): 0.5,
        (5, 6): 0,
        (10, 11): 0,
        (11, T): 1,
        (12, T): 1,
    }
    return point(12, flows, {(1, 11): 1})


CASES = (
    StrictnessCase(
        name="route-vs-multicut",
        weaker="multicut-path",
        stronger="path",
        build=_route_vs_multicut,
        designated=lambda inst: build_lifted_path_inequality(
            inst, 0, witness_from_base_path(inst, (1, 2, 3, 4, 5, 6))
        ),
    ),
    StrictnessCase(
        name="mixed-route",
        weaker="path",
        stronger="lifted-path",
        build=_mixed_route,
        designated=lambda inst: build_lifted_path_inequality(
            inst,
            inst.lifted_index[(1, 8)],
            PathWitness(
                nodes=(1, 2, 5, 8),
                base_edges=(inst.base_index[(1, 2)],),
                lifted_edges=(
                    inst.lifted_index[(2, 5)],
                    inst.lifted_index[(5, 8)],
                ),
            ),
        ),
    ),
    StrictnessCase(
        name="induced-cut",
        weaker="path-cut",
        stronger="lifted-path-cut",
        build=_induced_cut,
        designated=lambda inst: build_lifted_path_induced_cut(
            inst,
            inst.reachability,
            inst.lifted_index[(5, 4)],
            PathWitness(nodes=(5, 7), lifted_edges=(inst.lifted_index[(5, 7)],)),
            strengthened=False,
        ),
    ),
    StrictnessCase(
        name="induced-cut-strengthened",
        weaker="lifted-path-cut",
        stronger="lifted-path-cut-strong",
        build=_induced_cut_strengthened,
        designated=lambda inst: build_lifted_path_induced_cut(
            inst,
            inst.reachability,
            inst.lifted_index[(5, 4)],
            PathWitness(nodes=(5, 6), base_edges=(inst.base_index[(5, 6)],)),
            strengthened=True,
        ),
    ),
    StrictnessCase(
        name="symmetric-mixed",
        weaker="sym-path-cut",
        stronger="sym-lifted-path-cut",
        build=_symmetric_mixed,
        designated=lambda inst: build_symmetric_cut(
            inst,
            inst.reachability,
            inst.lifted_index[(5, 4)],
            PathWitness(nodes=(2, 4), lifted_edges=(inst.lifted_index[(2, 4)],)),
        ),
    ),
    StrictnessCase(
        name="symmetric-strengthened",
        weaker="sym-lifted-path-cut",
        stronger="sym-lifted-path-cut-strong",
        build=_symmetric_strengthened,
        designated=lambda inst: build_symmetric_cut(
            inst,
            inst.reachability,
            inst.lifted_index[(5, 4)],
            PathWitness(nodes=(3, 4), base_edges=(inst.base_index[(3, 4)],)),
            strengthened=True,
        ),
    ),
    StrictnessCase(
        name="symmetric-plain",
        weaker="path-cut",
        stronger="sym-path-cut",
        build=_symmetric_plain,
        designated=lambda inst: build_symmetric_cut(
            inst,
            inst.reachability,
            0,
            PathWitness(
                nodes=(6, 8, 11),
                base_edges=(inst.base_index[(6, 8)], inst.base_index[(8, 11)]),
            ),
        ),
    ),
)
