"""Relaxation bounds: enumerate inequality families and solve the LP.

For analysis (not for solving), this module instantiates *every* member of a
named inequality family on a small instance — all witnesses up to a node
budget — and computes the linear-programming bound over the unit box plus
any selection of families.  Growing the selection can only tighten the
bound, and no bound ever exceeds the true optimum; both facts are what the
accompanying tests probe.

Enumeration is exponential by design, so it refuses witness lengths above
eight nodes and aborts with `BudgetError` once an instantiation budget is
spent.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .constraints import (
    PathWitness,
    build_flow_conservation,
    build_lifted_flow_inequalities,
    build_lifted_path_induced_cut,
    build_lifted_path_inequality,
    build_multicut_path_inequality,
    build_path_induced_cut,
    build_path_inequality,
    build_single_node_cut,
    build_symmetric_cut,
)
from .driver import _unseen, master_variables
from .instance import SINK, SOURCE, Instance, Reachability
from .milp import LinearConstraint, solve_lp

__all__ = ["ALL_FAMILIES", "BudgetError", "enumerate_family", "lp_bound"]

ALL_FAMILIES = (
    "flow",
    "single-cut",
    "path",
    "path-cut",
    "lifted-path",
    "lifted-path-cut",
    "lifted-path-cut-strong",
    "sym-path-cut",
    "sym-lifted-path-cut",
    "sym-lifted-path-cut-strong",
    "lifted-flow",
    "multicut-path",
)

_MAX_WITNESS_NODES = 8
_INSTANTIATION_BUDGET = 200_000


class BudgetError(RuntimeError):
    """Enumerating the requested family would instantiate too many rows."""


def _walks(
    instance: Instance,
    start: int,
    *,
    mixed: bool,
    max_nodes: int,
    budget: list[int],
    backward: bool = False,
) -> Iterator[PathWitness]:
    """Every loop-free walk from `start` (or into it, with `backward`) of at
    most `max_nodes` nodes, over base edges plus — when `mixed` — lifted
    shortcuts.  Yields shorter walks before their extensions."""

    def steps_from(node: int):
        if backward:
            for e, k in instance.in_edges.get(node, ()):
                if k != SOURCE:
                    yield ("b", e), k
            if mixed:
                for li, k in instance.lifted_in.get(node, ()):
                    yield ("l", li), k
        else:
            for e, k in instance.out_edges.get(node, ()):
                if k != SINK:
                    yield ("b", e), k
            if mixed:
                for li, k in instance.lifted_out.get(node, ()):
                    yield ("l", li), k

    nodes = [start]
    on_walk = {start}
    base_steps: list[int] = []
    lift_steps: list[int] = []

    def emit() -> PathWitness:
        if backward:
            return PathWitness(
                tuple(reversed(nodes)),
                tuple(reversed(base_steps)),
                tuple(reversed(lift_steps)),
            )
        return PathWitness(tuple(nodes), tuple(base_steps), tuple(lift_steps))

    def rec() -> Iterator[PathWitness]:
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetError(
                f"family enumeration exceeded {_INSTANTIATION_BUDGET} instantiations"
            )
        yield emit()
        if len(nodes) == max_nodes:
            return
        for (kind, idx), k in steps_from(nodes[-1]):
            if k in on_walk:
                continue
            nodes.append(k)
            on_walk.add(k)
            (base_steps if kind == "b" else lift_steps).append(idx)
            yield from rec()
            (base_steps if kind == "b" else lift_steps).pop()
            on_walk.discard(k)
            nodes.pop()

    yield from rec()


def enumerate_family(
    instance: Instance,
    reach: Reachability,
    family: str,
    max_path_len: int = _MAX_WITNESS_NODES,
) -> list[LinearConstraint]:
    """All rows of one family, witnesses capped at `max_path_len` nodes.

    Rows are deduplicated by content.  Families without witnesses ('flow',
    'single-cut', 'lifted-flow') ignore the length cap; 'lifted-flow' is
    empty for instances without frame annotations.
    """
    if family not in ALL_FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {ALL_FAMILIES}")
    if not 1 <= max_path_len <= _MAX_WITNESS_NODES:
        raise ValueError(f"max_path_len must be in 1..{_MAX_WITNESS_NODES}")

    rows: list[LinearConstraint] = []
    if family == "flow":
        for v in instance.inner_nodes():
            rows.extend(build_flow_conservation(instance, v))
    elif family == "single-cut":
        for li in range(len(instance.lifted_edges)):
            rows.append(build_single_node_cut(instance, reach, li, "out_of_v"))
            rows.append(build_single_node_cut(instance, reach, li, "into_w"))
    elif family == "lifted-flow":
        if instance.frames is not None:
            rows.extend(build_lifted_flow_inequalities(instance))
    else:
        budget = [_INSTANTIATION_BUDGET]
        for li, (v, w, _) in enumerate(instance.lifted_edges):
            if family in ("path", "multicut-path", "lifted-path"):
                mixed = family == "lifted-path"
                for wit in _walks(
                    instance, v, mixed=mixed, max_nodes=max_path_len, budget=budget
                ):
                    if len(wit.nodes) < 2 or wit.nodes[-1] != w:
                        continue
                    if family == "path":
                        rows.append(build_path_inequality(instance, li, wit.nodes))
                    elif family == "multicut-path":
                        rows.append(
                            build_multicut_path_inequality(instance, li, wit.nodes)
                        )
                    else:
                        rows.append(build_lifted_path_inequality(instance, li, wit))
            elif family in ("path-cut", "lifted-path-cut", "lifted-path-cut-strong"):
                mixed = family != "path-cut"
                for wit in _walks(
                    instance, v, mixed=mixed, max_nodes=max_path_len, budget=budget
                ):
                    u = wit.nodes[-1]
                    if w in wit.node_set:
                        continue
                    if family == "lifted-path-cut-strong":
                        if (u, w) not in instance.lifted_index:
                            continue
                        rows.append(
                            build_lifted_path_induced_cut(
                                instance, reach, li, wit, strengthened=True
                            )
                        )
                    elif u != w and reach.reaches(u, w):
                        if family == "path-cut":
                            rows.append(
                                build_path_induced_cut(instance, reach, li, wit.nodes)
                            )
                        else:
                            rows.append(
                                build_lifted_path_induced_cut(
                                    instance, reach, li, wit, strengthened=False
                                )
                            )
            else:  # the symmetric families walk backward from the lifted head
                mixed = family != "sym-path-cut"
                for wit in _walks(
                    instance,
                    w,
                    mixed=mixed,
                    max_nodes=max_path_len,
                    budget=budget,
                    backward=True,
                ):
                    u = wit.nodes[0]
                    if v in wit.node_set:
                        continue
                    if family == "sym-lifted-path-cut-strong":
                        if (v, u) not in instance.lifted_index:
                            continue
                        rows.append(
                            build_symmetric_cut(
                                instance, reach, li, wit, variant="strengthened"
                            )
                        )
                    elif u != v and reach.reaches(v, u):
                        variant = "plain" if family == "sym-path-cut" else "lifted"
                        rows.append(
                            build_symmetric_cut(instance, reach, li, wit, variant=variant)
                        )

    return _unseen(rows, set())


def lp_bound(
    instance: Instance,
    families: Iterable[str],
    max_path_len: int = _MAX_WITNESS_NODES,
) -> float:
    """Optimal value of the LP over the unit box plus the given families.

    A valid lower bound on the true optimum; monotone in the family set.
    """
    reach = instance.reachability
    rows: list[LinearConstraint] = []
    seen = set()
    for family in dict.fromkeys(families):
        rows += _unseen(enumerate_family(instance, reach, family, max_path_len), seen)
    variables, objective = master_variables(instance)
    result = solve_lp(variables, objective, rows)
    if result.status != "optimal":
        raise RuntimeError(f"relaxation LP ended with status {result.status}")
    return result.objective
