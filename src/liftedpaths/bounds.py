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
    build_symmetric_cut,
)
from .driver import master_variables
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
    instance: Instance, start: int, *, mixed: bool, max_nodes: int, backward: bool
) -> Iterator[PathWitness]:
    """Every loop-free walk from `start` (or into it, with `backward`) of at
    most `max_nodes` nodes, over base edges plus — when `mixed` — lifted
    shortcuts.  Yields shorter walks before their extensions."""
    base_adj = instance.in_edges if backward else instance.out_edges
    lift_adj = instance.lifted_in if backward else instance.lifted_out
    terminal = SOURCE if backward else SINK
    nodes = [start]
    base_steps: list[int] = []
    lift_steps: list[int] = []

    def rec() -> Iterator[PathWitness]:
        walk = (tuple(nodes), tuple(base_steps), tuple(lift_steps))
        yield PathWitness(*(part[::-1] for part in walk)) if backward else PathWitness(*walk)
        if len(nodes) == max_nodes:
            return
        steps = [(base_steps, e, k) for e, k in base_adj[nodes[-1]] if k != terminal]
        if mixed:
            steps += [(lift_steps, li, k) for li, k in lift_adj.get(nodes[-1], ())]
        for taken, idx, k in steps:
            if k in nodes:
                continue
            nodes.append(k)
            taken.append(idx)
            yield from rec()
            taken.pop()
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
    'lifted-flow') and 'single-cut', whose witnesses are the lone tail and
    the lone head of each lifted edge, ignore the length cap; 'lifted-flow'
    is empty for instances without frame annotations.  The other witness
    families walk every witness before building a row, so an enumeration
    that runs out of budget builds none.
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
        for li, (v, w, _) in enumerate(instance.lifted_edges):
            rows.append(build_lifted_path_induced_cut(instance, reach, li, PathWitness((v,))))
            rows.append(build_symmetric_cut(instance, reach, li, PathWitness((w,))))
    elif family == "lifted-flow":
        if instance.frames is not None:
            rows.extend(build_lifted_flow_inequalities(instance))
    else:
        strong = family.endswith("-strong")
        for li, wit in _family_witnesses(instance, reach, family, max_path_len):
            if family in ("path", "lifted-path"):
                rows.append(build_lifted_path_inequality(instance, li, wit))
            elif family == "multicut-path":
                rows.append(build_multicut_path_inequality(instance, li, wit))
            elif family.startswith("sym-"):
                rows.append(build_symmetric_cut(instance, reach, li, wit, strong))
            else:
                rows.append(build_lifted_path_induced_cut(instance, reach, li, wit, strong))

    return _unseen(rows, set())


def _family_witnesses(
    instance: Instance, reach: Reachability, family: str, max_path_len: int
) -> list[tuple[int, PathWitness]]:
    """Every (lifted edge, witness) pair a witness family instantiates.

    The 'lifted' families walk over base edges and lifted shortcuts, the
    others over base edges only.  For a lifted edge (v, w), path families
    take v-w witnesses, cut families v-u witnesses avoiding w, and mirrored
    ('sym-') families u-w witnesses avoiding v, walked backward from w.  A
    cut needs u to reach w (v to reach u), or, strengthened, the lifted edge
    (u, w) ((v, u)).  Every walk counts against the budget.
    """
    mirrored = family.startswith("sym-")
    strengthened = family.endswith("-strong")
    walks = 0
    pairs: list[tuple[int, PathWitness]] = []
    for li, (v, w, _) in enumerate(instance.lifted_edges):
        start, avoid = (w, v) if mirrored else (v, w)
        for wit in _walks(
            instance, start, mixed="lifted" in family, max_nodes=max_path_len, backward=mirrored
        ):
            walks += 1
            if walks > _INSTANTIATION_BUDGET:
                raise BudgetError(
                    f"family enumeration exceeded {_INSTANTIATION_BUDGET} instantiations"
                )
            u = wit.nodes[0] if mirrored else wit.nodes[-1]
            if family in ("path", "lifted-path", "multicut-path"):
                keep = u == w
            else:
                pair = (v, u) if mirrored else (u, w)
                keep = avoid not in wit.node_set and (
                    pair in instance.lifted_index if strengthened else reach.reaches(*pair)
                )
            if keep:
                pairs.append((li, wit))
    return pairs


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
