"""Reference implementations used to cross-check the library.

Everything in this module is deliberately written with a different
algorithmic approach than the package (exhaustive search over explicit
route families, truth tables, scipy's LP solver), so agreement between
the two sides is evidence rather than a tautology.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from liftedpaths.instance import SINK, SOURCE, Instance


def adjacency(inst: Instance) -> dict[int, list[int]]:
    """Successor lists rebuilt from the base-edge index."""
    out: dict[int, list[int]] = defaultdict(list)
    for (u, v) in inst.base_index:
        out[u].append(v)
    for u in out:
        out[u].sort()
    return dict(out)


def all_paths(inst: Instance) -> list[tuple[int, ...]]:
    """Every source-to-sink route, each as a tuple of inner nodes."""
    out = adjacency(inst)
    found: list[tuple[int, ...]] = []

    def walk(v: int, acc: tuple[int, ...]) -> None:
        for w in out.get(v, ()):
            if w == SINK:
                found.append(acc)
            else:
                walk(w, acc + (w,))

    walk(SOURCE, ())
    return found


def reachable_sets(inst: Instance) -> dict[int, set[int]]:
    """node -> set of nodes reachable over base edges (reflexive)."""
    out = adjacency(inst)
    table: dict[int, set[int]] = {}
    for v in (SOURCE, *inst.inner_nodes(), SINK):
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in out.get(u, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        table[v] = seen
    return table


def closure_matrix(nodes, edges) -> dict[tuple[int, int], bool]:
    """Reflexive transitive closure of `edges` over `nodes` by Warshall's
    algorithm: (v, w) -> whether v reaches w."""
    reach = {(v, w): v == w for v in nodes for w in nodes}
    for u, v in edges:
        reach[u, v] = True
    for k in nodes:
        for v in nodes:
            if reach[v, k]:
                for w in nodes:
                    if reach[k, w]:
                        reach[v, w] = True
    return reach


def prune_to_routes(inner_count: int, base_edges, lifted_edges):
    """(kept nodes, renumbered base edges, renumbered lifted edges): the
    inner nodes on some source-sink route, and the lifted pairs whose
    endpoints are kept and joined by a path of the pruned graph itself."""
    nodes = [SOURCE, *range(1, inner_count + 1), SINK]
    full = closure_matrix(nodes, [(u, v) for u, v, _ in base_edges])
    kept = [v for v in nodes[1:-1] if full[SOURCE, v] and full[v, SINK]]
    new = {v: i for i, v in enumerate(kept, start=1)}
    new[SOURCE], new[SINK] = SOURCE, SINK
    base = [(new[u], new[v], c) for u, v, c in base_edges if u in new and v in new]
    pruned = closure_matrix(list(new.values()), [(u, v) for u, v, _ in base])
    lifted = [
        (new[u], new[v], c)
        for u, v, c in lifted_edges
        if u in new and v in new and pruned[new[u], new[v]]
    ]
    return kept, base, lifted


def path_cost(inst: Instance, path: tuple[int, ...]) -> float:
    """Cost one route contributes: its nodes, base hops, and internal
    lifted pairs.  Routes are node-disjoint, so no lifted pair can straddle
    two routes and the total objective is the sum over routes."""
    total = 0.0
    for v in path:
        total += inst.node_costs[v]
    chain = (SOURCE, *path, SINK)
    for u, v in zip(chain, chain[1:]):
        total += inst.base_cost(inst.base_index[(u, v)])
    pos = {v: i for i, v in enumerate(path)}
    for (v, w), idx in inst.lifted_index.items():
        if v in pos and w in pos and pos[v] < pos[w]:
            total += inst.lifted_cost(idx)
    return total


def labeling_cost(inst: Instance, paths) -> float:
    return sum(path_cost(inst, tuple(p)) for p in paths)


def lifted_labels(inst: Instance, paths) -> tuple[int, ...]:
    """Which lifted pairs are connected by some route, in index order."""
    labels = [0] * len(inst.lifted_index)
    for (v, w), idx in inst.lifted_index.items():
        for p in paths:
            p = tuple(p)
            if v in p and w in p and p.index(v) < p.index(w):
                labels[idx] = 1
                break
    return tuple(labels)


def disjoint_families(paths) -> list[tuple[tuple[int, ...], ...]]:
    """All families of pairwise node-disjoint routes, the empty one included."""
    ids: dict[int, int] = {}
    masks = []
    for p in paths:
        m = 0
        for v in p:
            if v not in ids:
                ids[v] = len(ids)
            m |= 1 << ids[v]
        masks.append(m)
    out: list[tuple[tuple[int, ...], ...]] = []

    def extend(i: int, used: int, acc: list) -> None:
        out.append(tuple(acc))
        for j in range(i, len(paths)):
            if masks[j] & used == 0:
                acc.append(paths[j])
                extend(j + 1, used | masks[j], acc)
                acc.pop()

    extend(0, 0, [])
    return out


def best_labeling(inst: Instance) -> tuple[float, tuple[tuple[int, ...], ...]]:
    """(optimum, routes) by complete search over disjoint route families.

    Ties break toward the lexicographically smallest sorted tuple of
    active nodes, matching the library's documented rule.
    """
    best = 0.0
    best_paths: tuple = ()
    best_nodes: tuple = ()
    for fam in disjoint_families(all_paths(inst)):
        cost = labeling_cost(inst, fam)
        nodes = tuple(sorted(v for p in fam for v in p))
        if cost < best - 1e-12 or (abs(cost - best) <= 1e-12 and nodes < best_nodes):
            best, best_paths, best_nodes = cost, fam, nodes
    return best, best_paths


def sat_assignment(clauses) -> dict[int, bool] | None:
    """A satisfying assignment found by truth table, or None."""
    names = sorted({abs(lit) for c in clauses for lit in c})
    for bits in itertools.product((False, True), repeat=len(names)):
        assign = dict(zip(names, bits))
        if all(any(assign[abs(lit)] == (lit > 0) for lit in c) for c in clauses):
            return assign
    return None


def clause_satisfied(clause, assign: dict[int, bool]) -> bool:
    return any(assign.get(abs(lit), False) == (lit > 0) for lit in clause)


def net_routable(edges, commodities) -> bool:
    """Can every demand unit be routed on edge-disjoint simple paths?

    Complete search: demands are expanded into unit requests and placed
    one at a time, claiming edges as they go.
    """
    edge_list = list(edges)
    units = [(s, t) for (s, t, d) in commodities for _ in range(d)]

    def place(k: int, used: frozenset) -> bool:
        if k == len(units):
            return True
        s, t = units[k]

        def walk(v: int, claimed: frozenset, visited: frozenset) -> bool:
            if v == t:
                return place(k + 1, used | claimed)
            for i, (a, b) in enumerate(edge_list):
                if a == v and i not in used and i not in claimed and b not in visited:
                    if walk(b, claimed | {i}, visited | {b}):
                        return True
            return False

        return walk(s, frozenset(), frozenset((s,)))

    return place(0, frozenset())


def satisfies(constraint, values, tol: float = 1e-9) -> bool:
    """Feasibility of one row at a point, written out longhand."""
    lhs = sum(coef * values[h] for h, coef in constraint.terms)
    if constraint.sense == "<=":
        return lhs <= constraint.rhs + tol
    if constraint.sense == ">=":
        return lhs >= constraint.rhs - tol
    return abs(lhs - constraint.rhs) <= tol


def lp_reference(variables, objective, constraints, lower=None, upper=None):
    """The same box LP handed to scipy's HiGHS solver."""
    import numpy as np
    from scipy.optimize import linprog

    n = len(variables)
    pos = {h: i for i, h in enumerate(variables)}
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for c in constraints:
        row = [0.0] * n
        for h, coef in c.terms:
            row[pos[h]] += coef
        if c.sense == "<=":
            a_ub.append(row)
            b_ub.append(c.rhs)
        elif c.sense == ">=":
            a_ub.append([-x for x in row])
            b_ub.append(-c.rhs)
        else:
            a_eq.append(row)
            b_eq.append(c.rhs)
    lo = list(lower) if lower is not None else [0.0] * n
    hi = list(upper) if upper is not None else [1.0] * n
    return linprog(
        np.asarray(objective, dtype=float),
        A_ub=np.asarray(a_ub) if a_ub else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        A_eq=np.asarray(a_eq) if a_eq else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
        bounds=list(zip(lo, hi)),
        method="highs",
    )


def binary_reference(variables, objective, constraints):
    """(status, objective, point) by enumerating every binary assignment."""
    best = None
    best_bits = None
    for bits in itertools.product((0, 1), repeat=len(variables)):
        values = dict(zip(variables, (float(b) for b in bits)))
        if all(satisfies(c, values) for c in constraints):
            obj = sum(c * b for c, b in zip(objective, bits))
            if best is None or obj < best - 1e-12:
                best, best_bits = obj, bits
    if best is None:
        return "infeasible", None, None
    return "optimal", best, best_bits
