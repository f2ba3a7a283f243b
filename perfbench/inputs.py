"""Seeded input generators for the benchmark workloads.

Everything here depends only on the `random.Random` it is given, so one
seed always yields the same inputs.  Sizes are fixed; the seed varies only
the content.
"""

from __future__ import annotations

import random

from liftedpaths import SINK, SOURCE, CostTable, Instance


def random_formula(
    rng: random.Random, variables: int, clauses: int
) -> list[tuple[int, int, int]]:
    """`clauses` three-literal clauses over distinct variables of 1..variables."""
    formula = []
    for _ in range(clauses):
        trio = rng.sample(range(1, variables + 1), 3)
        formula.append(tuple(v if rng.random() < 0.5 else -v for v in trio))
    return formula


def _route_nodes(n: int, edges: set[tuple[int, int]]) -> list[int]:
    """Inner nodes that lie on some source-to-sink route."""
    fwd, back = {SOURCE}, {SINK}
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            if u in fwd and v not in fwd:
                fwd.add(v)
                changed = True
            if v in back and u not in back:
                back.add(u)
                changed = True
    return [v for v in range(1, n + 1) if v in fwd and v in back]


def random_instance(
    rng: random.Random, max_inner: int, max_base: int, max_lift: int
) -> Instance:
    """Random acyclic instance with half-integer costs in [-2, 2].

    Every inner node lies on a source-to-sink route and every lifted pair is
    connected by base edges, so the instance always validates.
    """
    cost = lambda: rng.randint(-4, 4) / 2.0  # noqa: E731
    while True:
        n = rng.randint(1, max_inner)
        edges = {(SOURCE, v) for v in range(1, n + 1) if rng.random() < 0.45}
        edges |= {(v, SINK) for v in range(1, n + 1) if rng.random() < 0.45}
        if len(edges) > max_base:
            edges = set(rng.sample(sorted(edges), max_base))
        inner = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
        rng.shuffle(inner)
        edges.update(inner[: rng.randint(0, max_base - len(edges))])
        keep = _route_nodes(n, edges)
        if not keep:
            continue
        dense = {v: i for i, v in enumerate(keep, start=1)}
        dense[SOURCE], dense[SINK] = SOURCE, SINK
        base = [
            (dense[u], dense[v], cost())
            for u, v in sorted(edges)
            if u in dense and v in dense
        ]
        reach = Instance(len(keep), base).reachability
        pairs = [
            (v, w)
            for v in range(1, len(keep) + 1)
            for w in range(1, len(keep) + 1)
            if v != w and reach.reaches(v, w)
        ]
        rng.shuffle(pairs)
        lifted = [(v, w, cost()) for v, w in pairs[: rng.randint(0, max_lift)]]
        return Instance(len(keep), base, lifted)


def planted_sequence(
    rng: random.Random,
    frames: int,
    objects: int,
    noise: float,
    clutter: int,
    window: int,
    occlusion_every: int = 50,
    max_occlusion: int = 6,
) -> CostTable:
    """Detections of `objects` trajectories plus `clutter` noise detections.

    Each object is hidden for 1..max_occlusion frames at a random point in
    every stretch of `occlusion_every` frames, so occlusions cover the whole
    sequence.  Detection pairs at most `window` frames apart cost -1 on the
    same object and +1 otherwise, plus uniform noise in [-noise, noise];
    base and lifted tables carry the same costs.  Ground-truth labels are
    the object ids, 0 for clutter.
    """
    labels: dict[tuple[int, int], int] = {}
    for o in range(objects):
        hidden: set[int] = set()
        for start in range(0, frames, occlusion_every):
            at = start + rng.randrange(occlusion_every)
            hidden.update(range(at, at + rng.randint(1, max_occlusion)))
        for f in range(frames):
            if f not in hidden:
                labels[(f, o)] = o + 1
    for k in range(clutter):
        labels[(rng.randrange(frames), objects + k)] = 0
    detections = sorted(labels)
    by_frame: dict[int, list[tuple[int, int]]] = {}
    for d in detections:
        by_frame.setdefault(d[0], []).append(d)
    base: dict = {}
    lift: dict = {}
    for u in detections:
        for f in range(u[0] + 1, u[0] + window + 1):
            for v in by_frame.get(f, ()):
                same = labels[u] == labels[v] != 0
                c = (-1.0 if same else 1.0) + rng.uniform(-noise, noise)
                base[(u, v)] = c
                lift[(u, v)] = c
    return CostTable(base=base, lift=lift, labels=labels)
