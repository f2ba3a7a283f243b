"""Deterministic fixtures and random generators shared across the tests."""

from __future__ import annotations

import random

from liftedpaths import tracking
from liftedpaths.instance import SINK, SOURCE, Instance, Reachability, parse_instance
from liftedpaths.reductions import McfProblem, ReductionError
from liftedpaths.tracking import CostTable

# A four-node instance with a unique optimum.  Node pair (2, 4) carries both
# a base edge and a lifted edge with different costs.  The text below is the
# canonical serialization, so it doubles as a round-trip fixture.
DEMO_TEXT = """\
ldp 1
nodes 4
base s 1 0.0
base s 2 0.0
base 1 3 -1.0
base 2 4 -1.0
base 3 4 0.0
base 3 t 0.0
base 4 t 0.0
lift 1 4 -1.25
lift 2 4 -0.2
"""

# Optimum -2.25, attained only by the single route 1 -> 3 -> 4, which
# collects both the base rewards on (1,3) and the lifted reward on (1,4).
DEMO_OBJECTIVE = -2.25
DEMO_PATH = (1, 3, 4)

# One extra solving round is needed here: the cheapest flow alone claims the
# lifted reward on (1, 2) without routing 1 -> 2, and a connectivity cut has
# to forbid that before the labels agree with the flow.
TWO_ROUND_TEXT = """\
ldp 1
nodes 4
base s 1 -1.0
base s 2 -0.5
base s 3 2.0
base 1 2 -2.0
base 2 3 -1.5
base 2 t 1.0
base 3 4 0.0
base 3 t -1.5
base 4 t -1.5
lift 1 2 -2.0
lift 1 4 2.0
"""
TWO_ROUND_OBJECTIVE = -8.0

# One extra solving round, with nothing left to tie-breaking: the initial
# master's optimum, -4.5, is unique (the next-best master point is -2.5, which
# `test_the_one_cut_master_optimum_is_unique` checks by a no-good re-solve).
# It routes s -> 1 -> 2 -> 3 -> 4 -> t but leaves the lifted label (1, 4) at
# 0, and one lifted-path cut forces that label, at the optimum -2.5.  This is
# `random_instance(random.Random(2161), max_inner=5, max_base=10, max_lift=3)`.
ONE_CUT_TEXT = """\
ldp 1
nodes 4
base s 1 -2.0
base s 2 1.5
base s 4 1.0
base 1 2 1.0
base 1 4 0.0
base 2 3 -2.0
base 3 4 2.0
base 4 t -1.5
lift 1 3 -2.0
lift 1 4 2.0
"""
ONE_CUT_MASTER_OBJECTIVE = -4.5
ONE_CUT_OBJECTIVE = -2.5


# (a or b or not c), (a or c or not d), (not a or c or e), (not a or c or not e):
# satisfiable, e.g. by the all-true assignment.
SATISFIABLE_FORMULA = [(1, 2, -3), (1, 3, -4), (-1, 3, 5), (-1, 3, -5)]

# Every sign pattern over three variables: no assignment survives.
UNSATISFIABLE_FORMULA = [
    (1, 2, 3),
    (1, 2, -3),
    (1, -2, 3),
    (1, -2, -3),
    (-1, 2, 3),
    (-1, 2, -3),
    (-1, -2, 3),
    (-1, -2, -3),
]


def worked_net() -> McfProblem:
    """Two demands of two units each fit this network exactly; a third unit
    out of the first source cannot leave it."""
    return McfProblem(
        edges=(
            (1, 3),
            (1, 4),
            (2, 4),
            (2, 5),
            (3, 8),
            (4, 6),
            (4, 7),
            (5, 7),
            (6, 9),
            (7, 8),
            (7, 9),
        ),
        commodities=((1, 8, 2), (2, 9, 2)),
    )


def demo_instance() -> Instance:
    return parse_instance(DEMO_TEXT)


def two_round_instance() -> Instance:
    return parse_instance(TWO_ROUND_TEXT)


def one_cut_instance() -> Instance:
    return parse_instance(ONE_CUT_TEXT)


def tightening_instance() -> Instance:
    """Diamond chain where stronger inequality families visibly raise the
    relaxation bound.

    Every source-sink route passes node 1 and node 8, so the lifted penalty
    on (1, 8) is unavoidable for any integral labeling; weak relaxations
    dodge it fractionally.  Bounds: -2.4 with flow rows alone, -2.325 once
    route inequalities join, -1.325 with connectivity inequalities, against
    a true optimum of -0.4.
    """
    base = [
        (SOURCE, 1, 0.0),
        (1, 2, -0.25),
        (2, 3, -0.1),
        (2, 4, 0.0),
        (3, 5, 0.0),
        (4, 5, 0.0),
        (5, 6, -0.05),
        (5, 7, 0.0),
        (6, 8, 0.0),
        (7, 8, 0.0),
        (8, SINK, 0.0),
    ]
    lift = [(2, 5, -1.0), (5, 8, -1.0), (1, 8, 2.0)]
    return Instance(8, base, lift)


def framed_instance() -> Instance:
    """Small instance with frame annotations and node costs."""
    return Instance(
        4,
        [
            (SOURCE, 1, 0.0),
            (1, 2, -1.0),
            (1, 3, 0.5),
            (2, 4, 0.0),
            (3, 4, 0.0),
            (4, SINK, 0.0),
        ],
        [(1, 4, -0.5)],
        node_costs={1: 0.25, 3: -0.25},
        frames={1: 1, 2: 2, 3: 2, 4: 3},
    )


def half_integer(rng: random.Random) -> float:
    return rng.randint(-4, 4) / 2.0


def random_instance(
    rng: random.Random,
    *,
    max_inner: int = 12,
    max_base: int = 30,
    max_lift: int = 10,
    cost=None,
) -> Instance:
    """Random acyclic instance in which every node lies on a source-sink
    route and every lifted pair has a base route between its endpoints.

    Defaults produce at most 12 inner nodes, 30 base edges, and 10 lifted
    edges, with half-integer costs between -2 and 2.
    """
    if cost is None:
        cost = half_integer
    while True:
        n = rng.randint(1, max_inner)
        edges: set[tuple[int, int]] = set()
        for v in range(1, n + 1):
            if rng.random() < 0.45:
                edges.add((SOURCE, v))
            if rng.random() < 0.45:
                edges.add((v, SINK))
        if len(edges) > max_base:
            edges = set(rng.sample(sorted(edges), max_base))
        room = max_base - len(edges)
        inner_pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
        rng.shuffle(inner_pairs)
        if room > 0:
            edges.update(inner_pairs[: rng.randint(0, room)])

        # Keep only nodes that lie on a route; dropping a node cannot break
        # the routes through the survivors, since every node of a route is
        # itself both reachable and co-reachable.
        fwd, back = {SOURCE}, {SINK}
        changed = True
        while changed:
            changed = False
            for (u, v) in edges:
                if u in fwd and v not in fwd:
                    fwd.add(v)
                    changed = True
                if v in back and u not in back:
                    back.add(u)
                    changed = True
        keep = [v for v in range(1, n + 1) if v in fwd and v in back]
        if not keep:
            continue
        remap = {v: i + 1 for i, v in enumerate(keep)}
        remap[SOURCE], remap[SINK] = SOURCE, SINK
        base = [
            (remap[u], remap[v], cost(rng))
            for (u, v) in sorted(edges)
            if u in remap and v in remap
        ]
        reach = Reachability(len(keep), base)
        nodes = range(1, len(keep) + 1)
        pairs = [(v, w) for v in nodes for w in nodes if v != w and reach.reaches(v, w)]
        rng.shuffle(pairs)
        lifted = [(v, w, cost(rng)) for (v, w) in pairs[: rng.randint(0, max_lift)]]
        return Instance(len(keep), base, lifted)


def random_instance_with_lift(rng: random.Random, **kwargs) -> Instance:
    """Like `random_instance`, but guaranteed at least one lifted edge."""
    while True:
        inst = random_instance(rng, **kwargs)
        if inst.lifted_index:
            return inst


def random_formula(
    rng: random.Random, *, max_vars: int = 10, max_clauses: int = 6
) -> list[tuple[int, int, int]]:
    """Random clauses of exactly three literals over distinct variables."""
    n = rng.randint(3, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        trio = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in trio))
    return clauses


def random_net(rng: random.Random, *, max_edges: int = 12) -> McfProblem:
    """Random acyclic unit-capacity network with one or two demands."""
    while True:
        n = rng.randint(3, 6)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        rank = {v: i for i, v in enumerate(order)}
        cand = [(u, v) for u in order for v in order if rank[u] < rank[v]]
        rng.shuffle(cand)
        edges = tuple(sorted(cand[: rng.randint(2, max_edges)]))
        commodities = []
        for _ in range(rng.randint(1, 2)):
            s, t = rng.sample(range(1, n + 1), 2)
            if rank[s] > rank[t]:
                s, t = t, s
            commodities.append((s, t, rng.randint(1, 2)))
        try:
            return McfProblem(edges=edges, commodities=tuple(commodities))
        except ReductionError:
            continue  # a direct arc shadows one of its demands; redraw


def planted_sequence(
    rng: random.Random,
    frames: int = 150,
    objects: int = 3,
    noise: float = 0.0,
    clutter: int = 0,
) -> CostTable:
    """Detections of `objects` trajectories with known occlusion windows.

    Pairs of detections within ten frames get a reward when they belong to
    the same object and a penalty otherwise, optionally perturbed by
    symmetric noise; `clutter` adds unmatched detections labeled as noise.
    """
    occlusions = {0: [(20, 1), (55, 2)], 1: [(35, 4)], 2: [(15, 2), (60, 8)]}
    labels: dict[tuple[int, int], int] = {}
    for o in range(objects):
        gaps: set[int] = set()
        for start, width in occlusions.get(o, ()):
            gaps.update(range(start, start + width))
        for f in range(frames):
            if f not in gaps:
                labels[(f, o)] = o + 1
    clutter_id = objects
    for _ in range(clutter):
        f = rng.randrange(frames)
        labels[(f, clutter_id)] = 0
        clutter_id += 1
    detections = sorted(labels)
    base: dict = {}
    lift: dict = {}
    for u in detections:
        for v in detections:
            if v[0] <= u[0] or v[0] - u[0] > 10:
                continue
            same = labels[u] == labels[v] != 0
            c = (-1.0 if same else 1.0) + (rng.uniform(-noise, noise) if noise else 0.0)
            base[(u, v)] = c
            lift[(u, v)] = c
    return CostTable(base=base, lift=lift, labels=labels)


def sequence_instance(
    table: CostTable, gap: int = 10
) -> tuple[Instance, list[tuple[int, int]]]:
    """The unsparsified instance of a whole cost table, and its detection
    order (node i + 1 is detection i).  Every table pair `gap` frames apart
    or less is a base edge, and every nonzero lifted pair in that window
    that the base edges connect is a lifted edge."""
    order = list(table.detections)
    ids = {d: i for i, d in enumerate(order, start=1)}
    edges = [(SOURCE, i, 0.0) for i in ids.values()] + [(i, SINK, 0.0) for i in ids.values()]
    edges += [
        (ids[u], ids[v], c) for (u, v), c in sorted(table.base.items()) if v[0] - u[0] <= gap
    ]
    reach = Reachability(len(order), edges)
    lifted = [
        (ids[u], ids[v], c)
        for (u, v), c in sorted(table.lift.items())
        if c and v[0] - u[0] <= gap and reach.reaches(ids[u], ids[v])
    ]
    frames = {i: d[0] for d, i in ids.items()}
    return Instance(len(order), edges, lifted, frames=frames), order


def interval_instance() -> Instance:
    """Stage 1's instance for the first interval of a small planted sequence."""
    table = planted_sequence(random.Random(4), frames=30, noise=0.2, clutter=4)
    inside = {(u, v): c for (u, v), c in table.base.items() if v[0] < 10}
    lifted = {(u, v): c for (u, v), c in table.lift.items() if v[0] < 10}
    detections = [d for d in table.detections if d[0] < 10]
    config = tracking.TrackingConfig(interval_length=10)
    return tracking._build_detection_instance(detections, inside, lifted, config)[0]


def interior_punisher_table() -> tuple[CostTable, list[tuple[int, int]]]:
    """A single trajectory that the first pass cannot split correctly.

    Detections cover frames 0..29 except 14.  Pairwise rewards make one long
    track attractive, but a handful of heavy penalties from detection
    (10, 0) into frames 15/16 only pay off if the track is cut strictly
    inside the second half — a cut the per-interval pass cannot see because
    its windows end at the interval boundary.  Rewards from (13, 0) across
    the boundary keep the two halves linked until the refinement pass
    re-examines the merged track and places the cut at frame 13.
    """
    present = [f for f in range(30) if f != 14]
    labels = {(f, 0): 1 for f in present}
    detections = [(f, 0) for f in present]
    base: dict = {}
    lift: dict = {}
    for i in range(len(detections) - 1):
        base[(detections[i], detections[i + 1])] = -1.0
    allowed = {1, 2, 3, 5, 6}
    for u in detections:
        for v in detections:
            if v[0] - u[0] in allowed:
                lift[(u, v)] = -1.0
    for f in (15, 16, 18, 19):
        lift[((13, 0), (f, 0))] = -2.5
    lift[((10, 0), (15, 0))] = 4.5
    lift[((10, 0), (16, 0))] = 4.5
    lift[((9, 0), (15, 0))] = 4.5
    return CostTable(base=base, lift=lift, labels=labels), detections
