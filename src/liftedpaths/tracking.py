"""Multi-object tracking on top of the disjoint-paths solver.

The input is a pairwise cost table over detections (a detection is a
(frame, index) pair): `base` costs price linking two detections directly,
`lift` costs price having them anywhere on the same final track, and
optional `gt` lines label detections with ground-truth identities for
evaluation (label 0 marks noise).

Tracking runs in two stages over and over until it settles:

1.  The frame range is chopped into intervals.  Within each interval a
    sparsified instance is built — per detection only the cheapest K
    successors into each later frame, long gaps thinned out by stride, tiny
    lifted costs dropped — and solved exactly.  The resulting paths are
    tracklets.
2.  Tracklets become single nodes whose cost absorbs everything internal;
    base edges link tracklet ends across gaps, lifted edges carry the summed
    cross costs.  Solving this small instance merges tracklets into tracks.
    Each track is then greedily cut wherever removing a boundary strictly
    lowers the full-table objective, and the cut pieces feed the next round
    of stage 2.

Every stage can only lower (never raise) the dense-table objective of the
current track set, so the loop is monotone and stops quickly.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, field

from .driver import SolverConfig, solve
from .instance import (
    SINK,
    SOURCE,
    Instance,
    InstanceFormatError,
    Reachability,
    active_st_paths,
)

__all__ = [
    "Detection",
    "CostTable",
    "parse_costs",
    "TrackingConfig",
    "TrackingResult",
    "run_tracking",
    "detection_objective",
    "split_track",
    "format_tracks",
    "parse_tracks",
    "TrackingMetrics",
    "evaluate_tracking",
]

Detection = tuple[int, int]  # (frame, index within frame)
PairCosts = dict[tuple[Detection, Detection], float]
_EPS = 1e-9


def _entry_problem(kind: str, entries) -> str | None:
    """What is wrong with the first invalid of `entries`, (key, value) pairs
    of a `base` or `lift` cost table (a pair of detections and its cost) or
    of `gt` labels (a detection and its label); None when nothing is."""
    if kind == "gt":
        for d, label in entries:
            if label < 0:
                return f"label of {d} must be >= 0"
        return None
    for (u, v), c in entries:
        if v[0] <= u[0]:
            return f"{kind} cost {u}->{v} must point to a later frame"
        if not math.isfinite(c):
            return f"{kind} cost {u}->{v} is not finite"
    return None


@dataclass(frozen=True)
class CostTable:
    """Pairwise linking costs plus optional ground-truth labels."""

    base: PairCosts
    lift: PairCosts
    labels: dict[Detection, int]

    def __post_init__(self):
        for kind, table in (("base", self.base), ("lift", self.lift), ("gt", self.labels)):
            problem = _entry_problem(kind, table.items())
            if problem:
                raise ValueError(problem)

    @property
    def detections(self) -> tuple[Detection, ...]:
        seen: set[Detection] = set(self.labels)
        for u, v in self.base:
            seen.add(u)
            seen.add(v)
        for u, v in self.lift:
            seen.add(u)
            seen.add(v)
        return tuple(sorted(seen))


def parse_costs(text: str) -> CostTable:
    """Parse `base f1 i1 f2 i2 c` / `lift f1 i1 f2 i2 c` / `gt f i label`
    lines; '#' starts a comment."""
    base: PairCosts = {}
    lift: PairCosts = {}
    labels: dict[Detection, int] = {}
    tables = {"base": base, "lift": lift, "gt": labels}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind not in tables or len(parts) != (4 if kind == "gt" else 6):
            raise InstanceFormatError(
                f"expected 'base/lift f1 i1 f2 i2 c' or 'gt f i label', got {line!r}", ln
            )
        try:
            if kind == "gt":
                key, value = (int(parts[1]), int(parts[2])), int(parts[3])
            else:
                key = ((int(parts[1]), int(parts[2])), (int(parts[3]), int(parts[4])))
                value = float(parts[5])
        except ValueError:
            raise InstanceFormatError(f"bad field in {line!r}", ln) from None
        table = tables[kind]
        if key not in table:
            problem = _entry_problem(kind, [(key, value)])
        elif kind == "gt":
            problem = f"duplicate label for {key}"
        else:
            problem = f"duplicate {kind} cost {key[0]}->{key[1]}"
        if problem:
            raise InstanceFormatError(problem, ln)
        table[key] = value
    return CostTable(base=base, lift=lift, labels=labels)


@dataclass(frozen=True)
class TrackingConfig:
    """Sparsification and scheduling knobs for the tracking pipeline.

    Gap thinning is expressed in seconds via `fps`: every gap up to half a
    second is kept, every 2nd gap up to a second, every 3rd gap beyond, and
    nothing past `max_gap_frames` (which defaults to two seconds' worth).
    `max_iterations` caps the merge rounds of stage 2; at 0 the interval
    tracklets come back unmerged."""

    fps: float = 5.0
    max_gap_frames: int | None = None
    interval_length: int = 50
    successors_per_frame: int = 3
    lift_epsilon: float = 0.05
    jobs: int = 1
    max_iterations: int = 25
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        floors = dict(interval_length=1, successors_per_frame=1, max_gap_frames=1, jobs=1)
        floors["max_iterations"] = 0
        for name, floor in floors.items():
            value, label = getattr(self, name), name.replace("_", " ")
            if value is None and name == "max_gap_frames":
                continue
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{label} must be an integer")
            if value < floor:
                raise ValueError(f"{label} must be at least {floor}")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ValueError("fps must be a positive finite number")
        if not (math.isfinite(self.lift_epsilon) and self.lift_epsilon >= 0):
            raise ValueError("lift epsilon must be a finite number of at least 0")

    def gap_limit(self) -> int:
        if self.max_gap_frames is not None:
            return self.max_gap_frames
        return max(1, round(2.0 * self.fps))

    def gap_allowed(self, gap: int) -> bool:
        if gap < 1 or gap > self.gap_limit():
            return False
        half, full = 0.5 * self.fps, 1.0 * self.fps
        if gap <= half:
            return True
        if gap <= full:
            return (gap - (math.floor(half) + 1)) % 2 == 0
        return (gap - (math.floor(full) + 1)) % 3 == 0


# --------------------------------------------------------------------------
# stage 1: intervals to tracklets


def _build_detection_instance(
    detections: list[Detection], base: PairCosts, lift: PairCosts, config: TrackingConfig
) -> tuple[Instance, dict[int, Detection]]:
    """Sparsified instance, with frame data, over the given detections and
    the table entries between them."""
    order = sorted(detections)
    ids = {d: i for i, d in enumerate(order, start=1)}
    candidates: dict[tuple[Detection, int], list[tuple[float, Detection]]] = {}
    for (u, v), cost in base.items():
        if config.gap_allowed(v[0] - u[0]):
            candidates.setdefault((u, v[0]), []).append((cost, v))
    edges: list[tuple[int, int, float]] = []
    for d in order:
        edges.append((SOURCE, ids[d], 0.0))
        edges.append((ids[d], SINK, 0.0))
    for (u, _), cands in sorted(candidates.items()):
        cands.sort()
        for cost, v in cands[: config.successors_per_frame]:
            edges.append((ids[u], ids[v], cost))
    frames = {ids[d]: d[0] for d in order}
    reach = Reachability(len(order), edges)
    lifted = [
        (ids[u], ids[v], cost)
        for (u, v), cost in sorted(lift.items())
        if config.gap_allowed(v[0] - u[0])
        and abs(cost) >= config.lift_epsilon
        and reach.reaches(ids[u], ids[v])
    ]
    instance = Instance(len(order), edges, lifted, frames=frames)
    return instance, {i: d for d, i in ids.items()}


def _solve_to_tracklets(args) -> list[tuple[Detection, ...]]:
    instance, back, solver = args
    result = solve(instance, solver)
    if result.status != "optimal":
        raise RuntimeError(f"interval solve ended with status {result.status}")
    return [
        tuple(back[v] for v in path)
        for path in active_st_paths(instance, result.solution)
    ]


def _interval_tracklets(
    table: CostTable, config: TrackingConfig
) -> list[tuple[Detection, ...]]:
    detections = table.detections
    if not detections:
        return []
    start, length = detections[0][0], config.interval_length
    # per interval: its detections, base and lifted entries (popped when built)
    groups: dict[int, tuple[list[Detection], PairCosts, PairCosts]] = {}
    for d in detections:
        groups.setdefault((d[0] - start) // length, ([], {}, {}))[0].append(d)
    for slot, entries in ((1, table.base), (2, table.lift)):
        for (u, v), cost in entries.items():
            k = (u[0] - start) // length
            if k == (v[0] - start) // length:
                groups[k][slot][(u, v)] = cost
    # Each interval's instance is built when its solve asks for it: `map`
    # lets an instance go once it is solved, so one is held at a time.
    # The pool's `map` submits every interval at once.
    jobs = (
        (*_build_detection_instance(*groups.pop(k), config), config.solver)
        for k in sorted(groups)
    )
    if config.jobs > 1 and len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            per_interval = list(pool.map(_solve_to_tracklets, jobs))
    else:
        per_interval = list(map(_solve_to_tracklets, jobs))
    tracklets = [t for group in per_interval for t in group]
    unmatched = set(detections) - {d for t in tracklets for d in t}
    # Detections the interval solves left out still exist; keep them as
    # singleton tracklets so later stages may stitch them in or drop them.
    tracklets.extend((d,) for d in sorted(unmatched))
    return tracklets


# --------------------------------------------------------------------------
# stage 2: tracklets to tracks


def _tracklet_cost(table: CostTable, t: tuple[Detection, ...], gap: int) -> float:
    internal = math.fsum(
        table.base.get((t[i], t[i + 1]), 0.0) for i in range(len(t) - 1)
    )
    crossing = math.fsum(
        table.lift.get((u, v), 0.0)
        for i, u in enumerate(t)
        for v in itertools.takewhile(lambda w: w[0] - u[0] <= gap, t[i + 1 :])
    )
    return internal + crossing


def _solve_tracklet_graph(
    table: CostTable,
    tracklets: list[tuple[Detection, ...]],
    config: TrackingConfig,
) -> list[tuple[Detection, ...]]:
    """Merge tracklets into tracks by solving the condensed instance."""
    gap = config.gap_limit()
    order = sorted(tracklets)  # disjoint, so sorted by their first detections
    node_of = {d: a for a, t in enumerate(order, start=1) for d in t}
    ends = {t[-1]: a for a, t in enumerate(order, start=1)}
    starts = {t[0]: a for a, t in enumerate(order, start=1)}
    node_costs = {
        a: _tracklet_cost(table, t, gap) for a, t in enumerate(order, start=1)
    }
    base: list[tuple[int, int, float]] = []
    for v in range(1, len(order) + 1):
        base.append((SOURCE, v, 0.0))
        base.append((v, SINK, 0.0))
    base.extend(
        sorted(
            (ends[u], starts[v], cost)
            for (u, v), cost in table.base.items()
            if u in ends and v in starts and v[0] - u[0] <= gap
        )
    )
    # Summed in key order, detection pair by detection pair, so the sums do
    # not depend on the order the table's entries were read in.
    cross: dict[tuple[int, int], float] = {}
    for (u, v), cost in sorted(table.lift.items()):
        a, b = node_of.get(u), node_of.get(v)
        if a is not None and b is not None and a != b and v[0] - u[0] <= gap:
            cross[a, b] = cross.get((a, b), 0.0) + cost
    reach = Reachability(len(order), base)
    lifted = [
        (a, b, total)
        for (a, b), total in sorted(cross.items())
        if total and reach.reaches(a, b)
    ]
    instance = Instance(len(order), base, lifted, node_costs=node_costs)
    result = solve(instance, config.solver)
    if result.status != "optimal":
        raise RuntimeError(f"tracklet solve ended with status {result.status}")
    # Tracklets the solver leaves inactive are dropped deliberately: that is
    # how the model discards noise, so they must not be re-added here.
    return [
        tuple(d for v in path for d in order[v - 1])
        for path in active_st_paths(instance, result.solution)
    ]


def detection_objective(
    table: CostTable, tracks: list[tuple[Detection, ...]], max_gap_frames: int
) -> float:
    """Dense objective of a track set: consecutive base costs plus every
    same-track lifted cost within the gap window."""
    seen: set[Detection] = set()
    for t in tracks:
        for d in t:
            if d in seen:
                raise ValueError(f"detection {d} appears in two tracks")
            seen.add(d)
        if any(t[i + 1][0] <= t[i][0] for i in range(len(t) - 1)):
            raise ValueError("track frames must strictly increase")
    return math.fsum(_tracklet_cost(table, t, max_gap_frames) for t in tracks)


def split_track(
    table: CostTable, track: tuple[Detection, ...], max_gap_frames: int
) -> list[tuple[Detection, ...]]:
    """Greedily cut one track wherever it strictly lowers the objective.

    Cut candidates are ranked by how much a lone cut would remove; they are
    re-priced against the cuts already accepted (a pair of detections only
    counts toward the first cut separating it) and taken while the marginal
    stays positive."""
    L = len(track)
    if L < 2:
        return [track]

    def removed_between(lo: int, hi: int, p: int) -> float:
        # value of cutting between positions p and p+1 inside segment [lo, hi]
        total = table.base.get((track[p], track[p + 1]), 0.0)
        for i in range(p, lo - 1, -1):
            if track[p + 1][0] - track[i][0] > max_gap_frames:
                break  # everything to the right is even further away
            for j in range(p + 1, hi + 1):
                if track[j][0] - track[i][0] > max_gap_frames:
                    break
                total += table.lift.get((track[i], track[j]), 0.0)
        return total

    ranked = sorted(
        range(L - 1),
        key=lambda p: -removed_between(0, L - 1, p),
    )
    accepted: list[int] = []
    for p in ranked:
        cuts = sorted(accepted)
        lo = max((c + 1 for c in cuts if c < p), default=0)
        hi = min((c for c in cuts if c > p), default=L - 1)
        if removed_between(lo, hi, p) > _EPS:
            accepted.append(p)
    if not accepted:
        return [track]
    pieces = []
    start = 0
    for p in sorted(accepted):
        pieces.append(track[start : p + 1])
        start = p + 1
    pieces.append(track[start:])
    return pieces


@dataclass
class TrackingResult:
    tracks: list[tuple[Detection, ...]]
    objective: float
    iterations: int
    objective_trace: list[float]
    tracklet_count: int


def run_tracking(table: CostTable, config: TrackingConfig | None = None) -> TrackingResult:
    """Full pipeline: interval solves, then merge/split rounds to a fixpoint."""
    config = config or TrackingConfig()
    gap = config.gap_limit()
    tracklets = _interval_tracklets(table, config)
    tracklet_count = len(tracklets)
    trace: list[float] = []
    tracks = tracklets
    iterations = 0
    while iterations < config.max_iterations:
        iterations += 1
        merged = _solve_tracklet_graph(table, tracklets, config)
        pieces: list[tuple[Detection, ...]] = []
        for t in merged:
            pieces.extend(split_track(table, t, gap))
        objective = detection_objective(table, pieces, gap)
        if trace:
            assert objective <= trace[-1] + _EPS, "tracking objective increased"
        trace.append(objective)
        tracks = pieces
        if pieces == merged:
            break  # nothing was cut: merging again would reproduce this set
        tracklets = pieces
    return TrackingResult(
        tracks=sorted(tracks),
        objective=trace[-1] if trace else detection_objective(table, tracks, gap),
        iterations=iterations,
        objective_trace=trace,
        tracklet_count=tracklet_count,
    )


# --------------------------------------------------------------------------
# track files and evaluation


def format_tracks(tracks: list[tuple[Detection, ...]]) -> str:
    lines = [
        f"track {i}: " + " ".join(f"{f}:{j}" for f, j in t)
        for i, t in enumerate(tracks, start=1)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_tracks(text: str) -> list[tuple[Detection, ...]]:
    tracks: list[tuple[Detection, ...]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        if not head.startswith("track"):
            raise InstanceFormatError(f"expected 'track <id>: ...', got {line!r}", ln)
        dets: list[Detection] = []
        for tok in rest.split():
            f, _, j = tok.partition(":")
            try:
                dets.append((int(f), int(j)))
            except ValueError:
                raise InstanceFormatError(f"bad detection {tok!r}", ln) from None
        if any(dets[i + 1][0] <= dets[i][0] for i in range(len(dets) - 1)):
            raise InstanceFormatError("track frames must strictly increase", ln)
        tracks.append(tuple(dets))
    return tracks


@dataclass(frozen=True)
class TrackingMetrics:
    idp: float
    idr: float
    idf1: float
    mota: float
    false_positives: int
    misses: int
    identity_switches: int


def evaluate_tracking(
    table: CostTable, tracks: list[tuple[Detection, ...]]
) -> TrackingMetrics:
    """Purity-style identity scores against the table's ground truth.

    Label 0 marks noise detections.  Detections without any label are
    excluded (with a warning); tracked noise counts as false positives,
    unreached true detections as misses, and an identity's covering track
    changing between its consecutive covered detections as a switch."""
    labels = table.labels
    unlabeled = sum(1 for t in tracks for d in t if d not in labels)
    if unlabeled:
        warnings.warn(
            f"{unlabeled} tracked detections have no ground-truth label; ignored",
            stacklevel=2,
        )
    by_gt: dict[int, list[Detection]] = {}
    for d, label in labels.items():
        if label > 0:
            by_gt.setdefault(label, []).append(d)
    for dets in by_gt.values():
        dets.sort()
    covering: dict[Detection, int] = {}
    for ti, t in enumerate(tracks):
        for d in t:
            if d in covering:
                raise ValueError(f"detection {d} appears in two tracks")
            covering[d] = ti

    idp_hits = idp_total = 0
    for t in tracks:
        labeled = [labels[d] for d in t if d in labels]
        idp_total += len(labeled)
        positive = [l for l in labeled if l > 0]
        idp_hits += max(
            (positive.count(g) for g in set(positive)), default=0
        )
    idr_hits = idr_total = 0
    for g, dets in by_gt.items():
        idr_total += len(dets)
        per_track: dict[int, int] = {}
        for d in dets:
            if d in covering:
                per_track[covering[d]] = per_track.get(covering[d], 0) + 1
        idr_hits += max(per_track.values(), default=0)

    idp = idp_hits / idp_total if idp_total else 0.0
    idr = idr_hits / idr_total if idr_total else 0.0
    idf1 = 2 * idp * idr / (idp + idr) if idp + idr else 0.0

    fp = sum(1 for t in tracks for d in t if labels.get(d, -1) == 0)
    fn = sum(
        1 for dets in by_gt.values() for d in dets if d not in covering
    )
    switches = 0
    for dets in by_gt.values():
        covered = [covering[d] for d in dets if d in covering]
        switches += sum(
            1 for a, b in zip(covered, covered[1:]) if a != b
        )
    total_gt = sum(len(d) for d in by_gt.values())
    mota = 1.0 - (fp + fn + switches) / max(total_gt, 1)
    return TrackingMetrics(
        idp=idp,
        idr=idr,
        idf1=idf1,
        mota=mota,
        false_positives=fp,
        misses=fn,
        identity_switches=switches,
    )
