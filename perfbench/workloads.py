"""The three benchmark workloads: inputs, one answer per item, and checks.

Each workload builds a pool of items from the seed, answers one item per
call of `answer`, and checks each answer after the timed section.  `check`
returns the list of problems found (empty when the answer is right);
`quality` scores a passed answer in [0, 1]; `solves` is how many `solve`
calls an answer made; `uses` names the spans a traced run must contain; and
`params["traced_batch"]` is how many items the traced run answers.
"""

from __future__ import annotations

import itertools
import random

import liftedpaths as lp

from inputs import planted_sequence, random_formula, random_instance
from tracer import solve_attrs


def _call(tracer, name, fn, *args, attrs=None):
    return fn(*args) if tracer is None else tracer.call(name, fn, *args, attrs=attrs)


class SatDecide:
    """Random 3-CNF formulas decided through the satisfiability reduction."""

    name = "sat-decide"
    params = {"variables": 6, "clauses": 5, "pool": 3000, "traced_batch": 500}
    uses = {"reductions.reduce", "driver.solve", "driver.initial_rows",
            "milp.master", "separation.path", "separation.cut", "instance.build"}

    def __init__(self, seed: int):
        rng = random.Random(seed)
        p = self.params
        self.items = [
            random_formula(rng, p["variables"], p["clauses"]) for _ in range(p["pool"])
        ]

    def answer(self, item, tracer=None):
        return _call(tracer, "reductions.decide_sat", lp.decide_sat, item)

    def solves(self, item, output) -> int:
        return 1

    def quality(self, item, output) -> float:
        return 1.0

    def check(self, item, output) -> list[str]:
        satisfiable, assignment = output
        truth = any(
            all(any((lit > 0) == values[abs(lit) - 1] for lit in cl) for cl in item)
            for values in itertools.product((False, True), repeat=self.params["variables"])
        )
        problems = []
        if satisfiable != truth:
            problems.append(f"verdict {satisfiable} but truth table says {truth}")
        if satisfiable and not all(
            any(assignment.get(abs(lit)) == (lit > 0) for lit in cl) for cl in item
        ):
            problems.append("returned assignment leaves a clause unsatisfied")
        return problems


class BatchSmall:
    """Small random instances, each serialized, parsed and solved."""

    name = "batch-small"
    params = {"instances": 2000, "max_inner": 20, "max_base": 50, "max_lift": 15,
              "brute_force_max_paths": 12, "traced_batch": 2000}
    uses = {"instance.parse", "instance.build", "driver.solve", "driver.initial_rows",
            "milp.master", "separation.path", "separation.cut"}

    def __init__(self, seed: int):
        rng = random.Random(seed)
        p = self.params
        self.items = [
            lp.serialize_instance(
                random_instance(rng, p["max_inner"], p["max_base"], p["max_lift"])
            )
            for _ in range(p["instances"])
        ]
        self._optimum: dict[str, float | None] = {}

    def answer(self, item, tracer=None):
        instance = _call(tracer, "instance.parse", lp.parse_instance, item)
        result = _call(tracer, "driver.solve", lp.solve, instance, attrs=solve_attrs)
        # Keep what the checks need; the row pool would only inflate memory.
        return result.status, result.solution, result.objective

    def solves(self, item, output) -> int:
        return 1

    def _brute_force(self, item: str, instance) -> float | None:
        """Optimum by enumeration, or None when the instance has too many
        source-sink paths to enumerate quickly."""
        if item not in self._optimum:
            small = len(lp.all_st_paths(instance)) <= self.params["brute_force_max_paths"]
            self._optimum[item] = lp.brute_force_optimum(instance).objective if small else None
        return self._optimum[item]

    def quality(self, item, output) -> float:
        return 1.0

    def check(self, item, output) -> list[str]:
        status, solution, objective = output
        if status != "optimal":
            return [f"status {status}"]
        instance = lp.parse_instance(item)
        problems = []
        if lp.certify(instance, solution):
            problems.append("certify() found violated rows at the returned solution")
        optimum = self._brute_force(item, instance)
        if optimum is not None and abs(objective - optimum) > 1e-9:
            problems.append(f"objective {objective} != brute force {optimum}")
        return problems


class Track600:
    """Planted tracking sequences through the full two-stage pipeline."""

    name = "track-600"
    params = {"frames": 600, "objects": 3, "noise": 0.2, "clutter": 48, "window": 10,
              "occlusion_every": 50, "max_occlusion": 6, "pool": 4,
              "fps": 5.0, "max_gap_frames": 10, "interval_length": 10,
              "traced_batch": 1}
    uses = {"tracking.run", "driver.solve", "driver.initial_rows", "milp.master",
            "separation.path", "separation.cut", "instance.build",
            "tracking.split", "tracking.objective"}

    def __init__(self, seed: int):
        rng = random.Random(seed)
        p = self.params
        self.items = [
            planted_sequence(rng, p["frames"], p["objects"], p["noise"], p["clutter"],
                             p["window"], p["occlusion_every"], p["max_occlusion"])
            for _ in range(p["pool"])
        ]
        self.config = lp.TrackingConfig(
            fps=p["fps"], max_gap_frames=p["max_gap_frames"],
            interval_length=p["interval_length"], jobs=1,
        )
        self._planted: dict[int, float] = {}  # id(item) -> planted tracks' objective

    def answer(self, item, tracer=None):
        attrs = lambda a, k, r: {"tracklets": r.tracklet_count, "iterations": r.iterations}  # noqa: E731
        return _call(tracer, "tracking.run", lp.run_tracking, item, self.config, attrs=attrs)

    def solves(self, item, output) -> int:
        """One solve per non-empty interval, then one per merge iteration."""
        start = min(f for f, _ in item.detections)
        intervals = {(f - start) // self.config.interval_length for f, _ in item.detections}
        return len(intervals) + output.iterations

    def check(self, item, output) -> list[str]:
        problems = []
        known = set(item.detections)
        seen: set = set()
        for track in output.tracks:
            for d in track:
                if d not in known:
                    problems.append(f"unknown detection {d}")
                if d in seen:
                    problems.append(f"detection {d} in two tracks")
                seen.add(d)
            for u, v in zip(track, track[1:]):
                if v[0] <= u[0]:
                    problems.append(f"frames do not increase at {u}->{v}")
                elif (u, v) not in item.base:
                    problems.append(f"no base cost links {u}->{v}")
        trace = output.objective_trace
        if any(b > a + 1e-9 for a, b in zip(trace, trace[1:])):
            problems.append(f"objective trace increases: {trace}")
        return problems

    def idf1(self, item, output) -> float:
        return lp.evaluate_tracking(item, output.tracks).idf1

    def objective_share(self, item, output) -> float:
        """Share of the planted tracks' dense objective that the answer reaches,
        at most 1.  Both objectives are negative; lower is better."""
        key = id(item)
        if key not in self._planted:
            tracks: dict[int, list] = {}
            for d in sorted(item.labels):
                if item.labels[d]:
                    tracks.setdefault(item.labels[d], []).append(d)
            self._planted[key] = lp.detection_objective(
                item, [tuple(t) for t in tracks.values()], self.config.gap_limit())
        return min(1.0, max(0.0, output.objective / self._planted[key]))

    def quality(self, item, output) -> float:
        return self.idf1(item, output) * self.objective_share(item, output)


WORKLOADS = {w.name: w for w in (SatDecide, BatchSmall, Track600)}
