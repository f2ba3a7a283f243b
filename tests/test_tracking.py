"""Tracking: cost tables, gap bands, objectives, metrics, refinement."""

from __future__ import annotations

import math
import random
import re

import pytest

import oracles
from generators import interior_punisher_table, planted_sequence, sequence_instance
from liftedpaths import tracking
from liftedpaths.driver import solve
from liftedpaths.instance import SINK, SOURCE, InstanceFormatError, active_st_paths
from liftedpaths.tracking import (
    CostTable,
    TrackingConfig,
    detection_objective,
    evaluate_tracking,
    format_tracks,
    parse_costs,
    parse_tracks,
    run_tracking,
    split_track,
)

SCENE = """\
gt 0 0 1
gt 0 1 2
gt 1 0 1
gt 1 1 2
gt 2 0 1
gt 2 1 2
base 0 0 1 0 -1.0
base 1 0 2 0 -1.0
base 0 1 1 1 -1.0
base 1 1 2 1 -1.0
lift 0 0 2 0 -1.0
lift 0 1 2 1 -1.0
base 0 0 1 1 0.5
"""


def test_gap_bands_widen_in_steps():
    cfg = TrackingConfig(fps=5.0)
    assert cfg.max_gap_frames is None
    assert cfg.gap_limit() == 10
    allowed = [g for g in range(1, 15) if cfg.gap_allowed(g)]
    assert allowed == [1, 2, 3, 5, 6, 9]
    narrow = TrackingConfig(fps=5.0, max_gap_frames=6)
    assert [g for g in range(1, 15) if narrow.gap_allowed(g)] == [1, 2, 3, 5, 6]
    wide = TrackingConfig(fps=5.0, max_gap_frames=10)
    assert [g for g in range(1, 15) if wide.gap_allowed(g)] == [1, 2, 3, 5, 6, 9]
    for skipped in (4, 7, 8, 10):
        assert not wide.gap_allowed(skipped)


@pytest.mark.parametrize(
    "knob, value, message",
    [
        pytest.param("interval_length", 0, "interval length must be at least 1", id="0"),
        pytest.param("interval_length", -3, "interval length must be at least 1", id="-3"),
        pytest.param("successors_per_frame", 0, "successors per frame", id="K=0"),
        pytest.param("successors_per_frame", -1, "successors per frame", id="K=-1"),
        pytest.param("max_gap_frames", 0, "max gap frames", id="max_gap_frames=0"),
        pytest.param("max_gap_frames", -2, "max gap frames", id="max_gap_frames=-2"),
        pytest.param("fps", 0.0, "fps must be", id="fps=0"),
        pytest.param("fps", -5.0, "fps must be", id="fps=-5"),
        pytest.param("fps", math.nan, "fps must be", id="fps=nan"),
        pytest.param("fps", math.inf, "fps must be", id="fps=inf"),
        pytest.param("lift_epsilon", math.nan, "lift epsilon must be", id="lift_epsilon=nan"),
        pytest.param("lift_epsilon", math.inf, "lift epsilon must be", id="lift_epsilon=inf"),
        pytest.param("lift_epsilon", -0.1, "lift epsilon must be", id="lift_epsilon=-0.1"),
        pytest.param("jobs", 0, "jobs must be at least 1", id="jobs=0"),
        pytest.param("jobs", -3, "jobs must be at least 1", id="jobs=-3"),
        pytest.param("max_iterations", -1, "max iterations must be", id="max_iterations=-1"),
        pytest.param("max_iterations", -3, "max iterations must be", id="max_iterations=-3"),
        pytest.param("interval_length", 2.5, "interval length must be an integer", id="2.5"),
        pytest.param("successors_per_frame", 1.5, "per frame must be an integer", id="K=1.5"),
        pytest.param("successors_per_frame", 2.0, "per frame must be an integer", id="K=2.0"),
        pytest.param("max_gap_frames", 3.5, "max gap frames must be an integer", id="gap=3.5"),
        pytest.param("jobs", 1.5, "jobs must be an integer", id="jobs=1.5"),
        pytest.param("max_iterations", 0.5, "max iterations must be an integer", id="iter=0.5"),
        pytest.param("max_iterations", None, "max iterations must be an integer", id="iter=None"),
    ],
)
def test_interval_length_below_one_is_rejected(knob, value, message):
    """The interval length, and every other knob with a floor, rejects a
    value below it instead of running with it; a count knob rejects a value
    that is not an integer, a whole float included."""
    with pytest.raises(ValueError, match=message):
        TrackingConfig(**{knob: value})


def test_parse_costs_reads_tables_and_labels():
    table = parse_costs(SCENE)
    assert table.detections == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1))
    assert table.labels[(0, 0)] == 1
    assert table.labels[(2, 1)] == 2
    assert table.base[((0, 0), (1, 0))] == -1.0
    assert table.base[((0, 0), (1, 1))] == 0.5
    assert table.lift[((0, 0), (2, 0))] == -1.0



#: Lines that each make a cost table invalid, and the message naming why.
BAD_COST_LINES = [
    pytest.param("base 1 0 1 1 1.0", "base cost (1, 0)->(1, 1) must point to a later frame",
                 id="same-frame"),
    pytest.param("lift 2 0 1 0 -1.0", "lift cost (2, 0)->(1, 0) must point to a later frame",
                 id="earlier-frame"),
    pytest.param("base 0 0 2 0 nan", "base cost (0, 0)->(2, 0) is not finite", id="nan"),
    pytest.param("lift 0 0 2 0 -inf", "lift cost (0, 0)->(2, 0) is not finite", id="inf"),
    pytest.param("gt 1 0 -1", "label of (1, 0) must be >= 0", id="negative-label"),
]


@pytest.mark.parametrize("line, message", BAD_COST_LINES)
def test_parse_costs_reports_an_invalid_entry_at_its_line(line, message):
    """The parser and `CostTable` share one check; the parser names the line."""
    text = "# scene\ngt 0 0 1\n\nbase 0 0 1 0 -1.0\n" + line + "\ngt 2 0 1\n"
    with pytest.raises(InstanceFormatError, match=re.escape(f"line 5, column 1: {message}")):
        parse_costs(text)
    table = parse_costs(text.replace(line, ""))
    entry = dict(base=table.base, lift=table.lift, labels=table.labels)
    kind, *fields = line.split()
    if kind == "gt":
        entry["labels"] = {**table.labels, (int(fields[0]), int(fields[1])): int(fields[2])}
    else:
        pair = ((int(fields[0]), int(fields[1])), (int(fields[2]), int(fields[3])))
        entry[kind] = {**entry[kind], pair: float(fields[4])}
    with pytest.raises(ValueError, match=re.escape(message)):
        CostTable(**entry)


def test_track_text_round_trip():
    tracks = [((0, 0), (1, 0), (2, 0)), ((0, 1), (2, 1))]
    text = format_tracks(tracks)
    assert text == "track 1: 0:0 1:0 2:0\ntrack 2: 0:1 2:1\n"
    assert parse_tracks(text) == tracks


def test_detection_objective_prices_only_within_tracks():
    table = parse_costs(SCENE)
    both = [((0, 0), (1, 0), (2, 0)), ((0, 1), (1, 1), (2, 1))]
    # four base hops and two lifted pairs, all rewarded; the cross-track
    # base cost of 0.5 must not be charged
    assert detection_objective(table, both, 6) == pytest.approx(-6.0)
    assert detection_objective(table, both[:1], 6) == pytest.approx(-3.0)
    assert detection_objective(table, [], 6) == 0.0


def test_detection_objective_rejects_malformed_tracks():
    table = parse_costs(SCENE)
    with pytest.raises(ValueError, match="appears in two tracks"):
        detection_objective(table, [((0, 0),), ((0, 0), (1, 0))], 6)
    with pytest.raises(ValueError, match="strictly increase"):
        detection_objective(table, [((1, 0), (0, 0))], 6)


def test_metrics_reward_purity_and_count_mistakes():
    table = parse_costs(SCENE)
    both = [((0, 0), (1, 0), (2, 0)), ((0, 1), (1, 1), (2, 1))]
    perfect = evaluate_tracking(table, both)
    assert perfect.idf1 == 1.0
    assert perfect.idp == perfect.idr == 1.0
    assert perfect.mota == 1.0
    assert perfect.false_positives == perfect.misses == 0
    assert perfect.identity_switches == 0

    half = evaluate_tracking(table, both[:1])
    assert half.misses == 3
    assert half.idr == pytest.approx(0.5)

    # tracked clutter counts against precision
    noisy = CostTable(base={}, lift={}, labels={(0, 0): 1, (1, 0): 0})
    swallowed = evaluate_tracking(noisy, [((0, 0), (1, 0))])
    assert swallowed.false_positives == 1
    assert swallowed.idp == pytest.approx(0.5)

    # one object split across two tracks costs an identity switch
    split = CostTable(base={}, lift={}, labels={(0, 0): 1, (1, 0): 1, (2, 0): 1})
    torn = evaluate_tracking(split, [((0, 0), (1, 0)), ((2, 0),)])
    assert torn.identity_switches == 1
    assert torn.idf1 == pytest.approx(0.8)


def test_split_finds_the_interior_cut():
    table, detections = interior_punisher_table()
    pieces = split_track(table, tuple(detections), 6)
    assert pieces == [tuple(detections[:13]), tuple(detections[13:])]


def test_refinement_beats_the_single_track():
    table, detections = interior_punisher_table()
    config = TrackingConfig(fps=5.0, max_gap_frames=6, interval_length=15)
    result = run_tracking(table, config)
    assert result.iterations == 2
    assert result.objective_trace == [pytest.approx(-143.0)] * 2
    assert sorted(result.tracks) == [
        tuple(detections[:13]),
        tuple(detections[13:]),
    ]
    one_track = detection_objective(table, [tuple(detections)], 6)
    assert one_track == pytest.approx(-140.5)
    assert result.objective < one_track
    for before, after in zip(result.objective_trace, result.objective_trace[1:]):
        assert after <= before + 1e-9


def test_zero_iterations_return_the_interval_tracklets_unmerged():
    table, _ = interior_punisher_table()
    config = TrackingConfig(fps=5.0, max_gap_frames=6, interval_length=15, max_iterations=0)
    tracklets = tracking._interval_tracklets(table, config)
    result = run_tracking(table, config)
    assert (result.iterations, result.objective_trace) == (0, [])
    assert result.tracks == sorted(tracklets)
    assert result.tracklet_count == len(tracklets) > 1
    assert result.objective == detection_objective(table, result.tracks, 6)


def test_run_tracking_computes_each_objective_once(monkeypatch):
    calls = []
    objective = tracking.detection_objective

    def counted(*args):
        calls.append(args)
        return objective(*args)

    monkeypatch.setattr(tracking, "detection_objective", counted)
    table, _ = interior_punisher_table()
    config = TrackingConfig(fps=5.0, max_gap_frames=6, interval_length=15)
    result = run_tracking(table, config)
    assert len(calls) == result.iterations == 2
    assert result.objective == result.objective_trace[-1]
    calls.clear()
    result = run_tracking(table, TrackingConfig(
        fps=5.0, max_gap_frames=6, interval_length=15, max_iterations=0))
    assert (len(calls), result.objective_trace) == (1, [])
    assert result.objective == objective(table, result.tracks, 6)


def test_tracking_builds_one_instance_per_solve(monkeypatch):
    builds, solves = [], []
    build, solve = tracking.Instance.__init__, tracking.solve

    def counted_build(self, *args, **kwargs):
        builds.append(self)
        build(self, *args, **kwargs)

    def counted_solve(instance, *args, **kwargs):
        solves.append(instance)
        return solve(instance, *args, **kwargs)

    monkeypatch.setattr(tracking.Instance, "__init__", counted_build)
    monkeypatch.setattr(tracking, "solve", counted_solve)
    table, _ = interior_punisher_table()
    run_tracking(table, TrackingConfig(max_gap_frames=6, interval_length=15))
    run_tracking(
        planted_sequence(random.Random(5), frames=60, noise=0.3, clutter=8),
        TrackingConfig(max_gap_frames=6, interval_length=10),
    )
    assert len(solves) > 6
    assert builds == solves


def test_short_planted_scene_is_recovered_exactly():
    rng = random.Random(3)
    table = planted_sequence(rng, frames=40)
    config = TrackingConfig(fps=5.0, max_gap_frames=10, interval_length=20)
    result = run_tracking(table, config)
    metrics = evaluate_tracking(table, result.tracks)
    assert metrics.idf1 == 1.0
    assert metrics.misses == 0
    assert metrics.false_positives == 0
    assert result.iterations == 1
    assert len(result.tracks) == 3
    assert result.objective == pytest.approx(-1042.0)


def test_parallel_interval_solves_match_the_serial_run():
    table = planted_sequence(random.Random(4), frames=30, noise=0.2, clutter=4)
    assert len({f // 10 for f, _ in table.detections}) == 3
    serial = run_tracking(table, TrackingConfig(max_gap_frames=10, interval_length=10))
    parallel = run_tracking(
        table, TrackingConfig(max_gap_frames=10, interval_length=10, jobs=2)
    )
    assert parallel.tracks == serial.tracks
    assert parallel.objective_trace == serial.objective_trace


def test_stage_one_builds_each_interval_just_before_its_solve(monkeypatch):
    calls = []
    build, solve_one = tracking._build_detection_instance, tracking._solve_to_tracklets

    def recording_build(*args):
        calls.append("build")
        return build(*args)

    def recording_solve(job):
        calls.append("solve")
        return solve_one(job)

    monkeypatch.setattr(tracking, "_build_detection_instance", recording_build)
    monkeypatch.setattr(tracking, "_solve_to_tracklets", recording_solve)
    table = planted_sequence(random.Random(4), frames=30, noise=0.2, clutter=4)
    tracking._interval_tracklets(table, TrackingConfig(max_gap_frames=10, interval_length=10))
    assert calls == ["build", "solve"] * 3


@pytest.mark.parametrize("seed", range(3))
def test_whole_sequence_optimum_bounds_the_pipeline(seed):
    """Solved exactly, the unsparsified instance of a short sequence prices
    its own tracks at its objective, no worse than the pipeline's answer."""
    table = planted_sequence(random.Random(seed), frames=30, noise=0.2, clutter=4)
    instance, order = sequence_instance(table)
    result = solve(instance)
    assert result.status == "optimal"
    paths = active_st_paths(instance, result.solution)
    tracks = [tuple(order[v - 1] for v in path) for path in paths]
    assert result.objective == pytest.approx(detection_objective(table, tracks, 10), abs=1e-9)
    pipeline = run_tracking(table, TrackingConfig(max_gap_frames=10, interval_length=10))
    assert result.objective <= pipeline.objective + 1e-9


@pytest.mark.parametrize(
    "table, config",
    [
        (
            planted_sequence(random.Random(5), frames=60, noise=0.3, clutter=8),
            TrackingConfig(max_gap_frames=6, interval_length=10),
        ),
        # merged, then cut, then merged again
        (
            interior_punisher_table()[0],
            TrackingConfig(max_gap_frames=6, interval_length=15),
        ),
    ],
    ids=["planted", "cut"],
)
def test_tracklet_graph_matches_a_brute_force_build(monkeypatch, table, config):
    gap = config.gap_limit()
    rounds = []  # [tracklets, instance] per stage-2 solve
    merge, solve = tracking._solve_tracklet_graph, tracking.solve

    def recording_merge(table, tracklets, config):
        rounds.append([tracklets])
        return merge(table, tracklets, config)

    def recording_solve(instance, *args):
        if rounds and len(rounds[-1]) == 1:
            rounds[-1].append(instance)
        return solve(instance, *args)

    monkeypatch.setattr(tracking, "_solve_tracklet_graph", recording_merge)
    monkeypatch.setattr(tracking, "solve", recording_solve)
    run_tracking(table, config)
    assert rounds
    for tracklets, inst in rounds:
        nodes = dict(enumerate(sorted(tracklets, key=lambda t: t[0]), start=1))
        assert inst.n == len(nodes)
        links, cross = {}, {}
        for a, p in nodes.items():
            inside = [table.base.get(hop, 0.0) for hop in zip(p, p[1:])] + [
                table.lift.get((u, v), 0.0)
                for i, u in enumerate(p)
                for v in p[i + 1 :]
                if v[0] - u[0] <= gap
            ]
            assert inst.node_costs[a] == pytest.approx(math.fsum(inside))
            for b, q in nodes.items():
                if a == b:
                    continue
                if (p[-1], q[0]) in table.base and q[0][0] - p[-1][0] <= gap:
                    links[a, b] = table.base[p[-1], q[0]]
                cross[a, b] = math.fsum(
                    table.lift.get((u, v), 0.0)
                    for u in p
                    for v in q
                    if 0 < v[0] - u[0] <= gap
                )
        ends = {(SOURCE, a) for a in nodes} | {(a, SINK) for a in nodes}
        assert {(u, v) for u, v, _ in inst.base_edges if (u, v) in ends} == ends
        assert {
            (u, v): c for u, v, c in inst.base_edges if (u, v) not in ends
        } == links
        reach = oracles.reachable_sets(inst)
        expected = {
            (a, b): total for (a, b), total in cross.items() if total and b in reach[a]
        }
        lifted = {(u, v): c for u, v, c in inst.lifted_edges}
        assert lifted.keys() == expected.keys()
        assert lifted == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert links and lifted
