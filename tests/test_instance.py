"""Instance model: parsing, validation, reachability, labelings."""

from __future__ import annotations

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from generators import DEMO_TEXT, demo_instance, framed_instance, random_instance
from liftedpaths.instance import (
    SINK,
    SOURCE,
    FlowSolution,
    Instance,
    InstanceFormatError,
    InstanceValidationError,
    Reachability,
    active_st_paths,
    evaluate_objective,
    format_solution,
    lifted_labels_from_flow,
    parse_instance,
    parse_solution,
    serialize_instance,
    solution_from_paths,
)

SEEDS = st.integers(0, 10_000)


def test_source_and_sink_labels():
    assert SOURCE == 0
    assert SINK == -1


def test_demo_fields_and_canonical_round_trip():
    inst = demo_instance()
    assert inst.n == 4
    assert list(inst.inner_nodes()) == [1, 2, 3, 4]
    assert len(inst.base_index) == 7
    assert len(inst.lifted_index) == 2
    assert inst.base_cost(inst.base_index[(1, 3)]) == -1.0
    assert inst.lifted_cost(inst.lifted_index[(1, 4)]) == -1.25
    # the pair (2, 4) carries a base edge and a lifted edge with distinct costs
    assert inst.base_cost(inst.base_index[(2, 4)]) == -1.0
    assert inst.lifted_cost(inst.lifted_index[(2, 4)]) == -0.2
    assert serialize_instance(inst) == DEMO_TEXT


def test_frames_and_node_costs_round_trip():
    inst = framed_instance()
    assert inst.frames == {1: 1, 2: 2, 3: 2, 4: 3}
    assert inst.node_costs[1] == 0.25
    assert inst.node_costs[3] == -0.25
    assert inst.node_costs[2] == 0.0
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again.frames == inst.frames
    assert serialize_instance(again) == text


@pytest.mark.parametrize(
    "text, line, column, fragment",
    [
        ("nope\n", 1, 1, "must start with an 'ldp 1' header"),
        ("ldp 1\nnodes x\n", 2, 7, "node count must be an integer"),
        (
            "ldp 1\nnodes 2\nbase s 9 1.0\nbase 9 t 1.0\n",
            3,
            8,
            "dangling node id 9",
        ),
        (
            "ldp 1\nnodes 1\nbase s 1 zero\nbase 1 t 0.0\n",
            3,
            10,
            "expected a number",
        ),
        (
            "ldp 1\nnodes 1\nbase s 1 0.0\nbase 1 t 0.0\nwat 1 2 3\n",
            5,
            1,
            "unknown directive 'wat'",
        ),
    ],
)
def test_format_errors_carry_positions(text, line, column, fragment):
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(text)
    assert err.value.line == line
    assert err.value.column == column
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text, fragment",
    [
        (
            "ldp 1\nnodes 1\nbase s 1 0.0\nbase 1 t 0.0\nbase s 1 2.0\n",
            "duplicate base edge",
        ),
        (
            "ldp 1\nnodes 2\nbase s 1 0.0\nbase 1 t 0.0\n"
            "base s 2 0.0\nbase 2 t 0.0\nlift 1 2 1.0\n",
            "no base route",
        ),
        (
            "ldp 1\nnodes 2\nbase s 1 0.0\nbase 1 2 0.0\nbase 2 1 0.0\nbase 2 t 0.0\n",
            "cycle detected",
        ),
        (
            "ldp 1\nnodes 2\nbase s 1 0.0\nbase 1 t 0.0\nbase s 2 0.0\n",
            "unreachable node 2",
        ),
    ],
)
def test_validation_errors_name_the_defect(text, fragment):
    with pytest.raises(InstanceValidationError) as err:
        parse_instance(text)
    assert fragment in str(err.value)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_reachability_matches_breadth_first_search(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_inner=8, max_base=16, max_lift=5)
    reach = inst.reachability
    table = oracles.reachable_sets(inst)
    for v in inst.inner_nodes():
        assert reach.reaches(v, v), "reachability must be reflexive"
        for w in inst.inner_nodes():
            assert reach.reaches(v, w) == (w in table[v])


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_on_demand_reachability_matches_the_dense_table(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_inner=12, max_base=30, max_lift=5)
    dense, on_demand = Reachability(inst), Reachability(inst, _bitset_limit=0)
    assert dense._dense and not on_demand._dense
    nodes = [SOURCE, *inst.inner_nodes(), SINK]
    pairs = [(v, w) for v in nodes for w in nodes]
    rng.shuffle(pairs)  # rows are memoized in whatever order they are asked for
    for v, w in pairs:
        assert on_demand.reaches(v, w) == dense.reaches(v, w)


def test_an_instance_with_reachability_is_freed_without_the_collector():
    inst = framed_instance()
    assert inst.reachability.reaches(1, inst.n)
    ref = weakref.ref(inst)
    gc.disable()
    try:
        del inst
        assert ref() is None, "a reference cycle keeps the instance alive"
    finally:
        gc.enable()


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_topological_positions_respect_edges(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_inner=10, max_base=20, max_lift=0)
    pos = {v: inst.topo_position(v) for v in inst.inner_nodes()}
    assert len(set(pos.values())) == inst.n
    for (u, v) in inst.base_index:
        if u != SOURCE and v != SINK:
            assert pos[u] < pos[v]


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_labelings_round_trip_and_price_correctly(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_inner=8, max_base=16, max_lift=6)
    routes = oracles.all_paths(inst)
    rng.shuffle(routes)
    chosen: list[tuple[int, ...]] = []
    used: set[int] = set()
    for p in routes:
        if used.isdisjoint(p):
            chosen.append(p)
            used.update(p)
    solution = solution_from_paths(inst, chosen)
    assert isinstance(solution, FlowSolution)
    assert solution.objective == pytest.approx(
        oracles.labeling_cost(inst, chosen), abs=1e-9
    )
    assert evaluate_objective(inst, solution) == pytest.approx(
        solution.objective, abs=1e-9
    )
    assert sorted(active_st_paths(inst, solution)) == sorted(chosen)
    assert solution.active_nodes() == tuple(sorted(used))
    assert solution.y_lifted == oracles.lifted_labels(inst, chosen)
    assert lifted_labels_from_flow(inst, solution.x, solution.y) == solution.y_lifted

    text = format_solution(inst, solution)
    objective, paths = parse_solution(text)
    assert objective == pytest.approx(solution.objective, abs=1e-9)
    assert sorted(paths) == sorted(chosen)
