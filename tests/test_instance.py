"""Instance model: parsing, validation, reachability, labelings."""

from __future__ import annotations

import gc
import random
import re
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
    InstanceError,
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
            "cycle",
        ),
        (
            "ldp 1\nnodes 3\nbase s 1 0.0\nbase 1 t 0.0\nbase 2 3 0.0\nbase 3 2 0.0\n",
            "unreachable node 2",
        ),
        (
            "ldp 1\nnodes 2\nbase s 1 0.0\nbase 1 t 0.0\nbase s 2 0.0\n",
            "unreachable node 2",
        ),
        # rejected before anything is allocated per node
        ("ldp 1\nnodes 1000000000000\n", "1000000000000 inner nodes but only 0 base edges"),
        ("ldp 1\nnodes 1\nbase s 1 0.0\nbase 1 t 0.0\nbase 1 1 0.0\n", "self-loop at 1"),
        (
            "ldp 1\nnodes 1\nbase s 1 0.0\nbase 1 t 0.0\nbase s t 0.0\n",
            "direct source->sink edge is not allowed",
        ),
        (
            "ldp 1\nnodes 2\nbase s 1 0.0\nbase 1 2 0.0\nbase 2 t 0.0\nlift 2 2 1.0\n",
            "lifted self-loop at 2",
        ),
        (
            "ldp 1\nnodes 2\nframe 1 1\nbase s 1 0.0\nbase 1 2 0.0\nbase 2 t 0.0\n",
            "node 2 has no frame but frames are in use",
        ),
        (
            "ldp 1\nnodes 2\nframe 1 1\nframe 2 1\nbase s 1 0.0\nbase 1 2 0.0\nbase 2 t 0.0\n",
            "base edge (1,2) does not advance in frame order",
        ),
        # a lifted edge against frame order is rejected at its base route
        (
            "ldp 1\nnodes 2\nframe 1 2\nframe 2 1\nbase s 1 0.0\nbase 1 2 0.0\n"
            "base 2 t 0.0\nlift 1 2 1.0\n",
            "base edge (1,2) does not advance in frame order",
        ),
    ],
)
def test_validation_errors_name_the_defect(text, fragment):
    with pytest.raises(InstanceValidationError) as err:
        parse_instance(text)
    assert fragment in str(err.value)


_CHAIN = [(SOURCE, 1, 0.0), (1, 2, 0.0), (2, SINK, 0.0)]


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, []), "inner node count must be >= 0"),
        ((2, _CHAIN, (), {3: 1.0}), "node cost for unknown node 3"),
        ((2, [(SOURCE, 1, 0.0), (1, 2, float("nan")), (2, SINK, 0.0)]),
         "non-finite cost on edge (1,2)"),
        ((2, _CHAIN, [(1, 2, float("inf"))]), "non-finite cost on edge (1,2)"),
        ((2, _CHAIN, (), {1: -float("inf")}), "non-finite node cost"),
        ((2, _CHAIN + [(3, SINK, 0.0)]), "dangling node id 3 in base edge"),
        ((2, _CHAIN + [(1, 5, 0.0)]), "dangling node id 5 in base edge"),
        ((2, _CHAIN, [(1, 3, 0.0)]), "lifted edge endpoint outside inner nodes: (1,3)"),
        ((2, _CHAIN, [(SOURCE, 2, 0.0)]), "lifted edge endpoint outside inner nodes: (0,2)"),
    ],
)
def test_instance_rejects_what_the_parser_cannot_write(args, message):
    with pytest.raises(InstanceValidationError, match=re.escape(message)):
        Instance(*args)


_NODE_TOKENS = st.one_of(
    st.sampled_from(["s", "t", "0", "-1", "x", "1.5", "+2", "1_0"]),
    st.integers(1, 8).map(str),
)
_COST_TOKENS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e999", "abc", "-0.0", "0x1p-2"]),
    st.floats(-4, 4, allow_nan=False).map(repr),
)


@st.composite
def _directive_lines(draw):
    words = ["base"] * 6 + ["lift"] * 2 + ["frame", "ncost", "nodes", "ldp", "wat"]
    word = draw(st.sampled_from(words))
    if word == "nodes":
        args = [draw(st.one_of(st.integers(-2, 10**12).map(str), st.sampled_from(["x", "2.0"])))]
    elif word == "frame":
        args = [draw(_NODE_TOKENS), draw(st.one_of(st.integers(-3, 9).map(str), _COST_TOKENS))]
    elif word == "ncost":
        args = [draw(_NODE_TOKENS), draw(_COST_TOKENS)]
    elif word in ("base", "lift"):
        args = [draw(_NODE_TOKENS), draw(_NODE_TOKENS), draw(_COST_TOKENS)]
    else:
        args = [draw(st.sampled_from(["1", "2"]))]
    if draw(st.integers(0, 9)) == 0:  # a wrong argument count
        args = args[: draw(st.integers(0, len(args)))] + draw(st.lists(_NODE_TOKENS, max_size=2))
    return " ".join([word, *args])


@st.composite
def _instance_texts(draw):
    """Directive soup, or a valid instance's text with lines dropped,
    repeated or replaced by another directive."""
    if draw(st.booleans()):
        header = draw(st.sampled_from(["ldp 1"] * 8 + ["ldp 2", "ldp", "nodes 3"]))
        nodes = draw(st.one_of(st.integers(0, 8), st.integers(0, 10**12)))
        body = draw(st.lists(_directive_lines(), max_size=25))
        lines = [header, f"nodes {nodes}", *body]
    else:
        rng = random.Random(draw(SEEDS))
        lines = serialize_instance(random_instance(rng, max_inner=6, max_base=14)).splitlines()
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(lines) - 1))
            edit = draw(st.sampled_from(["drop", "repeat", "replace"]))
            if edit == "drop":
                del lines[at]
            elif edit == "repeat":
                lines.insert(at, lines[at])
            else:
                lines[at] = draw(_directive_lines())
            if not lines:
                break
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_instance_texts())
def test_parse_instance_raises_only_instance_errors_or_round_trips(text):
    try:
        inst = parse_instance(text)
    except InstanceError:
        return
    canonical = serialize_instance(inst)
    assert serialize_instance(parse_instance(canonical)) == canonical


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_reachability_matches_breadth_first_search(seed):
    """Every pair over source, inner nodes and sink, asked in a shuffled
    order: memoized rows must not depend on the order of the questions."""
    rng = random.Random(seed)
    inst = random_instance(rng, max_inner=12, max_base=30, max_lift=5)
    table = oracles.reachable_sets(inst)
    nodes = [SOURCE, *inst.inner_nodes(), SINK]
    pairs = [(v, w) for v in nodes for w in nodes]
    rng.shuffle(pairs)
    for reach in (inst.reachability, Reachability(inst.n, inst.base_edges)):
        for v, w in pairs:
            assert reach.reaches(v, w) == (w in table[v]), (v, w)
        for v in nodes:
            assert reach.reaches(v, v), "reachability must be reflexive"


def test_reachability_rejects_a_cycle_instead_of_looping():
    reach = Reachability(3, [(SOURCE, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0), (3, 2, 0.0)])
    with pytest.raises(InstanceValidationError, match="cycle through node"):
        reach.row(SOURCE)
    with pytest.raises(InstanceValidationError, match="cycle through node 1"):
        Reachability(1, [(1, 1, 0.0)]).row(1)


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
