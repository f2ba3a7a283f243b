"""Separation: violated rows found for wrong labels, silence at the optimum."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import demo_instance, random_instance_with_lift
from liftedpaths.constraints import SolutionValues
from liftedpaths.driver import solve
from liftedpaths.instance import (
    SINK,
    SOURCE,
    FlowSolution,
    Instance,
    active_st_paths,
    solution_from_paths,
)
from liftedpaths.milp import check_violation
from liftedpaths.separation import (
    _extract,
    _PathIndex,
    separate_lifted_cut,
    separate_lifted_path,
)

SEEDS = st.integers(0, 10_000)


def flipped(solution, index):
    labels = tuple(
        1 - b if i == index else b for i, b in enumerate(solution.y_lifted)
    )
    return FlowSolution(solution.x, solution.y, labels, solution.objective)


@settings(max_examples=20, deadline=None)
@given(SEEDS)
def test_separators_stay_silent_at_the_optimum(seed):
    rng = random.Random(seed)
    inst = random_instance_with_lift(rng, max_inner=9, max_base=18, max_lift=6)
    solution = solve(inst).solution
    assert separate_lifted_path(inst, solution).constraints == []
    assert separate_lifted_cut(inst, solution).constraints == []


@settings(max_examples=20, deadline=None)
@given(SEEDS)
def test_label_flips_are_caught_and_cuts_keep_the_truth(seed):
    rng = random.Random(seed)
    inst = random_instance_with_lift(rng, max_inner=9, max_base=18, max_lift=6)
    solution = solve(inst).solution
    honest = SolutionValues(inst, solution)
    for index in range(len(solution.y_lifted)):
        lying = flipped(solution, index)
        values = SolutionValues(inst, lying)
        found = (
            separate_lifted_path(inst, lying).constraints
            + separate_lifted_cut(inst, lying).constraints
        )
        assert found, f"flip of lifted label {index} went unnoticed"
        for row in found:
            assert check_violation(row, values) > 0.0, row.format()
            assert check_violation(row, honest) == 0.0, row.format()


@settings(max_examples=20, deadline=None)
@given(SEEDS)
def test_reports_account_for_their_findings(seed):
    rng = random.Random(seed)
    inst = random_instance_with_lift(rng, max_inner=9, max_base=18, max_lift=6)
    solution = solve(inst).solution
    for index in range(len(solution.y_lifted)):
        lying = flipped(solution, index)
        # Every active path contributes len(path) + 1 active base edges.
        active_base = sum(len(p) + 1 for p in active_st_paths(inst, lying))
        for separate in (separate_lifted_path, separate_lifted_cut):
            report = separate(inst, lying)
            assert report.items_inspected == active_base + len(inst.lifted_edges)


def extract(instance, solution, v, w):
    """The witness from v to w over the separators' index of `solution`."""
    index = _PathIndex(instance, solution)
    return _extract(index, index.where[v][0], v, w)


def test_extract_path_prefers_active_lifted_shortcuts():
    inst = demo_instance()
    solution = solve(inst).solution
    witness = extract(inst, solution, 1, 4)
    assert witness.nodes == (1, 4)
    assert witness.base_edges == ()
    assert witness.lifted_edges == (inst.lifted_index[(1, 4)],)
    witness.validate(inst)


def test_extract_path_walks_base_edges_without_lifted_help():
    chain = Instance(2, [(SOURCE, 1, 0.0), (1, 2, -1.0), (2, SINK, 0.0)])
    solution = solution_from_paths(chain, [(1, 2)])
    witness = extract(chain, solution, 1, 2)
    assert witness.nodes == (1, 2)
    assert witness.base_edges == (chain.base_index[(1, 2)],)
    assert witness.lifted_edges == ()
    witness.validate(chain)
