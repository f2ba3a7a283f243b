"""Constraint builders: soundness on feasible labelings, shapes, witnesses."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from generators import demo_instance, framed_instance, random_instance
from liftedpaths.bounds import ALL_FAMILIES, enumerate_family
from liftedpaths.constraints import (
    PathWitness,
    SolutionValues,
    base_var,
    build_flow_conservation,
    build_lifted_flow_inequalities,
    build_lifted_path_induced_cut,
    build_multicut_path_inequality,
    build_symmetric_cut,
    lift_var,
    node_var,
    witness_from_base_path,
)
from liftedpaths.driver import build_initial_constraints, solve
from liftedpaths.instance import SOURCE, FlowSolution, solution_from_paths
from liftedpaths.milp import LinearConstraint, check_violation

SEEDS = st.integers(0, 10_000)


def every_feasible_labeling(inst):
    for fam in oracles.disjoint_families(oracles.all_paths(inst)):
        yield solution_from_paths(inst, fam)


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_every_family_row_admits_every_feasible_labeling(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_inner=6, max_base=12, max_lift=4)
    rows = []
    for family in ALL_FAMILIES:
        rows.extend(enumerate_family(inst, inst.reachability, family, max_path_len=6))
    rows.extend(build_initial_constraints(inst))
    for solution in every_feasible_labeling(inst):
        values = SolutionValues(inst, solution)
        for row in rows:
            assert check_violation(row, values) == 0.0, row.format()


def test_solution_values_expose_one_value_per_variable():
    inst = demo_instance()
    solution = solve(inst).solution
    values = SolutionValues(inst, solution)
    handles = (
        [node_var(v) for v in range(1, inst.n + 1)]
        + [base_var(i) for i in range(len(inst.base_index))]
        + [lift_var(i) for i in range(len(inst.lifted_index))]
    )
    # every variable of the formulation resolves, and integrally here
    assert all(values[h] in (0.0, 1.0) for h in handles)
    assert values[node_var(1)] == 1.0
    assert values[node_var(2)] == 0.0
    assert values[base_var(inst.base_index[(1, 3)])] == 1.0
    assert values[lift_var(inst.lifted_index[(1, 4)])] == 1.0
    assert values[lift_var(inst.lifted_index[(2, 4)])] == 0.0


def test_flow_conservation_is_a_pair_of_equalities():
    inst = demo_instance()
    rows = build_flow_conservation(inst, 1)
    assert len(rows) == 2
    assert all(row.sense == "=" for row in rows)
    assert all(row.tag == "flow" for row in rows)


def single_node_cuts(inst, li):
    """The cut along the one-node witness (v,) and the mirror along (w,)."""
    v, w, _ = inst.lifted_edges[li]
    return (
        build_lifted_path_induced_cut(inst, inst.reachability, li, PathWitness((v,))),
        build_symmetric_cut(inst, inst.reachability, li, PathWitness((w,))),
    )


def test_single_node_cuts_pin_the_demo_labels():
    inst = demo_instance()
    good = SolutionValues(inst, solve(inst).solution)
    li = inst.lifted_index[(1, 4)]
    for row in single_node_cuts(inst, li):
        assert check_violation(row, good) == 0.0
    # claiming the (2, 4) connection without routing through node 2 is caught
    sol = solve(inst).solution
    li24 = inst.lifted_index[(2, 4)]
    lying = FlowSolution(
        sol.x,
        sol.y,
        tuple(1 if i == li24 else b for i, b in enumerate(sol.y_lifted)),
        sol.objective,
    )
    bad = SolutionValues(inst, lying)
    out_cut, _ = single_node_cuts(inst, li24)
    assert check_violation(out_cut, bad) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_one_node_witness_cuts_are_the_single_node_cuts(seed):
    """For a lifted edge (v, w), the paper's single-node cut bounds y'_vw by
    v's out-edges into nodes that reach w, and its mirror by w's in-edges
    from inner nodes that v reaches.  The reference reads the base edges and
    a closure of its own."""
    inst = random_instance(random.Random(seed), max_inner=8, max_base=18, max_lift=6)
    reaches = oracles.reachable_sets(inst)
    for li, (v, w, _) in enumerate(inst.lifted_edges):
        out_terms = [(lift_var(li), 1.0)]
        in_terms = [(lift_var(li), 1.0)]
        for e, (a, b, _) in enumerate(inst.base_edges):
            if a == v and w in reaches[b]:
                out_terms.append((base_var(e), -1.0))
            if b == w and a != SOURCE and a in reaches[v]:
                in_terms.append((base_var(e), -1.0))
        expected = [LinearConstraint(tuple(t), "<=", 0.0, "") for t in (out_terms, in_terms)]
        assert [row.key() for row in single_node_cuts(inst, li)] == [
            row.key() for row in expected
        ]


def test_witness_from_base_path_round_trip():
    inst = demo_instance()
    witness = witness_from_base_path(inst, (1, 3, 4))
    assert witness.nodes == (1, 3, 4)
    assert witness.base_edges == (inst.base_index[(1, 3)], inst.base_index[(3, 4)])
    assert witness.lifted_edges == ()
    assert witness.node_set == frozenset({1, 3, 4})
    witness.validate(inst)


def test_witness_validation_requires_a_cover():
    inst = demo_instance()
    with pytest.raises(ValueError, match="not covered"):
        PathWitness(nodes=(1, 4), base_edges=(0,)).validate(inst)
    with pytest.raises(ValueError, match="not covered"):
        PathWitness(nodes=(1, 3), base_edges=()).validate(inst)
    PathWitness(nodes=(1,)).validate(inst)  # a lone node needs no edges


def test_multicut_path_inequality_takes_a_base_witness_of_its_edge():
    inst = demo_instance()
    li14 = inst.lifted_index[(1, 4)]
    row = build_multicut_path_inequality(inst, li14, witness_from_base_path(inst, (1, 3, 4)))
    assert row.terms == (
        (lift_var(li14), 1.0),
        (base_var(inst.base_index[(1, 3)]), -1.0),
        (base_var(inst.base_index[(3, 4)]), -1.0),
    )
    assert (row.sense, row.rhs) == (">=", -1.0)
    shortcut = PathWitness(nodes=(1, 4), lifted_edges=(li14,))
    with pytest.raises(ValueError, match="pure base witness"):
        build_multicut_path_inequality(inst, li14, shortcut)
    with pytest.raises(ValueError, match="lifted tail to the lifted head"):
        build_multicut_path_inequality(inst, li14, witness_from_base_path(inst, (1, 3)))


def test_plain_mirrored_cut_needs_a_start_the_tail_reaches():
    """Node 2 starts a base path into 4, but the lifted tail 1 does not
    reach it; nor is the tail itself a start."""
    inst = demo_instance()
    li14 = inst.lifted_index[(1, 4)]
    for nodes in ((2, 4), (1, 3, 4)):
        witness = witness_from_base_path(inst, nodes)
        with pytest.raises(ValueError, match="reachable from the lifted tail"):
            build_symmetric_cut(inst, inst.reachability, li14, witness, strengthened=False)
    row = build_symmetric_cut(inst, inst.reachability, li14, witness_from_base_path(inst, (3, 4)))
    assert row.tag == "sym-lifted-path-cut"


def test_lifted_flow_rows_need_frames():
    inst = demo_instance()
    with pytest.raises(ValueError, match="frame annotations"):
        build_lifted_flow_inequalities(inst)
    framed = framed_instance()
    rows = build_lifted_flow_inequalities(framed)
    assert rows, "framed instances must produce rows"
    assert all(row.tag == "lifted-flow" for row in rows)
    for solution in every_feasible_labeling(framed):
        values = SolutionValues(framed, solution)
        for row in rows:
            assert check_violation(row, values) == 0.0, row.format()
