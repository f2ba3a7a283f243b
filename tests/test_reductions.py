"""Deciding satisfiability and network routability through the solver."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from generators import (
    SATISFIABLE_FORMULA as SATISFIABLE,
    UNSATISFIABLE_FORMULA as UNSATISFIABLE,
    random_formula,
    random_net,
    worked_net,
)
from liftedpaths.driver import SolverConfig, solve
from liftedpaths.instance import SINK, SOURCE, Instance, InstanceFormatError
from liftedpaths.reductions import (
    _DECISION_TOL,
    _prune_to_routes,
    DecisionLimitError,
    McfProblem,
    ReductionError,
    decide_mcf,
    decide_sat,
    parse_dimacs,
    parse_mcf,
    reduce_mcf,
    reduce_sat,
)

SEEDS = st.integers(0, 10_000)

WORKED_NET = worked_net()


def test_satisfiable_formula_reduction_shape():
    reduction = reduce_sat(SATISFIABLE)
    inst = reduction.instance
    assert inst.n == 3 * len(SATISFIABLE)
    assert len(reduction.node_literal) == inst.n
    variables = {abs(lit) for lit in reduction.node_literal.values()}
    assert variables <= {1, 2, 3, 4, 5}
    assert reduction.threshold == -3.0
    # each clause's three nodes carry that clause's literals
    for index, clause in enumerate(SATISFIABLE):
        nodes = range(3 * index + 1, 3 * index + 4)
        assert {reduction.node_literal[v] for v in nodes} == set(clause)


def test_satisfiable_formula_decision_and_certificate():
    result = solve(reduce_sat(SATISFIABLE).instance)
    reference, _ = oracles.best_labeling(reduce_sat(SATISFIABLE).instance)
    assert result.objective == pytest.approx(reference, abs=1e-9)
    assert result.objective == pytest.approx(-9.0, abs=1e-9)

    verdict, assignment = decide_sat(SATISFIABLE)
    assert verdict is True
    assert assignment is not None
    for clause in SATISFIABLE:
        assert oracles.clause_satisfied(clause, assignment)


def test_unsatisfiable_formula_is_rejected():
    assert decide_sat(UNSATISFIABLE) == (False, None)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_random_formulas_match_the_truth_table(seed):
    rng = random.Random(seed)
    clauses = random_formula(rng)
    verdict, assignment = decide_sat(clauses)
    reference = oracles.sat_assignment(clauses)
    assert verdict == (reference is not None)
    if verdict:
        for clause in clauses:
            assert oracles.clause_satisfied(clause, assignment)
    else:
        assert assignment is None


def test_parse_dimacs_reads_clauses():
    text = "c comment\np cnf 5 4\n1 2 -3 0\n1 3 -4 0\n-1 3 5 0\n-1 3 -5 0\n"
    assert parse_dimacs(text) == SATISFIABLE


def test_parse_dimacs_stops_at_the_satlib_end_marker():
    assert parse_dimacs("p cnf 3 1\n 1 -2 3 0\n%\n0\n") == [(1, -2, 3)]
    with pytest.raises(InstanceFormatError, match="bad literal '%2'"):
        parse_dimacs("p cnf 3 1\n 1 -2 3 0\n%2\n")


def test_parse_dimacs_requires_three_literals():
    with pytest.raises(InstanceFormatError, match="need exactly 3"):
        parse_dimacs("p cnf 2 1\n1 2 0\n")


def test_worked_net_decisions():
    assert decide_mcf(WORKED_NET) is True
    overloaded = McfProblem(edges=WORKED_NET.edges, commodities=((1, 8, 3), (2, 9, 1)))
    assert decide_mcf(overloaded) is False


def test_reduction_thresholds_count_demand_units():
    reduction = reduce_mcf(WORKED_NET)
    assert reduction.threshold == -4.0
    assert solve(reduction.instance).objective == pytest.approx(-4.0, abs=1e-9)
    narrow = McfProblem(edges=((1, 3), (3, 2)), commodities=((1, 2, 2),))
    assert reduce_mcf(narrow).threshold == -2.0
    assert solve(reduce_mcf(narrow).instance).objective == pytest.approx(-1.0)
    assert decide_mcf(narrow) is False


def test_diamond_routes_two_units():
    diamond = McfProblem(
        edges=((1, 3), (1, 4), (3, 2), (4, 2)), commodities=((1, 2, 2),)
    )
    assert decide_mcf(diamond) is True


def test_direct_arcs_and_cycles_are_rejected():
    with pytest.raises(ReductionError, match="shadows its own commodity"):
        McfProblem(edges=((1, 2),), commodities=((1, 2, 1),))
    with pytest.raises(ReductionError, match="directed cycle"):
        McfProblem(edges=((1, 3), (3, 1), (3, 2)), commodities=((1, 2, 1),))
    with pytest.raises(ReductionError, match="directed cycle"):
        # No commodity source reaches the cycle 4 -> 5 -> 4.
        McfProblem(edges=((1, 3), (3, 2), (4, 5), (5, 4)), commodities=((1, 2, 1),))


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_random_nets_match_the_packing_search(seed):
    rng = random.Random(seed)
    problem = random_net(rng)
    assert decide_mcf(problem) == oracles.net_routable(
        problem.edges, problem.commodities
    )


def test_the_cutoff_decides_only_the_negative_verdicts():
    # Each "no" is decided by a master bound above the threshold; each "yes"
    # solves as it would without a cutoff.
    verdicts = set()
    for seed in range(40):
        problem = random_net(random.Random(seed))
        reduction = reduce_mcf(problem)
        cut = solve(reduction.instance, cutoff=reduction.threshold + _DECISION_TOL)
        routable = oracles.net_routable(problem.edges, problem.commodities)
        verdicts.add(routable)
        assert decide_mcf(problem) == routable
        if routable:
            plain = solve(reduction.instance)
            assert (cut.status, cut.objective) == ("optimal", plain.objective)
            assert cut.objective <= reduction.threshold + _DECISION_TOL
        else:
            assert cut.status == "cutoff"
            assert not cut.certified
    assert verdicts == {True, False}


def test_parse_mcf_reads_edges_and_demands():
    problem = parse_mcf("# a comment\nedge 1 3\nedge 3 2\npair 1 2 1\n")
    assert problem.edges == ((1, 3), (3, 2))
    assert problem.commodities == ((1, 2, 1),)


def test_a_decision_stopped_by_a_limit_raises_the_limit_error():
    no_rounds = SolverConfig(max_rounds=0)
    with pytest.raises(DecisionLimitError, match="status round_limit") as sat:
        decide_sat(SATISFIABLE, no_rounds)
    with pytest.raises(DecisionLimitError, match="status time_limit") as mcf:
        decide_mcf(WORKED_NET, SolverConfig(time_limit=0.0))
    assert (sat.value.status, mcf.value.status) == ("round_limit", "time_limit")
    assert isinstance(sat.value, RuntimeError)


def _raw_dag(rng: random.Random):
    """An acyclic edge list over inner nodes 1..n with sparse entry and exit
    arcs, so some nodes miss every route, and lifted pairs, connected or
    not, one of them against the edges."""
    n = rng.randint(1, 10)
    base = [(SOURCE, v, 0.5) for v in range(1, n + 1) if rng.random() < 0.4]
    base += [(v, SINK, -0.5) for v in range(1, n + 1) if rng.random() < 0.4]
    base += [
        (u, v, -1.0) for u in range(1, n) for v in range(u + 1, n + 1) if rng.random() < 0.4
    ]
    rng.shuffle(base)
    forward = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    backward = [(v, u) for u, v in forward[:1]]
    pairs = rng.sample(forward, min(len(forward), 6)) + backward
    lifted = [(u, v, rng.choice([-1.0, 2.0])) for u, v in pairs]
    return n, base, lifted


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_pruning_keeps_route_nodes_and_connected_lifted_pairs(seed):
    n, base, lifted = _raw_dag(random.Random(seed))
    kept, base_kept, lifted_kept = oracles.prune_to_routes(n, base, lifted)
    instance, remap = _prune_to_routes(n, base, lifted)
    assert instance.n == len(kept)
    assert remap == {SOURCE: SOURCE, SINK: SINK, **{v: i for i, v in enumerate(kept, 1)}}
    assert list(instance.base_edges) == base_kept
    assert list(instance.lifted_edges) == lifted_kept


def test_pruning_drops_every_lifted_pair_when_none_survives():
    # 1 -> 2 -> 3 is a route; 4 has no exit and 5 no entry, and (3, 1)
    # runs against the edges, so no lifted pair survives.
    base = [(SOURCE, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0), (3, SINK, 0.0),
            (2, 4, 0.0), (SOURCE, 4, 0.0), (5, 3, 0.0)]
    lifted = [(1, 4, -1.0), (5, 3, -1.0), (3, 1, -1.0)]
    assert oracles.prune_to_routes(5, base, lifted)[2] == []
    instance, remap = _prune_to_routes(5, base, lifted)
    assert (instance.n, instance.lifted_edges) == (3, ())
    assert remap == {SOURCE: SOURCE, SINK: SINK, 1: 1, 2: 2, 3: 3}


def test_each_reduction_builds_exactly_one_instance(monkeypatch):
    builds = []
    build = Instance.__init__

    def counted(self, *args, **kwargs):
        builds.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(Instance, "__init__", counted)
    reductions = [reduce_sat(SATISFIABLE), reduce_sat(UNSATISFIABLE), reduce_mcf(WORKED_NET)]
    reductions += [reduce_mcf(random_net(random.Random(seed))) for seed in range(20)]
    assert builds == [r.instance for r in reductions]
