"""The solving loop: exactness, certification, limits, cut pools."""

from __future__ import annotations

import dataclasses
import math
import random
import re
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import (
    DEMO_OBJECTIVE,
    DEMO_PATH,
    ONE_CUT_MASTER_OBJECTIVE,
    ONE_CUT_OBJECTIVE,
    SATISFIABLE_FORMULA,
    TWO_ROUND_OBJECTIVE,
    demo_instance,
    framed_instance,
    half_integer,
    interval_instance,
    one_cut_instance,
    random_instance,
    random_instance_with_lift,
    tightening_instance,
    two_round_instance,
)
from liftedpaths import driver, milp
from liftedpaths.constraints import (
    TAG_FLOW,
    TAG_LIFTED_FLOW,
    TAG_LIFTED_PATH,
    TAG_LIFTED_PATH_CUT,
    TAG_SYM_LIFTED_PATH_CUT,
    PathWitness,
    SolutionValues,
    base_var,
    build_flow_conservation,
    build_lifted_flow_inequalities,
    build_lifted_path_induced_cut,
    build_lifted_path_inequality,
    build_symmetric_cut,
    lift_var,
    node_var,
    witness_from_base_path,
)
from liftedpaths.driver import (
    RoundStats,
    SolverConfig,
    build_initial_constraints,
    certify,
    master_variables,
    solve,
)
from liftedpaths.instance import (
    _LABELS,
    SINK,
    SOURCE,
    FlowSolution,
    Instance,
    Reachability,
    active_st_paths,
    evaluate_objective,
    solution_from_paths,
)
from liftedpaths.milp import MilpError, check_violation
from liftedpaths.oracle import all_st_paths, brute_force_optimum
from liftedpaths.reductions import reduce_sat
from liftedpaths.separation import separate_lifted_cut

SEEDS = st.integers(0, 10_000)


def test_demo_solves_in_one_round():
    res = solve(demo_instance())
    assert res.status == "optimal"
    assert res.certified
    assert res.objective == pytest.approx(DEMO_OBJECTIVE, abs=1e-9)
    assert res.rounds == 1
    assert active_st_paths(demo_instance(), res.solution) == [DEMO_PATH]
    assert len(res.trace) == 1
    stats = res.trace[0]
    assert stats.round == 1
    assert stats.master_objective == pytest.approx(DEMO_OBJECTIVE)
    assert res.cuts


def test_the_one_cut_master_optimum_is_unique():
    inst = one_cut_instance()
    variables, costs = master_variables(inst)
    pool = build_initial_constraints(inst)
    master = milp.solve_binary(variables, costs, pool)
    assert master.status == "optimal"
    assert master.objective == pytest.approx(ONE_CUT_MASTER_OBJECTIVE, abs=1e-9)
    # A no-good row cuts off exactly this 0/1 point; the next-best master
    # point is worse, so no tie-breaking can pick another first master.
    ones = [h for h, x in zip(variables, master.values) if x]
    zeros = [h for h, x in zip(variables, master.values) if not x]
    nogood = milp.LinearConstraint(
        tuple((h, 1.0) for h in ones) + tuple((h, -1.0) for h in zeros),
        "<=",
        len(ones) - 1.0,
        "no-good",
    )
    runner_up = milp.solve_binary(variables, costs, list(pool) + [nogood])
    assert runner_up.status == "optimal"
    assert runner_up.objective > master.objective + 1.0
    point = driver._solution_from_values(inst, master)
    assert {row.tag for row in certify(inst, point)} == {TAG_LIFTED_PATH}


def test_two_round_text_reaches_the_optimum_in_at_most_two_rounds():
    # Its first master has tied optima: one certifies at once, another needs
    # a connectivity cut.  Every optimum has these properties.
    res = solve(two_round_instance())
    assert res.status == "optimal"
    assert res.certified
    assert res.rounds in (1, 2)
    assert res.objective == pytest.approx(TWO_ROUND_OBJECTIVE, abs=1e-9)
    assert all(s.master_objective == pytest.approx(TWO_ROUND_OBJECTIVE) for s in res.trace)


def test_two_round_instance_needs_one_connectivity_cut():
    inst = one_cut_instance()
    res = solve(inst)
    assert res.status == "optimal"
    assert res.certified
    assert res.rounds == 2
    assert res.objective == pytest.approx(ONE_CUT_OBJECTIVE, abs=1e-9)
    assert [s.master_objective for s in res.trace] == [
        pytest.approx(ONE_CUT_MASTER_OBJECTIVE),
        pytest.approx(ONE_CUT_OBJECTIVE),
    ]
    assert res.trace[0].cuts_added == {"lifted-path": 1}
    assert res.trace[1].cuts_added == {}


def test_a_round_that_finds_only_pooled_cuts_raises(monkeypatch):
    # `one_cut_instance` solves in 2 rounds; round 1 separates one row.
    reports = []
    separate = driver.separate_lifted_path

    def repeating(instance, solution):
        reports.append(separate(instance, solution))
        return reports[0]  # round 2 finds round 1's rows again

    monkeypatch.setattr(driver, "separate_lifted_path", repeating)
    with pytest.raises(RuntimeError, match="only cuts already in the pool"):
        solve(one_cut_instance())
    assert len(reports) == 2
    assert [row.tag for row in reports[0].constraints] == [TAG_LIFTED_PATH]


def test_a_master_objective_that_falls_across_rounds_fails_the_assert(monkeypatch):
    masters = []
    solve_binary = driver.solve_binary

    def falling(*args, **kwargs):
        master = solve_binary(*args, **kwargs)
        masters.append(master)
        if len(masters) == 2:
            return dataclasses.replace(master, objective=master.objective - 100.0)
        return master

    monkeypatch.setattr(driver, "solve_binary", falling)
    with pytest.raises(AssertionError, match="decreased across rounds"):
        solve(one_cut_instance())
    assert len(masters) == 2


def test_round_limit_returns_the_uncertified_master():
    inst = one_cut_instance()
    res = solve(inst, SolverConfig(max_rounds=1))
    assert res.status == "round_limit"
    assert not res.certified
    assert res.solution is not None
    assert res.objective == pytest.approx(ONE_CUT_MASTER_OBJECTIVE)


def test_round_limit_zero_yields_no_solution():
    res = solve(demo_instance(), SolverConfig(max_rounds=0))
    assert res.status == "round_limit"
    assert res.solution is None
    assert res.objective is None


def test_time_limit_zero_stops_immediately():
    res = solve(demo_instance(), SolverConfig(time_limit=0.0))
    assert res.status == "time_limit"


@pytest.mark.parametrize(
    "limits, message",
    [
        ({"max_rounds": -1}, "max rounds"),
        ({"node_limit": -1}, "node limit"),
        ({"time_limit": -0.5}, "time limit"),
        ({"time_limit": math.nan}, "time limit"),
        ({"max_rounds": 1.5}, "max rounds must be an integer"),
        ({"max_rounds": 2.0}, "max rounds must be an integer"),
        ({"max_rounds": None}, "max rounds must be an integer"),
        ({"node_limit": 0.5}, "node limit must be an integer"),
        ({"node_limit": math.nan}, "node limit must be an integer"),
    ],
    ids=[
        "max_rounds=-1",
        "node_limit=-1",
        "time_limit=-0.5",
        "time_limit=nan",
        "max_rounds=1.5",
        "max_rounds=2.0",
        "max_rounds=None",
        "node_limit=0.5",
        "node_limit=nan",
    ],
)
def test_solver_config_rejects_negative_and_nan_limits(limits, message):
    with pytest.raises(ValueError, match=message):
        SolverConfig(**limits)


def test_master_node_limit_surfaces_as_a_round_limit():
    res = solve(tightening_instance(), SolverConfig(node_limit=1))
    assert res.status == "round_limit"
    assert res.objective == pytest.approx(-2.4)


def test_time_limit_stops_a_master_that_must_branch(monkeypatch):
    # Seen from inside the master, every deadline has passed; the driver's
    # own clock is untouched, so only the master's deadline can stop the run.
    monkeypatch.setattr(milp, "time", types.SimpleNamespace(monotonic=lambda: math.inf))
    res = solve(tightening_instance(), SolverConfig(time_limit=3600.0))
    assert res.status == "time_limit"
    assert not res.certified
    assert res.objective == pytest.approx(-2.4)
    assert res.rounds == len(res.trace) + 1
    unlimited = solve(tightening_instance())
    assert unlimited.status == "optimal"


def test_a_cutoff_ends_the_solve_once_a_master_bound_passes_it():
    # Optimum -0.4; the first master's bound is -2.4 and the second's -0.4.
    plain = solve(tightening_instance())
    assert (plain.status, plain.rounds) == ("optimal", 2)
    for cutoff in (-1.0, -0.4 - 1e-6):
        res = solve(tightening_instance(), cutoff=cutoff)
        assert res.status == "cutoff"
        assert not res.certified
        assert res.rounds == len(res.trace) + 1 == 2
        assert res.objective == pytest.approx(-2.4)
    # A cutoff at the optimum itself never binds.
    at = solve(tightening_instance(), cutoff=-0.4)
    assert (at.status, at.rounds, at.certified) == ("optimal", 2, True)
    assert at.objective == pytest.approx(plain.objective, abs=1e-12)
    assert list(at.cuts) == list(plain.cuts)


def test_round_stats_report_master_nodes_and_pivots():
    res = solve(tightening_instance())
    assert res.status == "optimal"
    assert all(s.master_nodes >= 1 and s.master_pivots >= 1 for s in res.trace)
    assert max(s.master_nodes for s in res.trace) > 1
    legacy = RoundStats(1, -1.0, {}, 0)
    assert (legacy.master_nodes, legacy.master_pivots) == (0, 0)


def test_solved_labels_are_two_shared_floats():
    """Every label of a solved `FlowSolution` is one of two float objects,
    so a held solution costs a pointer per label."""
    zero, one = _LABELS
    assert (type(zero), zero, type(one), one) == (float, 0.0, float, 1.0)
    for inst in (demo_instance(), framed_instance(), tightening_instance()):
        sol = solve(inst).solution
        labels = sol.x + sol.y + sol.y_lifted
        assert all(v is zero or v is one for v in labels)
        assert any(v is one for v in labels)


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_solved_and_path_built_solutions_are_equal_and_share_labels(seed):
    """`solve` and `solution_from_paths` over the solved paths build the same
    solution, and both from the same two label objects.  The solved
    objective is the last master's, bit for bit, and `evaluate_objective`'s."""
    inst = random_instance(random.Random(seed), max_inner=8, max_base=16, max_lift=6)
    masters = []
    real_master = driver.solve_binary

    def recorded(*args, **options):
        masters.append(real_master(*args, **options))
        return masters[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "solve_binary", recorded)
        res = solve(inst)
    solved = res.solution
    assert res.objective.hex() == masters[-1].objective.hex()
    assert res.objective == evaluate_objective(inst, solved)
    built = solution_from_paths(inst, active_st_paths(inst, solved))
    assert built == solved
    for sol in (solved, built):
        assert all(v is _LABELS[0] or v is _LABELS[1] for v in sol.x + sol.y + sol.y_lifted)


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_the_solved_objective_is_the_solution_objective_bit_for_bit(seed):
    """The solve reports the master's objective, summed by `solve_binary`;
    with costs of arbitrary float bits it equals `evaluate_objective` of the
    solution exactly, on random instances and on the demo."""
    rng = random.Random(seed)
    inst = random_instance(
        rng, max_inner=8, max_base=16, max_lift=6, cost=lambda r: r.uniform(-2.0, 2.0)
    )
    for case in (inst, demo_instance()):
        res = solve(case)
        assert res.objective.hex() == evaluate_objective(case, res.solution).hex()
        assert res.objective == res.solution.objective


def test_framed_instances_solve_with_lifted_flow_rows():
    inst = framed_instance()
    twin = Instance(
        inst.n, inst.base_edges, inst.lifted_edges,
        {v: c for v, c in enumerate(inst.node_costs) if v},
    )
    tags = [{row.tag for row in build_initial_constraints(i)} for i in (inst, twin)]
    assert TAG_LIFTED_FLOW in tags[0] and TAG_LIFTED_FLOW not in tags[1]
    framed, plain = solve(inst), solve(twin)
    assert framed.status == plain.status == "optimal"
    assert framed.objective == pytest.approx(plain.objective, abs=1e-9)
    assert framed.objective == pytest.approx(
        brute_force_optimum(inst).objective, abs=1e-9
    )


def test_certification_is_empty_only_for_honest_labels():
    inst = demo_instance()
    sol = solve(inst).solution
    assert certify(inst, sol) == []
    values_honest = SolutionValues(inst, sol)
    for index in range(len(sol.y_lifted)):
        labels = tuple(
            1 - b if i == index else b for i, b in enumerate(sol.y_lifted)
        )
        lying = FlowSolution(sol.x, sol.y, labels, sol.objective)
        rows = certify(inst, lying)
        assert rows
        values = SolutionValues(inst, lying)
        for row in rows:
            assert check_violation(row, values) > 0.0
            assert check_violation(row, values_honest) == 0.0


def test_master_variables_align_with_the_cost_vector():
    inst = demo_instance()
    variables, costs = master_variables(inst)
    assert len(variables) == inst.n + len(inst.base_index) + len(inst.lifted_index)
    assert len(costs) == len(variables)
    expected = {base_var(i): inst.base_cost(i) for i in range(len(inst.base_index))}
    expected |= {lift_var(i): inst.lifted_cost(i) for i in range(len(inst.lifted_index))}
    expected |= {node_var(v): inst.node_costs[v] for v in inst.inner_nodes()}
    assert dict(zip(variables, costs)) == expected


def test_a_solve_builds_the_master_variables_once(monkeypatch):
    built = []
    masters = []
    real_variables, real_master = driver.master_variables, driver.solve_binary

    def counted(instance):
        built.append(instance)
        return real_variables(instance)

    def recorded(variables, objective, rows, **options):
        masters.append((variables, list(objective)))
        return real_master(variables, objective, rows, **options)

    monkeypatch.setattr(driver, "master_variables", counted)
    monkeypatch.setattr(driver, "solve_binary", recorded)
    inst = one_cut_instance()
    assert solve(inst).rounds == 2
    assert len(built) == 1
    expected = real_variables(inst)
    assert masters == [expected, expected]


def layered_instance() -> Instance:
    """Three complete layers: every first-to-last lifted pair has 21 two-hop
    paths.  Its size, 2n + lifted edges, is 182."""
    first, middle, last = range(1, 11), range(11, 32), range(32, 42)
    base = [(SOURCE, v, 0.0) for v in first] + [(v, SINK, 0.0) for v in last]
    base += [(u, v, 0.0) for u in first for v in middle]
    base += [(u, v, 0.0) for u in middle for v in last]
    return Instance(41, base, [(v, w, -1.0) for v in first for w in last])


def with_frames(inst: Instance) -> Instance:
    """The same instance, each node framed at its longest-path depth, so
    that nodes share frames."""
    depth = dict.fromkeys(inst.inner_nodes(), 1)
    for _ in inst.inner_nodes():  # n relaxations settle every longest path
        for u, v, _ in inst.base_edges:
            if u != SOURCE and v != SINK:
                depth[v] = max(depth[v], depth[u] + 1)
    return Instance(
        inst.n, inst.base_edges, inst.lifted_edges,
        {v: c for v, c in enumerate(inst.node_costs) if v}, depth,
    )


def flow_rows(inst: Instance) -> list:
    return [row for v in inst.inner_nodes() for row in build_flow_conservation(inst, v)]


def reference_initial_rows(inst: Instance):
    """The initial pool from the per-row builders after `key()` dedup, and
    each dropped row paired with the row it repeats."""
    reach = inst.reachability
    rows = flow_rows(inst)
    if driver._flow_rows_only(inst):
        return rows, []
    for li, (v, w, _) in enumerate(inst.lifted_edges):
        rows.append(build_lifted_path_induced_cut(inst, reach, li, PathWitness((v,))))
        rows.append(build_symmetric_cut(inst, reach, li, PathWitness((w,))))
    if inst.frames is not None:
        rows.extend(build_lifted_flow_inequalities(inst))
    two_hop = []
    for li, (v, w, _) in enumerate(inst.lifted_edges):
        if (v, w) in inst.base_index:
            witness = witness_from_base_path(inst, (v, w))
            rows.append(build_lifted_path_inequality(inst, li, witness))
        for _, mid in inst.out_edges[v]:
            if mid != SINK and (mid, w) in inst.base_index:
                two_hop.append((li, (v, mid, w)))
    for li, nodes in two_hop:
        rows.append(build_lifted_path_inequality(inst, li, witness_from_base_path(inst, nodes)))
    first, kept, dropped = {}, [], []
    for row in rows:
        if row.key() in first:
            dropped.append((row, first[row.key()]))
        else:
            first[row.key()] = row
            kept.append(row)
    return kept, dropped


def lift_handles(row) -> list:
    return [h for h, _ in row.terms if h.kind == milp.KIND_LIFT]


def assert_store_matches_the_reference(inst: Instance) -> int:
    """Row for row and term for term, the arrays included, for the store
    that `build_initial_constraints` writes; returns the number of rows
    dedup dropped."""
    variables = master_variables(inst)[0]
    kept, dropped = reference_initial_rows(inst)
    store = build_initial_constraints(inst, variables)
    assert len(store) == len(kept)
    assert list(store) == kept
    assert [store[i] for i in range(-len(kept), 0)] == kept
    indexed = milp._row_store(variables, kept)
    for name in ("row", "col", "val", "sense", "rhs"):
        ours, theirs = getattr(store, name), getattr(indexed, name)
        assert ours.dtype == theirs.dtype and ours.tolist() == theirs.tolist(), name
    for row, repeated in dropped:
        # only a mirrored single-node cut equal to its own lifted edge's cut
        assert (row.tag, repeated.tag) == (TAG_SYM_LIFTED_PATH_CUT, TAG_LIFTED_PATH_CUT)
        assert lift_handles(row) == lift_handles(repeated)
    return len(dropped)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_lifted_flow_rows_come_per_node_out_then_in_by_frame(seed):
    """Per node: its outgoing lifted edges grouped by the head's frame, then
    its incoming ones by the tail's frame, each group in index order."""
    inst = with_frames(random_instance(random.Random(seed), max_inner=9, max_lift=8))
    expected = []
    for v in inst.inner_nodes():
        for end, other in ((0, 1), (1, 0)):
            by_frame: dict[int, list[int]] = {}
            for li, edge in enumerate(inst.lifted_edges):
                if edge[end] == v:
                    by_frame.setdefault(inst.frames[edge[other]], []).append(li)
            for f in sorted(by_frame):
                terms = [(lift_var(li), 1.0) for li in by_frame[f]] + [(node_var(v), -1.0)]
                expected.append(milp.LinearConstraint(tuple(terms), "<=", 0.0, TAG_LIFTED_FLOW))
    assert build_lifted_flow_inequalities(inst) == expected


def test_the_initial_rows_do_not_depend_on_the_handle_order():
    for inst in (demo_instance(), framed_instance()):
        variables = master_variables(inst)[0]
        rows = list(build_initial_constraints(inst))
        shuffled = variables[::-1]
        assert list(build_initial_constraints(inst, shuffled)) == rows
        random.Random(3).shuffle(shuffled)
        assert list(build_initial_constraints(inst, shuffled)) == rows


def test_the_initial_rows_need_every_master_handle():
    inst = demo_instance()
    variables = master_variables(inst)[0]
    for i, missing in enumerate(variables):
        with pytest.raises(MilpError, match=rf"unknown handle {re.escape(missing.label())}"):
            build_initial_constraints(inst, variables[:i] + variables[i + 1 :])


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.booleans())
def test_the_array_builder_matches_the_per_row_builders(seed, framed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_inner=10, max_base=24, max_lift=8)
    if framed:
        inst = with_frames(inst)
    assert_store_matches_the_reference(inst)


def test_both_builders_order_and_keep_rows_beside_a_direct_edge():
    """Lifted (1, 3) beside the base path 1 -> 2 -> 3, with the base edge
    (1, 3) listed first or last.  Listed last, it ends both cut rows, which
    still differ; listed first, the two-hop row's edges onto the path come
    in index order, (1, 3) before (1, 2)."""
    around = [(SOURCE, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0), (3, SINK, 0.0)]
    for base in ([(1, 3, 0.0)] + around, around + [(1, 3, 0.0)]):
        inst = Instance(3, base, [(1, 3, -1.0)])
        assert_store_matches_the_reference(inst)
        store = build_initial_constraints(inst)
        assert sum(row.tag == TAG_SYM_LIFTED_PATH_CUT for row in store) == 1


def test_both_builders_write_no_rows_for_the_empty_instance():
    assert_store_matches_the_reference(Instance(0, []))


def test_both_builders_match_on_a_stage_one_interval():
    inst = interval_instance()
    assert inst.frames is not None
    assert_store_matches_the_reference(inst)


def test_the_array_builder_matches_past_the_two_hop_budget():
    """`layered_instance()` has 21 two-hop paths per lifted edge; with and
    without frames, the store matches the per-row reference."""
    inst = layered_instance()
    assert_store_matches_the_reference(inst)
    assert_store_matches_the_reference(with_frames(inst))


def test_intervals_are_built_with_arrays_and_reductions_by_the_loop():
    """The size predicate puts stage 1's intervals past the line and the
    SAT reduction below it."""
    assert driver._flow_rows_only(interval_instance())
    assert not driver._flow_rows_only(reduce_sat(SATISFIABLE_FORMULA).instance)


def test_large_instances_start_from_the_flow_rows_alone():
    large = [interval_instance(), layered_instance(), with_frames(layered_instance())]
    for inst in large:
        assert driver._flow_rows_only(inst)
        assert list(build_initial_constraints(inst)) == flow_rows(inst)
    small = reduce_sat(SATISFIABLE_FORMULA).instance
    store = build_initial_constraints(small)
    assert {row.tag for row in store} == {
        TAG_FLOW, TAG_LIFTED_PATH_CUT, TAG_SYM_LIFTED_PATH_CUT, TAG_LIFTED_PATH
    }
    assert list(store)[: 2 * small.n] == flow_rows(small)
    assert_store_matches_the_reference(small)


def chain_instance(rng: random.Random) -> Instance:
    """4-6 chains of 6-7 nodes, one to three forward links between chains,
    and lifted edges on at least two thirds of the reachable pairs: past
    `_FLOW_ONLY_FROM`, with at most 13 source-sink paths."""
    k, length = rng.randint(4, 6), rng.randint(6, 7)

    def node(chain: int, at: int) -> int:
        return 1 + at * k + chain

    ends = [(SOURCE, node(c, 0)) for c in range(k)]
    ends += [(node(c, i), node(c, i + 1)) for c in range(k) for i in range(length - 1)]
    ends += [(node(c, length - 1), SINK) for c in range(k)]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(range(k), 2)
        at = rng.randrange(length - 1)
        ends.append((node(a, at), node(b, rng.randint(at + 1, length - 1))))
    base = [(u, v, half_integer(rng)) for u, v in dict.fromkeys(ends)]
    n = k * length
    reach = Reachability(n, base)
    nodes = range(1, n + 1)
    pairs = [(v, w) for v in nodes for w in nodes if v != w and reach.reaches(v, w)]
    lifted = rng.sample(pairs, max(100 - 2 * n, len(pairs) * 2 // 3))
    return Instance(n, base, [(v, w, half_integer(rng)) for v, w in lifted])


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_instances_past_the_line_solve_exactly_from_the_flow_rows(seed):
    inst = chain_instance(random.Random(seed))
    assert driver._flow_rows_only(inst)
    assert len(all_st_paths(inst)) <= 13
    res = solve(inst)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(brute_force_optimum(inst).objective, abs=1e-9)
    assert certify(inst, res.solution) == []


def test_the_array_builder_drops_cut_in_rows_that_repeat_their_cut_out_row():
    rng = random.Random(5)
    instances = [random_instance(rng) for _ in range(40)]
    assert sum(assert_store_matches_the_reference(inst) for inst in instances) > 0


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.booleans(), st.booleans())
def test_each_round_appends_rows_new_to_the_pool_and_to_the_round(seed, framed, flow_only):
    """What a key set in the driver would enforce holds without one: the
    rows a round appends have distinct keys, none of them a pooled row's.
    With `flow_only`, the pool starts from the flow rows alone, so
    separation also finds the single-node cuts, whose mirror often equals
    the cut."""
    inst = random_instance_with_lift(random.Random(seed), max_inner=20, max_base=60, max_lift=20)
    if framed:
        inst = with_frames(inst)
    extend, appended = milp._RowStore.extend, []

    def spied(store, rows):
        rows = list(rows)
        appended.append(({row.key() for row in store}, [row.key() for row in rows]))
        extend(store, rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(milp._RowStore, "extend", spied)
        if flow_only:
            patch.setattr(driver, "_FLOW_ONLY_FROM", 0)
        res = solve(inst)
    assert res.status == "optimal"
    assert len(appended) == res.rounds + 1  # the starting rows, then one call per round
    for pooled, keys in appended[1:]:
        assert len(set(keys)) == len(keys)
        assert pooled.isdisjoint(keys)


def test_a_mirror_equal_to_its_cut_is_returned_once():
    # Flow on s-1-t only, with the lifted edge (1, 2) labelled 1: the cut
    # along (1,) and the mirror along (2,) both read y'_12 - y_12 <= 0.
    inst = Instance(
        2,
        [(SOURCE, 1, 0.0), (1, SINK, 0.0), (SOURCE, 2, 0.0), (2, SINK, 0.0), (1, 2, 0.0)],
        [(1, 2, -1.0)],
    )
    flow = solution_from_paths(inst, [(1,)])
    lying = FlowSolution(flow.x, flow.y, (_LABELS[1],), flow.objective)
    reach = inst.reachability
    cut = build_lifted_path_induced_cut(inst, reach, 0, PathWitness((1,)))
    mirror = build_symmetric_cut(inst, reach, 0, PathWitness((2,)))
    assert mirror.terms == cut.terms
    assert separate_lifted_cut(inst, lying).constraints == [cut]
