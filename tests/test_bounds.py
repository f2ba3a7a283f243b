"""Family enumeration and relaxation bounds."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import demo_instance, framed_instance, random_instance, tightening_instance
from liftedpaths import constraints
from liftedpaths.bounds import ALL_FAMILIES, BudgetError, enumerate_family, lp_bound
from liftedpaths.instance import SINK, SOURCE, Instance
from liftedpaths.oracle import brute_force_optimum

SEEDS = st.integers(0, 10_000)


def test_family_vocabulary_is_closed():
    inst = demo_instance()
    with pytest.raises(ValueError, match="unknown family 'no-such-family'"):
        enumerate_family(inst, inst.reachability, "no-such-family")
    with pytest.raises(ValueError, match="unknown family"):
        lp_bound(inst, ("flow", "bogus"))


def test_witness_length_cap():
    inst = demo_instance()
    for bad in (0, 9):
        with pytest.raises(ValueError, match="max_path_len must be in 1..8"):
            enumerate_family(inst, inst.reachability, "path", max_path_len=bad)


def test_demo_family_census():
    inst = demo_instance()
    counts = {
        family: len(enumerate_family(inst, inst.reachability, family))
        for family in ALL_FAMILIES
    }
    assert counts == {
        "flow": 8,
        "single-cut": 3,
        "path": 2,
        "path-cut": 3,
        "lifted-path": 3,
        "lifted-path-cut": 3,
        "lifted-path-cut-strong": 1,
        "sym-path-cut": 3,
        "sym-lifted-path-cut": 3,
        "sym-lifted-path-cut-strong": 1,
        "lifted-flow": 0,
        "multicut-path": 2,
    }
    # A row's tag names its builder: the plain families share the lifted
    # families' builders, whose rows they are the pure base members of.
    shared = {
        "path": "lifted-path",
        "path-cut": "lifted-path-cut",
        "sym-path-cut": "sym-lifted-path-cut",
    }
    keys = {}
    for family in ALL_FAMILIES:
        rows = enumerate_family(inst, inst.reachability, family)
        keys[family] = {row.key() for row in rows}
        if family == "single-cut":
            # Single-node cuts are the cut along the lone tail and the
            # mirrored cut along the lone head.
            assert {row.tag for row in rows} == {"lifted-path-cut", "sym-lifted-path-cut"}
        else:
            assert all(row.tag == shared.get(family, family) for row in rows)
    for plain, lifted in shared.items():
        assert keys[plain] <= keys[lifted]
    assert keys["single-cut"] <= keys["path-cut"] | keys["sym-path-cut"]
    # Every tag constant names rows some family builds, so a deleted
    # builder cannot leave its tag behind.
    emitted = {
        row.tag
        for example in (inst, framed_instance())
        for family in ALL_FAMILIES
        for row in enumerate_family(example, example.reachability, family)
    }
    declared = {
        getattr(constraints, name) for name in constraints.__all__ if name.startswith("TAG_")
    }
    assert emitted == declared


def test_enumeration_has_a_budget():
    n = 40
    base = [(u, v, 0.0) for u in range(1, n) for v in range(u + 1, n + 1)]
    base += [(SOURCE, 1, 0.0), (n, SINK, 0.0)]
    haystack = Instance(n, base, [(1, n, -1.0)])
    with pytest.raises(BudgetError, match="200000 instantiations"):
        enumerate_family(haystack, haystack.reachability, "path")


def test_bound_ladder_tightens_and_never_crosses_the_optimum():
    inst = tightening_instance()
    weak = lp_bound(inst, ("flow", "single-cut"))
    routed = lp_bound(inst, ("flow", "single-cut", "path"))
    connected = lp_bound(inst, ("flow", "single-cut", "path", "lifted-path"))
    everything = lp_bound(inst, ALL_FAMILIES)
    assert weak == pytest.approx(-2.4)
    assert routed == pytest.approx(-2.325)
    assert connected == pytest.approx(-1.325)
    assert everything == pytest.approx(-1.325)
    optimum = brute_force_optimum(inst).objective
    assert optimum == pytest.approx(-0.4)
    assert weak <= routed <= connected <= everything <= optimum + 1e-9


@settings(max_examples=15, deadline=None)
@given(SEEDS)
def test_bounds_grow_with_the_family_set(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_inner=7, max_base=14, max_lift=4)
    optimum = brute_force_optimum(inst).objective
    previous = None
    for stop in range(1, len(ALL_FAMILIES) + 1):
        bound = lp_bound(inst, ALL_FAMILIES[:stop], max_path_len=6)
        assert bound <= optimum + 1e-9
        if previous is not None:
            assert bound >= previous - 1e-9
        previous = bound


def test_frameless_instances_have_no_lifted_flow_rows():
    inst = demo_instance()
    assert enumerate_family(inst, inst.reachability, "lifted-flow") == []
