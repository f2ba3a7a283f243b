"""Binary and LP solving, cross-checked against scipy and enumeration."""

from __future__ import annotations

import math
import random
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from generators import (
    framed_instance,
    interval_instance,
    planted_sequence,
    random_formula,
    random_instance,
    sequence_instance,
)
from liftedpaths import milp, tracking
from liftedpaths.driver import build_initial_constraints, master_variables, solve
from liftedpaths.milp import (
    LinearConstraint,
    VariableHandle,
    check_violation,
    solve_binary,
    solve_lp,
)
from liftedpaths.reductions import reduce_sat

SEEDS = st.integers(0, 10_000)


def handles(n):
    return [VariableHandle("x", i) for i in range(n)]


def test_handle_labels():
    assert VariableHandle("x", 0).label() == "x[0]"
    assert VariableHandle("y", 2).label() == "y[2]"
    assert VariableHandle("yl", 3).label() == "yl[3]"


def test_canonicalized_merges_and_orders_terms():
    a, b = handles(2)
    row = LinearConstraint(((b, 1.0), (a, 2.0), (a, 1.0)), "<=", 1.0, "demo")
    assert row.canonicalized().terms == ((a, 3.0), (b, 1.0))


def test_key_ignores_term_order_and_tag():
    a, b = handles(2)
    row = LinearConstraint(((b, 1.0), (a, 2.0), (a, 1.0)), "<=", 1.0, "demo")
    same = LinearConstraint(((a, 3.0), (b, 1.0)), "<=", 1.0, "other")
    assert row.key() == same.key()
    different = LinearConstraint(((a, 3.0), (b, 1.0)), "<=", 2.0, "demo")
    assert row.key() != different.key()


def test_format_shows_tag_terms_sense_rhs():
    a, b = handles(2)
    row = LinearConstraint(((b, 1.0), (a, 2.0), (a, 1.0)), "<=", 1.0, "demo")
    assert row.format() == "demo: +1*x[1] +2*x[0] +1*x[0] <= 1"


def test_violation_measures_the_gap():
    (a,) = handles(1)
    le = LinearConstraint(((a, 1.0),), "<=", 1.0, "t")
    assert check_violation(le, {a: 0.5}) == 0.0
    assert check_violation(le, {a: 1.5}) == pytest.approx(0.5)
    ge = LinearConstraint(((a, 1.0),), ">=", 1.0, "t")
    assert check_violation(ge, {a: 0.25}) == pytest.approx(0.75)
    eq = LinearConstraint(((a, 1.0),), "=", 1.0, "t")
    assert check_violation(eq, {a: 0.25}) == pytest.approx(0.75)
    assert check_violation(eq, {a: 1.75}) == pytest.approx(0.75)
    # a hair's width inside the tolerance counts as satisfied
    assert check_violation(le, {a: 1.0 + 1e-10}) == 0.0


def test_violation_requires_every_variable():
    a, b = handles(2)
    row = LinearConstraint(((a, 1.0), (b, 1.0)), "<=", 1.0, "t")
    with pytest.raises(KeyError):
        check_violation(row, {a: 1.0})


def random_rows(rng, variables, count):
    """Random rows over `variables`.  Some are empty, and about one in five
    of the others repeats a handle, cancelling its first term or adding to it."""
    rows = []
    for _ in range(count):
        terms = [
            (h, float(rng.randint(-3, 3)))
            for h in variables
            if rng.random() < 0.7
        ]
        if rng.random() < 0.1:
            terms = []
        elif terms and rng.random() < 0.2:
            h, c = rng.choice(terms)
            terms.append((h, rng.choice((-c, 1.0))))
        sense = rng.choice(("<=", ">=", "="))
        rhs = float(rng.randint(-4, 4)) / 2.0
        rows.append(LinearConstraint(tuple(terms), sense, rhs, "t"))
    return rows


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.booleans())
def test_lp_agrees_with_scipy_on_box_problems(seed, boxed):
    """On [0, 1]^n, or on random finite boxes that the crash must respect."""
    rng = random.Random(seed)
    vs = handles(rng.randint(1, 6))
    objective = [float(rng.randint(-3, 3)) for _ in vs]
    rows = random_rows(rng, vs, rng.randint(0, 6))
    lower, upper = [0.0] * len(vs), [1.0] * len(vs)
    if boxed:
        lower = [rng.randint(-2, 1) / 2.0 for _ in vs]
        upper = [lo + rng.randint(0, 3) / 2.0 for lo in lower]
    mine = solve_lp(vs, objective, rows, lower=lower, upper=upper)
    ref = oracles.lp_reference(vs, objective, rows, lower, upper)
    if ref.status == 2:
        assert mine.status == "infeasible"
    else:
        assert ref.status == 0
        assert mine.status == "optimal"
        assert mine.objective == pytest.approx(ref.fun, abs=1e-6)
        values = dict(zip(vs, mine.values))
        for row in rows:
            assert check_violation(row, values) == 0.0
        for x, lo, up in zip(mine.values, lower, upper):
            assert lo - 1e-9 <= x <= up + 1e-9


def test_lp_reports_a_blocking_row_when_infeasible():
    """A row no point of the box satisfies makes the LP infeasible."""
    (a,) = handles(1)
    out = solve_lp([a], [1.0], [LinearConstraint(((a, 1.0),), ">=", 2.0, "t")])
    assert (out.status, out.objective, out.values) == ("infeasible", None, None)


def test_blocking_row_index_counts_the_empty_rows_before_it():
    """Satisfiable empty rows before and after a blocking row leave the LP
    and the binary program infeasible, and without it both are solved."""
    a, b = handles(2)
    rows = [
        LinearConstraint((), "<=", 1.0, "empty"),
        LinearConstraint((), "=", 0.0, "empty"),
        LinearConstraint(((a, 1.0), (a, -1.0)), "<=", 0.0, "cancels"),
        LinearConstraint(((a, 1.0),), "<=", 1.0, "t"),
        LinearConstraint(((a, 1.0), (b, 1.0)), ">=", 3.0, "blocks"),
        LinearConstraint((), ">=", -1.0, "empty"),
    ]
    assert solve_lp([a, b], [1.0, 1.0], rows).status == "infeasible"
    assert solve_binary([a, b], [1.0, 1.0], rows).status == "infeasible"
    assert solve_lp([a, b], [1.0, 1.0], rows[:4]).status == "optimal"


def test_lazy_rows_bound_the_optimum_over_a_wide_box():
    """401 rows `a <= 5 + i` start pending, past the lazy-row threshold,
    so the first vertex is a = 10; the activated rows bring it to 5, as
    400 rows that all start active do."""
    (a,) = handles(1)
    for k in (400, 401):
        rows = [LinearConstraint(((a, 1.0),), "<=", 5.0 + i, "t") for i in range(k)]
        out = solve_lp([a], [-1.0], rows, lower=[0.0], upper=[10.0])
        assert (out.status, out.objective) == ("optimal", -5.0)
    assert milp._LAZY_ROW_THRESHOLD == 400


def test_lp_stops_at_the_iteration_limit():
    vs = handles(3)
    rows = [LinearConstraint(tuple((h, 1.0) for h in vs), "<=", 1.5, "t")]
    out = solve_lp(vs, [-1.0, -1.0, -1.0], rows, iteration_limit=0)
    assert out.status == "iteration_limit"


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_binary_agrees_with_complete_enumeration(seed):
    rng = random.Random(seed)
    vs = handles(rng.randint(1, 8))
    objective = [float(rng.randint(-3, 3)) for _ in vs]
    rows = random_rows(rng, vs, rng.randint(0, 5))
    mine = solve_binary(vs, objective, rows)
    status, best, _ = oracles.binary_reference(vs, objective, rows)
    assert mine.status == status
    if status == "optimal":
        assert mine.objective == pytest.approx(best, abs=1e-9)
        values = dict(zip(vs, (float(x) for x in mine.values)))
        for x in values.values():
            assert x in (0.0, 1.0)
        for row in rows:
            assert check_violation(row, values) == 0.0
        picked = sum(c * x for c, x in zip(objective, mine.values))
        assert picked == pytest.approx(mine.objective, abs=1e-9)


def test_binary_infeasible_status():
    vs = handles(2)
    rows = [LinearConstraint(tuple((h, 1.0) for h in vs), ">=", 3.0, "t")]
    assert solve_binary(vs, [1.0, 1.0], rows).status == "infeasible"


def test_binary_stops_at_the_node_limit():
    vs = handles(2)
    rows = [LinearConstraint(tuple((h, 1.0) for h in vs), "<=", 1.5, "t")]
    full = solve_binary(vs, [-1.0, -1.0], rows)
    assert full.status == "optimal"
    assert full.nodes_explored > 1, "this problem must branch"
    capped = solve_binary(vs, [-1.0, -1.0], rows, node_limit=1)
    assert capped.status == "node_limit"


@pytest.mark.parametrize(
    "solve, objective, options",
    [
        pytest.param(solve_binary, [1.0], {}, id="binary-objective-1"),
        pytest.param(solve_binary, [1.0, 1.0, 1.0], {}, id="binary-objective-3"),
        pytest.param(solve_lp, [1.0], {}, id="lp-objective-1"),
        pytest.param(solve_lp, [1.0, 1.0], {"lower": [0.0]}, id="lp-lower-1"),
        pytest.param(solve_lp, [1.0, 1.0], {"upper": [1.0, 1.0, 1.0]}, id="lp-upper-3"),
    ],
)
def test_per_variable_inputs_must_match_the_variables(solve, objective, options):
    vs = handles(2)
    rows = [LinearConstraint(tuple((h, 1.0) for h in vs), "<=", 1.5, "t")]
    with pytest.raises(milp.MilpError, match="length does not match variables"):
        solve(vs, objective, rows, **options)


@pytest.mark.parametrize("solve", [solve_lp, solve_binary])
@pytest.mark.parametrize("where", ["rhs", "coefficient"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_row_data_is_rejected(solve, where, bad):
    a, b = handles(2)
    coef, rhs = (bad, 1.0) if where == "coefficient" else (1.0, bad)
    rows = [LinearConstraint(((a, coef), (b, 1.0)), ">=", rhs, "t")]
    with pytest.raises(milp.MilpError, match="non-finite"):
        solve([a, b], [1.0, 1.0], rows)


@pytest.mark.parametrize(
    "solve, objective, bounds",
    [
        pytest.param(solve_lp, [math.nan, 1.0], {}, id="lp-objective-nan"),
        pytest.param(solve_lp, [math.inf, 1.0], {}, id="lp-objective-inf"),
        pytest.param(solve_lp, [1.0, 1.0], {"lower": [-math.inf, 0.0]}, id="lp-lower-minus-inf"),
        pytest.param(solve_lp, [1.0, 1.0], {"lower": [math.nan, 0.0]}, id="lp-lower-nan"),
        pytest.param(solve_lp, [1.0, 1.0], {"upper": [math.nan, 1.0]}, id="lp-upper-nan"),
        pytest.param(solve_lp, [1.0, 1.0], {"upper": [math.inf, 1.0]}, id="lp-upper-inf"),
        pytest.param(solve_binary, [math.inf, 1.0], {}, id="binary-objective-inf"),
        pytest.param(solve_binary, [-math.inf, 1.0], {}, id="binary-objective-minus-inf"),
        pytest.param(solve_binary, [math.nan, 1.0], {}, id="binary-objective-nan"),
    ],
)
def test_non_finite_objectives_and_bounds_are_rejected(solve, objective, bounds):
    """Every LP is over a finite box, so no bound may be infinite."""
    vs = handles(2)
    rows = [LinearConstraint(tuple((h, 1.0) for h in vs), "<=", 1.5, "t")]
    with pytest.raises(milp.MilpError, match="non-finite entry"):
        solve(vs, objective, rows, **bounds)


@pytest.mark.parametrize(
    "handle, name",
    [
        pytest.param(VariableHandle("x", 9), "x[9]", id="handle"),
        pytest.param(("node", 9), "('node', 9)", id="tuple"),
        pytest.param("x", "'x'", id="str"),
        pytest.param([1], "[1]", id="unhashable"),
    ],
)
def test_unknown_handles_are_named(handle, name):
    vs = handles(2)
    rows = [LinearConstraint(((vs[0], 1.0), (handle, 1.0)), "<=", 1.0, "t")]
    for solve in (solve_lp, solve_binary):
        with pytest.raises(milp.MilpError, match=f"unknown handle {re.escape(name)}$"):
            solve(vs, [1.0, 1.0], rows)


def parity_program(rng):
    """8-12 binaries under coefficient-2 rows with odd right-hand sides.

    Every such row cuts through the middle of the box, so LP vertices are
    fractional and the search must branch; an odd equality has no integral
    point at all, so children go infeasible.
    """
    vs = handles(rng.randint(8, 12))
    objective = [float(rng.randint(-4, 2)) for _ in vs]
    rows = []
    for _ in range(rng.randint(2, 5)):
        picked = rng.sample(vs, rng.randint(2, 5))
        rhs = float(2 * rng.randint(0, len(picked) - 1) + 1)
        sense = rng.choice(("<=", "<=", ">=", "="))
        rows.append(LinearConstraint(tuple((h, 2.0) for h in picked), sense, rhs, "t"))
    return vs, objective, rows


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_restore_keeps_the_inverse_of_the_live_basis_alone(seed):
    """Restoring the live basis keeps Binv and recomputes xB only; restoring
    another basis inverts it afresh.  Either way Binv and xB match a full
    refactor to 1e-9."""
    vs, objective, rows = parity_program(random.Random(seed))
    n = len(vs)
    lp = milp._Simplex(np.asarray(objective), milp._row_store(vs, rows), np.zeros(n), np.ones(n))
    assume(lp.reoptimise() == "optimal")
    root, vals = lp.snapshot(), lp.structural_values()
    j = int(np.argmax(np.abs(vals - np.round(vals))))
    for fixed in (0.0, 1.0):  # the second child's basis is the first's optimum
        lo, up = np.zeros(n), np.ones(n)
        lo[j] = up[j] = fixed
        live, binv = lp.basis.copy(), lp.Binv
        lp.restore(root, lo, up)
        assert (lp.Binv is binv) == np.array_equal(root[0], live)
        kept_binv, kept_xb = lp.Binv.copy(), lp.xB.copy()
        lp._refactor()
        np.testing.assert_allclose(kept_binv, lp.Binv, rtol=0, atol=1e-9)
        np.testing.assert_allclose(kept_xb, lp.xB, rtol=0, atol=1e-9)
        lp.reoptimise()


def exact_reduced_costs(lp, c):
    """c - c_B B^-1 A, from a fresh inverse of the basis."""
    return c - lp._products(c[lp.basis] @ np.linalg.inv(dense_basis(lp)))


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_carried_duals_and_reduced_costs_price_like_exact_ones(seed):
    """`_phase` and `_dual` price with the reduced costs `lp.d` that each
    exchange updates from the pivot row.  Against exact ones: every column
    the primal method enters improves the objective, every dual pivot
    leaves the basis dual feasible, and at every pivot of either loop `d`
    is within 1e-6 on the movable non-basic columns."""
    loops = []  # whether the loop running, if any, is `_dual`
    phase, dual = milp._Simplex._phase, milp._Simplex._dual
    ftran, pivot = milp._Simplex._ftran, milp._Simplex._pivot

    def running(method, check_pivots):
        def run(lp, **kwargs):
            loops.append(check_pivots)
            try:
                return method(lp, **kwargs)
            finally:
                loops.pop()

        return run

    def checked_ftran(lp, j):
        if loops and not loops[-1]:
            d = exact_reduced_costs(lp, lp.c)
            assert d[j] * milp._DIRECTION[lp.vstat[j]] < 0.0
        return ftran(lp, j)

    def checked_pivot(lp, *args):
        pivot(lp, *args)
        if not loops:
            return
        movable = (lp.up - lp.lo) > 0
        d = exact_reduced_costs(lp, lp.c)
        moves = movable & (lp.vstat != milp._BASIC)
        np.testing.assert_allclose(lp.d[moves], d[moves], rtol=0, atol=1e-6)
        if loops[-1]:
            assert (d * milp._DIRECTION[lp.vstat] * movable).min(initial=0.0) >= -1e-6

    rng = random.Random(seed)
    vs, objective, rows = parity_program(rng)
    # A larger LP over inequality rows, so that it is mostly feasible, whose
    # restores fix many variables at once: long dual passes.
    box = handles(rng.randint(12, 20))
    box_objective = np.array([float(rng.randint(-3, 3)) for _ in box])
    box_rows = [row for row in random_rows(rng, box, rng.randint(10, 16)) if row.sense != "="]
    n = len(box)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(milp._Simplex, "_phase", running(phase, False))
        patch.setattr(milp._Simplex, "_dual", running(dual, True))
        patch.setattr(milp._Simplex, "_ftran", checked_ftran)
        patch.setattr(milp._Simplex, "_pivot", checked_pivot)
        mine = solve_binary(vs, objective, rows)
        lp = milp._Simplex(box_objective, milp._row_store(box, box_rows), np.zeros(n), np.ones(n))
        if lp.reoptimise() == "optimal":
            root = lp.snapshot()
            for _ in range(8):
                lo, up = np.zeros(n), np.ones(n)
                for j in rng.sample(range(n), rng.randint(2, n // 2)):
                    lo[j] = up[j] = float(rng.randint(0, 1))
                lp.restore(root, lo, up)
                lp.reoptimise()
    assert_matches_enumeration(vs, objective, rows, mine)


@settings(max_examples=30, deadline=None)
@given(SEEDS, st.sampled_from([1, 3]))
def test_periodic_refactors_keep_answers_and_price_afresh(seed, every):
    """With the periodic refactor forced every 1 or 3 basis changes,
    `solve_lp` matches HiGHS and `solve_binary` enumeration, and right
    after every `_refactor` the reduced costs `lp.d` are exact to 1e-9."""
    refactor = milp._Simplex._refactor

    def checked_refactor(lp):
        refactor(lp)
        np.testing.assert_allclose(lp.d, exact_reduced_costs(lp, lp.c), rtol=0, atol=1e-9)

    rng = random.Random(seed)
    vs = handles(rng.randint(1, 6))
    objective = [float(rng.randint(-3, 3)) for _ in vs]
    rows = random_rows(rng, vs, rng.randint(0, 6))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(milp, "_REFACTOR_EVERY", every)
        patch.setattr(milp._Simplex, "_refactor", checked_refactor)
        mine = solve_lp(vs, objective, rows)
        ref = oracles.lp_reference(vs, objective, rows)
        assert mine.status == ("infeasible" if ref.status == 2 else "optimal")
        if mine.status == "optimal":
            assert mine.objective == pytest.approx(ref.fun, abs=1e-6)
        parity = parity_program(rng)
        assert_matches_enumeration(*parity, solve_binary(*parity))


def assert_matches_enumeration(vs, objective, rows, mine):
    status, best, _ = oracles.binary_reference(vs, objective, rows)
    assert mine.status == status
    if status == "optimal":
        assert mine.objective == pytest.approx(best, abs=1e-9)
        values = dict(zip(vs, (float(x) for x in mine.values)))
        for row in rows:
            assert check_violation(row, values) == 0.0


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_reoptimised_branching_agrees_with_enumeration(seed):
    vs, objective, rows = parity_program(random.Random(seed))
    assert_matches_enumeration(vs, objective, rows, solve_binary(vs, objective, rows))


def test_blands_rule_keeps_answers_once_degenerate_steps_switch_it_on(monkeypatch):
    """With the degenerate-step count lifted to its limit before each count,
    the first degenerate step switches `_Simplex` to Bland's rule.  Answers
    still match HiGHS and enumeration, and both simplex loops then choose by
    Bland's rule: each counts its step after its choice, so `lp.bland` at
    the count is what the choice saw."""
    count = milp._Simplex._count_degenerate
    chose = set()

    def at_limit(lp, t):
        chose.add((sys._getframe(1).f_code.co_name, lp.bland))
        lp.degenerate = 3 * (lp.m + lp.nstruct)
        count(lp, t)

    monkeypatch.setattr(milp._Simplex, "_count_degenerate", at_limit)
    for seed in range(50):
        rng = random.Random(seed)
        vs = handles(rng.randint(1, 6))
        objective = [float(rng.randint(-3, 3)) for _ in vs]
        rows = random_rows(rng, vs, rng.randint(0, 6))
        for program in ((vs, objective, rows), parity_program(rng)):
            mine = solve_lp(*program)
            ref = oracles.lp_reference(*program)
            assert mine.status == ("infeasible" if ref.status == 2 else "optimal")
            if mine.status == "optimal":
                assert mine.objective == pytest.approx(ref.fun, abs=1e-6)
            assert_matches_enumeration(*program, solve_binary(*program))
    assert {("_phase", True), ("_dual", True)} <= chose


def resume_case(rng):
    """A parity program cut in two: the first batch holds every equality
    row, the second the rest of its rows plus 0-3 rows that pick some
    binaries to be all on or at most one on, and 0-2 equality rows that fix
    how many of some binaries are on.  The cutoff is None or lies 0-1 above
    the first batch's optimum, so the second batch can push the optimum
    past it."""
    vs, objective, rows = parity_program(rng)
    first = [r for r in rows if r.sense == "=" or rng.random() < 0.5]
    second = [r for r in rows if r not in first]
    for _ in range(rng.randint(0, 3)):
        picked = rng.sample(vs, rng.randint(2, 4))
        sense, rhs = rng.choice((("<=", 1.0), (">=", float(len(picked)))))
        second.append(LinearConstraint(tuple((h, 1.0) for h in picked), sense, rhs, "cut"))
    cutoff = None
    if rng.random() < 0.5:
        head = solve_binary(vs, objective, first)
        if head.status == "optimal":
            cutoff = head.objective + rng.choice((0.0, 0.5, 1.0))
    for _ in range(rng.randint(0, 2)):
        picked = rng.sample(vs, rng.randint(1, 3))
        on = float(rng.randint(0, len(picked)))
        second.append(LinearConstraint(tuple((h, 1.0) for h in picked), "=", on, "fix"))
    return vs, objective, first, second, cutoff


def resumed(vs, objective, first, second, cutoff, **limits):
    """Solve on `first`, append `second` to the store and resume."""
    store = milp._row_store(vs, first)
    head = solve_binary(vs, objective, store, cutoff=cutoff)
    store.extend(second)
    return head, solve_binary(vs, objective, store, cutoff=cutoff, resume=head, **limits)


def check_resumed_search(seed):
    """The resumed search ends as a fresh solve over every row does, and as
    enumeration says; returns (first status, resumed status)."""
    vs, objective, first, second, cutoff = resume_case(random.Random(seed))
    rows = first + second
    head, out = resumed(vs, objective, first, second, cutoff)
    fresh = solve_binary(vs, objective, rows, cutoff=cutoff)
    status, best, _ = oracles.binary_reference(vs, objective, rows)
    if status == "infeasible" and cutoff is not None:
        # A search that pruned by the cutoff proves "nothing at or below
        # it" whether or not the rows admit a point at all.
        assert out.status in ("infeasible", "cutoff")
        assert fresh.status in ("infeasible", "cutoff")
    else:
        assert out.status == fresh.status
    if out.status == "optimal":
        assert status == "optimal"
        assert out.objective == pytest.approx(best, abs=1e-9)
        assert fresh.objective == pytest.approx(best, abs=1e-9)
        values = dict(zip(vs, (float(x) for x in out.values)))
        for row in rows:
            assert check_violation(row, values) == 0.0
    elif out.status == "cutoff":
        assert out.objective is None and out.bound > cutoff
        if status == "optimal":
            assert best > cutoff
            assert out.bound <= best + 1e-9
    else:
        assert out.status == status == "infeasible"
    return head.status, out.status


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_resumed_search_agrees_with_a_fresh_solve_and_enumeration(seed):
    check_resumed_search(seed)


def test_resumed_searches_end_in_every_status():
    ends = {check_resumed_search(seed) for seed in range(60)}
    assert {("optimal", "optimal"), ("optimal", "infeasible"), ("optimal", "cutoff")} <= ends


def test_resume_refuses_another_store_objective_or_cutoff():
    vs = handles(3)
    rows = [LinearConstraint(tuple((h, 2.0) for h in vs), "<=", 3.0, "t")]
    objective = [-1.0, -1.0, -2.0]
    store = milp._row_store(vs, rows)
    head = solve_binary(vs, objective, store)
    assert head.status == "optimal"
    refused = [
        (objective, list(store), None),
        (objective, milp._row_store(vs, rows), None),
        ([-1.0, -1.0, -1.0], store, None),
        (objective, store, 0.0),
    ]
    for costs, again, cutoff in refused:
        with pytest.raises(milp.MilpError, match="resume needs"):
            solve_binary(vs, costs, again, cutoff=cutoff, resume=head)
    with pytest.raises(milp.MilpError, match="resume needs"):
        solve_binary(vs, objective, store, resume=solve_binary(vs, objective, store, node_limit=0))


def test_an_appended_empty_row_that_fails_at_zero_ends_the_search_infeasible():
    vs = handles(2)
    store = milp._row_store(vs, [LinearConstraint(tuple((h, 2.0) for h in vs), "<=", 3.0, "t")])
    head = solve_binary(vs, [-1.0, -1.0], store, cutoff=-1.5)
    assert head.status == "cutoff"
    store.extend([LinearConstraint((), "<=", -1.0, "t")])
    out = solve_binary(vs, [-1.0, -1.0], store, cutoff=-1.5, resume=head)
    assert solve_binary(vs, [-1.0, -1.0], list(store), cutoff=-1.5).status == "infeasible"
    assert (out.status, out.bound) == ("infeasible", None)


def test_limits_inside_a_resumed_call_report_a_bound_below_the_fresh_optimum():
    stops = []
    for seed in range(40):
        vs, objective, first, second, _ = resume_case(random.Random(seed))
        fresh = solve_binary(vs, objective, first + second)
        if fresh.status != "optimal":
            continue
        for limits in ({"node_limit": 1}, {"deadline": time.monotonic() - 1.0}):
            head, out = resumed(vs, objective, first, second, None, **limits)
            if out.status == "optimal":
                assert out.objective == pytest.approx(fresh.objective, abs=1e-9)
                continue
            assert out.status in ("node_limit", "time_limit")
            assert out.objective is None and out.values is None
            assert out.bound <= fresh.objective + 1e-9
            assert out.nodes_explored <= limits.get("node_limit", 0)
            stops.append(out.status)
    assert {"node_limit", "time_limit"} <= set(stops)


class SimplexLog:
    """Counts LP builds, the outcomes of the children's reoptimisations (a
    child's LP is restored from its parent's basis first) and row
    activations."""

    def __init__(self, monkeypatch):
        self.built = 0
        self.reoptimised: list[str] = []
        self.added: list[int] = []  # store indices of the activated rows
        self.added_in_children = 0
        self.in_child = False
        self.restored = False
        init, restore, reoptimise, add_rows = (
            milp._Simplex.__init__,
            milp._Simplex.restore,
            milp._Simplex.reoptimise,
            milp._Simplex.add_rows,
        )

        def counted_init(simplex, *args, **kwargs):
            self.built += 1
            init(simplex, *args, **kwargs)

        def marked_restore(simplex, *args, **kwargs):
            self.restored = True
            restore(simplex, *args, **kwargs)

        def logged_reoptimise(simplex):
            child, self.restored = self.restored, False
            self.in_child = child
            try:
                status = reoptimise(simplex)
            finally:
                self.in_child = False
            if child:
                self.reoptimised.append(status)
            return status

        def logged_add_rows(simplex, indices):
            self.added_in_children += self.in_child
            self.added.extend(indices.tolist())
            add_rows(simplex, indices)

        monkeypatch.setattr(milp._Simplex, "__init__", counted_init)
        monkeypatch.setattr(milp._Simplex, "restore", marked_restore)
        monkeypatch.setattr(milp._Simplex, "reoptimise", logged_reoptimise)
        monkeypatch.setattr(milp._Simplex, "add_rows", logged_add_rows)


def test_parity_programs_branch_into_infeasible_children(monkeypatch):
    log = SimplexLog(monkeypatch)
    deepest = 0
    calls = 30
    for seed in range(calls):
        vs, objective, rows = parity_program(random.Random(seed))
        mine = solve_binary(vs, objective, rows)
        assert_matches_enumeration(vs, objective, rows, mine)
        deepest = max(deepest, mine.nodes_explored)
        if mine.nodes_explored > 1:  # the slack start can be optimal at once
            assert mine.lp_iterations > 0
    assert deepest > 1
    assert "infeasible" in log.reoptimised
    assert "optimal" in log.reoptimised
    # One LP per call: every child reoptimises the root's simplex.
    assert log.built == calls


def lazy_program(repeats: bool):
    """430 rows over 10 binaries, so most start pending: one equality and
    parity rows with coefficient 2.  With `repeats`, about a third of the
    parity rows repeat a handle, cancelling its term or adding 1 to it."""
    rng = random.Random(0)
    vs = handles(10)
    objective = [float(rng.randint(-3, 1)) for _ in vs]
    rows = [LinearConstraint(((vs[8], 1.0), (vs[9], 1.0)), "=", 1.0, "pick")]
    while len(rows) < 430:
        picked = rng.sample(vs, rng.randint(2, 4))
        rhs = float(2 * rng.randint(1, len(picked) - 1) + 1)
        terms = [(h, 2.0) for h in picked]
        if repeats and rng.random() < 0.3:
            terms.append((picked[0], rng.choice((-2.0, 1.0))))
        rows.append(LinearConstraint(tuple(terms), "<=", rhs, "t"))
    return vs, objective, rows


def test_lazy_rows_and_branching_agree_with_enumeration(monkeypatch):
    assert milp._LAZY_ROW_THRESHOLD < 430
    for repeats in (False, True):
        vs, objective, rows = lazy_program(repeats)
        with monkeypatch.context() as patch:
            log = SimplexLog(patch)
            mine = solve_binary(vs, objective, rows)
        assert mine.status == "optimal"
        assert mine.nodes_explored > 1
        assert log.built == 1
        assert log.added_in_children > 0, "no row was activated below the root"
        # The coefficient each activated row with a repeated handle appends.
        kinds = {
            rows[i].terms[-1][1] for i in log.added if len(dict(rows[i].terms)) < len(rows[i].terms)
        }
        assert kinds == ({-2.0, 1.0} if repeats else set())
        assert_matches_enumeration(vs, objective, rows, mine)
        relaxed = solve_lp(vs, objective, rows)
        assert relaxed.status == "optimal"
        assert relaxed.objective == pytest.approx(
            oracles.lp_reference(vs, objective, rows).fun, abs=1e-6
        )


def test_binary_deadline_stops_after_the_root():
    vs = handles(2)
    rows = [LinearConstraint(tuple((h, 1.0) for h in vs), "<=", 1.5, "t")]
    full = solve_binary(vs, [-1.0, -1.0], rows)
    assert full.status == "optimal"
    assert full.nodes_explored > 1, "this problem must branch"
    late = solve_binary(vs, [-1.0, -1.0], rows, deadline=time.monotonic() - 1.0)
    assert late.status == "time_limit"
    assert late.nodes_explored == 1
    assert late.objective is None
    assert late.bound == pytest.approx(-1.5)
    assert late.bound <= full.objective
    ahead = solve_binary(vs, [-1.0, -1.0], rows, deadline=math.inf)
    assert ahead.status == "optimal"
    assert ahead.objective == pytest.approx(full.objective)


def test_a_deadline_stops_a_child_inside_its_reoptimisation(monkeypatch):
    """The clock passes the deadline at a child's first basis exchange, so
    the check of the next simplex pass stops the search: no pass runs after
    it, and the bound is at most the optimum.  The child goes back on the
    heap unsolved, so a resume with no deadline ends at the optimum.  A
    deadline of `math.inf` gives the unlimited answer."""
    state = {}
    restore, exchange = milp._Simplex.restore, milp._Simplex._exchange

    def child_restore(lp, *args):
        state["lp"] = lp
        restore(lp, *args)

    def child_exchange(lp, *args):
        exchange(lp, *args)
        if "lp" in state:
            state.setdefault("late_reads", 0)

    def clock():
        if "late_reads" not in state:
            return 0.0
        state["late_reads"] += 1
        state["after"] = (state["lp"].iterations, state["lp"].pivots)
        return 1.0

    monkeypatch.setattr(milp._Simplex, "restore", child_restore)
    monkeypatch.setattr(milp._Simplex, "_exchange", child_exchange)
    monkeypatch.setattr(milp.time, "monotonic", clock)
    stopped = 0
    for seed in range(30):
        vs, objective, rows = parity_program(random.Random(seed))
        full = solve_binary(vs, objective, rows)
        state.clear()
        store = milp._row_store(vs, rows)
        late = solve_binary(vs, objective, store, deadline=0.5)
        if "late_reads" in state:
            stopped += 1
            assert late.status == "time_limit"
            assert state["late_reads"] == 1
            assert state["after"] == (state["lp"].iterations, state["lp"].pivots)
            assert full.status == "infeasible" or late.bound <= full.objective + 1e-9
            out = solve_binary(vs, objective, store, resume=late)
            assert (out.status, out.objective) == (full.status, full.objective)
        ahead = solve_binary(vs, objective, rows, deadline=math.inf)
        assert (ahead.status, ahead.objective) == (full.status, full.objective)
    assert stopped >= 5


def test_a_row_store_solves_like_its_rows():
    inst = framed_instance()
    variables, costs = master_variables(inst)
    store = build_initial_constraints(inst)
    views = list(store)
    for solver in (solve_lp, solve_binary):
        a, b = solver(variables, costs, store), solver(variables, costs, views)
        assert a.status == b.status == "optimal"
        assert a.objective == b.objective
        assert a.values.tolist() == b.values.tolist()
    with pytest.raises(milp.MilpError, match="other variables"):
        solve_lp(variables[::-1], costs[::-1], store)


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.sampled_from([-1.0, -0.5, 0.0, 0.5]))
def test_binary_cutoff_agrees_with_complete_enumeration(seed, offset):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        vs, objective, rows = parity_program(rng)
    else:
        vs = handles(rng.randint(1, 8))
        objective = [float(rng.randint(-3, 3)) for _ in vs]
        rows = random_rows(rng, vs, rng.randint(0, 5))
    status, best, _ = oracles.binary_reference(vs, objective, rows)
    cutoff = (best if status == "optimal" else 0.0) + offset
    mine = solve_binary(vs, objective, rows, cutoff=cutoff)
    if status == "optimal" and best <= cutoff:
        # An optimum at the cutoff itself is never cut off.
        assert mine.status == "optimal"
        assert mine.objective == pytest.approx(best, abs=1e-9)
    elif mine.status == "cutoff":
        assert mine.objective is None and mine.values is None
        assert mine.bound > cutoff
        if status == "optimal":
            assert mine.bound <= best + 1e-9
    else:
        assert status == mine.status == "infeasible"


def test_a_cutoff_below_the_root_bound_ends_at_the_root():
    vs = handles(2)
    rows = [LinearConstraint(tuple((h, 1.0) for h in vs), "<=", 1.5, "t")]
    out = solve_binary(vs, [-1.0, -1.0], rows, cutoff=-2.0)
    assert (out.status, out.nodes_explored, out.bound) == ("cutoff", 1, pytest.approx(-1.5))
    # Between the root bound and the optimum, -1, the cutoff ends the
    # search below the root, with the least bound it cut off.
    out = solve_binary(vs, [-1.0, -1.0], rows, cutoff=-1.25)
    assert out.status == "cutoff"
    assert out.nodes_explored > 1
    assert out.bound == pytest.approx(-1.0)



def reference_matrix(store, active, appended, nstruct):
    """The LP matrix over `active` store rows and then `appended` ones, one
    coefficient at a time from the store: structural entries (a repeated
    handle adds up), then one slack per row in that order, +1 for `<=` and
    `=` and -1 for `>=`."""
    rows = list(active) + list(appended)
    a = np.zeros((len(rows), nstruct + len(rows)))
    for r, i in enumerate(rows):
        for k in range(store.start[i], store.start[i + 1]):
            a[r, store.col[k]] += store.val[k]
        a[r, nstruct + r] = -1.0 if store.sense[i] == milp._SENSE_GE else 1.0
    return a


def dense_basis(lp):
    """The live LP's basic columns, dense, from `reference_matrix`."""
    return reference_matrix(lp.rows, lp.active, [], lp.nstruct)[:, lp.basis]


def assert_kernels_match(simplex, a, rng):
    assert (simplex.m, simplex.ncols) == a.shape
    y = np.array([rng.uniform(-2, 2) for _ in range(simplex.m)])
    np.testing.assert_allclose(simplex._products(y), y @ a, rtol=0, atol=1e-12)
    basis = dense_basis(simplex)
    np.testing.assert_array_equal(basis, a[:, simplex.basis])
    np.testing.assert_allclose(simplex.Binv @ basis, np.eye(simplex.m), rtol=0, atol=1e-12)
    for j in range(simplex.ncols):
        np.testing.assert_allclose(simplex._ftran(j), simplex.Binv @ a[:, j], rtol=0, atol=1e-12)


def random_terms(rng, vs):
    """1-5 terms over `vs`; a handle is often repeated."""
    return tuple(
        (rng.choice(vs), float(rng.randint(-3, 3))) for _ in range(rng.randint(1, 5))
    )


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_sparse_products_and_columns_match_a_dense_matrix(seed):
    rng = random.Random(seed)
    vs = handles(rng.randint(1, 6))
    rows = [
        LinearConstraint(
            random_terms(rng, vs), rng.choice(("<=", ">=", "=")), float(rng.randint(-1, 1)), "t"
        )
        for _ in range(rng.randint(1, 6))
    ]
    store = milp._row_store(vs, rows)
    n = len(vs)
    simplex = milp._Simplex(np.zeros(n), store, np.zeros(n), np.ones(n))
    active = simplex.active.tolist()
    assert_kernels_match(simplex, reference_matrix(store, active, [], n), rng)
    # Rows appended later, as lazy activation appends them.
    extra = [
        LinearConstraint(random_terms(rng, vs), rng.choice(("<=", ">=", "=")), 1.0, "added")
        for _ in range(rng.randint(1, 4))
    ]
    store.extend(extra)
    appended = list(range(len(rows), len(rows) + len(extra)))
    simplex.add_rows(np.array(appended))
    assert_kernels_match(simplex, reference_matrix(store, active, appended, n), rng)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_added_rows_join_on_basic_slacks_under_a_fresh_inverse(seed):
    """Rows appended to a solved LP, some violated at its vertex and some
    not, join with their slacks basic at sign * (rhs - lhs) of that vertex.
    Binv matches a dense inverse of the grown basis to 1e-9, and
    reoptimising reaches the reference optimum over every row."""
    rng = random.Random(seed)
    vs = handles(rng.randint(1, 6))
    n = len(vs)
    objective = [float(rng.randint(-3, 3)) for _ in vs]
    rows = [row for row in random_rows(rng, vs, rng.randint(1, 6)) if row.terms]
    store = milp._row_store(vs, rows)
    lp = milp._Simplex(np.asarray(objective), store, np.zeros(n), np.ones(n))
    assume(lp.reoptimise() == "optimal")
    full = lp.x.copy()
    full[lp.basis] = lp.xB
    vertex = full[:n]
    # A violated row misses the vertex by 0.5-2; a satisfied one holds with
    # that slack, or tight.
    flags = [True, False] + [rng.random() < 0.5 for _ in range(rng.randint(0, 3))]
    extra = []
    while len(extra) < len(flags):
        extra += [row for row in random_rows(rng, vs, 1) if row.terms]
    for i, (row, violated) in enumerate(zip(extra, flags)):
        lhs = math.fsum(c * vertex[h.index] for h, c in row.terms)
        gap = rng.choice((0.5, 1.0, 2.0)) if violated else rng.choice((0.0, 0.5, 1.0, 2.0))
        if row.sense == "=":
            rhs = lhs + rng.choice((-1.0, 1.0)) * (gap if violated else 0.0)
        else:
            rhs = lhs + (gap if (row.sense == "<=") != violated else -gap)
        extra[i] = LinearConstraint(row.terms, row.sense, rhs, "added")
    store.extend(extra)
    appended = np.arange(len(rows), len(rows) + len(extra))
    assert store.violated(vertex)[appended].tolist() == flags
    m0, n0 = lp.m, lp.ncols
    lp.add_rows(appended)
    np.testing.assert_allclose(lp.Binv, np.linalg.inv(dense_basis(lp)), rtol=0, atol=1e-9)
    assert lp.basis[m0:].tolist() == list(range(n0, n0 + len(extra)))
    assert (lp.vstat[n0:] == milp._BASIC).all()
    sign = milp._SLACK_SIGN[store.sense[appended]]
    slack = sign * (store.rhs[appended] - store.lhs(vertex)[appended])
    np.testing.assert_allclose(lp.xB[m0:], slack, rtol=0, atol=1e-9)
    status = lp.reoptimise()
    ref = oracles.lp_reference(vs, objective, rows + extra)
    if ref.status == 2:
        assert status == "infeasible"
    else:
        assert (ref.status, status) == (0, "optimal")
        value = float(np.asarray(objective) @ lp.structural_values())
        assert value == pytest.approx(ref.fun, abs=1e-6)


def test_columns_no_row_touches_start_at_their_cheaper_bound():
    vs = handles(4)
    rows = [LinearConstraint(((vs[0], 1.0), (vs[3], 1.0)), "<=", 1.0, "t")]
    # x1 (cost -1) and x2 (cost 2) appear in no row: the crash puts them at
    # 1 and 0, which is optimal, so no pivot or bound flip is needed.
    out = solve_lp(vs, [1.0, -1.0, 2.0, 0.0], rows)
    assert out.status == "optimal"
    assert out.values.tolist() == [0.0, 1.0, 0.0, 0.0]
    assert out.iterations == 0
    # A column that a row touches still starts at its lower bound.
    out = solve_lp(vs, [1.0, -1.0, 2.0, -1.0], rows)
    assert out.values.tolist() == [0.0, 1.0, 0.0, 1.0]
    assert out.iterations == 1


def test_an_infeasible_crash_starts_the_dual_simplex_from_the_slack_basis():
    inst = framed_instance()
    variables, costs = master_variables(inst)
    flow = list(build_initial_constraints(inst))
    # Stage 1's master starts from its flow rows alone.  Each row has a
    # column no other row touches (s->v in v's in-row, v->t in its out-row),
    # so the first pass claims every row and B is diagonal.
    interval = interval_instance()
    interval_vars, interval_costs = master_variables(interval)
    interval_rows = list(build_initial_constraints(interval))
    assert {row.sense for row in interval_rows} == {"="}
    a, b, c, e = handles(4)
    infeasible_crash = [
        LinearConstraint(((a, 1.0), (b, 1.0)), ">=", 1.0, "t"),
        LinearConstraint(((b, 1.0), (c, 2.0)), "=", 1.5, "t"),
        LinearConstraint(((a, 1.0), (c, -1.0)), "<=", 0.5, "t"),
    ]
    # The first pass claims the first row with a and the third with e; b
    # claims the middle row in the second pass, at b = 1.5, out of its box,
    # while a = 0.5 and e = 1 stay in theirs.  Yet b + c = 1.5 is feasible.
    second_pass_leaves_the_box = [
        LinearConstraint(((a, 1.0), (b, -1.0)), "=", -1.0, "t"),
        LinearConstraint(((b, 2.0), (c, 2.0)), "=", 3.0, "t"),
        LinearConstraint(((c, 1.0), (e, 1.0)), "=", 1.0, "t"),
    ]
    cases = [
        (variables, costs, flow, "feasible"),  # every flow row holds at x = 0
        (interval_vars, interval_costs, interval_rows, "structural"),
        ([a, b, c], [1.0, -1.0, 2.0], infeasible_crash, "slack"),
        ([a, b, c, e], [1.0, -1.0, 2.0, 1.0], second_pass_leaves_the_box, "slack"),
    ]
    for vs, objective, rows, start in cases:
        n = len(vs)
        objective = np.asarray(objective)
        lp = milp._Simplex(objective, milp._row_store(vs, rows), np.zeros(n), np.ones(n))
        lo, up = lp.lo[lp.basis], lp.up[lp.basis]
        feasible = bool(((lo <= lp.xB) & (lp.xB <= up)).all())
        assert feasible == (start != "slack")
        if start == "structural":
            assert lp.m == len(rows) and (lp.basis < n).all()
            assert np.array_equal(lp.Binv, np.diag(np.diag(lp.Binv)))
        if start == "slack":
            # Dual feasible: each structural sits at its cheaper bound.
            assert lp.basis.tolist() == list(range(n, n + lp.m))
            assert lp.x[:n].tolist() == np.where(objective < 0, 1.0, 0.0).tolist()
        assert lp.reoptimise() == "optimal"
        ref = oracles.lp_reference(vs, objective.tolist(), rows)
        assert ref.status == 0
        assert float(objective @ lp.structural_values()) == pytest.approx(ref.fun, abs=1e-9)


def shared_column_rows(rng):
    """Equality rows over 1-4 of 3-10 columns each, so that they share
    columns and a row is often claimed only after others; one in five
    repeats a handle.  Then 0-3 inequality rows.  Every right-hand side is 0."""
    vs = handles(rng.randint(3, 10))
    rows = []
    for count, senses in ((rng.randint(1, len(vs)), ("=",)), (rng.randint(0, 3), ("<=", ">="))):
        for _ in range(count):
            picked = rng.sample(vs, rng.randint(1, min(4, len(vs))))
            if rng.random() < 0.2:
                picked.append(picked[0])
            terms = tuple((h, float(rng.choice((-2, -1, 1, 2, 3)))) for h in picked)
            rows.append(LinearConstraint(terms, rng.choice(senses), 0.0, "t"))
    return vs, rows


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_the_crash_inverse_matches_a_dense_inverse(seed):
    """With right-hand sides 0 the crash vertex is 0, in the box.  Right-hand
    sides that put the same basis at a random point of the box leave nonzero
    residuals at the crash point; the crash then reaches that point, and its
    Binv and xB match a dense inverse and a full refactor to 1e-9."""
    rng = random.Random(seed)
    vs, rows = shared_column_rows(rng)
    n = len(vs)

    def crash(rows):
        return milp._Simplex(np.zeros(n), milp._row_store(vs, rows), np.zeros(n), np.ones(n))

    zero = crash(rows)
    assert not zero.xB.any()
    structural = zero.basis < n
    point = np.zeros(n)
    point[zero.basis[structural]] = [rng.uniform(0.1, 0.9) for _ in range(structural.sum())]
    expected = np.zeros(len(rows))  # xB: the point, and the slacks drawn below
    expected[structural] = point[zero.basis[structural]]
    shifted = []
    for r, row in enumerate(rows):
        rhs = math.fsum(coef * point[h.index] for h, coef in row.terms)
        if row.sense != "=":  # inequality rows keep their slacks
            expected[r] = rng.uniform(0.0, 2.0)
            rhs += expected[r] if row.sense == "<=" else -expected[r]
        shifted.append(LinearConstraint(row.terms, row.sense, rhs, row.tag))
    lp = crash(shifted)
    assert np.array_equal(lp.basis, zero.basis)
    np.testing.assert_allclose(lp.Binv, np.linalg.inv(dense_basis(lp)), rtol=0, atol=1e-9)
    crash_xb = lp.xB.copy()
    np.testing.assert_allclose(crash_xb, expected, rtol=0, atol=1e-9)
    lp._refactor()
    np.testing.assert_allclose(crash_xb, lp.xB, rtol=0, atol=1e-9)


def mixed_basis(rng, kernel, singletons, slacks):
    """An LP of kernel + singletons + slacks rows and a basis in random
    positions: `kernel` structural columns with a non-zero in every kernel
    row (a column-wise diagonally dominant block there, so non-singular)
    and random entries elsewhere, `singletons` structural columns that
    touch one row each, and the slacks of the other rows.  One or two
    non-basic columns touch every row, so no row is empty; one term in
    five is split into two terms of the same handle."""
    m = kernel + singletons + slacks
    rows = rng.sample(range(m), m)
    krows, srows = rows[:kernel], rows[kernel : kernel + singletons]
    n = kernel + singletons + rng.randint(1, 2)
    coef = np.zeros((m, n))
    for j, r in enumerate(krows):
        coef[:, j] = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(m)]
        coef[krows, j] = [rng.choice((-2, -1, 1, 2)) for _ in krows]
        coef[r, j] = rng.choice((-1, 1)) * (2 * kernel + 1)
    for j, r in enumerate(srows, start=kernel):
        coef[r, j] = rng.choice((-3, -2, -1, 1, 2, 3))
    coef[:, kernel + singletons :] = [
        [rng.choice((-2, -1, 1, 2)) for _ in range(kernel + singletons, n)] for _ in range(m)
    ]
    vs = handles(n)
    constraints = []
    for r in range(m):
        terms = []
        for j in coef[r].nonzero()[0]:
            c = float(coef[r, j])
            terms += [(vs[j], c / 2), (vs[j], c / 2)] if rng.random() < 0.2 else [(vs[j], c)]
        sense = rng.choice(("<=", ">=", "="))
        constraints.append(LinearConstraint(tuple(terms), sense, float(rng.randint(-2, 2)), "t"))
    lp = milp._Simplex(np.zeros(n), milp._row_store(vs, constraints), np.zeros(n), np.ones(n))
    basic = list(range(kernel + singletons)) + [n + r for r in rows[kernel + singletons :]]
    lp.basis = np.array(rng.sample(basic, m), dtype=np.int64)
    lp.x = np.array([rng.uniform(0.0, 1.0) for _ in range(lp.ncols)])
    return lp


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_refactor_inverts_bases_of_slacks_singletons_and_a_kernel(seed):
    """The all-slack basis, one whose kernel is empty, and a mix with a
    kernel of 2-6 columns: Binv matches a dense inverse to 1e-9, and xB
    solves B xB = b - N x_N."""
    rng = random.Random(seed)
    k, s, r = rng.randint(2, 6), rng.randint(0, 5), rng.randint(0, 5)  # kernel, singletons, slacks
    for sizes in ((0, 0, k + s + r), (0, s + 1, r), (k, s, r)):
        lp = mixed_basis(rng, *sizes)
        lp._refactor()
        np.testing.assert_allclose(lp.Binv, np.linalg.inv(dense_basis(lp)), rtol=0, atol=1e-9)
        x = lp.x.copy()
        x[lp.basis] = lp.xB
        a = reference_matrix(lp.rows, lp.active, [], lp.nstruct)
        np.testing.assert_allclose(a @ x, lp.rows.rhs[lp.active], rtol=0, atol=1e-9)


def test_refactor_refuses_singular_bases():
    """Two singleton columns in one row, a singular kernel, a basic column
    whose repeated entries cancel, and one whose only entry is 0 each raise
    `MilpError`."""
    a, b, c, d = vs = handles(4)
    rows = [
        LinearConstraint(((a, 1.0), (c, 1.0)), "<=", 1.0, "t"),
        LinearConstraint(((b, 1.0), (c, 1.0), (d, 1.0), (d, -1.0)), "<=", 1.0, "t"),
        LinearConstraint(((b, 2.0), (c, 2.0)), "<=", 1.0, "t"),
    ]
    lp = milp._Simplex(np.zeros(4), milp._row_store(vs, rows), np.zeros(4), np.ones(4))
    for basis, message in (
        ([0, 4, 6], "two singleton columns share a row"),  # a and row 0's slack
        ([4, 1, 2], "singular basis: Singular matrix"),  # b and c on rows 1 and 2
        ([4, 3, 6], "singular basis: Singular matrix"),  # d's entries cancel
    ):
        lp.basis = np.array(basis)
        with pytest.raises(milp.MilpError, match=message):
            lp._refactor()
    # An uncanonicalised row keeps a's zero coefficient as an entry.
    zero = [LinearConstraint(((a, 0.0), (b, 1.0)), "<=", 1.0, "t")]
    lp = milp._Simplex(np.zeros(2), milp._row_store(vs[:2], zero), np.zeros(2), np.ones(2))
    lp.basis = np.array([0])
    with pytest.raises(milp.MilpError, match="singular basis: a basic column's only entry is 0"):
        lp._refactor()


def refactor_growth(inst):
    """The flow-only master of `inst` after `reoptimise`: its rows m, its
    kernel columns nk, and how far one `_refactor` raises the traced
    memory above its start, in bytes.  The old inverse is traced, and the
    test holds no reference to it, so an inverse that replaces it adds
    nothing."""
    vs, costs = master_variables(inst)
    rows = milp._row_store(vs, list(build_initial_constraints(inst)))
    assert set(rows.tags) == {"flow"}
    n = len(vs)
    tracemalloc.start()
    try:
        lp = milp._Simplex(np.asarray(costs), rows, np.zeros(n), np.ones(n))
        assert lp.reoptimise() == "optimal"
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        lp._refactor()
        growth = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(lp.Binv @ dense_basis(lp), np.eye(lp.m), rtol=0, atol=1e-9)
    nk = np.count_nonzero(lp.a_ptr[lp.basis + 1] - lp.a_ptr[lp.basis] != 1)
    return lp.m, nk, growth


def test_a_refactor_holds_one_dense_inverse_beside_its_kernel_blocks(monkeypatch):
    """A refactor drops the old inverse first and builds no dense B, so
    beside one inverse it holds at most one m x nk block for a kernel of
    nk columns, plus 256 KiB of indexing buffers.  On a stage-2 tracklet
    graph of 155 nodes (m = 310, a small kernel) that is below half a dense
    m x m array, so with the inverse below 1.5; on a whole-sequence
    instance the kernel is nearly the whole basis.  A dense B, or an old
    inverse kept beside the new one, would exceed both."""
    masters = []
    solve_graph = tracking.solve

    def recording_solve(instance, *args):
        masters.append(instance)
        return solve_graph(instance, *args)

    monkeypatch.setattr(tracking, "solve", recording_solve)
    table = planted_sequence(random.Random(0), frames=150, noise=0.2, clutter=110)
    config = tracking.TrackingConfig(max_gap_frames=10, interval_length=10, max_iterations=1)
    tracking.run_tracking(table, config)
    assert masters[-1].n >= 150
    m, nk, growth = refactor_growth(masters[-1])
    assert m >= 300 and nk > 0
    assert growth < 0.5 * 8 * m * m
    assert growth < 8 * m * nk + 2**18
    table = planted_sequence(random.Random(0), frames=60, noise=0.2, clutter=4)
    m, nk, growth = refactor_growth(sequence_instance(table)[0])
    assert m >= 300 and nk > 0.9 * m
    assert growth < 8 * m * nk + 2**18


def test_no_master_equality_row_starts_on_its_fixed_slack():
    """Every node of these instances lies on a source-sink route, so the
    passes claim every flow row: s->v and v->t first, then along the routes."""
    rng = random.Random(5)
    instances = [random_instance(rng) for _ in range(40)]
    instances += [reduce_sat(random_formula(rng)).instance for _ in range(40)]
    for inst in instances:
        vs, costs = master_variables(inst)
        rows = milp._row_store(vs, list(build_initial_constraints(inst)))
        n = len(vs)
        lp = milp._Simplex(np.asarray(costs), rows, np.zeros(n), np.ones(n))
        eq = rows.sense[lp.active] == milp._SENSE_EQ
        assert eq.any() and (lp.basis[eq] < n).all()


def test_round_one_masters_need_fewer_pivots_than_flow_rows():
    """An equality row left on its fixed slack costs a degenerate pivot to
    expel it.  With every flow row claimed, round 1 of 20 random 5-clause
    formulas over 6 variables takes fewer master pivots than those formulas
    have equality rows."""
    rng = random.Random(0)
    pivots = equalities = 0
    for _ in range(20):
        clauses = [
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 7), 3))
            for _ in range(5)
        ]
        inst = reduce_sat(clauses).instance
        equalities += sum(row.sense == "=" for row in build_initial_constraints(inst))
        pivots += solve(inst).trace[0].master_pivots
    assert equalities == 600
    assert pivots < equalities
