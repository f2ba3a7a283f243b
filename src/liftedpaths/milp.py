"""Binary-program backend: bounded-variable simplex plus branch-and-bound.

The LP core is a revised simplex over finite boxes (structural variables
live in [0, 1] unless a caller gives other finite bounds), so every LP is
bounded.  Each row has one slack: +1 for `<=` and `=`, -1 for `>=`, fixed at
0 for `=`.  The crash point puts every structural at its lower bound, except
a column no starting row touches, which starts at its cheaper bound.  The
crash basis is triangular: an inequality row takes its slack, and equality
rows claim structural columns in passes, each row a column whose other
equality-row entries all lie in rows claimed in earlier passes, so no
equality row is left on its fixed slack where such columns exist (in a flow
master every row of a node on a source-sink route is claimed).  One
routine, `_Simplex._refactor`, inverts every basis from scratch, from the
basic columns' entries: the basic columns with a single entry (every basic
slack, and a structural touching one row) are divided out, and only the
kernel of the other columns is scattered densely and goes to LAPACK.  In
the flow-only masters of tracking, whose nodes all have edges from s and to
t, the crash kernel is usually empty.
A crash whose vertex is in the box is solved by the primal simplex;
otherwise the all-slack basis with every structural at its cheaper bound is
dual feasible, and the dual simplex below starts from it.  Pricing is
Dantzig's rule, switching to Bland's rule after 3*(m+n) degenerate pivots so
cycling cannot occur.

A solved LP stays live: after a bound change or appended rows its basis is
still dual feasible, and a bounded dual simplex (leaving row: the largest
bound violation; entering column: the dual ratio test, with the same Bland
fallback) restores primal feasibility in a few pivots.  A row whose bound
violation no entering column can reduce proves the LP infeasible.  Past 400
rows only the equality rows start active; the rows a vertex violates are
appended with their slacks basic, `_refactor` inverts the grown basis, and
the LP is reoptimised this way.

The integer layer is best-first branch-and-bound over one live LP: every
open node keeps the optimal basis of its LP, and a child restores its
parent's basis, tightens the branched bound and reoptimises by dual pivots.
Nodes are ordered by LP bound, branching picks the fractional variable with
the largest objective stake, and the first node popped with an integral
vertex is the optimum.  Nothing is pruned against an incumbent, so the search
stays valid as rows are added: a later call resumes it after the caller
appended rows, and only the open nodes those rows cut off are
reoptimised, from their own bases; nothing is rebuilt or re-crashed.  With a
cutoff, a node whose bound exceeds it by more than 1e-9 is pruned for good,
and a search that finds no solution at or below the cutoff ends with status
"cutoff".  No cut generation happens here; callers add their own rows.

Each solve keeps its rows in one array store, `_RowStore` (entry row, column
and coefficient arrays, plus sense, right-hand-side and tag arrays).  The
solvers take either such a store, as the cutting-plane driver builds and
extends for its pool, or a sequence of `LinearConstraint`s, which they index
into one.  The LP matrix, crash point, lazy activation and integral re-check
read it, and `_RowStore.violated` alone decides row violation.  The only
presolve is dropping empty rows, after checking that they are satisfiable.
The LP matrix is one entry array sorted by column: the store entries of the
LP's rows, one +-1 entry per slack, and the entries of rows appended later.
It takes three arrays of one word per non-zero, beside the m x m basis
inverse; a refactor drops the old inverse before it allocates the new one
and holds no other m x m array, only the kernel's blocks.  Both simplex
loops price with one vector of reduced costs d over every column, kept with
the basis: `_refactor` computes it afresh, and each basis exchange updates
it by one multiple of the pivot row of B^-1 A, at O(non-zeros) per exchange;
a bound flip changes no basis and does no pricing work.  The primal simplex
prices afresh before it reports an optimum from an updated d.  The entering
column B^-1 a_j reads only the inverse's columns at a_j's rows, and the
ratio test, the step and the inverse update touch only the rows where
B^-1 a_j is non-zero.  The inverse and d are rebuilt by `_refactor` every
256 basis changes and whenever rows are appended, and a node that restores
the live basis keeps both.  A deadline is checked at every simplex pass.
"""

from __future__ import annotations

import heapq
import math
import operator
import time
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "KIND_NODE",
    "KIND_BASE",
    "KIND_LIFT",
    "MilpError",
    "VariableHandle",
    "LinearConstraint",
    "check_violation",
    "LpResult",
    "BinaryResult",
    "solve_lp",
    "solve_binary",
]

#: Variable kinds, in canonical column order.
KIND_NODE = "node"
KIND_BASE = "base"
KIND_LIFT = "lift"

_SENSE_LE = 0
_SENSE_EQ = 1
_SENSE_GE = 2
_SENSES = {"<=": _SENSE_LE, "=": _SENSE_EQ, ">=": _SENSE_GE}
_SENSE_NAMES = ("<=", "=", ">=")
#: By sense code: a row's slack coefficient and the slack's upper bound.
_SLACK_SIGN = np.array([1.0, 1.0, -1.0])
_SLACK_UP = np.array([np.inf, 0.0, np.inf])

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2
#: By status: the sign of a move off the variable's bound (none when basic).
_DIRECTION = np.array([1.0, -1.0, 0.0])

_TOL_PRICE = 1e-9
_TOL_PIVOT = 1e-9
_TOL_FEAS = 1e-9
_INTEGRALITY_TOL = 1e-6
_GAP_TOL = 1e-9
_REFACTOR_EVERY = 256
#: Tolerance for re-checking a rounded integral candidate against the rows.
#: Row data is integral, so a genuine violation is >= 1; this only needs to
#: absorb the <= 1e-6 per-variable rounding drift.
_ROUNDED_ROW_TOL = 1e-2


class MilpError(RuntimeError):
    """Numerical breakdown or malformed input to the backend."""


class VariableHandle(NamedTuple):
    """Identity of a decision variable: its kind and index in the instance."""

    kind: str
    index: int

    def label(self) -> str:
        return f"{self.kind}[{self.index}]"


@dataclass(frozen=True)
class LinearConstraint:
    """`sum(coef * var) sense rhs` with a family tag for bookkeeping."""

    terms: tuple[tuple[VariableHandle, float], ...]
    sense: str
    rhs: float
    tag: str

    def __post_init__(self):
        if self.sense not in _SENSES:
            raise MilpError(f"unknown sense {self.sense!r}")

    def canonicalized(self) -> "LinearConstraint":
        """Sort terms by handle, merge duplicates, drop zero coefficients."""
        acc: dict[VariableHandle, float] = {}
        for h, c in self.terms:
            acc[h] = acc.get(h, 0.0) + c
        terms = tuple((h, acc[h]) for h in sorted(acc) if acc[h] != 0.0)
        return LinearConstraint(terms, self.sense, self.rhs, self.tag)

    def key(self) -> tuple:
        """Dedup key: content only, so equal rows from different families collide."""
        c = self.canonicalized()
        return (c.terms, c.sense, c.rhs)

    def format(self) -> str:
        lhs = " ".join(f"{c:+g}*{h.label()}" for h, c in self.terms) or "0"
        return f"{self.tag}: {lhs} {self.sense} {self.rhs:g}"


def check_violation(constraint: LinearConstraint, values) -> float:
    """How much `values` violates the constraint (0.0 if satisfied within 1e-9).

    `values` is any mapping from VariableHandle to float; a missing handle is
    an error, not a zero.
    """
    lhs = math.fsum(c * values[h] for h, c in constraint.terms)
    if constraint.sense == "<=":
        gap = lhs - constraint.rhs
    elif constraint.sense == ">=":
        gap = constraint.rhs - lhs
    else:
        gap = abs(lhs - constraint.rhs)
    return 0.0 if gap <= _TOL_FEAS else gap


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "iteration_limit": a boxed LP is bounded
    objective: float | None
    values: np.ndarray | None  # aligned with the `variables` argument
    iterations: int = 0  # simplex pivots, primal and dual, and bound flips


@dataclass
class BinaryResult:
    status: str  # "optimal" | "infeasible" | "cutoff" | "node_limit" | "time_limit"
    objective: float | None
    values: np.ndarray | None  # 0/1 ints aligned with `variables`
    nodes_explored: int = 0  # LPs solved by this call, re-solves of stale nodes included
    bound: float | None = None  # best proven lower bound
    lp_iterations: int = 0  # simplex pivots and bound flips of this call
    _search: _Search | None = field(default=None, compare=False, repr=False)  # for `resume=`


# ---------------------------------------------------------------------------
# simplex core
# ---------------------------------------------------------------------------

#: Above this many non-empty rows, inequality rows are activated lazily on violation.
_LAZY_ROW_THRESHOLD = 400


class _RowStore(Sequence):
    """Every row of one solve as flat arrays over the columns `variables`.

    Row i has `count[i]` entries; entry k puts `val[k]` at row `row[k]`,
    column `col[k]`, and entries are row-major in row order.  Each row has a
    sense code, a right-hand side and a code into `tags`.  A handle repeated
    within a row stays two entries: every use of the store is linear, so
    they add up.  A row with no entries is empty; one whose coefficients
    cancel is not.  As a sequence, the store yields a `LinearConstraint`
    view of each row, built when it is read.
    """

    def __init__(self, variables):
        self.variables = variables
        self.tags: list[str] = []
        self._col_of: dict[VariableHandle, int] | None = None
        self._set((), (), (), (), (), ())

    def _set(self, count, col, val, sense, rhs, tag) -> None:
        self.count = np.asarray(count, dtype=np.int64)
        self.row = np.repeat(np.arange(len(self.count)), self.count)
        self.start = np.concatenate([[0], np.cumsum(self.count)])
        self.col = np.asarray(col, dtype=np.int64)
        self.val = np.asarray(val, dtype=float)
        self.sense = np.asarray(sense, dtype=np.int64)
        self.rhs = np.asarray(rhs, dtype=float)
        self.tag = np.asarray(tag, dtype=np.int64)
        self.nonempty = self.count > 0

    def extend(self, constraints: Iterable[LinearConstraint]) -> None:
        """Append `constraints` as rows, one entry per term in term order; an
        unknown handle or a non-finite number raises `MilpError` and appends nothing."""
        if self._col_of is None:
            self._col_of = {h: i for i, h in enumerate(self.variables)}
            if len(self._col_of) != len(self.variables):
                raise MilpError("duplicate variable handles")
        col_of = self._col_of
        codes = {t: k for k, t in enumerate(self.tags)}
        count: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        sense: list[int] = []
        rhs: list[float] = []
        tag: list[int] = []
        h = None
        try:
            for con in constraints:
                for h, c in con.terms:
                    cols.append(col_of[h])
                    vals.append(c)
                count.append(len(con.terms))
                sense.append(_SENSES[con.sense])
                rhs.append(con.rhs)
                tag.append(codes.setdefault(con.tag, len(codes)))
        except (KeyError, TypeError) as exc:
            if isinstance(exc, TypeError) and isinstance(h, Hashable):
                raise  # not a lookup of the handle `h`
            name = h.label() if isinstance(h, VariableHandle) else repr(h)
            raise MilpError(f"constraint references unknown handle {name}") from None
        new_val, new_rhs = np.array(vals, dtype=float), np.array(rhs, dtype=float)
        if not (np.isfinite(new_val).all() and np.isfinite(new_rhs).all()):
            raise MilpError("constraint has a non-finite coefficient or right-hand side")
        self.tags = list(codes)
        old = (self.count, self.col, self.val, self.sense, self.rhs, self.tag)
        new = (count, cols, new_val, sense, new_rhs, tag)
        self._set(*(np.concatenate([a, np.asarray(b, dtype=a.dtype)]) for a, b in zip(old, new)))

    def __len__(self) -> int:
        return len(self.rhs)

    def __getitem__(self, i: int) -> LinearConstraint:
        i = range(len(self))[operator.index(i)]
        s, e = self.start[i], self.start[i + 1]
        handles = self.variables
        return LinearConstraint(
            tuple(zip([handles[j] for j in self.col[s:e].tolist()], self.val[s:e].tolist())),
            _SENSE_NAMES[self.sense[i]],
            float(self.rhs[i]),
            self.tags[self.tag[i]],
        )

    def lhs(self, values: np.ndarray, first: int = 0) -> np.ndarray:
        """Left-hand sides of the rows from `first` on, at `values`."""
        k = self.start[first]
        return np.bincount(
            self.row[k:] - first, self.val[k:] * values[self.col[k:]], minlength=len(self) - first
        )

    def violated(self, values: np.ndarray, tol: float = _TOL_FEAS, first: int = 0) -> np.ndarray:
        """Mask of the rows from `first` on that `values` violates by more
        than `tol`."""
        gap = self.lhs(values, first) - self.rhs[first:]
        sense = self.sense[first:]
        gap = np.where(sense == _SENSE_LE, gap, np.where(sense == _SENSE_GE, -gap, np.abs(gap)))
        return gap > tol

    def entries(self, idx: np.ndarray, first_slack: int) -> tuple[np.ndarray, ...]:
        """COO (row, col, val) of the rows `idx`, renumbered 0.. in that
        order, with each row's slack entry: row r's slack is column
        `first_slack + r`."""
        pos = np.full(len(self.rhs), -1)
        pos[idx] = np.arange(len(idx))
        r = pos[self.row]
        keep = r >= 0
        own = np.arange(len(idx))
        return (
            np.concatenate([r[keep], own]),
            np.concatenate([self.col[keep], first_slack + own]),
            np.concatenate([self.val[keep], _SLACK_SIGN[self.sense[idx]]]),
        )


class _Simplex:
    """A live LP: min c.x  s.t.  the non-empty rows of `rows`,  lo <= x <= up
    for finite lo and up.

    The LP's rows are `active`, indices into the store in LP row order; the
    rest of the non-empty rows are `pending`, and a caller may add store
    rows appended later to them.  LP row r's slack is column `nstruct + r`.
    It starts from the crash basis (slacks for inequality rows, claimed
    columns for equality rows) when its vertex is in the box, else from the
    dual-feasible slack basis; `_refactor` inverts either, as it inverts
    every basis from scratch, the one `add_rows` grows included.
    `restore` (a stored basis under new structural bounds) and `add_rows`
    keep the basis dual feasible.  `reoptimise`, from the start or after
    either, runs dual pivots until the basis is primal feasible, then primal
    pivots until it is optimal; both make every basis change with
    `_exchange`.  Both price with the reduced costs `d`, which `_refactor`
    computes afresh (`_price`) and `_exchange` updates from the pivot row;
    `_phase` prices afresh before it reports an optimum from an updated
    `d`.  `reoptimise` sets every column's move, `movable` and `direction`,
    once per batch, and the loops keep them.  Each pass stops the solve at
    `iteration_limit` passes or past `deadline`.
    Past `_LAZY_ROW_THRESHOLD` non-empty rows only the equality rows start
    active; `reoptimise` appends the pending rows the vertex violates and
    reoptimises until none is.  The LP matrix is the entries
    (`a_row`, `a_col`, `a_val`) in LP row and column numbering, sorted by
    column, with column j's entries at `a_ptr[j]:a_ptr[j + 1]`.  A repeated
    entry adds up.  `add_rows` merges the appended rows' entries in.
    """

    def __init__(
        self,
        c: np.ndarray,
        rows: _RowStore,
        lo: np.ndarray,
        up: np.ndarray,
        iteration_limit: int | None = None,
    ):
        self.rows = rows
        first = rows.nonempty
        if np.count_nonzero(first) > _LAZY_ROW_THRESHOLD:
            first = first & (rows.sense == _SENSE_EQ)
        self.active = np.flatnonzero(first)
        self.pending = np.flatnonzero(rows.nonempty & ~first)

        n = self.nstruct = len(c)
        m = self.m = len(self.active)
        ncols = self.ncols = n + m
        senses = rows.sense[self.active]
        ridx, cidx, data = rows.entries(self.active, n)
        self._set_entries(ridx, cidx, data)
        self.lo = np.concatenate([lo, np.zeros(m)])
        self.up = np.concatenate([up, _SLACK_UP[senses]])

        # Crash point: every structural sits on its lower bound, except that
        # a column no active row touches sits on its cheaper bound.  Such a
        # column moves no basic variable and changes no dual, so starting it
        # there saves a pricing pass per bound flip and changes no basis.
        struct = np.flatnonzero(cidx < n)
        entries = np.bincount(cidx[struct], minlength=n)
        x0 = np.where((entries == 0) & (c < 0), up, lo)

        # Crash basis (Bixby, ORSA J. Computing 1992): an inequality row
        # takes its slack, and equality rows claim structural columns in
        # passes.  In each pass, an equality row still on its fixed slack
        # takes a column with a non-zero entry in it whose other
        # equality-row entries all lie in rows claimed in earlier passes,
        # the column with the fewest entries first.  Such a column has no
        # entry in a row on its slack or claimed later, so B is triangular
        # in pass order, hence non-singular.
        basis = n + np.arange(m)
        k = struct[(senses[ridx[struct]] == _SENSE_EQ) & (data[struct] != 0)]
        k = k[np.argsort(ridx[k] * len(cidx) + entries[cidx[k]], kind="stable")]
        er, ec = ridx[k], cidx[k]  # by row, then fewest entries
        left = np.count_nonzero(senses == _SENSE_EQ)  # equality rows on their slacks
        while True:
            k = (np.bincount(ec, minlength=n)[ec] == 1).nonzero()[0]
            if not k.size:
                break
            claim = er[k]
            lead = np.empty(k.size, dtype=bool)  # each row's first candidate
            lead[0] = True
            np.not_equal(claim[1:], claim[:-1], out=lead[1:])
            k, claim = k[lead], claim[lead]
            basis[claim] = ec[k]
            left -= claim.size
            if not left:
                break
            k = (basis[er] >= n).nonzero()[0]  # the entries in unclaimed rows
            er, ec = er[k], ec[k]
        self.basis = basis
        self.x = np.concatenate([x0, np.zeros(m)])
        self.c = np.concatenate([c, np.zeros(m)])  # 0 on the slacks
        self._refactor()
        if ((self.xB < self.lo[basis]) | (self.xB > self.up[basis])).any():
            # Infeasible crash: the slack basis has duals 0, so d_j = c_j, and
            # with every structural at its cheaper bound it is dual feasible:
            # `_dual` can start from it (Koberstein, The dual simplex method,
            # PhD thesis, Paderborn 2005, ch. 4).
            x0 = np.where(c < 0, up, lo)
            self.basis = n + np.arange(m)
            self.x[:n] = x0
            self._refactor()

        self.vstat = np.full(ncols, _AT_LOWER, dtype=np.int64)
        self.vstat[:n][x0 == up] = _AT_UPPER
        self.vstat[self.basis] = _BASIC
        self.deadline: float | None = None  # a `time.monotonic()` instant each pass checks
        self.iterations = 0  # passes of the current solve, for its limit
        self.pivots = 0  # basis changes and bound flips over the LP's life
        self.degenerate = 0
        self.bland = False
        self.iteration_limit = (
            iteration_limit
            if iteration_limit is not None
            else 5000 + 60 * (m + ncols)
        )

    def _set_entries(self, row: np.ndarray, col: np.ndarray, val: np.ndarray) -> None:
        """Make (row, col, val) the LP matrix, sorted by column; the sort is
        stable, so entries already in order keep their summation order."""
        order = np.argsort(col, kind="stable")
        self.a_row, self.a_col, self.a_val = row[order], col[order], val[order]
        self.a_ptr = np.searchsorted(self.a_col, np.arange(self.ncols + 1))

    def _ftran(self, j: int) -> np.ndarray:
        """Binv a_j, from the columns of Binv at the rows of a_j's entries."""
        s, e = self.a_ptr[j], self.a_ptr[j + 1]
        return self.Binv[:, self.a_row[s:e]] @ self.a_val[s:e]

    def _products(self, y: np.ndarray) -> np.ndarray:
        """y @ A for a row vector y."""
        return np.bincount(self.a_col, y[self.a_row] * self.a_val, minlength=self.ncols)

    def _refactor(self) -> None:
        """Invert the basis afresh (Suhl & Suhl, ORSA J. Computing 1990) from
        the basic columns' entries.  A column with exactly one entry (every
        basic slack, and a structural touching one row) is divided out; every
        other column, repeated entries in one row included, is in the kernel
        K.  Ordered kernel first, B = [[K, 0], [N, D]] for a diagonal D, so
        its inverse is [[K^-1, 0], [-D^-1 N K^-1, D^-1]].  Only the kernel
        columns are scattered densely, into one m x nk block of K's rows then
        N's, and only K goes to LAPACK; each block of the inverse is
        scattered back to the basis positions and rows it stands for.  The
        old inverse is dropped first and the block once K^-1 and D^-1 N K^-1
        are formed, so the new inverse is the only m x m array a refactor
        holds."""
        self.Binv = None
        m = self.m
        start = self.a_ptr[self.basis]
        count = self.a_ptr[self.basis + 1] - start  # each basic column's entries
        single = count == 1
        cols, kcols = single.nonzero()[0], (~single).nonzero()[0]
        at, d = self.a_row[start[cols]], self.a_val[start[cols]]  # each singleton's entry
        if not d.all():
            raise MilpError("singular basis: a basic column's only entry is 0")
        free = np.ones(m, dtype=bool)
        free[at] = False
        krows = free.nonzero()[0]
        nk = len(kcols)
        if len(krows) != nk:
            raise MilpError("singular basis: two singleton columns share a row")
        if nk:
            place = np.empty(m, dtype=np.int64)  # each row's place in the block
            place[krows], place[at] = np.arange(nk), np.arange(nk, m)
            kc = count[kcols]
            col = np.repeat(np.arange(nk), kc)  # each kernel entry's block column
            # and its index into the LP matrix, column after column
            k = np.arange(len(col)) + np.repeat(start[kcols] - np.cumsum(kc) + kc, kc)
            flat = place[self.a_row[k]] * nk + col
            block = np.bincount(flat, self.a_val[k], minlength=m * nk).reshape(m, nk)
            try:
                kinv = np.linalg.inv(block[:nk])
            except np.linalg.LinAlgError as exc:
                raise MilpError(f"singular basis: {exc}") from None
            lower = (block[nk:] / -d[:, None]) @ kinv
            del block
        self.Binv = np.zeros((m, m))
        self.Binv[cols, at] = 1.0 / d
        if nk:
            self.Binv[kcols[:, None], krows] = kinv
            self.Binv[cols[:, None], krows] = lower
            del kinv, lower  # before `_basic_values` allocates
        self.updates = 0
        self._basic_values()
        self._price()

    def _price(self) -> None:
        """The reduced costs d = c - c_B Binv A, afresh."""
        self.d = self.c - self._products(self.c[self.basis] @ self.Binv)
        self.stale = False

    def _basic_values(self) -> None:
        """xB = Binv (b - N x_N)."""
        xfull = self.x.copy()
        xfull[self.basis] = 0.0
        ax = np.bincount(self.a_row, self.a_val * xfull[self.a_col], minlength=self.m)
        self.xB = self.Binv @ (self.rows.rhs[self.active] - ax)

    def _pivot(self, leave_row: int, col: np.ndarray, nz: np.ndarray) -> None:
        """Product-form update of Binv for the column `col` = Binv a_j that
        just entered at `leave_row`.  Only the rows `nz`, where `col` is
        non-zero, change, so the update costs O(len(nz) * m)."""
        row_r = self.Binv[leave_row] / col[leave_row]
        self.Binv[nz] -= col[nz, None] * row_r
        self.Binv[leave_row] = row_r
        self.pivots += 1
        self.updates += 1

    def _exchange(self, r, q, to_lower, value, col, nz, alpha) -> None:
        """The one basis exchange: column q, with `col` = Binv a_q non-zero at
        `nz`, enters at row r with value `value`, and the variable leaving
        goes to its lower bound if `to_lower`, else to its upper bound.
        `alpha`, row r of Binv A before the exchange, updates the reduced
        costs: d -= (d_q / alpha_q) alpha, with d_q set to exactly 0."""
        old = self.basis[r]
        self.x[old] = self.lo[old] if to_lower else self.up[old]
        self.vstat[old] = _AT_LOWER if to_lower else _AT_UPPER
        self.direction[old] = _DIRECTION[self.vstat[old]] * self.movable[old]
        self.basis[r] = q
        self.vstat[q] = _BASIC
        self.direction[q] = 0.0
        self.d -= (self.d[q] / alpha[q]) * alpha
        self.d[q] = 0.0
        self.stale = True
        self._pivot(r, col, nz)
        self.xB[r] = value

    def _count_degenerate(self, t: float) -> None:
        """Count a step of at most 1e-12; past 3*(m+n) of them, use Bland's rule."""
        if t <= 1e-12:
            self.degenerate += 1
            if self.degenerate > 3 * (self.m + self.nstruct):
                self.bland = True

    def _phase(self) -> str:
        """Bounded primal simplex from a primal-feasible basis."""
        if not self.ncols:
            return "optimal"  # no column to price
        while True:
            if self.iterations >= self.iteration_limit:
                return "iteration_limit"
            if self.deadline is not None and time.monotonic() >= self.deadline:
                return "time_limit"
            self.iterations += 1
            if self.updates >= _REFACTOR_EVERY:
                self._refactor()
            # -|d_j| where moving x_j off its bound lowers the objective.
            score = self.d * self.direction
            j = int(score.argmin())
            if score[j] >= -_TOL_PRICE:
                if not self.stale:
                    return "optimal"
                self._price()  # rule out drift before reporting an optimum
                continue
            if self.bland:
                j = int((score < -_TOL_PRICE).nonzero()[0][0])
            s_dir = 1.0 if self.vstat[j] == _AT_LOWER else -1.0
            col = self._ftran(j)
            nz = col.nonzero()[0]
            delta = s_dir * col[nz]
            basic = self.basis[nz]

            # Ratio test: how far can x_j move before a basic variable hits
            # a bound (or x_j flips to its own opposite bound)?
            bound = np.where(delta > 0, self.lo[basic], self.up[basic])
            t_rows = np.maximum((self.xB[nz] - bound) / delta, 0.0)
            t_rows[np.abs(delta) <= _TOL_PIVOT] = np.inf
            t_min_rows = float(t_rows.min(initial=np.inf))
            t = min(t_min_rows, self.up[j] - self.lo[j])
            if not math.isfinite(t):  # every structural is boxed: only drift gets here
                raise MilpError("unbounded step in a boxed LP")
            self._count_degenerate(t)

            self.xB[nz] -= t * delta
            if t < t_min_rows:  # x_j flips to its opposite bound
                self.x[j] = self.up[j] if self.vstat[j] == _AT_LOWER else self.lo[j]
                self.vstat[j] = _AT_UPPER if self.vstat[j] == _AT_LOWER else _AT_LOWER
                self.direction[j] = -self.direction[j]
                self.pivots += 1
                continue
            ties = (t_rows <= t_min_rows + 1e-12).nonzero()[0]
            k = int(ties[basic[ties].argmin()])
            leave_row = int(nz[k])
            alpha = self._products(self.Binv[leave_row])
            value = self.x[j] + s_dir * t
            self._exchange(leave_row, j, delta[k] > 0, value, col, nz, alpha)

    def _dual(self) -> str:
        """Bounded dual simplex: from a dual-feasible basis, pivot out bound
        violations until the basis is primal feasible too."""
        while True:
            lo_b = self.lo[self.basis]
            up_b = self.up[self.basis]
            below = lo_b - self.xB
            infeas = np.maximum(below, self.xB - up_b)
            rows = (infeas > _TOL_FEAS).nonzero()[0]
            if rows.size == 0:
                return "optimal"
            if self.iterations >= self.iteration_limit:
                return "iteration_limit"
            if self.deadline is not None and time.monotonic() >= self.deadline:
                return "time_limit"
            self.iterations += 1
            if self.updates >= _REFACTOR_EVERY:
                self._refactor()
                continue
            if self.bland:
                r = int(rows[self.basis[rows].argmin()])
            else:
                r = int(rows[infeas[rows].argmax()])
            to_lower = below[r] > 0
            alpha = self._products(self.Binv[r])
            # Raising x_j moves x_B[r] by -alpha_j; `gain` > 0 means moving
            # x_j off its bound moves x_B[r] toward the bound it violates.
            gain = (-alpha if to_lower else alpha) * self.direction
            idx = (gain > _TOL_PIVOT).nonzero()[0]
            if idx.size == 0:
                return "infeasible"  # row r cannot reach its bound within the box
            ratios = np.maximum(self.d[idx] * self.direction[idx], 0.0) / np.abs(alpha[idx])
            t_min = float(ratios.min())
            ties = idx[ratios <= t_min + 1e-12]
            q = int(ties[0] if self.bland else ties[np.abs(alpha[ties]).argmax()])
            self._count_degenerate(t_min)

            col = self._ftran(q)
            if abs(col[r]) <= _TOL_PIVOT:  # alpha and col disagree: drifted
                self._refactor()
                continue
            step = (self.xB[r] - (lo_b[r] if to_lower else up_b[r])) / col[r]  # change in x_q
            nz = col.nonzero()[0]
            self.xB[nz] -= step * col[nz]
            self._exchange(r, q, to_lower, self.x[q] + step, col, nz, alpha)

    def reoptimise(self) -> str:
        """Recover an optimum from the start, or after `restore` or
        `add_rows`; while it violates pending rows, add them and repeat."""
        while True:
            self.iterations = 0
            self.degenerate = 0
            self.bland = False
            self.movable = (self.up - self.lo) > 0
            # The sign of a move off each column's bound, 0 where it cannot move.
            self.direction = _DIRECTION[self.vstat] * self.movable
            status = self._dual()
            if status == "optimal":
                # From a feasible crash the primal phase does the work.  After
                # dual pivots, drift can leave a carried reduced cost a hair
                # on the wrong side; the primal phase prices afresh before it
                # reports an optimum, and repairs that.
                status = self._phase()
            if status != "optimal" or not self.pending.size:
                return status
            hit = self.rows.violated(self.structural_values())[self.pending]
            if not hit.any():
                return status
            self.add_rows(self.pending[hit])

    def add_rows(self, indices: np.ndarray) -> None:
        """Append pending rows with their slacks basic, then invert the grown
        basis with `_refactor`.  The basis stays dual feasible; a violated
        row's slack starts out of bounds."""
        k, m0, n0 = len(indices), self.m, self.ncols
        ridx, cidx, data = self.rows.entries(indices, n0)
        self.m += k
        self.ncols += k
        self._set_entries(
            np.concatenate([self.a_row, m0 + ridx]),
            np.concatenate([self.a_col, cidx]),
            np.concatenate([self.a_val, data]),
        )
        senses = self.rows.sense[indices]
        self.basis = np.concatenate([self.basis, np.arange(n0, n0 + k)])
        self.vstat = np.concatenate([self.vstat, np.full(k, _BASIC)])
        self.x = np.concatenate([self.x, np.zeros(k)])
        self.lo = np.concatenate([self.lo, np.zeros(k)])
        self.up = np.concatenate([self.up, _SLACK_UP[senses]])
        self.c = np.concatenate([self.c, np.zeros(k)])
        self.active = np.concatenate([self.active, indices])
        self.pending = np.setdiff1d(self.pending, indices, assume_unique=True)
        self._refactor()

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """The current basis and bound statuses, for `restore`."""
        return self.basis.copy(), self.vstat.copy()

    def restore(
        self, state: tuple[np.ndarray, np.ndarray], lo: np.ndarray, up: np.ndarray
    ) -> None:
        """Load a `snapshot` under new structural bounds.  Rows appended
        since the snapshot join with their slacks basic.  When that is the
        live basis, Binv is kept and only xB is recomputed."""
        basis, vstat = state
        n_old = len(vstat)
        basis = np.concatenate([basis, np.arange(n_old, self.ncols)])
        same = np.array_equal(basis, self.basis)
        self.basis = basis
        self.vstat = np.concatenate([vstat, np.full(self.ncols - n_old, _BASIC)])
        self.lo[: self.nstruct] = lo
        self.up[: self.nstruct] = up
        self.x = np.where(self.vstat == _AT_UPPER, self.up, self.lo)
        if same:
            self._basic_values()
        else:
            self._refactor()

    def structural_values(self) -> np.ndarray:
        xfull = self.x.copy()
        xfull[self.basis] = self.xB
        return np.clip(
            xfull[: self.nstruct], self.lo[: self.nstruct], self.up[: self.nstruct]
        )


# ---------------------------------------------------------------------------
# public LP interface
# ---------------------------------------------------------------------------


def _row_store(
    variables: Sequence[VariableHandle],
    constraints: Sequence[LinearConstraint],
) -> _RowStore:
    """`constraints` itself when it is a store over `variables`, else a new
    store of its rows."""
    if isinstance(constraints, _RowStore):
        built_for = constraints.variables
        if built_for is not variables and list(built_for) != list(variables):
            raise MilpError("row store was built over other variables")
        return constraints
    rows = _RowStore(variables)
    rows.extend(constraints)
    return rows


def _per_variable(values: Sequence[float], n: int, name: str) -> np.ndarray:
    """`values` as a vector of n finite numbers."""
    vector = np.asarray(list(values), dtype=float)
    if vector.shape != (n,):
        raise MilpError(f"{name} length does not match variables")
    if not np.isfinite(vector).all():
        raise MilpError(f"{name} has a non-finite entry")
    return vector


def solve_lp(
    variables: Sequence[VariableHandle],
    objective: Sequence[float],
    constraints: Sequence[LinearConstraint],
    *,
    lower: Sequence[float] | None = None,
    upper: Sequence[float] | None = None,
    iteration_limit: int | None = None,
) -> LpResult:
    """Minimize over the box [0,1]^n (or the given finite bounds) under
    `constraints`, a sequence of `LinearConstraint`s or a row store over
    `variables`.

    The returned vertex satisfies every given constraint to within 1e-9
    (large sets are handled by activating inequality rows on violation, which
    does not change the optimum or vertex status of the result).  The
    objective and the given bounds must have one finite entry per variable,
    or `MilpError` is raised.  `iteration_limit` caps the passes of each
    solve: the first, and each reoptimisation after rows are activated.
    """
    n = len(variables)
    c = _per_variable(objective, n, "objective")
    lo = np.zeros(n) if lower is None else _per_variable(lower, n, "lower")
    up = np.ones(n) if upper is None else _per_variable(upper, n, "upper")
    if np.any(lo > up + 1e-12):
        return LpResult("infeasible", None, None)
    rows = _row_store(variables, constraints)
    if (~rows.nonempty & rows.violated(np.zeros(n))).any():
        return LpResult("infeasible", None, None)
    simplex = _Simplex(c, rows, lo, up, iteration_limit)
    status = simplex.reoptimise()
    if status != "optimal":
        return LpResult(status, None, None, simplex.pivots)
    vals = simplex.structural_values()
    return LpResult("optimal", float(c @ vals), vals, iterations=simplex.pivots)


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------


class _Search:
    """The best-first search of `solve_binary`, kept alive across calls.

    An open node is (LP bound, tie counter, LP values, lo, up, basis, seen):
    its values satisfy the first `seen` store rows and `basis` is its LP's
    optimal basis; a child not solved yet has no values and its parent's
    bound and basis.  The live LP knows the first `known` store rows.
    """

    def __init__(self, c: np.ndarray, rows: _RowStore, cutoff: float | None):
        n = len(c)
        self.c, self.rows, self.cutoff = c, rows, cutoff
        self.lp = _Simplex(c, rows, np.zeros(n), np.ones(n))
        self.known, self.counter = len(rows), 0
        self.cut_bound = math.inf  # the least bound the cutoff has pruned
        # The root, solved from the crash point when first popped.
        self.heap: list[tuple] = [(-math.inf, 0, None, np.zeros(n), np.ones(n), None, 0)]

    def grow(self) -> None:
        """Make the store rows appended since the last call pending LP rows."""
        rows, new = self.rows, np.arange(self.known, len(self.rows))
        if (~rows.nonempty[new] & rows.violated(np.zeros(len(self.c)), first=self.known)).any():
            self.heap.clear()  # an empty row that no point satisfies
            self.cut_bound = math.inf
        self.lp.pending = np.concatenate([self.lp.pending, new[rows.nonempty[new]]])
        self.known = len(rows)

    def run(self, node_limit: int | None, deadline: float | None) -> BinaryResult:
        """Search until the least open node is integral and current; only
        the root is solved whatever the limits."""
        c, rows, lp, heap = self.c, self.rows, self.lp, self.heap
        nodes, pivots = 0, lp.pivots
        while heap:
            bound, tie, vals, lo, up, basis, seen = heap[0]
            if vals is not None and seen < self.known:
                if not rows.violated(vals, first=seen).any():
                    heapq.heapreplace(heap, (bound, tie, vals, lo, up, basis, self.known))
                    continue
                vals = None  # a row appended since its LP cuts it off
            if vals is None:
                # Best-first: a stop leaves the least open bound on top.
                if node_limit is not None and nodes >= node_limit:
                    return BinaryResult("node_limit", None, None, nodes, bound, lp.pivots - pivots, self)
                heapq.heappop(heap)
                if basis is not None:
                    lp.restore(basis, lo, up)
                lp.deadline = None if basis is None else deadline
                status = lp.reoptimise()
                if status == "time_limit":  # back on the heap unsolved
                    heapq.heappush(heap, (bound, tie, None, lo, up, basis, seen))
                    return BinaryResult(status, None, None, nodes, bound, lp.pivots - pivots, self)
                nodes += 1
                if status == "infeasible":
                    continue
                if status != "optimal":
                    raise MilpError(f"LP subproblem ended with status {status}")
                vals = lp.structural_values()
                obj = float(c @ vals)
                if self.cutoff is not None and obj > self.cutoff + _GAP_TOL:
                    self.cut_bound = min(self.cut_bound, obj)  # pruned for good
                    continue
                self.counter += 1
                heapq.heappush(heap, (obj, self.counter, vals, lo, up, lp.snapshot(), self.known))
                continue
            frac = np.abs(vals - np.round(vals))
            if float(frac.max(initial=0.0)) <= _INTEGRALITY_TOL:
                # The optimum.  It stays open: a row appended later may cut it off.
                cand = np.clip(np.round(vals), lo, up)
                if rows.violated(cand, _ROUNDED_ROW_TOL).any():
                    raise MilpError("integral LP vertex failed row re-check")
                obj = math.fsum(float(ci) for ci, vi in zip(c, cand) if vi)
                return BinaryResult(
                    "optimal", obj, cand.astype(np.int64), nodes, obj, lp.pivots - pivots, self
                )
            heapq.heappop(heap)
            # Branch on the fractional variable with the largest objective stake,
            # breaking ties toward the most fractional value: fixing high-cost
            # variables first moves the child bounds furthest apart.
            scores = np.where(
                frac > _INTEGRALITY_TOL,
                (np.abs(c) + 1.0) * (0.5 - np.abs(vals - 0.5) + 1e-6),
                -np.inf,
            )
            j = int(np.argmax(scores))
            for fixed in (0.0, 1.0):
                child_lo, child_up = lo.copy(), up.copy()
                child_lo[j] = child_up[j] = fixed
                self.counter += 1
                heapq.heappush(heap, (bound, self.counter, None, child_lo, child_up, basis, 0))
        status = "cutoff" if self.cut_bound < math.inf else "infeasible"
        bound = self.cut_bound if status == "cutoff" else None
        return BinaryResult(status, None, None, nodes, bound, lp.pivots - pivots, self)


def solve_binary(
    variables: Sequence[VariableHandle],
    objective: Sequence[float],
    constraints: Sequence[LinearConstraint],
    *,
    node_limit: int | None = None,
    deadline: float | None = None,
    cutoff: float | None = None,
    resume: BinaryResult | None = None,
) -> BinaryResult:
    """Minimize over {0,1}^n subject to `constraints` (exact, best-first), a
    sequence of `LinearConstraint`s or a row store over `variables`.

    `resume` continues an earlier result's search over the same row store,
    objective and cutoff after rows of any sense were appended to the store
    (anything else raises `MilpError`): open nodes whose vertex a new row
    cuts off are reoptimised from their own basis, and no LP is rebuilt.
    `node_limit` caps the LPs this call solves, re-solves included.
    `deadline` is a `time.monotonic()` instant checked at every simplex
    pass of every LP solve but the root's; a node whose LP it stops goes
    back on the heap unsolved.  A search stopped by either limit has status
    "node_limit" or "time_limit", no solution and the least open bound.
    `cutoff` prunes every node whose LP bound exceeds it by more than 1e-9;
    when no solution is found and some node was pruned this way, the status
    is "cutoff" and `bound` is the least bound pruned, a proof that no
    solution is at or below the cutoff.  The objective must have one finite
    entry per variable, or `MilpError` is raised.
    """
    n = len(variables)
    c = _per_variable(objective, n, "objective")
    rows = _row_store(variables, constraints)
    if resume is not None:
        search = resume._search
        if search is None or rows is not search.rows:
            raise MilpError("resume needs the live search over this row store")
        if not np.array_equal(c, search.c) or cutoff != search.cutoff:
            raise MilpError("resume needs the objective and cutoff the search started with")
        search.grow()
        return search.run(node_limit, deadline)
    if node_limit is not None and node_limit <= 0:
        return BinaryResult("node_limit", None, None, 0, None)
    if (~rows.nonempty & rows.violated(np.zeros(n))).any():
        return BinaryResult("infeasible", None, None, 1, None)
    return _Search(c, rows, cutoff).run(node_limit, deadline)
