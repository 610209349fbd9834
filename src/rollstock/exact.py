"""Exact optimization and exhaustive feasible-set enumeration at desk scale.

``solve_exact`` runs a depth-first branch and bound over the binary arc
variables. Each row ``lo <= a . x <= hi`` is kept as two rooms: its room
to rise, ``hi - least``, and its room to fall, ``most - lo``, where
``least`` and ``most`` are its least and most attainable lhs, with every
free variable at the value that lowers, or raises, it. These are the
activity bounds of MIP bound propagation. A row is broken when either
room is negative, and unit propagation fixes a free variable whose one
value would break it. Coverage rows drive the branching (most constrained
uncovered trip first, then ascending arc id), and a share-based lower bound
prunes (each arc's objective coefficient is spread over the coverage rows
it can serve, so the bound stays admissible for hyper-arcs covering two
trips). The bound holds for nonnegative objective coefficients, which
``solve_exact`` requires. Bounding and branching read only coverage rows
with ``lo >= 1`` and no negative coefficient: on those, ``least`` sums
only the variables already set, so a row whose room to rise is below its
``hi`` is covered. A mixed-sign coverage row is still propagated.

The search first lays the compiled model out as flat integer tables: per
row a list of ``(var, |c|, the value of var that raises the lhs)``, sliced
from the model's CSR arrays; per row its two rooms, from the model's
``lo``, ``hi`` and the ``least`` and ``most`` its row evaluator sums, its
``span = hi - lo`` and a static ``widest = max |c|``; and per variable
and value an effect list, one ``(room, row, |c|)`` per row of the
variable, in row order, naming the room that value takes ``|c|`` from: a
value that raises the lhs uses up room to rise, the other room to fall.
It picks its coverage rows by the model's ``kinds``. Assigning a variable
then takes each ``|c|`` from its room, and undoing gives it back, with no
sign test. A free entry is forced when its ``|c|`` exceeds either room.
No free ``|c|`` exceeds ``widest``, nor the sum of them all, the free span
``rise + fall - span``; a queued row whose rooms both reach the smaller of
those two is skipped without a scan, since nothing in it can be forced
and it is not broken. The share bound stops summing once it reaches the
incumbent: every share is nonnegative, so the prune decision is the same.

The propagation queue keeps every row appended to it, in order, and each
row is visited once per entry. A forced variable queues its other rows,
not the one that forced it, which is scanned on from the forced entry
only. That is sound because an ``IlpModel`` row names each variable once:
the forced value moves its row by that entry's own ``|c|``, which the
rule that forced it allows for. The queue is neither deduplicated nor
run to a fixpoint: a deduplicated queue visits rows in another order,
and a fixpoint forces variables that this rule leaves to a branch, so
either grows a different tree. Node counts, incumbents and enumeration
leaves are part of the results, and ``tests/test_exact_kernel.py`` pins
them against the kernel that scanned every queued row.

The search is one loop over one assignment trail: a stack of frames, each
holding the trail mark, the branched variable and the values left to try,
so its depth is not limited by Python's recursion limit. It sums the
objective, the shares and the bound as integers: the model's ``obj``,
already over its one ``den``, times the LCM of the coverage counts, so
ties are pruned exactly and the first optimum found is kept; ``Fraction``
appears only in the returned ``Solution``s. A deadline is checked every
512 nodes.

``brute_force`` enumerates all 2^n assignments (n <= 24) with vectorized
feasibility checks, against a dense int64 matrix filled from the model's
CSR arrays; it is the reference oracle the search is tested against.
``enumerate_feasible`` reuses the same search tree without bound pruning
to list every feasible assignment; given a budget of k plans it stops on
finding plan k + 1, so a portfolio that holds every plan is reported
exhaustive.

Every ``Solution`` these, and ``rollstock.anneal.sample_portfolio``,
return is built by ``_solutions`` from a list of 0/1 plans: it checks them
on every row with the ILP's row evaluator and report routine and prices
them with ``objective_value``'s sum, in ``_bit_blocks`` of at most
``_BLOCK`` (plan, entry) cells, and sorts them by objective, then by plan,
on the integer totals, before it makes any ``Fraction``.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .ilp import (FeasibilityReport, IlpModel, _bit_blocks, _extremes, _prices, _reports,
                  _row_sums)

__all__ = [
    "Solution",
    "SolutionPortfolio",
    "SolveResult",
    "solve_exact",
    "enumerate_feasible",
    "brute_force",
]


@dataclass(frozen=True)
class Solution:
    x: tuple[int, ...]
    objective: Fraction
    report: FeasibilityReport
    decoded: tuple[int, ...]  # selected arc ids


@dataclass(frozen=True)
class SolutionPortfolio:
    """Feasible assignments sorted by objective ascending; no duplicates."""

    solutions: tuple[Solution, ...]
    exhaustive: bool

    def objectives(self) -> tuple[Fraction, ...]:
        return tuple(s.objective for s in self.solutions)

    def best(self) -> Optional[Solution]:
        return self.solutions[0] if self.solutions else None


@dataclass(frozen=True)
class SolveResult:
    """Outcome of solve_exact: optimal, infeasible, or best-so-far on timeout."""

    status: str  # "optimal" | "infeasible" | "time_limit"
    solution: Optional[Solution]
    nodes: int

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _solutions(model: IlpModel, xs: Sequence[Sequence[int]]) -> tuple[Solution, ...]:
    """The 0/1 plans ``xs`` as ``Solution``s, sorted by objective, then by
    plan: checked on every row and priced in ``_bit_blocks``, one
    (plan, entry) table at a time, and sorted on the integer totals before
    any ``Fraction`` is made."""
    priced = []
    for bits in _bit_blocks(xs, model.num_vars, max(len(model.indices), model.num_vars)):
        lhs = _row_sums(bits, model.indptr, model.indices, model.data)
        priced += zip(_prices(model, bits), map(tuple, bits.tolist()), _reports(model, lhs))
    priced.sort(key=lambda p: p[:2])
    return tuple(Solution(x, Fraction(total, model.den), report,
                          tuple(i for i, v in enumerate(x) if v))
                 for total, x, report in priced)


class _Search:
    """The model compiled to flat integer tables, the assignment, its trail
    and the incumbent or the collected leaves."""

    def __init__(self, model: IlpModel, deadline: Optional[float] = None,
                 max_count: Optional[int] = None):
        n = self.n = model.num_vars
        # max_count selects enumeration: no bound, stop on finding leaf
        # max_count + 1; otherwise branch and bound, stopped only by the
        # deadline
        self.use_bound = max_count is None
        self.deadline = deadline
        self.max_count = max_count
        # each entry is (var, |c|, the value of var that raises the lhs),
        # filed under its row
        flat = list(zip(model.indices.tolist(), np.abs(model.data).tolist(),
                        (model.data > 0).astype(np.int8).tolist()))
        indptr = model.indptr.tolist()
        self.rows = [flat[a:b] for a, b in zip(indptr, indptr[1:])]
        # a row's room to rise, hi - least, and to fall, most - lo, with
        # least and most its lhs with every free variable lowering, and
        # raising, it; span = hi - lo, so the free span most - least is
        # rise + fall - span, and a unit row is covered once rise < hi
        least, most = _extremes(model)
        rise = self.rise = (model.hi - least).tolist()
        fall = self.fall = (most - model.lo).tolist()
        self.span, self.hi = (model.hi - model.lo).tolist(), model.hi.tolist()
        # effects[v][val]: per row of v, in row order, (side, row, |c|), side
        # the room that setting v to val takes |c| from. A row's entries of
        # one |c| share their two effects: each effect refers to a room, so
        # the garbage collector traces it for as long as the search lives
        effects = self.effects = [([], []) for _ in range(n)]
        for idx, entries in enumerate(self.rows):
            shared = {}
            for v, c, raising in entries:
                if c not in shared:
                    shared[c] = (rise, idx, c), (fall, idx, c)
                up, down = shared[c]
                effects[v][raising].append(up)
                effects[v][1 - raising].append(down)
        # the row's largest |c|; an empty row's, whatever it reads, is never
        # used, since its free span is 0
        self.widest: list[int] = np.maximum.reduceat(
            np.append(np.abs(model.data), 0), model.indptr[:-1]).tolist()
        # coverage rows that need a selected arc while uncovered; the share
        # bound and the branching rule read only these. least == 0: no
        # coefficient is negative
        self.cover_rows = [idx for idx in np.flatnonzero((model.lo >= 1) & (least == 0)).tolist()
                           if model.kinds[idx] == "coverage"]
        cover = Counter(v for idx in self.cover_rows for v, _, _ in self.rows[idx])
        # objective values are integers in units of 1/(model.den * spread):
        # spread, the LCM of the coverage counts, makes every share
        # obj[v] / cover[v] exact
        spread = math.lcm(*set(cover.values()))
        self.obj = [o * spread for o in model.obj.tolist()]
        negative = [v for v, o in enumerate(self.obj) if o < 0]
        if self.use_bound and negative:
            raise ValueError("branch and bound needs nonnegative objective "
                             f"coefficients; variable {negative[0]} has one < 0")
        self.share = [o // cover.get(v, 1) for v, o in enumerate(self.obj)]
        self.x = [-1] * n  # -1 = free
        self.trail: list[int] = []
        self.committed = 0
        self.nodes = 0
        self.incumbent: Optional[list[int]] = None
        self.incumbent_obj = 0  # the value of incumbent once it is set
        self.collected: list[tuple[int, tuple[int, ...]]] = []
        self.stopped = False  # deadline passed or leaf max_count + 1 found

    # -- assignment trail ---------------------------------------------------

    def _assign(self, v: int, val: int) -> list[int]:
        """Fix variable v, taking each of its |c| from the room its value
        uses up. Returns v's rows, in order."""
        self.x[v] = val
        self.trail.append(v)
        if val:
            self.committed += self.obj[v]
        effects = self.effects[v][val]
        for side, idx, c in effects:
            side[idx] -= c
        return [idx for _, idx, _ in effects]

    def _undo(self, mark: int) -> None:
        trail = self.trail
        x, obj, effects = self.x, self.obj, self.effects
        committed = self.committed
        for v in trail[mark:]:
            val = x[v]
            x[v] = -1
            if val:
                committed -= obj[v]
            for side, idx, c in effects[v][val]:
                side[idx] += c
        self.committed = committed
        del trail[mark:]

    def _propagate(self, queue: list[int]) -> bool:
        """Unit-propagate forced values from the queued rows outward; False
        once a row is broken. Rows only tighten, so a row broken by a forced
        value is still broken when its turn in the queue comes. The loop
        walks the queue as it grows."""
        x, obj, trail, effects = self.x, self.obj, self.trail, self.effects
        rows, widest, span = self.rows, self.widest, self.span
        rise_, fall_ = self.rise, self.fall
        for idx in queue:
            rise, fall = rise_[idx], fall_[idx]
            # a free entry is forced when its |c| exceeds either room; no
            # free |c| exceeds the row's widest or their sum, the free span,
            # so when neither does, nothing is forced and the row is not
            # broken
            c = rise + fall - span[idx]
            if widest[idx] < c:
                c = widest[idx]
            if c <= rise and c <= fall:
                continue
            if rise < 0 or fall < 0:
                return False
            for v, c, raising in rows[idx]:
                if x[v] != -1:
                    continue
                if c > rise:
                    if c > fall:
                        return False
                    val = 1 - raising
                elif c > fall:
                    val = raising
                else:
                    continue
                x[v] = val
                trail.append(v)
                if val:
                    self.committed += obj[v]
                for side, jdx, d in effects[v][val]:
                    side[jdx] -= d
                    if jdx != idx:
                        queue.append(jdx)
                # row state changed; refresh its rooms and scan on
                rise, fall = rise_[idx], fall_[idx]
        return True

    # -- bounding and branching ----------------------------------------------

    def _bound_reaches(self, target: int) -> bool:
        """Whether the share bound of the node reaches target. Every share
        is nonnegative, so the sum stops as soon as it gets there."""
        bound = self.committed
        x, share, rise, hi, rows = self.x, self.share, self.rise, self.hi, self.rows
        for idx in self.cover_rows:
            if bound >= target:
                return True
            if rise[idx] < hi[idx]:  # covered
                continue
            best = math.inf
            for v, _, _ in rows[idx]:
                if x[v] == -1 and share[v] < best:
                    best = share[v]
            bound += best
        return bound >= target

    def _pick_branch(self) -> Optional[tuple[int, tuple[int, int]]]:
        x, rise_, fall_, span, hi = self.x, self.rise, self.fall, self.span, self.hi
        best_row, best_free = -1, 1 << 30
        for idx in self.cover_rows:
            rise = rise_[idx]
            if rise < hi[idx]:  # covered
                continue
            free = rise + fall_[idx] - span[idx]  # the free count on a unit row
            if 0 < free < best_free:
                best_row, best_free = idx, free
        if best_row >= 0:
            # cheapest covering arc first reaches good incumbents early;
            # ties break on ascending arc id
            obj = self.obj
            pick, pick_cost = -1, math.inf
            for v, _, _ in self.rows[best_row]:
                if x[v] == -1 and obj[v] < pick_cost:
                    pick, pick_cost = v, obj[v]
            return pick, (1, 0)
        for v in range(self.n):
            if x[v] == -1:
                return v, (0, 1)
        return None

    # -- main loop ------------------------------------------------------------

    def run(self) -> None:
        """Visit every node whose assignment and propagation succeed, depth
        first; the loop body handles one node, then descends or backtracks."""
        if not self._propagate(list(range(len(self.rows)))):
            return
        frames: list[tuple[int, int, Iterator[int]]] = []  # (mark, var, values)
        while True:
            self.nodes += 1
            if (self.deadline is not None and self.nodes % 512 == 0
                    and time.monotonic() > self.deadline):
                self.stopped = True
                return
            # ties are pruned: the first optimum found (deterministic order)
            # is kept, and subtrees that cannot improve on it are cut, which
            # collapses the equal-cost symmetry of corridor instances
            if not (self.use_bound and self.incumbent is not None
                    and self._bound_reaches(self.incumbent_obj)):
                branch = self._pick_branch()
                if branch is not None:
                    v, order = branch
                    frames.append((len(self.trail), v, iter(order)))
                elif self.use_bound:
                    # a leaf's bound is committed, so the check above has
                    # turned away every leaf that does not beat the incumbent
                    self.incumbent = list(self.x)
                    self.incumbent_obj = self.committed
                elif len(self.collected) == self.max_count:
                    # a leaf beyond the budget: the portfolio is not exhaustive
                    self.stopped = True
                    return
                else:
                    self.collected.append((self.committed, tuple(self.x)))
            while frames:
                mark, v, values = frames[-1]
                self._undo(mark)
                val = next(values, None)
                if val is None:
                    frames.pop()
                    continue
                if self._propagate(self._assign(v, val)):
                    break
            else:
                return


def solve_exact(model: IlpModel,
                time_limit: Optional[float] = None) -> SolveResult:
    """Find a provably optimal feasible assignment by branch and bound.

    Every variable's summed objective coefficient must be nonnegative
    (``ValueError`` otherwise): the share bound is valid only then.
    """
    if time_limit is not None and not time_limit >= 0:  # also rejects NaN
        raise ValueError(f"time_limit must be a number >= 0, got {time_limit!r}")
    search = _Search(model, deadline=None if time_limit is None
                     else time.monotonic() + time_limit)
    search.run()
    if search.stopped:
        status = "time_limit"
    else:
        status = "infeasible" if search.incumbent is None else "optimal"
    return SolveResult(
        status=status,
        solution=None if search.incumbent is None else _solutions(model, [search.incumbent])[0],
        nodes=search.nodes)


def enumerate_feasible(model: IlpModel, max_count: int = 100000
                       ) -> SolutionPortfolio:
    """All feasible assignments (up to max_count), sorted by objective.

    The portfolio is exhaustive unless the search found a feasible
    assignment beyond the first max_count; those first max_count are
    returned."""
    if isinstance(max_count, bool) or not isinstance(max_count, numbers.Integral):
        raise ValueError(f"max_count must be an int, got {max_count!r}")
    if max_count < 1:
        raise ValueError(f"max_count must be >= 1, got {max_count!r}")
    search = _Search(model, max_count=max_count)
    search.run()
    # leaves are distinct assignments: no duplicates to drop
    return SolutionPortfolio(solutions=_solutions(model, [x for _, x in search.collected]),
                             exhaustive=not search.stopped)


def brute_force(model: IlpModel) -> SolutionPortfolio:
    """Enumerate all 2^n assignments (n <= 24); the reference oracle.
    ``ValueError`` names a row whose ``sum |c| + max(|lo|, |hi|)`` reaches
    2**63, past which its int64 sums could wrap."""
    n = model.num_vars
    if n > 24:
        raise ValueError(f"brute_force supports at most 24 variables, got {n}")
    if model.data.dtype == object:  # only then can a row reach 2**63
        least, most = _extremes(model)  # a row's sum |c| is most - least
        far = np.flatnonzero(most - least + np.maximum(abs(model.lo), abs(model.hi)) >= 2 ** 63)
        if len(far):
            raise ValueError(f"brute_force sums rows in int64; row {model.tags[far[0]]!r} "
                             f"could reach 2**63")
    lo, hi = model.lo.astype(np.int64), model.hi.astype(np.int64)
    a = np.zeros((len(model.kinds), max(n, 1)), dtype=np.int64)
    a[np.repeat(np.arange(len(a)), np.diff(model.indptr)), model.indices] = model.data

    feasible = []
    total = 1 << n
    chunk = 1 << 16
    bits = np.arange(max(n, 1), dtype=np.uint32)
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        x = ((ids[:, None] >> bits[None, :]) & 1).astype(np.int64)
        lhs = x @ a.T
        ok = np.all((lhs >= lo[None, :]) & (lhs <= hi[None, :]), axis=1)
        feasible.append(x[ok, :n])
    return SolutionPortfolio(_solutions(model, np.concatenate(feasible)), exhaustive=True)
