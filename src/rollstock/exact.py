"""Exact optimization and exhaustive feasible-set enumeration at desk scale.

``solve_exact`` runs a depth-first branch and bound over the binary arc
variables. Each row ``lo <= a . x <= hi`` is kept as two activity bounds:
its least and its most attainable lhs, with every free variable at the
value that lowers, or raises, it. A row is broken when ``least > hi`` or
``most < lo``, and unit propagation fixes a free variable whose one value
would break it. Coverage rows drive the branching (most constrained
uncovered trip first, then ascending arc id), and a share-based lower bound
prunes (each arc's objective coefficient is spread over the coverage rows
it can serve, so the bound stays admissible for hyper-arcs covering two
trips). The bound holds for nonnegative objective coefficients, which
``solve_exact`` requires. Bounding and branching read only coverage rows
with ``lo >= 1`` and no negative coefficient: on those, ``least`` sums
only the variables already set, so a row with ``least >= 1`` is covered.
A mixed-sign coverage row is still propagated.

The search is one loop over one assignment trail: a stack of frames, each
holding the trail mark, the branched variable and the values left to try,
so its depth is not limited by Python's recursion limit. It sums the
objective, the shares and the bound as integers over one denominator, so
ties are pruned exactly and the first optimum found is kept; ``Fraction``
appears only in the returned ``Solution``s.

``brute_force`` enumerates all 2^n assignments (n <= 24) with vectorized
feasibility checks; it is the reference oracle the search is tested
against. ``enumerate_feasible`` reuses the same search tree without bound
pruning to list every feasible assignment.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .ilp import FeasibilityReport, IlpModel, check_feasibility, objective_value

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

    @staticmethod
    def from_assignment(model: IlpModel, x: Sequence[int],
                        report: Optional[FeasibilityReport] = None) -> "Solution":
        """The solution ``x``, with ``report`` as its feasibility report
        when it was already checked."""
        xt = tuple(int(v) for v in x)
        return Solution(
            x=xt,
            objective=objective_value(model, xt),
            report=check_feasibility(model, xt) if report is None else report,
            decoded=tuple(i for i, v in enumerate(xt) if v),
        )


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


class _Search:
    """Row activity bounds, the assignment, its trail and the incumbent or
    the collected leaves."""

    def __init__(self, model: IlpModel, deadline: Optional[float] = None,
                 max_count: Optional[int] = None):
        n = self.n = model.num_vars
        # max_count selects enumeration: no bound, stop at max_count leaves;
        # otherwise branch and bound, stopped only by the deadline
        self.use_bound = max_count is None
        self.deadline = deadline
        self.max_count = max_count
        self.rows = [row.coeffs for row in model.constraints]
        self.lo: list[int] = []
        self.hi: list[int] = []
        self.least: list[int] = []  # lhs with every free variable lowering it
        self.most: list[int] = []  # lhs with every free variable raising it
        self.var_rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        # coverage rows that need a selected arc while uncovered; the share
        # bound and the branching rule read only these
        self.cover_rows: list[int] = []
        for idx, row in enumerate(model.constraints):
            lo, hi = row.bounds()
            self.lo.append(lo)
            self.hi.append(hi)
            self.least.append(sum(c for _, c in row.coeffs if c < 0))
            self.most.append(sum(c for _, c in row.coeffs if c > 0))
            for v, c in row.coeffs:
                self.var_rows[v].append((idx, c))
            if (row.kind == "coverage" and lo >= 1
                    and all(c >= 0 for _, c in row.coeffs)):
                self.cover_rows.append(idx)
        cover_of_var = [0] * n
        for idx in self.cover_rows:
            for v, _ in self.rows[idx]:
                cover_of_var[v] += 1
        # objective values are integers in units of 1/(den * spread): den
        # clears the coefficients' denominators and spread, the LCM of the
        # coverage counts, makes every share obj[v] / cover[v] exact
        den = math.lcm(*{c.denominator for _, c in model.objective})
        spread = math.lcm(*{k for k in cover_of_var if k})
        self.obj = [0] * n
        for v, c in model.objective:
            self.obj[v] += c.numerator * (den // c.denominator) * spread
        negative = [v for v, o in enumerate(self.obj) if o < 0]
        if self.use_bound and negative:
            raise ValueError("branch and bound needs nonnegative objective "
                             f"coefficients; variable {negative[0]} has one < 0")
        self.share = [o // max(1, k) for o, k in zip(self.obj, cover_of_var)]
        self.x = [-1] * n  # -1 = free
        self.trail: list[int] = []
        self.committed = 0
        self.nodes = 0
        self.incumbent: Optional[list[int]] = None
        self.incumbent_obj = 0  # the value of incumbent once it is set
        self.collected: list[tuple[int, tuple[int, ...]]] = []
        self.stopped = False  # deadline passed or max_count leaves collected

    # -- assignment trail ---------------------------------------------------

    def _assign(self, v: int, val: int) -> None:
        """Fix variable v: the value raising a row's lhs (1 for c > 0)
        raises its least by |c|; the other lowers its most by |c|."""
        self.x[v] = val
        self.trail.append(v)
        if val:
            self.committed += self.obj[v]
        for idx, c in self.var_rows[v]:
            if val == (c > 0):
                self.least[idx] += abs(c)
            else:
                self.most[idx] -= abs(c)

    def _undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            v = self.trail.pop()
            val = self.x[v]
            self.x[v] = -1
            if val:
                self.committed -= self.obj[v]
            for idx, c in self.var_rows[v]:
                if val == (c > 0):
                    self.least[idx] -= abs(c)
                else:
                    self.most[idx] += abs(c)

    def _propagate(self, queue: list[int]) -> bool:
        """Unit-propagate forced values from the queued rows outward; False
        once a row is broken. Rows only tighten, so a row broken by a forced
        value is still broken when its turn in the queue comes."""
        head = 0
        while head < len(queue):
            idx = queue[head]
            head += 1
            lo, hi = self.lo[idx], self.hi[idx]
            least, most = self.least[idx], self.most[idx]
            if least > hi or most < lo:
                return False
            for v, c in self.rows[idx]:
                if self.x[v] != -1:
                    continue
                raising = int(c > 0)  # the value that raises the lhs
                if least + abs(c) > hi:
                    if most - abs(c) < lo:
                        return False
                    forced = 1 - raising
                elif most - abs(c) < lo:
                    forced = raising
                else:
                    continue
                self._assign(v, forced)
                for jdx, _ in self.var_rows[v]:
                    if jdx != idx:
                        queue.append(jdx)
                # row state changed; refresh its bounds and scan on
                least, most = self.least[idx], self.most[idx]
        return True

    # -- bounding and branching ----------------------------------------------

    def _lower_bound(self) -> float:
        bound = self.committed
        for idx in self.cover_rows:
            if self.least[idx] >= 1:
                continue
            best = math.inf
            for v, _ in self.rows[idx]:
                if self.x[v] == -1 and self.share[v] < best:
                    best = self.share[v]
            if best == math.inf:
                return best
            bound += best
        return bound

    def _pick_branch(self) -> Optional[tuple[int, tuple[int, int]]]:
        best_row, best_free = -1, 1 << 30
        for idx in self.cover_rows:
            least = self.least[idx]
            if least >= 1:
                continue
            free = self.most[idx] - least  # the free count on a unit row
            if 0 < free < best_free:
                best_row, best_free = idx, free
        if best_row >= 0:
            # cheapest covering arc first reaches good incumbents early;
            # ties break on ascending arc id
            pick, pick_cost = -1, math.inf
            for v, _ in self.rows[best_row]:
                if self.x[v] == -1 and self.obj[v] < pick_cost:
                    pick, pick_cost = v, self.obj[v]
            return pick, (1, 0)
        for v in range(self.n):
            if self.x[v] == -1:
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
                    and self._lower_bound() >= self.incumbent_obj):
                branch = self._pick_branch()
                if branch is not None:
                    v, order = branch
                    frames.append((len(self.trail), v, iter(order)))
                elif self.use_bound:
                    # a leaf's bound is committed, so the check above has
                    # turned away every leaf that does not beat the incumbent
                    self.incumbent = list(self.x)
                    self.incumbent_obj = self.committed
                else:
                    self.collected.append((self.committed, tuple(self.x)))
                    if len(self.collected) >= self.max_count:
                        self.stopped = True
                        return
            while frames:
                mark, v, values = frames[-1]
                self._undo(mark)
                val = next(values, None)
                if val is None:
                    frames.pop()
                    continue
                self._assign(v, val)
                if self._propagate([idx for idx, _ in self.var_rows[v]]):
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
        solution=(None if search.incumbent is None
                  else Solution.from_assignment(model, search.incumbent)),
        nodes=search.nodes)


def enumerate_feasible(model: IlpModel, max_count: int = 100000
                       ) -> SolutionPortfolio:
    """All feasible assignments (up to max_count), sorted by objective."""
    if max_count < 1:
        raise ValueError(f"max_count must be >= 1, got {max_count!r}")
    search = _Search(model, max_count=max_count)
    search.run()
    # leaves are distinct assignments: no duplicates to drop
    return SolutionPortfolio(
        solutions=tuple(Solution.from_assignment(model, x)
                        for _, x in sorted(search.collected)),
        exhaustive=not search.stopped)


def brute_force(model: IlpModel) -> SolutionPortfolio:
    """Enumerate all 2^n assignments (n <= 24); the reference oracle."""
    n = model.num_vars
    if n > 24:
        raise ValueError(f"brute_force supports at most 24 variables, got {n}")
    m = len(model.constraints)
    lo = np.zeros(m, dtype=np.int64)
    hi = np.zeros(m, dtype=np.int64)
    a = np.zeros((m, max(n, 1)), dtype=np.int64)
    for i, row in enumerate(model.constraints):
        lo[i], hi[i] = row.bounds()
        for v, c in row.coeffs:
            a[i, v] += c

    feasible_ids: list[int] = []
    total = 1 << n
    chunk = 1 << 16
    bits = np.arange(max(n, 1), dtype=np.uint32)
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        x = ((ids[:, None] >> bits[None, :]) & 1).astype(np.int64)
        lhs = x @ a.T if m else np.zeros((len(ids), 0), dtype=np.int64)
        ok = np.all((lhs >= lo[None, :]) & (lhs <= hi[None, :]), axis=1)
        feasible_ids.extend(int(i) for i in ids[ok])

    entries = []
    for ident in feasible_ids:
        x = tuple((ident >> b) & 1 for b in range(n))
        entries.append((objective_value(model, x), x))
    entries.sort(key=lambda e: (e[0], e[1]))
    return SolutionPortfolio(
        solutions=tuple(Solution.from_assignment(model, x) for _, x in entries),
        exhaustive=True)
