"""Exact optimization and exhaustive feasible-set enumeration at desk scale.

``solve_exact`` runs a depth-first branch and bound over the binary arc
variables: coverage rows drive the branching (most constrained uncovered
trip first, then ascending arc id), unit propagation fixes variables forced
by any row's residual bounds, and a share-based lower bound prunes (each
arc's objective coefficient is spread over the coverage rows it can serve,
so the bound stays admissible for hyper-arcs covering two trips).

The search sums the objective, the shares and the bound as integers over
one denominator, so ties are pruned exactly and the first optimum found
is kept; ``Fraction`` appears only in the returned ``Solution``s.

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
from typing import Optional, Sequence

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
    def from_assignment(model: IlpModel, x: Sequence[int]) -> "Solution":
        xt = tuple(int(v) for v in x)
        return Solution(
            x=xt,
            objective=objective_value(model, xt),
            report=check_feasibility(model, xt),
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
    elapsed: float

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _Rows:
    """Dense-ish row bookkeeping for propagation during the search."""

    def __init__(self, model: IlpModel):
        self.n = model.num_vars
        self.lo: list[int] = []
        self.hi: list[int] = []
        self.vars: list[list[int]] = []
        self.coeffs: list[list[int]] = []
        self.kind: list[str] = []
        self.var_rows: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for idx, row in enumerate(model.constraints):
            lo, hi = row.bounds()
            vs, cs = [], []
            for v, c in row.coeffs:
                vs.append(v)
                cs.append(c)
                self.var_rows[v].append((idx, c))
            # a `<=` row gets its least attainable lhs, which never binds
            self.lo.append(sum(c for c in cs if c < 0) if lo is None else lo)
            self.hi.append(hi)
            self.vars.append(vs)
            self.coeffs.append(cs)
            self.kind.append(row.kind)
        self.m = len(self.lo)
        # mutable search state
        self.fixed = [0] * self.m
        self.pos_free = [0] * self.m
        self.neg_free = [0] * self.m
        self.free_count = [0] * self.m
        for idx in range(self.m):
            for c in self.coeffs[idx]:
                if c > 0:
                    self.pos_free[idx] += c
                else:
                    self.neg_free[idx] += c
            self.free_count[idx] = len(self.coeffs[idx])

    def bounds_broken(self, idx: int) -> bool:
        fixed = self.fixed[idx]
        return (fixed + self.neg_free[idx] > self.hi[idx]
                or fixed + self.pos_free[idx] < self.lo[idx])


class _Search:
    def __init__(self, model: IlpModel, use_bound: bool):
        self.rows = _Rows(model)
        self.n = model.num_vars
        self.x = [-1] * self.n  # -1 = free
        self.use_bound = use_bound
        self.trail: list[int] = []
        # coverage bookkeeping for branching and bounding
        self.cover_rows = [i for i, k in enumerate(self.rows.kind)
                           if k == "coverage"]
        cover_of_var = [0] * self.n
        for idx in self.cover_rows:
            for v in self.rows.vars[idx]:
                cover_of_var[v] += 1
        # objective values are integers in units of 1/(den * spread): den
        # clears the coefficients' denominators and spread, the LCM of the
        # coverage counts, makes every share obj[v] / cover[v] exact
        den = math.lcm(*{c.denominator for _, c in model.objective})
        spread = math.lcm(*{k for k in cover_of_var if k})
        self.obj = [0] * self.n
        for v, c in model.objective:
            self.obj[v] += c.numerator * (den // c.denominator) * spread
        self.share = [o // max(1, k) for o, k in zip(self.obj, cover_of_var)]
        self.committed = 0
        self.nodes = 0
        self.incumbent: Optional[list[int]] = None
        self.incumbent_obj = 0  # the value of incumbent once it is set
        self.collected: list[tuple[int, tuple[int, ...]]] = []
        self.max_count: Optional[int] = None
        self.deadline: Optional[float] = None
        self.timed_out = False
        self.budget_hit = False

    # -- assignment trail ---------------------------------------------------

    def _assign(self, v: int, val: int) -> bool:
        """Fix variable v; returns False on immediate row violation."""
        rows = self.rows
        self.x[v] = val
        self.trail.append(v)
        if val:
            self.committed += self.obj[v]
        ok = True
        for idx, c in rows.var_rows[v]:
            rows.free_count[idx] -= 1
            if c > 0:
                rows.pos_free[idx] -= c
            else:
                rows.neg_free[idx] -= c
            if val:
                rows.fixed[idx] += c
            if rows.bounds_broken(idx):
                ok = False
        return ok

    def _undo(self, mark: int) -> None:
        rows = self.rows
        while len(self.trail) > mark:
            v = self.trail.pop()
            val = self.x[v]
            self.x[v] = -1
            if val:
                self.committed -= self.obj[v]
            for idx, c in rows.var_rows[v]:
                rows.free_count[idx] += 1
                if c > 0:
                    rows.pos_free[idx] += c
                else:
                    rows.neg_free[idx] += c
                if val:
                    rows.fixed[idx] -= c

    def _propagate(self, queue: list[int]) -> bool:
        """Unit-propagate forced values from the queued rows outward."""
        rows = self.rows
        head = 0
        while head < len(queue):
            idx = queue[head]
            head += 1
            if rows.bounds_broken(idx):
                return False
            lo, hi = rows.lo[idx], rows.hi[idx]
            fixed = rows.fixed[idx]
            pos, neg = rows.pos_free[idx], rows.neg_free[idx]
            for v, c in zip(rows.vars[idx], rows.coeffs[idx]):
                if self.x[v] != -1:
                    continue
                pos_rest = pos - c if c > 0 else pos
                neg_rest = neg - c if c < 0 else neg
                forced = -1
                # value 1 impossible?
                if fixed + c + neg_rest > hi or fixed + c + pos_rest < lo:
                    forced = 0
                # value 0 impossible?
                if fixed + neg_rest > hi or fixed + pos_rest < lo:
                    if forced == 0:
                        return False
                    forced = 1
                if forced != -1:
                    if not self._assign(v, forced):
                        return False
                    for jdx, _ in rows.var_rows[v]:
                        if jdx != idx:
                            queue.append(jdx)
                    # row state changed; refresh its totals and scan on
                    fixed = rows.fixed[idx]
                    pos, neg = rows.pos_free[idx], rows.neg_free[idx]
        return True

    # -- bounding and branching ----------------------------------------------

    def _lower_bound(self) -> float:
        bound = self.committed
        rows = self.rows
        for idx in self.cover_rows:
            if rows.fixed[idx] >= 1:
                continue
            best = math.inf
            for v in rows.vars[idx]:
                if self.x[v] == -1 and self.share[v] < best:
                    best = self.share[v]
            if best == math.inf:
                return best
            bound += best
        return bound

    def _pick_branch(self) -> Optional[tuple[int, tuple[int, int]]]:
        rows = self.rows
        best_row, best_free = -1, 1 << 30
        for idx in self.cover_rows:
            if rows.fixed[idx] >= 1:
                continue
            free = rows.free_count[idx]
            if 0 < free < best_free:
                best_row, best_free = idx, free
        if best_row >= 0:
            # cheapest covering arc first reaches good incumbents early;
            # ties break on ascending arc id
            pick, pick_cost = -1, math.inf
            for v in rows.vars[best_row]:
                if self.x[v] == -1 and self.obj[v] < pick_cost:
                    pick, pick_cost = v, self.obj[v]
            return pick, (1, 0)
        for v in range(self.n):
            if self.x[v] == -1:
                return v, (0, 1)
        return None

    # -- main recursion -------------------------------------------------------

    def run(self) -> None:
        if self._propagate(list(range(self.rows.m))):
            self._dfs()

    def _dfs(self) -> None:
        if self.timed_out or self.budget_hit:
            return
        self.nodes += 1
        if self.deadline is not None and self.nodes % 512 == 0:
            if time.monotonic() > self.deadline:
                self.timed_out = True
                return

        if self.use_bound and self.incumbent is not None:
            # ties are pruned: the first optimum found (deterministic order)
            # is kept, and subtrees that cannot improve on it are cut, which
            # collapses the equal-cost symmetry of corridor instances
            if self._lower_bound() >= self.incumbent_obj:
                return

        branch = self._pick_branch()
        if branch is None:
            self._leaf()
            return
        v, order = branch
        for val in order:
            mark = len(self.trail)
            if self._assign(v, val) and self._propagate(
                    [idx for idx, _ in self.rows.var_rows[v]]):
                self._dfs()
            self._undo(mark)
            if self.timed_out or self.budget_hit:
                return

    def _leaf(self) -> None:
        # a leaf's bound is committed (or inf), so the check in _dfs has
        # already turned away every leaf that does not beat the incumbent
        if self.use_bound:
            self.incumbent = list(self.x)
            self.incumbent_obj = self.committed
        else:
            self.collected.append((self.committed, tuple(self.x)))
            if self.max_count is not None and len(self.collected) >= self.max_count:
                self.budget_hit = True


def solve_exact(model: IlpModel,
                time_limit: Optional[float] = None) -> SolveResult:
    """Find a provably optimal feasible assignment by branch and bound."""
    if time_limit is not None and not time_limit >= 0:  # also rejects NaN
        raise ValueError(f"time_limit must be a number >= 0, got {time_limit!r}")
    start = time.monotonic()
    search = _Search(model, use_bound=True)
    if time_limit is not None:
        search.deadline = start + time_limit
    search.run()
    elapsed = time.monotonic() - start
    if search.incumbent is not None:
        status = "time_limit" if search.timed_out else "optimal"
        return SolveResult(
            status=status,
            solution=Solution.from_assignment(model, search.incumbent),
            nodes=search.nodes, elapsed=elapsed)
    if search.timed_out:
        return SolveResult(status="time_limit", solution=None,
                           nodes=search.nodes, elapsed=elapsed)
    return SolveResult(status="infeasible", solution=None,
                       nodes=search.nodes, elapsed=elapsed)


def enumerate_feasible(model: IlpModel, max_count: int = 100000
                       ) -> SolutionPortfolio:
    """All feasible assignments (up to max_count), sorted by objective."""
    if max_count < 1:
        raise ValueError(f"max_count must be >= 1, got {max_count!r}")
    search = _Search(model, use_bound=False)
    search.max_count = max_count
    search.run()
    # leaves are distinct assignments: no duplicates to drop
    return SolutionPortfolio(
        solutions=tuple(Solution.from_assignment(model, x)
                        for _, x in sorted(search.collected)),
        exhaustive=not search.budget_hit and not search.timed_out)


def brute_force(model: IlpModel) -> SolutionPortfolio:
    """Enumerate all 2^n assignments (n <= 24); the reference oracle."""
    n = model.num_vars
    if n > 24:
        raise ValueError(f"brute_force supports at most 24 variables, got {n}")
    m = len(model.constraints)
    lo = np.full(m, -(1 << 40), dtype=np.int64)
    hi = np.zeros(m, dtype=np.int64)
    a = np.zeros((m, max(n, 1)), dtype=np.int64)
    for i, row in enumerate(model.constraints):
        row_lo, row_hi = row.bounds()
        if row_lo is not None:
            lo[i] = row_lo
        hi[i] = row_hi
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
