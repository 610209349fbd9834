"""The branch-and-bound kernel against the kernel it replaced.

``exact._Search`` runs on tables compiled once per model: per row, entries
``(var, |c|, the value raising the lhs)``, its room to rise ``hi - least``
and to fall ``most - lo``, and a static ``widest = max |c|``; per variable
and value, an effect list of ``(room, row, |c|)`` naming the room that
value takes ``|c|`` from. Propagation skips a queued row when neither
``widest`` nor the free span ``most - least`` can force anything, and the
share bound stops summing once it reaches the incumbent.
``ReferenceSearch`` below is the kernel before that change, kept verbatim:
it reads ``ConstraintRow`` coefficients directly, scans every queued row
and sums the whole bound. The two must grow the same tree, so every
comparison asserts equal ``nodes``, ``incumbent``, ``incumbent_obj``,
``collected`` and ``stopped``: on 100-trip instances of the exact-route
family, on the enumerations of anneal-portfolio-sized instances, under a
deadline that has already passed, and on Hypothesis-generated models with
zero, negative and repeated-variable coefficients, empty rows and all
three relations. An ``IlpModel`` sums a row's repeated variable into its
first entry when it is built, so such rows reach both kernels merged.

One behaviour changed on purpose: enumeration now stops on finding leaf
``max_count + 1`` (the reference stops on leaf ``max_count``), so a
budget that equals the number of feasible plans reports an exhaustive
portfolio. The kernel at ``max_count = k`` is compared with the
reference at ``k + 1``, whose last leaf it finds but does not keep.
"""

import math
import time
from fractions import Fraction
from typing import Iterator, Optional

import pytest
from hypothesis import given, settings, strategies as st

from rollstock.exact import _Search
from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import ConstraintRow, IlpModel, encode_ilp
from rollstock.netbuild import build_hypergraph


class ReferenceSearch:
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


def run_both(model, *, deadline=None, max_count=None):
    """Both kernels on ``model``; the reference gets one more leaf of
    budget. Returns the kernel's search after asserting the same tree."""
    new = _Search(model, deadline=deadline, max_count=max_count)
    new.run()
    ref = ReferenceSearch(model, deadline=deadline,
                          max_count=None if max_count is None else max_count + 1)
    ref.run()
    assert new.nodes == ref.nodes
    assert new.incumbent == ref.incumbent
    assert new.incumbent_obj == ref.incumbent_obj
    assert new.stopped is ref.stopped
    if max_count is not None and ref.stopped:
        assert len(ref.collected) == max_count + 1
        assert new.collected == ref.collected[:max_count]
    else:
        assert new.collected == ref.collected
    return new


def ilp_of(config, seed):
    inst = generate_synthetic(config, seed)
    return encode_ilp(build_hypergraph(inst), inst)


EXACT_ROUTE = GeneratorConfig(n_trips=100, n_couplable=20, n_types=3, n_depots=4)
ANNEAL_PORTFOLIO = GeneratorConfig(n_trips=12, n_types=1, n_depots=1)


@pytest.mark.parametrize("seed", [*range(1000, 1016), *range(3000, 3016)])
def test_same_tree_on_exact_route_instances(seed):
    search = run_both(ilp_of(EXACT_ROUTE, seed))
    assert search.incumbent is not None and not search.stopped


@pytest.mark.parametrize("seed", range(16))
def test_same_leaves_on_anneal_portfolio_enumerations(seed):
    model = ilp_of(ANNEAL_PORTFOLIO, seed)
    search = run_both(model, max_count=100000)
    assert not search.stopped
    plans = len(search.collected)
    for budget in {1, max(1, plans - 1), max(1, plans), plans + 1}:
        assert len(run_both(model, max_count=budget).collected) == min(budget, plans)


def test_same_stop_at_the_first_deadline_check():
    # 3,331 nodes to optimality; a deadline already passed stops both
    # kernels at node 512, the first check, with the same incumbent
    model = ilp_of(GeneratorConfig(n_trips=160, n_couplable=32, n_types=3,
                                   n_depots=4), 160)
    search = run_both(model, deadline=time.monotonic() - 1.0)
    assert search.stopped and search.nodes == 512


RELATIONS = ("=", "<=", "range")
KINDS = ("coverage", "flow_balance", "out_degree", "driver")


@st.composite
def models(draw, nonnegative_objective):
    n = draw(st.integers(0, 7))
    var = st.integers(0, max(n - 1, 0))
    coeff = st.sampled_from((-3, -2, -1, 0, 0, 1, 1, 1, 2, 3))
    rows = []
    for k in range(draw(st.integers(0, 6))):
        coeffs = tuple(draw(st.lists(st.tuples(var, coeff), max_size=5))) if n else ()
        relation = draw(st.sampled_from(RELATIONS))
        lo = draw(st.integers(-3, 3))
        hi = lo + draw(st.integers(-1, 3))
        rows.append(ConstraintRow(kind=draw(st.sampled_from(KINDS)), coeffs=coeffs,
                                  relation=relation, rhs=hi, lo=lo, hi=hi, tag=f"r{k}"))
    weight = st.fractions(min_value=0 if nonnegative_objective else -3, max_value=3,
                          max_denominator=6)
    objective = tuple(draw(st.lists(st.tuples(var, weight), max_size=2 * n))) if n else ()
    return IlpModel(num_vars=n, objective=objective, constraints=tuple(rows))


@settings(max_examples=400, deadline=None)
@given(models(nonnegative_objective=True))
def test_same_tree_on_random_models(model):
    run_both(model)


@settings(max_examples=400, deadline=None)
@given(models(nonnegative_objective=False), st.integers(1, 6))
def test_same_leaves_on_random_models(model, budget):
    run_both(model, max_count=100000)
    run_both(model, max_count=budget)
