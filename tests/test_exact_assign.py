"""Branch and bound fixes every variable through ``_Search._assign``.

A branched value and a value forced by unit propagation are both fixed by
``_assign``, and released by ``_undo``. The search's trail is swapped for a
list that records the function making each push, and its assignment for
one that records the function making each write; after ``run()`` every
push must come from ``_assign`` and every write from ``_assign`` or
``_undo``. A second copy of the assignment, inline in another step, fails
here as soon as that step fixes a variable.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from rollstock.exact import _Search

from test_exact_kernel import ANNEAL_PORTFOLIO, EXACT_ROUTE, ilp_of, models


class Watched(list):
    """A list that records the caller of each append and item write."""

    def __init__(self, items):
        super().__init__(items)
        self.callers = set()

    def append(self, item):
        self.callers.add(sys._getframe(1).f_code.co_name)
        super().append(item)

    def __setitem__(self, key, value):
        self.callers.add(sys._getframe(1).f_code.co_name)
        super().__setitem__(key, value)


def assert_fixed_through_assign(model, **kwargs):
    search = _Search(model, **kwargs)
    search.trail, search.x = Watched(search.trail), Watched(search.x)
    search.run()
    assert search.trail.callers <= {"_assign"}
    assert search.x.callers <= {"_assign", "_undo"}
    return search


@pytest.mark.parametrize("seed", [*range(1000, 1004), *range(3000, 3004)])
def test_exact_route_searches_fix_through_assign(seed):
    search = assert_fixed_through_assign(ilp_of(EXACT_ROUTE, seed))
    assert search.incumbent is not None and search.trail.callers == {"_assign"}


@pytest.mark.parametrize("seed", range(8))
def test_anneal_portfolio_enumerations_fix_through_assign(seed):
    assert_fixed_through_assign(ilp_of(ANNEAL_PORTFOLIO, seed), max_count=100000)


@settings(max_examples=300, deadline=None)
@given(models(nonnegative_objective=True))
def test_random_searches_fix_through_assign(model):
    assert_fixed_through_assign(model)


@settings(max_examples=300, deadline=None)
@given(models(nonnegative_objective=False), st.integers(1, 6))
def test_random_enumerations_fix_through_assign(model, budget):
    assert_fixed_through_assign(model, max_count=budget)
