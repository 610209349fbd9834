"""Undoing the whole trail restores the search's state as it was built.

``exact._Search`` keeps each row as its room to rise and its room to fall,
and a variable's effect list names the room each of its values takes
from. Assigning takes ``|c|`` from that room and undoing gives it back, so
after any search, however it ended, ``_undo(0)`` must leave every room,
the committed objective and the assignment as construction left them. An
effect entry that took from one room and gave back to another, or gave
back a different amount, fails here.
"""

import pytest
from hypothesis import given, settings, strategies as st

from rollstock.exact import _Search

from test_exact_kernel import ANNEAL_PORTFOLIO, EXACT_ROUTE, ilp_of, models


def state(search):
    return list(search.rise), list(search.fall), search.committed, list(search.x)


def assert_undo_restores(model, **kwargs):
    search = _Search(model, **kwargs)
    built = state(search)
    search.run()
    search._undo(0)
    assert search.trail == []
    assert state(search) == built
    return search


@pytest.mark.parametrize("seed", [*range(1000, 1004), *range(3000, 3004)])
def test_undo_restores_after_exact_route_searches(seed):
    search = assert_undo_restores(ilp_of(EXACT_ROUTE, seed))
    assert search.incumbent is not None and search.nodes > 1


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("budget", [1, 3, 100000])
def test_undo_restores_after_anneal_portfolio_enumerations(seed, budget):
    # a budget of 1 or 3 stops the search partway down a branch
    assert_undo_restores(ilp_of(ANNEAL_PORTFOLIO, seed), max_count=budget)


@settings(max_examples=300, deadline=None)
@given(models(nonnegative_objective=True))
def test_undo_restores_after_random_searches(model):
    assert_undo_restores(model)


@settings(max_examples=300, deadline=None)
@given(models(nonnegative_objective=False), st.integers(1, 6))
def test_undo_restores_after_random_enumerations(model, budget):
    assert_undo_restores(model, max_count=budget)
