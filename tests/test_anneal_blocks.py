"""Levels cut into bounded neighbour blocks give the same samples.

A level whose dense block would hold more than ``_CELLS`` cells is cut into
parts of ``_CELLS // rows`` members. With ``_CELLS`` patched small, so
that levels split, the samples must equal both the default run and the
dense per-site reference, the schedule must stay valid, and every block
must hold at most ``_CELLS`` cells unless one member alone has more
neighbours.
"""

import random
from fractions import Fraction

import pytest

from rollstock.anneal import AnnealParams, _schedule, anneal

from conftest import qubo_model
from test_anneal_levels import (ANNEAL, assert_skips_and_resumes_like_dense,
                                assert_valid_schedule, generated_qubo, random_graph_model)


def one_wide_level_model():
    """20 uncoupled bits on level 0, each coupled to some of 4 bits on
    level 1, each of which has 10 neighbours. A set bit costs 1/10 on its
    own, so at beta 50 a chain at rest lifts one now and then."""
    rng = random.Random(3)
    q = {(i, i): Fraction(1, 10) for i in range(24)}
    for j in range(20, 24):
        for i in rng.sample(range(20), 10):
            q[(i, j)] = Fraction(rng.choice([-1, 1, 2]))
    return qubo_model(24, q)


FROZEN = AnnealParams(num_reads=3, sweeps=300, beta_min=50.0, beta_max=50.0, seed=2)
PORTFOLIO = AnnealParams(num_reads=30, sweeps=400, seed=5000)


def levels_split(model, cells, monkeypatch):
    """The block count at the default ``_CELLS`` and under ``cells``."""
    default = len(_schedule(model).levels)
    monkeypatch.setattr(ANNEAL, "_CELLS", cells)
    return default, len(_schedule(model).levels)


def assert_blocks_bounded(model):
    cells = ANNEAL._CELLS
    for lv in _schedule(model).levels:
        assert lv.block.shape == (len(lv.rows), lv.stop - lv.start)
        assert lv.block.size <= cells or lv.stop - lv.start == 1


@pytest.mark.parametrize("cells", [24, 16, 1])
def test_a_split_wide_level_samples_like_the_default_and_the_dense_sweep(monkeypatch, cells):
    model = one_wide_level_model()
    expected = anneal(model, FROZEN)
    default, split = levels_split(model, cells, monkeypatch)
    assert (default, split) == (2, {24: 8, 16: 9, 1: 24}[cells])
    assert anneal(model, FROZEN) == expected
    assert_skips_and_resumes_like_dense(model, FROZEN)
    assert_valid_schedule(model)
    assert_blocks_bounded(model)


def test_blocks_hold_at_most_cells_where_no_member_has_more_neighbours(monkeypatch):
    model = one_wide_level_model()
    monkeypatch.setattr(ANNEAL, "_CELLS", 24)
    levels = _schedule(model).levels
    assert max(len(lv.rows) for lv in levels) <= 10
    assert all(lv.block.size <= 24 for lv in levels)
    assert sum(lv.block.size for lv in levels) < 160  # the unsplit two blocks


@pytest.mark.parametrize("seed,cells", [(5000, 64), (5000, 8), (5001, 200)])
def test_split_anneal_portfolio_days_sample_like_the_default_and_the_dense_sweep(
        monkeypatch, seed, cells):
    model = generated_qubo(12, seed, n_types=1, n_depots=1)
    expected = anneal(model, PORTFOLIO)
    default, split = levels_split(model, cells, monkeypatch)
    assert split > default
    assert anneal(model, PORTFOLIO) == expected
    assert_skips_and_resumes_like_dense(model, PORTFOLIO)
    assert_valid_schedule(model)
    assert_blocks_bounded(model)


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("cells", [1, 4, 30])
def test_split_levels_stay_valid_schedules(monkeypatch, seed, cells):
    monkeypatch.setattr(ANNEAL, "_CELLS", cells)
    model = random_graph_model(seed)
    assert_valid_schedule(model)
    assert_blocks_bounded(model)


@pytest.mark.parametrize("seed", [0, 1000, 23015])
def test_no_level_of_an_anneal_portfolio_day_splits(monkeypatch, seed):
    model = generated_qubo(12, seed, n_types=1, n_depots=1)
    default, unbounded = levels_split(model, 2 ** 62, monkeypatch)
    assert default == unbounded
