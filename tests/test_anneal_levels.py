"""The level-scheduled annealer against the dense per-site reference.

``dense_anneal`` is the sampler the level schedule replaced: an n x n float
coupling matrix and one Metropolis step per site per sweep, sites in index
order. With integer off-diagonal couplings the two must return equal
``SampleSet``s, energies and multiplicities included. ``dense_run`` also
counts the spins each sweep flips, so a case can show that its schedule
has sweeps that flip nothing, which ``anneal`` skips, followed by sweeps
that flip, which it resumes. The uniform-block cases set ``_DRAW`` so that
each generator call fills one sweep, a number of sweeps that does not
divide ``sweeps``, or every sweep.
"""

import dataclasses
import gc
import importlib
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rollstock.anneal import AnnealParams, SampleEntry, SampleSet, _schedule, anneal
from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import encode_ilp
from rollstock.netbuild import build_hypergraph
from rollstock.qubo import DEFAULT_LAMBDAS, Couplings, encode_qubo, qubo_energy

from conftest import as_dict, lifted, qubo_model

ANNEAL = importlib.import_module("rollstock.anneal")  # the package exports a function of that name


def dense_run(model, params):
    """``dense_anneal``'s ``SampleSet`` and the flips of each sweep."""
    n = model.num_vars
    diag = np.zeros(n)
    w = np.zeros((n, n))
    for (i, j), value in lifted(model.q, model.den).items():
        if i == j:
            diag[i] += float(value)
        else:
            w[i, j] += float(value)
            w[j, i] += float(value)
    rngs = [np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([params.seed, r])))
            for r in range(params.num_reads)]
    states = np.stack([rng.integers(0, 2, size=n) for rng in rngs]).astype(float)
    flips = []
    if params.sweeps > 0:
        betas = np.geomspace(params.beta_min, params.beta_max, params.sweeps)
        for beta in betas:
            uniforms = np.stack([rng.random(n) for rng in rngs])
            flips.append(0)
            for i in range(n):
                field_i = states @ w[i] + diag[i]
                delta = (1.0 - 2.0 * states[:, i]) * field_i
                accept = (delta <= 0.0) | (
                    uniforms[:, i] < np.exp(-beta * np.maximum(delta, 0.0)))
                states[accept, i] = 1.0 - states[accept, i]
                flips[-1] += int(accept.sum())
    counts = {}
    for row in states.astype(int):
        y = tuple(int(v) for v in row)
        counts[y] = counts.get(y, 0) + 1
    entries = [SampleEntry(y=y, energy=reference_energy(model, y), multiplicity=c)
               for y, c in counts.items()]
    entries.sort(key=lambda e: (e.energy, e.y))
    return SampleSet(entries=tuple(entries), num_reads=params.num_reads), flips


def dense_anneal(model, params):
    return dense_run(model, params)[0]


def reference_energy(model, y):
    total = Fraction(model.offset, model.den)
    for (i, j), value in lifted(model.q, model.den).items():
        if y[i] and y[j]:
            total += value
    return total


def generated_qubo(n_trips, seed, lambdas=DEFAULT_LAMBDAS, **gen):
    inst = generate_synthetic(GeneratorConfig(n_trips=n_trips, **gen), seed)
    return encode_qubo(encode_ilp(build_hypergraph(inst), inst), lambdas)


def assert_same_as_dense(model, params):
    got = anneal(model, params)
    assert got == dense_anneal(model, params)
    assert sum(e.multiplicity for e in got.entries) == params.num_reads


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_toy_matches_dense(toy_qubo, seed):
    assert_same_as_dense(toy_qubo, AnnealParams(num_reads=20, sweeps=150, seed=seed))


@pytest.mark.parametrize("n_trips,reads,sweeps", [(6, 20, 100), (12, 20, 100),
                                                  (40, 8, 40), (80, 4, 20)])
def test_generated_matches_dense(n_trips, reads, sweeps):
    model = generated_qubo(n_trips, 11 + n_trips, n_couplable=n_trips // 5,
                           n_types=2, n_depots=2)
    assert_same_as_dense(model, AnnealParams(num_reads=reads, sweeps=sweeps,
                                             seed=n_trips))


def test_anneal_portfolio_sized_instances_match_dense():
    for seed in (5000, 5001):
        model = generated_qubo(12, seed, n_types=1, n_depots=1)
        assert_same_as_dense(model, AnnealParams(num_reads=30, sweeps=60, seed=seed))


def test_integer_non_default_lambdas_match_dense():
    model = generated_qubo(12, 3, lambdas=(3, 7, 2, 1, 11), n_types=2)
    assert_same_as_dense(model, AnnealParams(num_reads=20, sweeps=100, seed=2))


def assert_skips_and_resumes_like_dense(model, params):
    """Equal to ``dense_anneal`` on a schedule where a sweep that flips
    nothing is followed by one that flips, so both paths run."""
    expected, flips = dense_run(model, params)
    assert any(not a and b for a, b in zip(flips, flips[1:])), flips
    got = anneal(model, params)
    assert got == expected
    assert sum(e.multiplicity for e in got.entries) == params.num_reads


@pytest.mark.parametrize("reads,seed", [(4, 2), (1, 3)])
def test_toy_with_idle_sweeps_matches_dense(toy_qubo, reads, seed):
    assert_skips_and_resumes_like_dense(
        toy_qubo, AnnealParams(num_reads=reads, sweeps=300, seed=seed))


def test_anneal_portfolio_sized_instance_with_idle_sweeps_matches_dense():
    model = generated_qubo(12, 5000, n_types=1, n_depots=1)
    assert_skips_and_resumes_like_dense(
        model, AnnealParams(num_reads=30, sweeps=400, seed=5000))


def test_constant_cold_beta_with_idle_sweeps_matches_dense(toy_qubo):
    assert_skips_and_resumes_like_dense(
        toy_qubo, AnnealParams(num_reads=4, sweeps=200, beta_min=1.0,
                               beta_max=1.0, seed=1))


def test_constant_frozen_beta_with_idle_sweeps_matches_dense():
    # at beta 50 the toy freezes; here setting a bit with no set neighbour
    # costs 1/25, so a chain at rest now and then lifts one bit and drops it
    q = {(i, i): Fraction(1, 25) for i in range(6)}
    q.update({(i, i + 1): Fraction(1) for i in range(5)})
    model = qubo_model(6, q)
    assert len(_schedule(model).levels) == 6
    assert_skips_and_resumes_like_dense(
        model, AnnealParams(num_reads=1, sweeps=200, beta_min=50.0,
                            beta_max=50.0, seed=0))


@pytest.mark.filterwarnings("error")
def test_huge_weights_and_beta_raise_no_warning(toy_ilp):
    # downhill deltas near 10**6 at beta 10**6 overflow exp to inf
    model = encode_qubo(toy_ilp, (10 ** 6,) * 5)
    params = AnnealParams(num_reads=10, sweeps=50, beta_max=1e6, seed=1)
    assert anneal(model, params) == dense_anneal(model, params)


@pytest.mark.parametrize("reads,sweeps", [(7, 0), (1, 50), (1, 0)])
def test_degenerate_reads_and_sweeps_match_dense(toy_qubo, reads, sweeps):
    assert_same_as_dense(toy_qubo, AnnealParams(num_reads=reads, sweeps=sweeps,
                                                beta_min=0.5, beta_max=5.0, seed=3))


def test_diagonal_only_model_matches_dense():
    model = qubo_model(5, {(i, i): Fraction(3 - 2 * i, 4) for i in range(5)})
    assert len(_schedule(model).levels) == 1
    assert_same_as_dense(model, AnnealParams(num_reads=10, sweeps=30, seed=4))


def test_uncoupled_variables_match_dense():
    q = {(0, 0): Fraction(-1), (0, 3): Fraction(2), (3, 3): Fraction(-1),
         (2, 2): Fraction(1, 2), (3, 5): Fraction(-3), (5, 5): Fraction(1)}
    model = qubo_model(7, q, offset=1)  # 1, 4 and 6 appear nowhere; 2 has no neighbour
    assert_same_as_dense(model, AnnealParams(num_reads=12, sweeps=40, seed=5))


def test_repeated_pairs_are_summed_where_the_couplings_are_built():
    with pytest.raises(ValueError, match=r"entry \(1, 0\) lies below the diagonal"):
        qubo_model(3, {(0, 1): Fraction(2), (1, 0): Fraction(-5)})
    # the pair (0, 1) twice sums to one coupling of 2 - 5
    q = Couplings(3, [0, 1, 0, 1], [1, 2, 1, 1], [2, 1, -5, 1])
    model = dataclasses.replace(qubo_model(3, {}), q=q)
    assert as_dict(model.q) == {(0, 1): -3, (1, 1): 1, (1, 2): 1}
    assert_same_as_dense(model, AnnealParams(num_reads=10, sweeps=30, seed=6))


def anneal_recording_draws(model, params, monkeypatch):
    """``anneal``'s ``SampleSet`` and the ``out`` shape of each uniform draw."""
    shapes = []

    class Recording(np.random.Generator):
        def random(self, *args, **kwargs):
            shapes.append(kwargs["out"].shape)
            return super().random(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.random, "Generator", Recording)
        return anneal(model, params), shapes


@pytest.mark.parametrize("draw,sweeps,ahead", [
    (1, 40, 1),  # fewer uniforms than one sweep still fill one
    (20, 40, 1),  # exactly one sweep per call
    (41, 100, 3),  # three sweeps per call; the last call fills 100 - 99 = 1
    (10 ** 6, 150, 150),  # more than every sweep: one call per read
])
def test_uniform_blocks_match_dense(toy_qubo, monkeypatch, draw, sweeps, ahead):
    n, reads = toy_qubo.num_vars, 6
    assert n == 20
    monkeypatch.setattr(ANNEAL, "_DRAW", draw)
    params = AnnealParams(num_reads=reads, sweeps=sweeps, seed=9)
    got, shapes = anneal_recording_draws(toy_qubo, params, monkeypatch)
    assert shapes == [(min(ahead, sweeps - first), n)
                      for first in range(0, sweeps, ahead) for _ in range(reads)]
    assert got == dense_anneal(toy_qubo, params)


@pytest.mark.parametrize("ahead", [1, 7, 400])
def test_uniform_blocks_with_idle_sweeps_match_dense(monkeypatch, ahead):
    model = generated_qubo(12, 5000, n_types=1, n_depots=1)
    monkeypatch.setattr(ANNEAL, "_DRAW", ahead * model.num_vars)
    assert_skips_and_resumes_like_dense(
        model, AnnealParams(num_reads=10, sweeps=400, seed=5000))


def test_anneal_memory_on_the_200_trip_reference_is_bounded():
    # 1,428 vars at 100 reads: a sweep of uniforms is 1.1 MiB, and anneal
    # holds two sweeps of draws, one level-order sweep and, while gathering,
    # take's one-sweep temporary (peak 16.7 MiB); a further level-order copy
    # of several sweeps would pass 20 MiB
    model = generated_qubo(200, 0, n_couplable=40, n_types=3, n_depots=8)
    assert model.num_vars == 1428
    gc.collect()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        anneal(model, AnnealParams(num_reads=100, sweeps=8, seed=0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 20 * 2 ** 20, f"anneal peaks at {peak / 2 ** 20:.1f} MiB"


def random_graph_model(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    q = {}
    for _ in range(rng.randint(0, 3 * n)):
        i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        q[(i, j)] = Fraction(rng.randint(-9, 9) or 1)
    return qubo_model(n, q)


def levels_of(model):
    plan = _schedule(model)
    level = {}
    for index, lv in enumerate(plan.levels):
        for v in plan.order[lv.start:lv.stop].tolist():
            level[v] = index
    return plan, level


def assert_valid_schedule(model):
    plan, level = levels_of(model)
    n = model.num_vars
    assert sorted(plan.order.tolist()) == list(range(n))
    assert [lv.start for lv in plan.levels] == [0] + [lv.stop for lv in plan.levels[:-1]]
    assert plan.levels[-1].stop == n
    for lv in plan.levels:  # index order within a level
        members = plan.order[lv.start:lv.stop].tolist()
        assert members == sorted(members)
    for (i, j), value in as_dict(model.q).items():
        if i != j and value:
            low, high = min(i, j), max(i, j)
            assert level[low] < level[high]  # coupled pairs keep index order
    for lv in plan.levels:  # a level's rows are exactly its neighbours
        members = set(plan.order[lv.start:lv.stop].tolist())
        neighbours = set()
        for (i, j), value in as_dict(model.q).items():
            if i != j and value:
                neighbours |= {j} if i in members else set()
                neighbours |= {i} if j in members else set()
        assert set(plan.order[lv.rows].tolist()) == neighbours


@pytest.mark.parametrize("seed", range(25))
def test_levels_are_independent_and_keep_coupled_order(seed):
    assert_valid_schedule(random_graph_model(seed))


@pytest.mark.parametrize("n_trips", [6, 12, 40])
def test_generated_levels_are_valid(n_trips):
    assert_valid_schedule(generated_qubo(n_trips, n_trips, n_couplable=n_trips // 5,
                                         n_types=2, n_depots=2))


def test_level_count_on_a_12_trip_instance():
    model = generated_qubo(12, 7000, n_types=1, n_depots=1)
    plan = _schedule(model)
    assert 1 < len(plan.levels) < model.num_vars
    cells = sum(lv.block.size for lv in plan.levels)
    assert cells < model.num_vars ** 2


FRACTIONAL = (Fraction(1, 3), 7, Fraction(5, 2), Fraction(1, 10), 100)


def test_fractional_lambdas_are_deterministic_with_exact_energies():
    model = generated_qubo(12, 4, lambdas=FRACTIONAL, n_types=2)
    assert _schedule(model).den > 1
    params = AnnealParams(num_reads=25, sweeps=120, seed=8)
    first = anneal(model, params)
    assert first == anneal(model, params)
    assert sum(e.multiplicity for e in first.entries) == 25
    for entry in first.entries:
        assert isinstance(entry.energy, Fraction)
        assert entry.energy == reference_energy(model, entry.y)
    assert list(first.entries) == sorted(first.entries, key=lambda e: (e.energy, e.y))


def test_oversized_couplings_rejected():
    model = qubo_model(2, {(0, 1): Fraction(2 ** 53)})
    with pytest.raises(ValueError, match="too large"):
        anneal(model, AnnealParams(num_reads=1, sweeps=1))
    assert qubo_energy(model, (1, 1)) == 2 ** 53


def test_oversized_diagonal_rejected_before_float_conversion():
    # 10^400/3 has no float64; the check names the entry before the
    # division could overflow
    model = qubo_model(2, {(0, 0): 1, (1, 1): Fraction(10 ** 400, 3)})
    with pytest.raises(ValueError, match=r"diagonal q\[1,1\] too large for a float64"):
        anneal(model, AnnealParams(num_reads=1, sweeps=1))
    largest = int(sys.float_info.max)
    assert _schedule(qubo_model(1, {(0, 0): largest})).diag[0] == sys.float_info.max
    with pytest.raises(ValueError, match=r"diagonal q\[0,0\]"):
        _schedule(qubo_model(1, {(0, 0): -largest - 1}))
