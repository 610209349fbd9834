import dataclasses
import importlib
import logging
from fractions import Fraction

import pytest

from rollstock.anneal import AnnealParams, SampleSet, anneal, sample_portfolio
from rollstock.exact import enumerate_feasible, solve_exact
from rollstock.ilp import check_feasibility, encode_ilp
from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.netbuild import build_hypergraph
from rollstock.qubo import qubo_energy

from conftest import qubo_model

ANNEAL = importlib.import_module("rollstock.anneal")  # the package exports a function of that name

GROUND = Fraction(24, 5)


def test_params_validation():
    with pytest.raises(ValueError):
        AnnealParams(num_reads=0)
    with pytest.raises(ValueError):
        AnnealParams(beta_min=2.0, beta_max=1.0)
    AnnealParams(sweeps=0, beta_min=1.0, beta_max=1.0)  # frozen limit allowed


def test_determinism(toy_qubo):
    params = AnnealParams(num_reads=20, sweeps=200, seed=9)
    a = anneal(toy_qubo, params)
    b = anneal(toy_qubo, params)
    assert a == b
    c = anneal(toy_qubo, AnnealParams(num_reads=20, sweeps=200, seed=10))
    assert a != c


def test_portfolio_run_is_a_value(toy_instance):
    params = AnnealParams(num_reads=30, sweeps=200, seed=2)
    assert (sample_portfolio(toy_instance, params=params)
            == sample_portfolio(toy_instance, params=params))


def test_portfolio_on_an_ilp_qubo_pair_needs_no_instance(toy_instance, toy_ilp,
                                                          toy_qubo, monkeypatch):
    params = AnnealParams(num_reads=30, sweeps=200, seed=2)
    want = sample_portfolio(toy_instance, params=params)
    calls = []
    monkeypatch.setattr(ANNEAL, "build_hypergraph", lambda *a: calls.append(a))
    assert sample_portfolio(None, params=params, ilp=toy_ilp, qubo=toy_qubo) == want
    # given an ilp, the hypergraph is not built even when the instance is there
    assert sample_portfolio(toy_instance, params=params, ilp=toy_ilp) == want
    assert calls == []


def test_portfolio_without_instance_or_ilp_is_rejected(toy_qubo):
    with pytest.raises(ValueError, match="needs an instance or an ilp"):
        sample_portfolio(None, qubo=toy_qubo)


def test_single_negative_variable_found_in_one_read():
    model = qubo_model(1, {(0, 0): Fraction(-3)})
    result = anneal(model, AnnealParams(num_reads=1, sweeps=50, seed=0))
    assert result.lowest().y == (1,)
    assert result.lowest().energy == Fraction(-3)


def test_zero_sweeps_returns_initial_states(toy_qubo):
    import numpy as np
    params = AnnealParams(num_reads=5, sweeps=0, beta_min=1.0, beta_max=1.0,
                          seed=4)
    result = anneal(toy_qubo, params)
    expected = []
    for r in range(5):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([4, r])))
        expected.append(tuple(int(v) for v in rng.integers(0, 2, 20)))
    got = []
    for entry in result.entries:
        got.extend([entry.y] * entry.multiplicity)
        assert entry.energy == qubo_energy(toy_qubo, entry.y)
    assert sorted(got) == sorted(expected)


def test_empty_model_rejected():
    model = qubo_model(0, {})
    with pytest.raises(ValueError):
        anneal(model, AnnealParams(num_reads=1, sweeps=1))


def test_toy_ground_state_recovered(toy_qubo):
    result = anneal(toy_qubo, AnnealParams(num_reads=100, sweeps=1000, seed=1))
    assert result.lowest().energy == GROUND


def test_sample_energies_match_recompute(toy_qubo):
    result = anneal(toy_qubo, AnnealParams(num_reads=30, sweeps=100, seed=2))
    for entry in result.entries:
        assert entry.energy == qubo_energy(toy_qubo, entry.y)
    assert sum(e.multiplicity for e in result.entries) == 30


def test_portfolio_matches_known_feasible_set(toy_instance):
    run = sample_portfolio(toy_instance, params=AnnealParams(seed=1))
    objectives = [float(s.objective) for s in run.portfolio.solutions]
    assert objectives == [4.8, 5.6, 5.6]
    assert {s.decoded for s in run.portfolio.solutions} == {
        (0, 2, 10), (0, 3, 6, 8), (1, 2, 5, 9)}


def test_portfolio_and_rejects_are_consistent(toy_instance, toy_ilp):
    run = sample_portfolio(toy_instance, params=AnnealParams(seed=3))
    for sol in run.portfolio.solutions:
        assert check_feasibility(toy_ilp, sol.x).feasible
    for rej in run.rejected:
        assert not check_feasibility(toy_ilp, rej.x).feasible
        assert rej.violated_families


def test_portfolio_logs_one_decode_histogram(toy_instance, caplog):
    caplog.set_level(logging.INFO, logger="rollstock")
    run = sample_portfolio(toy_instance, params=AnnealParams(seed=3))
    records = [r for r in caplog.records if r.name == "rollstock"]
    assert [r.levelno for r in records] == [logging.INFO]
    reads = {}
    for r in run.rejected:
        for family in r.violated_families:
            reads[family] = reads.get(family, 0) + r.multiplicity
    assert reads == {"capacity_forbid": 4, "coverage": 7, "flow_balance": 3}
    feasible = 100 - sum(r.multiplicity for r in run.rejected)
    assert records[0].getMessage() == (
        f"decode: {len(run.samples.entries)} distinct samples, {feasible} of 100 "
        "reads feasible; reads per violated family: capacity_forbid=4, "
        "coverage=7, flow_balance=3")
    assert ANNEAL._decode_histogram(SampleSet(entries=(), num_reads=5), ()) == (
        "decode: 0 distinct samples, 5 of 5 reads feasible; "
        "reads per violated family: none")


def test_decode_histogram_is_built_only_when_info_is_enabled(toy_instance, caplog,
                                                             monkeypatch):
    def fail(*args):
        raise AssertionError("histogram built below INFO")

    monkeypatch.setattr(ANNEAL, "_decode_histogram", fail)
    caplog.set_level(logging.WARNING, logger="rollstock")
    sample_portfolio(toy_instance, params=AnnealParams(num_reads=10, sweeps=50))
    assert not [r for r in caplog.records if r.name == "rollstock"]


def test_infeasible_instance_yields_empty_portfolio(toy_instance):
    # no admissible EMU type can reach trip t3 in time: forbid its types
    trips = tuple(
        dataclasses.replace(t, allowed_types=frozenset({"r2"}))
        if t.id == "t3" else t
        for t in toy_instance.trips)
    # r2 cannot couple and only one unit exists, but two A->B trips remain
    depots = tuple(dataclasses.replace(d, out_max={"r1": 0, "r2": 1})
                   for d in toy_instance.depots)
    inst = dataclasses.replace(toy_instance, trips=trips, depots=depots)
    model = encode_ilp(build_hypergraph(inst), inst)
    assert solve_exact(model).status == "infeasible"
    run = sample_portfolio(inst, params=AnnealParams(num_reads=20, sweeps=300,
                                                     seed=0))
    assert run.portfolio.solutions == ()
    assert run.rejected


def test_overcrowded_but_feasible_portfolio():
    # 75 passengers on t006 overfill a single r1 unit: arc 4, the r1 single
    # dispatch into t006, gets a capacity_forbid row, and the one plan left
    # avoids it at the optimum of the instance before the surge
    inst = generate_synthetic(GeneratorConfig(n_trips=12, n_types=2, n_depots=1), 1)
    assert inst.trip_by_id("t006").passengers == 70
    trips = tuple(dataclasses.replace(t, passengers=75) if t.id == "t006" else t
                  for t in inst.trips)
    graph = build_hypergraph(inst)
    model = encode_ilp(graph, dataclasses.replace(inst, trips=trips))
    capacity = [row for row in model.constraints if row.kind == "capacity_forbid"]
    assert [row.coeffs for row in capacity] == [((4, 1),)]
    arc = graph.arcs[4]
    assert (arc.kind, arc.targets, arc.emu_type, arc.k) == (
        "depot_out", ("trip:t006",), "r1", 1)
    assert encode_ilp(graph, inst).constraints == tuple(
        row for row in model.constraints if row.kind != "capacity_forbid")

    plans = enumerate_feasible(model)
    assert plans.exhaustive and len(plans.solutions) == 1
    plan = plans.solutions[0]
    assert plan.x[4] == 0
    assert plan.objective == Fraction(1979, 250) == solve_exact(
        encode_ilp(graph, inst)).solution.objective
    crowded = list(plan.x)
    crowded[4] = 1
    assert "capacity_forbid" in check_feasibility(model, crowded).families()

    run = sample_portfolio(None, params=AnnealParams(num_reads=50, sweeps=500, seed=1),
                           ilp=model)
    assert [s.x for s in run.portfolio.solutions] == [plan.x]
    assert sum("capacity_forbid" in r.violated_families for r in run.rejected) == 3


def test_success_rate_monotone_in_sweeps(toy_qubo):
    """Averaged over 20 seeds, more sweeps never hurt ground-state recovery."""
    rates = []
    for sweeps in (8, 64, 512):
        hits = 0
        reads = 0
        for seed in range(20):
            result = anneal(toy_qubo, AnnealParams(
                num_reads=25, sweeps=sweeps, beta_min=0.05, seed=seed))
            hits += sum(e.multiplicity for e in result.entries
                        if e.energy == GROUND)
            reads += result.num_reads
        rates.append(hits / reads)
    assert rates == sorted(rates)
    assert rates[-1] > 0


def test_synthetic_portfolio_near_exact_optimum():
    inst = generate_synthetic(
        GeneratorConfig(n_trips=20, n_couplable=4, n_types=1, n_depots=1),
        seed=2)
    model = encode_ilp(build_hypergraph(inst), inst)
    exact = solve_exact(model)
    assert exact.status == "optimal"
    run = sample_portfolio(
        inst, params=AnnealParams(num_reads=60, sweeps=1500, beta_min=0.05,
                                  beta_max=20.0, seed=7))
    assert run.portfolio.solutions, "sampler found no feasible plan"
    best = float(run.portfolio.solutions[0].objective)
    assert best <= float(exact.solution.objective) * 1.05
