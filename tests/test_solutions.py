"""Every plan the library returns is built by one block routine.

``solve_exact``, ``enumerate_feasible``, ``brute_force`` and
``sample_portfolio`` turn their 0/1 plans into ``Solution``s in blocks:
each block is checked on every row and priced at once, and the plans are
sorted by objective, then by plan. The reference below builds each plan on
its own from ``objective_value`` and ``check_feasibility`` and sorts the
``Solution``s by ``(objective, x)``; the portfolios must equal it field by
field, on random small models, on an empty feasible set, on a model
without variables and with blocks of one plan.
"""

import itertools
import random
from fractions import Fraction

import pytest

from rollstock.anneal import AnnealParams, sample_portfolio
from rollstock.exact import Solution, brute_force, enumerate_feasible, solve_exact
from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import ConstraintRow, IlpModel, check_feasibility, encode_ilp, objective_value
from rollstock.netbuild import build_hypergraph
from rollstock.qubo import decode_many, encode_qubo

from test_exact import random_small_model


def reference(model, xs):
    """The plans ``xs`` as ``Solution``s, one at a time, sorted by
    ``(objective, x)``."""
    solutions = [Solution(x=tuple(x), objective=objective_value(model, x),
                          report=check_feasibility(model, x),
                          decoded=tuple(i for i, v in enumerate(x) if v))
                 for x in xs]
    return tuple(sorted(solutions, key=lambda s: (s.objective, s.x)))


def every_feasible_plan(model):
    return [x for x in itertools.product((0, 1), repeat=model.num_vars)
            if check_feasibility(model, x).feasible]


@pytest.mark.parametrize("seed", range(10))
def test_enumerated_and_brute_force_portfolios_equal_the_per_plan_reference(seed):
    rng = random.Random(seed)
    for _ in range(40):
        model = random_small_model(rng)
        want = reference(model, every_feasible_plan(model))
        assert enumerate_feasible(model).solutions == want
        assert brute_force(model).solutions == want
        # branch and bound keeps the first optimum it finds, one of the ties
        solution = solve_exact(model).solution
        if want:
            assert solution in want and solution.objective == want[0].objective
        else:
            assert solution is None


def test_solve_exact_solution_equals_its_per_plan_reference(toy_ilp):
    solution = solve_exact(toy_ilp).solution
    assert (solution,) == reference(toy_ilp, [solution.x])


@pytest.mark.parametrize("params", [AnnealParams(num_reads=40, sweeps=30, seed=1),
                                    AnnealParams(num_reads=100, sweeps=1000, seed=3)])
def test_sampled_portfolio_equals_the_per_plan_reference(toy_instance, toy_ilp, params):
    run = sample_portfolio(toy_instance, params=params, ilp=toy_ilp)
    decoded = decode_many(encode_qubo(toy_ilp), toy_ilp, [e.y for e in run.samples.entries])
    feasible = {sample.x for sample in decoded if sample.feasible}
    assert feasible
    assert run.portfolio.solutions == reference(toy_ilp, feasible)
    assert not run.portfolio.exhaustive


def test_sampled_portfolio_of_a_generated_day_equals_the_per_plan_reference():
    # an anneal-portfolio-sized day whose sampled portfolio holds 16 plans
    inst = generate_synthetic(GeneratorConfig(n_trips=12, n_types=1, n_depots=1), seed=1)
    model = encode_ilp(build_hypergraph(inst), inst)
    run = sample_portfolio(inst, params=AnnealParams(num_reads=100, sweeps=500, seed=1),
                           ilp=model)
    decoded = decode_many(encode_qubo(model), model, [e.y for e in run.samples.entries])
    feasible = {sample.x for sample in decoded if sample.feasible}
    assert len(feasible) > 1
    assert run.portfolio.solutions == reference(model, feasible)


def test_an_empty_feasible_set_gives_an_empty_portfolio():
    blocked = IlpModel(num_vars=3, objective=((0, Fraction(1)),), constraints=(
        ConstraintRow(kind="coverage", relation="=", rhs=1, coeffs=(), tag="cover[x]"),))
    assert enumerate_feasible(blocked).solutions == ()
    assert brute_force(blocked).solutions == ()
    assert solve_exact(blocked).solution is None


def test_a_model_without_variables_has_one_plan_priced_at_its_constant():
    model = IlpModel(num_vars=0, objective=(), constraints=(), constant=Fraction(3, 2))
    want = (Solution(x=(), objective=Fraction(3, 2), report=check_feasibility(model, ()),
                     decoded=()),)
    assert enumerate_feasible(model).solutions == want
    assert brute_force(model).solutions == want
    assert solve_exact(model).solution == want[0]


def test_plans_priced_past_int64_keep_their_order():
    # obj is an object array here: each plan's total is a Python int
    big = Fraction(2 ** 70, 3)
    model = IlpModel(num_vars=2, objective=((0, big), (1, big + 1)), constraints=(
        ConstraintRow(kind="out_degree", relation="<=", rhs=1,
                      coeffs=((0, 1), (1, 1)), tag="out"),))
    assert model.obj.dtype == object
    want = reference(model, every_feasible_plan(model))
    assert [s.objective for s in want] == [0, big, big + 1]
    assert enumerate_feasible(model).solutions == want
    assert brute_force(model).solutions == want


def test_one_plan_blocks_give_the_same_portfolios(monkeypatch, toy_ilp):
    rng = random.Random(11)
    models = [toy_ilp] + [random_small_model(rng) for _ in range(30)]
    want = [(enumerate_feasible(m), brute_force(m)) for m in models]
    monkeypatch.setattr("rollstock.ilp._BLOCK", 1)
    assert [(enumerate_feasible(m), brute_force(m)) for m in models] == want
