import dataclasses
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from rollstock.exact import brute_force, enumerate_feasible, solve_exact
from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import ConstraintRow, IlpModel, encode_ilp
from rollstock.model import load_instance
from rollstock.netbuild import build_hypergraph

from conftest import TOY_PATH, small_random_instance


def reweighted(toy_instance, alpha):
    inst = dataclasses.replace(toy_instance, alpha=Fraction(alpha))
    return encode_ilp(build_hypergraph(inst), inst)


def test_toy_optimum(toy_ilp):
    result = solve_exact(toy_ilp)
    assert result.status == "optimal"
    assert result.solution.objective == Fraction(24, 5)
    assert result.solution.decoded == (0, 2, 10)
    assert result.solution.report.feasible


def test_results_are_values(toy_ilp):
    # equal inputs give equal results: no wall-clock field rides along
    assert solve_exact(toy_ilp) == solve_exact(toy_ilp)
    inst = generate_synthetic(GeneratorConfig(
        n_trips=100, n_couplable=20, n_types=3, n_depots=4), seed=100)
    model = encode_ilp(build_hypergraph(inst), inst)
    assert solve_exact(model) == solve_exact(model)


def test_toy_alpha_sweep(toy_instance):
    assert solve_exact(reweighted(toy_instance, "0")).solution.objective == 2
    low = solve_exact(reweighted(toy_instance, "0.0001")).solution.objective
    assert low == Fraction(507, 250)  # 2 EMUs + 0.0001 * 280 km-cost = 2.028
    assert abs(float(low) - 2.028) < 1e-12


def test_toy_feasible_set_enumeration(toy_ilp):
    portfolio = enumerate_feasible(toy_ilp)
    assert portfolio.exhaustive
    assert [float(s.objective) for s in portfolio.solutions] == [4.8, 5.6, 5.6]
    assert {s.decoded for s in portfolio.solutions} == {
        (0, 2, 10), (0, 3, 6, 8), (1, 2, 5, 9)}
    # sorted ascending, pairwise distinct, individually feasible
    objectives = portfolio.objectives()
    assert list(objectives) == sorted(objectives)
    assert len({s.x for s in portfolio.solutions}) == 3
    assert all(s.report.feasible for s in portfolio.solutions)


def test_enumeration_budget():
    model = load_toy_model()
    partial = enumerate_feasible(model, max_count=1)
    assert len(partial.solutions) == 1
    assert not partial.exhaustive


@pytest.mark.parametrize("max_count,plans,exhaustive", [
    (2, 2, False), (3, 3, True), (4, 3, True)])
def test_enumeration_budget_at_below_and_above_the_plan_count(
        toy_ilp, max_count, plans, exhaustive):
    # the toy has 3 feasible plans; a budget of exactly 3 returns them all
    # and knows that none is left out
    portfolio = enumerate_feasible(toy_ilp, max_count=max_count)
    assert len(portfolio.solutions) == plans
    assert portfolio.exhaustive is exhaustive
    everything = enumerate_feasible(toy_ilp).solutions
    assert {s.x for s in portfolio.solutions} <= {s.x for s in everything}


def load_toy_model():
    inst = load_instance(str(TOY_PATH))
    return encode_ilp(build_hypergraph(inst), inst)


def test_uncoverable_trip_gives_empty_exhaustive_portfolio():
    # a coverage row with empty support can never be satisfied
    model = IlpModel(
        num_vars=2,
        objective=((0, Fraction(1)), (1, Fraction(1))),
        constraints=(ConstraintRow(kind="coverage", relation="=", rhs=1,
                                   coeffs=(), tag="cover[ghost]"),))
    portfolio = enumerate_feasible(model)
    assert portfolio.solutions == ()
    assert portfolio.exhaustive
    assert solve_exact(model).status == "infeasible"


def test_plans_a_billionth_apart_are_told_apart():
    # {0, 3} is found first at 3/2; {1, 2} beats it by 10^-9, so the
    # bound 1 + (1/2 - 10^-9) on the x0 = 0 branch must not be pruned
    cover = [ConstraintRow(kind="coverage", relation="=", rhs=1,
                           coeffs=((a, 1), (b, 1)), tag=f"cover[{a}{b}]")
             for a, b in ((0, 1), (2, 3))]
    model = IlpModel(
        num_vars=4,
        objective=((0, Fraction(1)), (1, Fraction(1)),
                   (2, Fraction(1, 2) - Fraction(1, 10**9)), (3, Fraction(1, 2))),
        constraints=(*cover, ConstraintRow(kind="out_degree", relation="<=", rhs=1,
                                           coeffs=((0, 1), (2, 1)), tag="out[02]")))
    result = solve_exact(model)
    assert result.status == "optimal"
    assert result.solution.objective == Fraction(1499999999, 1000000000)
    assert result.solution.decoded == (1, 2)
    assert result.solution == brute_force(model).solutions[0]


def test_brute_force_toy(toy_ilp):
    portfolio = brute_force(toy_ilp)
    assert portfolio.exhaustive
    assert len(portfolio.solutions) == 3
    assert portfolio.solutions[0].objective == Fraction(24, 5)


def test_brute_force_zero_vars():
    model = IlpModel(num_vars=0, objective=(), constraints=())
    portfolio = brute_force(model)
    assert len(portfolio.solutions) == 1
    assert portfolio.solutions[0].objective == 0

    blocked = IlpModel(
        num_vars=0, objective=(),
        constraints=(ConstraintRow(kind="coverage", relation="=", rhs=1,
                                   coeffs=(), tag="cover[x]"),))
    assert brute_force(blocked).solutions == ()


def test_brute_force_rejects_large_models():
    model = IlpModel(num_vars=25, objective=(), constraints=())
    with pytest.raises(ValueError):
        brute_force(model)


def test_brute_force_rejects_rows_past_int64():
    # 2**62 (x0 + x1 + x2) in [-2**62, 0]: its lhs at (1, 1, 1) wraps int64
    # to -2**62, which once passed the row and listed an infeasible plan
    wraps = IlpModel(num_vars=3, objective=(), constraints=(
        ConstraintRow(kind="driver", relation="range", lo=-2 ** 62, hi=0,
                      coeffs=((0, 2 ** 62), (1, 2 ** 62), (2, 2 ** 62)), tag="d"),))
    assert [s.x for s in enumerate_feasible(wraps).solutions] == [(0, 0, 0)]
    with pytest.raises(ValueError, match="'d'"):
        brute_force(wraps)
    # a coefficient past int64 once raised a bare OverflowError
    huge = IlpModel(num_vars=1, objective=(), constraints=(
        ConstraintRow(kind="coverage", relation="=", rhs=0,
                      coeffs=((0, 2 ** 70),), tag="huge"),))
    with pytest.raises(ValueError, match="'huge'"):
        brute_force(huge)


def assert_agrees_with_brute_force(model):
    """enumerate_feasible lists the oracle's plans, and solve_exact finds
    a feasible plan at the oracle's optimum or reports infeasibility."""
    oracle = brute_force(model)
    result = solve_exact(model)
    portfolio = enumerate_feasible(model)
    assert {s.x for s in portfolio.solutions} == {s.x for s in oracle.solutions}
    if oracle.solutions:
        assert result.status == "optimal"
        assert result.solution.report.feasible
        assert result.solution.objective == oracle.solutions[0].objective
    else:
        assert result.status == "infeasible"


@pytest.mark.parametrize("seed", range(1, 31))
def test_search_agrees_with_brute_force(seed):
    inst = small_random_instance(seed, max_trips=8)
    model = encode_ilp(build_hypergraph(inst), inst)
    if model.num_vars > 24:
        pytest.skip("model too large for the oracle")
    assert_agrees_with_brute_force(model)


def test_search_agrees_with_brute_force_on_a_row_repeating_a_variable():
    # 2 x3 + 2 x2 + x1 - 2 x2 = -2 has no solution; propagating x2's two
    # entries separately once let x = 0 through as an optimum
    model = IlpModel(num_vars=4, objective=(), constraints=(
        ConstraintRow(kind="driver", relation="range", lo=-2, hi=-2,
                      coeffs=((3, 2), (2, 2), (1, 1), (2, -2)), tag="d"),))
    assert brute_force(model).solutions == ()
    assert_agrees_with_brute_force(model)


def random_small_model(rng):
    """1-6 variables and 1-4 rows of 0-5 entries drawn with replacement,
    under all three relations and small mixed-sign coefficients; the
    objective is nonnegative, as solve_exact requires."""
    n = rng.randint(1, 6)
    rows = []
    for k in range(rng.randint(1, 4)):
        coeffs = tuple((rng.randrange(n), rng.randint(-3, 3))
                       for _ in range(rng.randint(0, 5)))
        lo = rng.randint(-3, 3)
        rows.append(ConstraintRow(
            kind=rng.choice(("coverage", "flow_balance", "driver")),
            relation=rng.choice(("=", "<=", "range")), rhs=lo, lo=lo,
            hi=lo + rng.randint(-1, 3), coeffs=coeffs, tag=f"r{k}"))
    objective = tuple((v, Fraction(rng.randint(0, 6), rng.randint(1, 3)))
                      for v in range(n) if rng.random() < 0.7)
    return IlpModel(num_vars=n, objective=objective, constraints=tuple(rows))


@pytest.mark.parametrize("seed", range(10))
def test_search_agrees_with_brute_force_on_random_small_models(seed):
    rng = random.Random(seed)
    for _ in range(300):
        assert_agrees_with_brute_force(random_small_model(rng))


def test_generated_instances_are_feasible_by_construction():
    for seed in (1, 2, 3, 4, 5):
        inst = small_random_instance(seed)
        model = encode_ilp(build_hypergraph(inst), inst)
        assert solve_exact(model).status == "optimal", seed


def test_time_limit_returns_best_known():
    inst = generate_synthetic(
        GeneratorConfig(n_trips=80, n_couplable=16, n_types=1, n_depots=1),
        seed=11)
    model = encode_ilp(build_hypergraph(inst), inst)
    result = solve_exact(model, time_limit=0.3)
    assert result.status in ("time_limit", "optimal")
    if result.status == "time_limit":
        assert not result.optimal
        if result.solution is not None:
            assert result.solution.report.feasible


def test_shrinking_delta_never_improves_optimum():
    base = generate_synthetic(
        GeneratorConfig(n_trips=16, n_couplable=4, n_types=2, n_depots=2),
        seed=5)
    objectives = []
    for delta in (90, 60, 40, 25):
        inst = dataclasses.replace(base, delta_max=delta)
        result = solve_exact(encode_ilp(build_hypergraph(inst), inst))
        if result.status != "optimal":
            break
        objectives.append(result.solution.objective)
    assert objectives == sorted(objectives)  # smaller windows cost more


@pytest.mark.parametrize("limit", [float("nan"), -1.0, float("-inf")])
def test_invalid_time_limit_rejected(toy_ilp, limit):
    with pytest.raises(ValueError, match="time_limit"):
        solve_exact(toy_ilp, time_limit=limit)


def test_zero_and_infinite_time_limits_accepted(toy_ilp):
    # the toy needs fewer nodes than the deadline check interval
    assert solve_exact(toy_ilp, time_limit=0).status == "optimal"
    assert solve_exact(toy_ilp, time_limit=float("inf")).status == "optimal"


@pytest.mark.parametrize("max_count", [0, -1])
def test_enumeration_budget_below_one_rejected(toy_ilp, max_count):
    with pytest.raises(ValueError, match="max_count"):
        enumerate_feasible(toy_ilp, max_count=max_count)


def test_share_bound_skips_coverage_rows_without_a_lower_bound():
    # x0 + x1 <= 1 needs no arc, so the empty plan (objective 0) is optimal
    model = IlpModel(
        num_vars=2,
        objective=((0, Fraction(1)), (1, Fraction(2))),
        constraints=(ConstraintRow(kind="coverage", relation="<=", rhs=1,
                                   coeffs=((0, 1), (1, 1)), tag="cover[01]"),))
    result = solve_exact(model)
    assert result.status == "optimal"
    assert result.solution == brute_force(model).solutions[0]
    assert result.solution.objective == 0


def test_negative_objective_coefficient_rejected():
    # the share bound is a lower bound only for nonnegative costs: here
    # the search would return x0 (objective 1) and miss {x1, x2} at -5
    model = IlpModel(
        num_vars=3,
        objective=((0, Fraction(1)), (1, Fraction(5)), (2, Fraction(-10))),
        constraints=(
            ConstraintRow(kind="coverage", relation="=", rhs=1,
                          coeffs=((0, 1), (1, 1)), tag="cover[01]"),
            ConstraintRow(kind="out_degree", relation="<=", rhs=1,
                          coeffs=((0, 1), (2, 1)), tag="out[02]")))
    with pytest.raises(ValueError, match="nonnegative"):
        solve_exact(model)
    assert brute_force(model).solutions[0].objective == -5


def test_search_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    model = IlpModel(num_vars=n, objective=(), constraints=())
    result = solve_exact(model)
    assert result.status == "optimal"
    assert result.solution.x == (0,) * n
    portfolio = enumerate_feasible(model, max_count=3)
    assert len(portfolio.solutions) == 3
    assert not portfolio.exhaustive


def test_mixed_sign_coverage_row_agrees_with_brute_force():
    # -x0 + x1 + x2 + x3 in [1, 2] is met by x1 alone (objective 1); taking
    # `least >= 1` as covered on this row would lift the share bound to 2
    model = IlpModel(
        num_vars=4,
        objective=tuple((v, Fraction(c)) for v, c in enumerate((4, 1, 1, 4))),
        constraints=(ConstraintRow(
            kind="coverage", relation="range", lo=1, hi=2,
            coeffs=((0, -1), (1, 1), (2, 1), (3, 1)), tag="cover[mixed]"),))
    result = solve_exact(model)
    assert result.status == "optimal"
    assert result.solution.report.feasible
    assert result.solution.objective == brute_force(model).best().objective == 1
    assert ({s.x for s in enumerate_feasible(model).solutions}
            == {s.x for s in brute_force(model).solutions})


@pytest.mark.parametrize("var", [5, 2, -1])
def test_row_naming_a_variable_outside_the_model_rejected(var):
    # -1 would read the last variable and 5 would raise a bare IndexError;
    # the model cannot be built, so no solver or oracle is handed one
    match = rf"row 'out\[ghost\]' names variable {var}, outside range\(2\)"
    with pytest.raises(ValueError, match=match):
        IlpModel(
            num_vars=2,
            objective=((0, Fraction(1)), (1, Fraction(1))),
            constraints=(
                ConstraintRow(kind="coverage", relation="=", rhs=1,
                              coeffs=((0, 1), (1, 1)), tag="cover[01]"),
                ConstraintRow(kind="out_degree", relation="<=", rhs=0,
                              coeffs=((0, 1), (var, 1)), tag="out[ghost]")))


@pytest.mark.parametrize("var", [2, -1])
def test_objective_naming_a_variable_outside_the_model_rejected(var):
    match = rf"objective names variable {var}, outside range\(2\)"
    with pytest.raises(ValueError, match=match):
        IlpModel(
            num_vars=2,
            objective=((0, Fraction(1)), (var, Fraction(1))),
            constraints=(ConstraintRow(kind="coverage", relation="=", rhs=1,
                                       coeffs=((0, 1), (1, 1)), tag="cover[01]"),))


@pytest.mark.parametrize("max_count", [2.5, 3.0, True, False, "3", None])
def test_enumeration_budget_that_is_not_an_int_rejected(toy_ilp, max_count):
    # 2.5 once listed all 3 toy plans as exhaustive, and True read as 1
    with pytest.raises(ValueError, match=re.escape(f"max_count must be an int, got {max_count!r}")):
        enumerate_feasible(toy_ilp, max_count=max_count)


def test_enumeration_budget_may_be_a_numpy_int(toy_ilp):
    portfolio = enumerate_feasible(toy_ilp, max_count=np.int64(2))
    assert len(portfolio.solutions) == 2
    assert not portfolio.exhaustive
