import dataclasses
import random
from fractions import Fraction

import pytest

from rollstock.exact import brute_force, solve_exact
from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import (ConstraintRow, IlpModel, check_feasibility,
                           encode_ilp, objective_value)
from rollstock.netbuild import build_hypergraph
from rollstock.qubo import (DEFAULT_LAMBDAS, consistent_slacks,
                            decode, encode_qubo, export_ising_coo,
                            export_qubo_coo, ising_energy, qubo_energy,
                            scaling_report, slack_optimized_energy, to_ising)

from conftest import lifted, qubo_model, small_random_instance, toy_x

LAMBDA = Fraction(100)


def test_toy_variable_and_term_counts(toy_qubo):
    assert toy_qubo.num_decision == 11
    assert toy_qubo.num_slack == 9
    assert toy_qubo.num_vars == 20
    # stored-term convention: nonzero upper-triangular entries incl. diagonal
    assert toy_qubo.num_terms() == 88


def test_toy_slack_layout(toy_qubo):
    # s11..s19 in reference order: out-degree, depot ranges, driver ranges
    chains = [(row.tag, s) for row in toy_qubo.penalty_rows for s in row.slack_indices]
    assert [s for _, s in chains] == list(range(11, 20))
    tags = [tag for tag, _ in chains]
    assert tags == ["outdeg[t1]", "outdeg[t2]",
                    "depot_out[depA,r1]", "depot_out[depA,r1]",
                    "depot_out[depA,r2]",
                    "driver[depA,485]", "driver[depA,485]",
                    "driver[depA,600]", "driver[depA,600]"]


def test_all_zero_energy_is_coverage_penalty_only(toy_qubo):
    assert qubo_energy(toy_qubo, (0,) * 20) == 3 * LAMBDA


def test_optimum_energy_equals_objective(toy_qubo, toy_ilp):
    y = consistent_slacks(toy_qubo, toy_x(0, 2, 10))
    assert qubo_energy(toy_qubo, y) == Fraction(24, 5)
    for ones in [(0, 3, 6, 8), (1, 2, 5, 9)]:
        y = consistent_slacks(toy_qubo, toy_x(*ones))
        assert qubo_energy(toy_qubo, y) == objective_value(toy_ilp, toy_x(*ones))


def test_double_coverage_costs_at_least_lambda1(toy_qubo, toy_ilp):
    x = toy_x(4, 5)  # two arcs pointing at the same trip
    energy = slack_optimized_energy(toy_qubo, x)
    assert energy >= objective_value(toy_ilp, x) + LAMBDA


def test_exhaustive_sweep_ground_state(toy_qubo, toy_ilp):
    """Slack-optimized sweep over all 2^11 decision assignments."""
    best_energy, best_x = None, None
    for bits in range(1 << 11):
        x = tuple((bits >> i) & 1 for i in range(11))
        energy = slack_optimized_energy(toy_qubo, x)
        if best_energy is None or energy < best_energy:
            best_energy, best_x = energy, x
    assert best_energy == Fraction(24, 5)
    assert best_x == toy_x(0, 2, 10)


def test_toy_separation_exhaustive(toy_qubo, toy_ilp):
    """Infeasible assignments sit at least min(lambda) above their objective;
    capacity-only violations sit exactly lambda4 per violating arc above."""
    for bits in range(1 << 11):
        x = tuple((bits >> i) & 1 for i in range(11))
        report = check_feasibility(toy_ilp, x)
        energy = slack_optimized_energy(toy_qubo, x)
        obj = objective_value(toy_ilp, x)
        if report.feasible:
            assert energy == obj
        else:
            assert energy >= obj + min(DEFAULT_LAMBDAS)
            if report.families() == ("capacity_forbid",):
                violating = sum(1 for i in (4, 7) if x[i])
                assert energy == obj + LAMBDA * violating


def test_equality_only_rows_need_no_range_slacks():
    model = IlpModel(
        num_vars=3,
        objective=((0, Fraction(1)),),
        constraints=(
            ConstraintRow(kind="coverage", relation="=", rhs=1,
                          coeffs=((0, 1), (1, 1)), tag="cover[a]"),
            ConstraintRow(kind="flow_balance", relation="=", rhs=0,
                          coeffs=((0, 1), (2, -1)), tag="flow[a,r]"),
            ConstraintRow(kind="out_degree", relation="<=", rhs=1,
                          coeffs=((1, 1), (2, 1)), tag="outdeg[a]"),
        ))
    qubo = encode_qubo(model)
    assert qubo.num_slack == 1  # only the out-degree row carries a slack


def test_unsupported_kind_rejected():
    model = IlpModel(
        num_vars=1, objective=(),
        constraints=(ConstraintRow(kind="mystery", relation="=", rhs=0,
                                   coeffs=((0, 1),), tag="?"),))
    with pytest.raises(ValueError):
        encode_qubo(model)


def test_lambda_validation(toy_ilp):
    with pytest.raises(ValueError):
        encode_qubo(toy_ilp, (1, 2, 3))
    with pytest.raises(ValueError):
        encode_qubo(toy_ilp, (1, 2, 3, 4, -5))


# ---------------------------------------------------------------------------
# Penalty equivalence on random instances


@pytest.mark.parametrize("seed", range(1, 16))
def test_penalty_equivalence_random(seed):
    inst = small_random_instance(seed, max_trips=6)
    model = encode_ilp(build_hypergraph(inst), inst)
    if model.num_vars > 16:
        pytest.skip("too large for exhaustive equivalence")
    qubo = encode_qubo(model)
    feasible = {s.x for s in brute_force(model).solutions}
    rng = random.Random(seed)
    sample = set(feasible)
    for _ in range(200):
        sample.add(tuple(rng.randint(0, 1) for _ in range(model.num_vars)))
    for x in sorted(sample):
        energy = slack_optimized_energy(qubo, x)
        obj = objective_value(model, x)
        if x in feasible:
            assert energy == obj
        else:
            assert energy >= obj + min(DEFAULT_LAMBDAS)


@pytest.mark.parametrize("trips", [20, 40, 60, 80])
def test_energy_identity_at_the_optimum_of_generated_instances(trips):
    # the scaling-ladder generator family at seed T: chains of at most 2, 4,
    # 6 and 8 bits, each optimum proven by branch and bound in milliseconds
    config = GeneratorConfig(n_trips=trips, n_couplable=trips // 5,
                             n_types=3, n_depots=4)
    inst = generate_synthetic(config, trips)
    model = encode_ilp(build_hypergraph(inst), inst)
    qubo = encode_qubo(model)
    assert max(len(row.slack_indices) for row in qubo.penalty_rows) == trips // 10
    result = solve_exact(model, time_limit=60)
    assert result.status == "optimal"
    x = result.solution.x
    assert slack_optimized_energy(qubo, x) == objective_value(model, x)
    sample = decode(qubo, model, consistent_slacks(qubo, x))
    assert sample.feasible and sample.slack_consistent
    assert sample.x == x


@pytest.mark.parametrize("seed", [3, 5, 8, 11])
def test_argmin_preserved_when_lambda_exceeds_objective_spread(seed):
    """With min(lambda) above the objective spread, the QUBO ground state
    decodes to an ILP optimum."""
    inst = small_random_instance(seed, max_trips=5)
    model = encode_ilp(build_hypergraph(inst), inst)
    if model.num_vars > 14:
        pytest.skip("too large for the exhaustive argmin check")
    oracle = brute_force(model)
    if not oracle.solutions:
        pytest.skip("infeasible draw")
    spread = sum(c for _, c in model.objective if c > 0)
    lam = spread + 1
    qubo = encode_qubo(model, (lam,) * 5)
    best_energy, best_x = None, None
    for bits in range(1 << model.num_vars):
        x = tuple((bits >> i) & 1 for i in range(model.num_vars))
        energy = slack_optimized_energy(qubo, x)
        if best_energy is None or energy < best_energy:
            best_energy, best_x = energy, x
    assert best_energy == oracle.solutions[0].objective
    assert check_feasibility(model, best_x).feasible


# ---------------------------------------------------------------------------
# Ising conversion


def test_toy_ising_energy(toy_qubo):
    ising = to_ising(toy_qubo)
    y = consistent_slacks(toy_qubo, toy_x(0, 2, 10))
    s = tuple(2 * v - 1 for v in y)
    assert ising_energy(ising, s) == Fraction(24, 5)
    assert (ising.j.i < ising.j.j).all()


def test_single_variable_ising_algebra():
    c = Fraction(5, 3)
    model = qubo_model(1, {(0, 0): c})
    ising = to_ising(model)
    assert lifted(ising.h, ising.den) == {0: c / 2}
    assert Fraction(ising.offset, ising.den) == c / 2
    assert len(ising.j) == 0


def random_qubo(rng, n):
    q = {}
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.4:
                q[(i, j)] = Fraction(rng.randint(-50, 50), rng.randint(1, 7))
    return qubo_model(n, {k: v for k, v in q.items() if v},
                      offset=Fraction(rng.randint(-5, 5)))


def test_ising_roundtrip_random_models():
    rng = random.Random(123)
    checked = 0
    for _ in range(10):
        model = random_qubo(rng, 12)
        ising = to_ising(model)
        for _ in range(100):
            y = tuple(rng.randint(0, 1) for _ in range(12))
            s = tuple(2 * v - 1 for v in y)
            assert ising_energy(ising, s) == qubo_energy(model, y)
            checked += 1
    assert checked == 1000


# ---------------------------------------------------------------------------
# Decoding


def test_decode_capacity_sample(toy_qubo, toy_ilp):
    y = consistent_slacks(toy_qubo, toy_x(0, 2, 6, 7))
    sample = decode(toy_qubo, toy_ilp, y)
    assert not sample.feasible
    assert sample.report.families() == ("capacity_forbid",)
    assert sample.slack_consistent


def test_decode_flags_wrong_slacks(toy_qubo, toy_ilp):
    y = list(consistent_slacks(toy_qubo, toy_x(0, 2, 10)))
    y[13] = 0  # depot chain should sum to 2 here
    sample = decode(toy_qubo, toy_ilp, tuple(y))
    assert sample.feasible  # the plan itself is fine
    assert not sample.slack_consistent
    assert qubo_energy(toy_qubo, y) > Fraction(24, 5)


def test_decode_all_zero(toy_qubo, toy_ilp):
    sample = decode(toy_qubo, toy_ilp, (0,) * 20)
    assert not sample.feasible
    assert sample.report.families() == ("coverage",)
    assert sample.slack_consistent
    with pytest.raises(ValueError):
        decode(toy_qubo, toy_ilp, (0,) * 19)


def test_decode_never_mutates_input(toy_qubo, toy_ilp):
    y = list((0,) * 20)
    decode(toy_qubo, toy_ilp, y)
    assert y == list((0,) * 20)


# ---------------------------------------------------------------------------
# Scaling report and exports


def test_toy_scaling_report(toy_instance, toy_graph, toy_ilp, toy_qubo):
    rep = scaling_report(toy_instance, toy_graph, toy_ilp, toy_qubo)
    assert (rep.n_trips, rep.n_single_only, rep.n_couplable) == (3, 2, 1)
    assert (rep.n_depots, rep.n_types) == (1, 2)
    assert (rep.delta_min, rep.delta_max) == (10, 60)
    assert rep.ilp_vars == 11
    assert rep.qubo_vars == 20
    assert rep.qubo_terms == 88
    assert rep.arc_var_bound == 10
    assert rep.coverage_term_bound == 3 ** 5 * 2 ** 2
    assert rep.continuity_term_bound == 2 * 2 ** 3 * 3 ** 5
    assert rep.qubo_terms <= rep.total_term_bound


def test_empty_instance_report():
    inst = small_random_instance(1)
    empty = dataclasses.replace(inst, trips=(), driver_windows=())
    graph = build_hypergraph(empty)
    model = encode_ilp(graph, empty)
    qubo = encode_qubo(model)
    rep = scaling_report(empty, graph, model, qubo)
    assert rep.n_trips == 0 and rep.ilp_vars == 0 and rep.qubo_terms == 0


@pytest.mark.parametrize("n", [10, 20, 40])
def test_generated_term_counts_below_analytic_bounds(n):
    from rollstock.generate import GeneratorConfig, generate_synthetic
    inst = generate_synthetic(
        GeneratorConfig(n_trips=n, n_couplable=n // 5, n_types=1), seed=3)
    graph = build_hypergraph(inst)
    model = encode_ilp(graph, inst)
    qubo = encode_qubo(model)
    rep = scaling_report(inst, graph, model, qubo)
    assert rep.qubo_terms < rep.coverage_term_bound  # |T|^5 |R|^2 dominates


def test_coo_exports_are_deterministic_and_complete(toy_qubo):
    text = export_qubo_coo(toy_qubo)
    assert text == export_qubo_coo(toy_qubo)
    lines = text.strip().splitlines()
    assert lines[0].startswith("# qubo num_vars=20 offset=300")
    assert len(lines) - 1 == toy_qubo.num_terms()
    # parse back and re-evaluate one energy
    q = {}
    for line in lines[1:]:
        i, j, value = line.split()
        q[(int(i), int(j))] = Fraction(value)
    y = consistent_slacks(toy_qubo, toy_x(0, 2, 10))
    energy = Fraction(300) + sum(v for (i, j), v in q.items()
                                 if y[i] and y[j])
    assert energy == Fraction(24, 5)

    ising_text = export_ising_coo(to_ising(toy_qubo))
    assert ising_text.splitlines()[0].startswith("# ising num_vars=20")


def _le_row_with_negative_coefficient():
    # x0 - x1 <= 0: its least attainable lhs is -1, so it reads -1 <= lhs <= 0
    return IlpModel(
        num_vars=2,
        objective=((0, Fraction(1)), (1, Fraction(2))),
        constraints=(ConstraintRow(kind="out_degree", relation="<=", rhs=0,
                                   coeffs=((0, 1), (1, -1)), tag="le"),))


def test_le_row_with_negative_coefficient_penalizes_only_violations():
    model = _le_row_with_negative_coefficient()
    qubo = encode_qubo(model)
    feasible = brute_force(model).solutions
    assert [s.x for s in feasible] == [(0, 0), (0, 1), (1, 1)]
    for s in feasible:
        assert slack_optimized_energy(qubo, s.x) == objective_value(model, s.x)
    assert slack_optimized_energy(qubo, (0, 1)) == 2
    assert slack_optimized_energy(qubo, (1, 0)) == 1 + LAMBDA


@pytest.mark.parametrize("row", [
    ConstraintRow(kind="driver", relation="range", lo=2, hi=1,
                  coeffs=((0, 1),), tag="empty"),
    ConstraintRow(kind="out_degree", relation="<=", rhs=-1,
                  coeffs=((0, 1),), tag="empty"),
])
def test_row_without_solutions_rejected(row):
    model = IlpModel(num_vars=1, objective=(), constraints=(row,))
    with pytest.raises(ValueError, match="lo"):
        encode_qubo(model)
