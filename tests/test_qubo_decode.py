"""``decode`` against a reference built from its parts.

``decode`` sums each ILP row once and reads the sum twice: for the
feasibility report and for the row's slack check. The reference computes
the two apart, as ``check_feasibility`` on the decision bits and each
penalty row's chain against ``PenaltyRow.best_slack_sum``. The samples are
random bit strings, plans with their canonical slacks, and the same plans
with one slack bit flipped, on the toy and on generated instances that have
a capacity row between their depot and driver rows. Every row of those has
lo 0, so a hand-built model with lo 2 and lo -1 rows is decoded for every y.
"""

import dataclasses
import itertools
import random

import pytest

from rollstock.exact import solve_exact
from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import ConstraintRow, IlpModel, check_feasibility, encode_ilp
from rollstock.netbuild import build_hypergraph
from rollstock.qubo import DecodedSample, consistent_slacks, decode, encode_qubo


def reference_decode(model, ilp, y):
    y = tuple(y)
    x = y[:model.num_decision]
    consistent = all(sum(y[s] for s in row.slack_indices) == row.best_slack_sum(x)
                     for row in model.penalty_rows)
    return DecodedSample(y=y, x=x, slack_consistent=consistent,
                         report=check_feasibility(ilp, x))


def generated(seed):
    config = GeneratorConfig(n_trips=30, n_couplable=15, n_types=3, n_depots=2,
                             demand_fill=(0.7, 1.2))
    inst = generate_synthetic(config, seed)
    return encode_ilp(build_hypergraph(inst), inst)


def best_plan(ilp):
    """An optimal plan, else one that meets every row but capacity."""
    result = solve_exact(ilp)
    if result.solution is not None:
        return result.solution.x
    rows = tuple(row for row in ilp.constraints if row.kind != "capacity_forbid")
    return solve_exact(dataclasses.replace(ilp, constraints=rows)).solution.x


def samples(model, ilp, rng, count=40):
    """Random bit strings, plans with canonical slacks, and those plans
    with one slack bit flipped."""
    ys = [tuple(rng.randint(0, 1) for _ in range(model.num_vars)) for _ in range(count)]
    plans = [tuple(rng.randint(0, 1) for _ in range(model.num_decision))
             for _ in range(count)]
    plans.append(best_plan(ilp))
    chains = [row.slack_indices for row in model.penalty_rows if row.slack_indices]
    for x in plans:
        y = consistent_slacks(model, x)
        ys.append(y)
        wrong = list(y)
        s = rng.choice(rng.choice(chains))
        wrong[s] = 1 - wrong[s]
        ys.append(tuple(wrong))
    return ys


def assert_decode_matches_reference(model, ilp, seed, feasible):
    rng = random.Random(seed)
    decoded = []
    for y in samples(model, ilp, rng):
        got = decode(model, ilp, y)
        assert got == reference_decode(model, ilp, y)
        decoded.append(got)
    assert {d.slack_consistent for d in decoded} == {True, False}
    assert {d.feasible for d in decoded} == feasible


@pytest.mark.parametrize("seed", [0, 1])
def test_toy_decode_matches_reference(toy_qubo, toy_ilp, seed):
    assert_decode_matches_reference(toy_qubo, toy_ilp, seed, {True, False})


# seed 0 is feasible; on seeds 1 and 2 every plan overcrowds an arc
@pytest.mark.parametrize("seed,feasible", [(0, {True, False}), (1, {False}),
                                           (2, {False})])
def test_generated_decode_matches_reference(seed, feasible):
    ilp = generated(seed)
    kinds = [row.kind for row in ilp.constraints]
    assert "driver" in kinds[kinds.index("capacity_forbid"):]
    model = encode_qubo(ilp, (3, 7, 2, 1, 11))
    assert_decode_matches_reference(model, ilp, seed, feasible)


def test_rows_with_nonzero_lo_decode_like_reference_on_every_sample():
    rows = (
        ConstraintRow(kind="coverage", relation="=", rhs=1,
                      coeffs=((0, 1), (1, 1)), tag="c"),
        ConstraintRow(kind="driver", relation="range", lo=2, hi=4,
                      coeffs=((0, 1), (1, 2), (3, 1)), tag="d"),
        ConstraintRow(kind="capacity_forbid", relation="=", rhs=0,
                      coeffs=((2, 1),), tag="capacity"),
        # a <= row's lo is the sum of its negative coefficients, here -1
        ConstraintRow(kind="out_degree", relation="<=", rhs=1,
                      coeffs=((1, 1), (2, -1), (3, 1)), tag="o"),
    )
    ilp = IlpModel(num_vars=4, objective=((2, 1),), constraints=rows)
    model = encode_qubo(ilp)
    assert [(row.constant, len(row.slack_indices)) for row in model.penalty_rows] == [
        (-1, 0), (-2, 2), (1, 2)]
    decoded = []
    for y in itertools.product((0, 1), repeat=model.num_vars):
        got = decode(model, ilp, y)
        assert got == reference_decode(model, ilp, y)
        decoded.append(got)
    assert {(d.slack_consistent, d.feasible) for d in decoded} == {
        (True, True), (True, False), (False, True), (False, False)}


def test_foreign_ilp_is_rejected_at_its_first_mismatch(toy_qubo, toy_ilp):
    rows = toy_ilp.constraints
    y = (0,) * toy_qubo.num_vars
    cases = {
        "drop row 1": (rows[:1] + rows[2:], f"ILP row 1 {rows[2].tag!r} meets "
                                            f"penalty row {rows[1].tag!r}"),
        "swap rows 0 and 1": ((rows[1], rows[0]) + rows[2:],
                              f"ILP row 0 {rows[1].tag!r} meets penalty row {rows[0].tag!r}"),
        "extra row": (rows + (rows[0],), f"ILP row {len(rows)} {rows[0].tag!r} "
                                         "meets no penalty row"),
    }
    last = max(i for i, row in enumerate(rows) if row.kind != "capacity_forbid")
    cases["drop the last penalty row"] = (
        rows[:last] + rows[last + 1:], f"penalty row {rows[last].tag!r} meets no ILP row")
    for name, (constraints, message) in cases.items():
        foreign = dataclasses.replace(toy_ilp, constraints=constraints)
        with pytest.raises(ValueError) as info:
            decode(toy_qubo, foreign, y)
        assert str(info.value) == message, name


def test_ilp_of_another_size_is_rejected(toy_qubo):
    ilp = generated(0)
    with pytest.raises(ValueError, match=f"ILP has {ilp.num_vars} variables, "
                                         f"QUBO has {toy_qubo.num_decision}"):
        decode(toy_qubo, ilp, (0,) * toy_qubo.num_vars)
