"""On every feasible plan of a generated day, the QUBO prices the plan as the
ILP does.

A feasible plan breaks no row, so with its energy-minimizing slack bits
every penalty term is zero and the QUBO energy is the ILP objective,
offset included. The days are drawn from the generator's configurations:
1 to 14 trips, 1 to 3 EMU types, 1 or 2 depots, return bounds on and off,
and demand and bicycle fills that sometimes overcrowd a unit (above 1).
Every plan of ``enumerate_feasible`` is checked, and its slack completion
must decode as a feasible, slack-consistent sample of the same plan.
"""

from hypothesis import given, settings, strategies as st

from rollstock.exact import enumerate_feasible
from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import encode_ilp, objective_value
from rollstock.netbuild import build_hypergraph
from rollstock.qubo import consistent_slacks, decode, encode_qubo, slack_optimized_energy


def fill_range(draw):
    return tuple(sorted(draw(st.lists(st.floats(0, 1.6), min_size=2, max_size=2))))


@st.composite
def days(draw):
    n_trips = draw(st.integers(1, 14))
    config = GeneratorConfig(
        n_trips=n_trips, n_couplable=draw(st.integers(0, n_trips)),
        n_depots=draw(st.integers(1, 2)), n_types=draw(st.integers(1, 3)),
        demand_fill=fill_range(draw), bike_fill=fill_range(draw),
        with_return_bounds=draw(st.booleans()))
    return generate_synthetic(config, draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=300, deadline=None)
@given(days())
def test_feasible_plans_cost_their_objective_on_the_qubo(inst):
    ilp = encode_ilp(build_hypergraph(inst), inst)
    qubo = encode_qubo(ilp)
    portfolio = enumerate_feasible(ilp)
    assert portfolio.exhaustive
    for plan in portfolio.solutions:
        assert slack_optimized_energy(qubo, plan.x) == objective_value(ilp, plan.x)
        sample = decode(qubo, ilp, consistent_slacks(qubo, plan.x))
        assert sample.x == plan.x and sample.feasible and sample.slack_consistent
