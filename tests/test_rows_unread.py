"""Once an ``IlpModel`` is built, no consumer reads its rows as built.

Every consumer reads the compiled arrays and the ``kinds``, ``tags`` and
``relations`` tuples; ``encode_qubo`` alone passes each row's ``coeffs``
on to its ``PenaltyRow`` by reference. So each model here is encoded to a
QUBO first, then copied with an object in place of ``constraints`` that
raises on any access, and every other consumer must give on the copy what
it gives on the intact model.
"""

import copy
import random

import pytest

from rollstock.exact import brute_force, enumerate_feasible, solve_exact
from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import check_feasibility, encode_ilp, export_lp, objective_value
from rollstock.netbuild import build_hypergraph
from rollstock.qubo import decode_many, encode_qubo, scaling_report


class Unreadable:
    """Stands in for ``IlpModel.constraints``: any access raises."""

    def _read(self, *args):
        raise AssertionError("IlpModel.constraints was read")

    __getattribute__ = __len__ = __iter__ = __getitem__ = __bool__ = __eq__ = _read


def unreadable(model):
    """A copy of ``model``, compiled from its rows, that cannot read them."""
    blind = copy.copy(model)
    object.__setattr__(blind, "constraints", Unreadable())
    with pytest.raises(AssertionError):
        len(blind.constraints)
    return blind


def generated_day():
    inst = generate_synthetic(
        GeneratorConfig(n_trips=40, n_couplable=8, n_types=3, n_depots=4), 7000)
    graph = build_hypergraph(inst)
    return inst, graph, encode_ilp(graph, inst)


def assert_consumers_agree(instance, graph, model, max_count):
    qubo = encode_qubo(model)
    blind = unreadable(model)
    assert solve_exact(blind) == solve_exact(model)
    assert enumerate_feasible(blind, max_count) == enumerate_feasible(model, max_count)
    rng = random.Random(0)
    xs = [tuple(rng.randint(0, 1) for _ in range(model.num_vars)) for _ in range(20)]
    xs.append(solve_exact(model).solution.x)
    for x in xs:
        assert check_feasibility(blind, x) == check_feasibility(model, x)
        assert objective_value(blind, x) == objective_value(model, x)
    assert export_lp(blind) == export_lp(model)
    ys = [tuple(rng.randint(0, 1) for _ in range(qubo.num_vars)) for _ in range(20)]
    assert decode_many(qubo, blind, ys) == decode_many(qubo, model, ys)
    assert (scaling_report(instance, graph, blind, qubo)
            == scaling_report(instance, graph, model, qubo))
    return blind


def test_the_toy_model_is_used_without_its_rows(toy_instance, toy_graph, toy_ilp):
    blind = assert_consumers_agree(toy_instance, toy_graph, toy_ilp, 100000)
    assert brute_force(blind) == brute_force(toy_ilp)


def test_a_generated_model_is_used_without_its_rows():
    assert_consumers_agree(*generated_day(), 50)
