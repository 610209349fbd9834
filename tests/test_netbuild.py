import dataclasses
import itertools
import re

import pytest

from rollstock.ilp import encode_ilp
from rollstock.model import Depot, EmuType, Instance, Trip
from rollstock.netbuild import build_hypergraph, size_bounds, to_dot

from conftest import small_random_instance

# The reference toy variable order: (kind, sources, targets, type, k, k').
TOY_ARCS = [
    ("depot_out", ("src:depA",), ("trip:t1",), "r1", 1, 1),
    ("depot_out", ("src:depA",), ("trip:t1",), "r2", 1, 1),
    ("depot_out", ("src:depA",), ("trip:t2",), "r1", 1, 1),
    ("depot_out", ("src:depA",), ("trip:t2",), "r2", 1, 1),
    ("transfer", ("trip:t1",), ("trip:t3",), "r1", 1, 1),
    ("transfer", ("trip:t1",), ("trip:t3",), "r2", 1, 1),
    ("transfer", ("trip:t1",), ("trip:t4",), "r1", 1, 1),
    ("transfer", ("trip:t2",), ("trip:t3",), "r1", 1, 1),
    ("transfer", ("trip:t2",), ("trip:t3",), "r2", 1, 1),
    ("transfer", ("trip:t2",), ("trip:t4",), "r1", 1, 1),
    ("couple", ("trip:t1", "trip:t2"), ("trip:t3",), "r1", 2, 1),
]


def test_toy_arcs_match_reference_set(toy_graph):
    got = [(a.kind, a.sources, a.targets, a.emu_type, a.k, a.k_prime)
           for a in toy_graph.arcs]
    assert got == TOY_ARCS
    assert [a.id for a in toy_graph.arcs] == list(range(11))


def test_toy_costs_and_shortages(toy_instance, toy_graph):
    costs = [a.cost for a in toy_graph.arcs]
    assert costs == [70, 110, 70, 110, 70, 110, 70, 70, 110, 70, 140]
    # every toy arc points at one trip
    runs = [(a.k, toy_instance.trip_by_id(toy_graph.node(a.targets[0]).trip),
             toy_instance.type_by_id(a.emu_type)) for a in toy_graph.arcs]
    shortages = [max(0, t.passengers - k * r.seats) for k, t, r in runs]
    assert shortages == [0, 0, 0, 0, 30, 0, 0, 30, 0, 0, 0]
    assert all(t.bicycles <= k * r.bike_slots for k, t, r in runs)


def row_support(model) -> dict[str, tuple[int, ...]]:
    """Row tag -> the arc ids the row holds, in row order."""
    return {row.tag: tuple(a for a, _ in row.coeffs) for row in model.constraints}


def test_toy_index_sets(toy_ilp):
    rows = row_support(toy_ilp)
    assert rows["cover[t1]"] == (0, 1)
    assert rows["cover[t2]"] == (2, 3)
    assert rows["cover[t3]"] == (4, 5, 7, 8, 10)
    assert "cover[t4]" not in rows  # the optional service trip
    assert rows["flow[t1,r1]"] == (0, 4, 6, 10)
    assert rows["flow[t2,r1]"] == (2, 7, 9, 10)
    (flow_t1,) = [r for r in toy_ilp.constraints if r.tag == "flow[t1,r1]"]
    assert flow_t1.coeffs == ((0, 1), (4, -1), (6, -1), (10, -1))
    assert rows["outdeg[t1]"] == (4, 5, 6, 10)
    assert rows["outdeg[t2]"] == (7, 8, 9, 10)
    assert rows["depot_out[depA,r1]"] == (0, 2)
    assert rows["depot_out[depA,r2]"] == (1, 3)
    assert rows["driver[depA,485]"] == (0, 1)
    assert rows["driver[depA,600]"] == (4, 5, 6, 7, 8, 9, 10)
    assert not any(tag.startswith("depot_in") for tag in rows)


def test_minimal_instance_single_depot_arc():
    inst = Instance(
        trips=(Trip(id="t", origin="A", destination="B", depart=60,
                    arrive=120, passengers=5,
                    allowed_types=frozenset({"r1"})),),
        emu_types=(EmuType(id="r1", seats=10),),
        depots=(Depot(id="d", station="A", out_max={"r1": 1}),),
        delta_min=0, delta_max=30)
    g = build_hypergraph(inst)
    assert len(g.arcs) == 1
    assert g.arcs[0].kind == "depot_out"
    assert row_support(encode_ilp(g, inst))["cover[t]"] == (0,)


# ---------------------------------------------------------------------------
# Independent oracle: enumerate every (sources, targets, type, multiplicity)
# tuple and filter by the four admissibility conditions, written from the
# instance data alone.


def oracle_arcs(inst: Instance):
    found = set()

    def window_ok(a: Trip, b: Trip) -> bool:
        return (a.destination == b.origin
                and inst.delta_min <= b.depart - a.arrive <= inst.delta_max)

    for d in inst.depots:
        for r in inst.emu_types:
            for t in inst.trips:
                if t.origin != d.station or r.id not in t.allowed_types:
                    continue
                if d.out_max.get(r.id, 0) >= 1:
                    found.add(("depot_out", (f"src:{d.id}",),
                              (f"trip:{t.id}",), r.id, 1, 1))
                if d.out_max.get(r.id, 0) >= 2 and t.couplable and r.couplable:
                    found.add(("depot_out", (f"src:{d.id}",),
                              (f"trip:{t.id}",), r.id, 2, 2))

    for a, b in itertools.permutations(inst.trips, 2):
        if not window_ok(a, b):
            continue
        for r in inst.emu_types:
            if r.id not in a.allowed_types or r.id not in b.allowed_types:
                continue
            found.add(("transfer", (f"trip:{a.id}",), (f"trip:{b.id}",),
                       r.id, 1, 1))
            if a.couplable and b.couplable and r.couplable:
                found.add(("coupled_transfer", (f"trip:{a.id}",),
                           (f"trip:{b.id}",), r.id, 2, 2))

    for a, b in itertools.combinations(inst.trips, 2):
        for c in inst.trips:
            if c.id in (a.id, b.id) or not c.couplable:
                continue
            if not (window_ok(a, c) and window_ok(b, c)):
                continue
            for r in inst.emu_types:
                if not r.couplable:
                    continue
                if any(r.id not in t.allowed_types for t in (a, b, c)):
                    continue
                found.add(("couple",
                           tuple(sorted((f"trip:{a.id}", f"trip:{b.id}"))),
                           (f"trip:{c.id}",), r.id, 2, 1))

    for a in inst.trips:
        if not a.couplable:
            continue
        for b, c in itertools.combinations(inst.trips, 2):
            if a.id in (b.id, c.id):
                continue
            if not (window_ok(a, b) and window_ok(a, c)):
                continue
            for r in inst.emu_types:
                if not r.couplable:
                    continue
                if any(r.id not in t.allowed_types for t in (a, b, c)):
                    continue
                found.add(("decouple", (f"trip:{a.id}",),
                           tuple(sorted((f"trip:{b.id}", f"trip:{c.id}"))),
                           r.id, 1, 2))

    for d in inst.depots:
        if d.in_max is None:
            continue
        for r in inst.emu_types:
            for t in inst.trips:
                if t.destination != d.station or r.id not in t.allowed_types:
                    continue
                if d.in_max.get(r.id, 0) >= 1:
                    found.add(("depot_in", (f"trip:{t.id}",),
                              (f"snk:{d.id}",), r.id, 1, 1))
                if d.in_max.get(r.id, 0) >= 2 and t.couplable and r.couplable:
                    found.add(("depot_in", (f"trip:{t.id}",),
                              (f"snk:{d.id}",), r.id, 2, 2))
    return found


@pytest.mark.parametrize("seed", range(1, 21))
def test_arc_set_matches_exhaustive_tuple_filter(seed):
    inst = small_random_instance(seed, max_trips=9)
    got = {(a.kind, tuple(sorted(a.sources)), tuple(sorted(a.targets)),
            a.emu_type, a.k, a.k_prime)
           for a in build_hypergraph(inst).arcs}
    assert got == oracle_arcs(inst)


def test_arc_set_oracle_on_toy(toy_instance, toy_graph):
    got = {(a.kind, tuple(sorted(a.sources)), tuple(sorted(a.targets)),
            a.emu_type, a.k, a.k_prime)
           for a in toy_graph.arcs}
    assert got == oracle_arcs(toy_instance)


# ---------------------------------------------------------------------------
# Structural invariants


@pytest.mark.parametrize("seed", range(1, 11))
def test_turnaround_windows_and_coupling_rules(seed):
    inst = small_random_instance(seed)
    g = build_hypergraph(inst)
    trips = {t.id: t for t in inst.trips}
    for arc in g.arcs:
        for src in arc.sources:
            for dst in arc.targets:
                node_s, node_d = g.node(src), g.node(dst)
                if node_s.is_trip and node_d.is_trip:
                    a, b = trips[node_s.trip], trips[node_d.trip]
                    gap = b.depart - a.arrive
                    assert inst.delta_min <= gap <= inst.delta_max
                    assert a.destination == b.origin
        if arc.k == 2:
            for dst in arc.targets:
                node = g.node(dst)
                if node.is_trip:
                    assert trips[node.trip].couplable
        if arc.k_prime == 2:
            for src in arc.sources:
                node = g.node(src)
                if node.is_trip:
                    assert trips[node.trip].couplable
        if arc.kind in ("couple", "decouple", "coupled_transfer"):
            assert inst.type_by_id(arc.emu_type).couplable


@pytest.mark.parametrize("seed", range(1, 9))
def test_every_obligatory_trip_coverable(seed):
    inst = small_random_instance(seed)
    rows = row_support(encode_ilp(build_hypergraph(inst), inst))
    for trip in inst.trips:
        if trip.obligatory:
            assert rows[f"cover[{trip.id}]"], trip.id


@pytest.mark.parametrize("seed", [2, 5, 9])
def test_arc_count_monotone_in_delta_max(seed):
    inst = small_random_instance(seed)
    counts = []
    for delta in (10, 30, 60, 120, 240):
        variant = dataclasses.replace(
            inst, delta_max=max(delta, inst.delta_min))
        counts.append(len(build_hypergraph(variant).arcs))
    assert counts == sorted(counts)


def test_index_sets_are_incidence_inverses(toy_graph, toy_ilp):
    g = toy_graph
    for row in toy_ilp.constraints:
        if row.kind == "coverage":
            trip_id = row.tag[len("cover["):-1]
            assert [a for a, _ in row.coeffs] == [
                arc.id for arc in g.arcs if f"trip:{trip_id}" in arc.targets]
        if row.kind == "flow_balance":
            trip_id, type_id = row.tag[len("flow["):-1].split(",")
            node_id = f"trip:{trip_id}"
            for a, coeff in row.coeffs:
                arc = g.arcs[a]
                assert arc.emu_type == type_id
                if coeff > 0:
                    assert node_id in arc.targets and coeff == arc.k
                else:
                    assert node_id in arc.sources and -coeff == arc.k_prime
            assert {a for a, _ in row.coeffs} == {
                arc.id for arc in g.arcs if arc.emu_type == type_id
                and node_id in arc.sources + arc.targets}


# ---------------------------------------------------------------------------
# Size bounds


def test_toy_size_bounds(toy_instance, toy_graph):
    b = size_bounds(toy_instance, toy_graph)
    assert b.var_bound == 2 * 2 * 2 + 1 * 2  # |T'|^2 |R| + |T''|^3 |R| = 10
    assert b.per_trip_bound == 3 * 3 * 2
    assert b.actual_arcs == 11
    assert b.depot_arcs == 4
    assert b.timetable_arcs == 7
    assert b.timetable_arcs <= b.var_bound


def test_bound_reduces_without_coupling():
    inst = small_random_instance(4, with_couplable=False)
    b = size_bounds(inst, build_hypergraph(inst))
    assert b.n_couplable == 0
    assert b.var_bound == b.n_single_only ** 2 * b.n_types


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_generated_arcs_within_bound_plus_depot(seed):
    inst = small_random_instance(seed, max_trips=10)
    b = size_bounds(inst, build_hypergraph(inst))
    assert b.actual_arcs <= b.var_bound + b.depot_arcs


def test_dot_escapes_quotes_and_backslashes(toy_instance):
    trips = tuple(dataclasses.replace(t, id='t1"x\\') if t.id == "t1" else t
                  for t in toy_instance.trips)
    dot = to_dot(build_hypergraph(dataclasses.replace(toy_instance, trips=trips)))
    assert '"trip:t1\\"x\\\\" [shape=circle];' in dot
    # each line is its quoted strings with no quote left between them
    string = re.compile(r'"(?:[^"\\]|\\.)*"')
    assert all('"' not in string.sub("", line) for line in dot.splitlines())


def test_dot_export(toy_graph):
    dot = to_dot(toy_graph)
    assert dot.startswith("digraph")
    assert '"src:depA"' in dot
    assert 'color=green' in dot  # the coupling hyper-arc stands out
    assert dot.count("->") >= len(toy_graph.arcs)
