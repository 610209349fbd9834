import dataclasses
import re
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from rollstock.diagram import DiagramError, render_ascii, render_svg, trace_rotations
from rollstock.exact import solve_exact
from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import encode_ilp
from rollstock.model import Depot, EmuType, Instance, Trip
from rollstock.netbuild import build_hypergraph


def test_toy_optimum_two_rotations_with_coupled_leg(toy_instance, toy_graph):
    rotations = trace_rotations(toy_graph, (0, 2, 10))
    assert len(rotations) == 2
    assert sorted(r.trips for r in rotations) == [("t1", "t3"), ("t2", "t3")]
    for rot in rotations:
        assert rot.coupled == (False, True)
        assert rot.emu_type == "r1"


def test_toy_excited_solution_draws_service_leg(toy_instance, toy_graph):
    rotations = trace_rotations(toy_graph, (0, 3, 6, 8))
    assert len(rotations) == 2
    assert sorted(r.trips for r in rotations) == [("t1", "t4"), ("t2", "t3")]
    assert all(not any(r.coupled) for r in rotations)


def test_svg_marks_coupling(toy_instance, toy_graph):
    svg = render_svg(toy_instance, toy_graph, (0, 2, 10))
    assert svg.startswith("<svg")
    assert "#2ca02c" in svg  # coupled stroke
    assert "2 rotation(s)" in svg
    plain = render_svg(toy_instance, toy_graph, (0, 3, 6, 8))
    assert "#2ca02c" not in plain


def test_renderings_are_deterministic(toy_instance, toy_graph):
    assert (render_svg(toy_instance, toy_graph, (0, 2, 10))
            == render_svg(toy_instance, toy_graph, (0, 2, 10)))
    assert (render_ascii(toy_instance, toy_graph, (0, 2, 10))
            == render_ascii(toy_instance, toy_graph, (0, 2, 10)))


def test_ascii_shows_coupled_marker(toy_instance, toy_graph):
    def grid_rows(art):
        return [ln for ln in art.splitlines() if not ln.endswith("segments")]

    art = render_ascii(toy_instance, toy_graph, (0, 2, 10))
    assert any("=" in row for row in grid_rows(art))
    art2 = render_ascii(toy_instance, toy_graph, (1, 2, 5, 9))
    assert not any("=" in row for row in grid_rows(art2))


def test_empty_solution_axes_only(toy_instance, toy_graph):
    svg = render_svg(toy_instance, toy_graph, ())
    assert "0 rotation(s)" in svg
    assert svg.count("<line") >= len({"A", "B"})  # station gridlines remain


def test_svg_escapes_station_names(toy_instance):
    def renamed(station):
        return "A & <B>" if station == "A" else station

    trips = tuple(dataclasses.replace(t, origin=renamed(t.origin),
                                      destination=renamed(t.destination))
                  for t in toy_instance.trips)
    depots = tuple(dataclasses.replace(d, station=renamed(d.station))
                   for d in toy_instance.depots)
    inst = dataclasses.replace(toy_instance, trips=trips, depots=depots)
    svg = ET.fromstring(render_svg(inst, build_hypergraph(inst), (0, 2, 10)))
    names = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]
    assert "A & <B>" in names


def test_bad_arc_id_rejected(toy_instance, toy_graph):
    with pytest.raises(DiagramError):
        trace_rotations(toy_graph, (99,))


def decouple_instance():
    """Pre-coupled pair leaves the depot and splits into two single legs."""
    types = (EmuType(id="r", seats=100, cost_per_km=Fraction(1),
                     couplable=True),)
    trips = (
        Trip(id="p", origin="A", destination="B", depart=100, arrive=160,
             passengers=150, couplable=True, allowed_types=frozenset({"r"})),
        Trip(id="q1", origin="B", destination="C", depart=180, arrive=240,
             passengers=50, allowed_types=frozenset({"r"})),
        Trip(id="q2", origin="B", destination="D", depart=190, arrive=250,
             passengers=50, allowed_types=frozenset({"r"})),
    )
    return Instance(
        trips=trips, emu_types=types,
        depots=(Depot(id="d", station="A", out_max={"r": 2}),),
        delta_min=10, delta_max=60,
        seat_tolerance_single=10, seat_tolerance_coupled=20)


def test_decouple_tracing_splits_units():
    inst = decouple_instance()
    graph = build_hypergraph(inst)
    by_kind = {}
    for arc in graph.arcs:
        by_kind.setdefault(arc.kind, []).append(arc.id)
    pair_out = [a for a in by_kind["depot_out"] if graph.arcs[a].k == 2]
    assert pair_out and "decouple" in by_kind
    selected = (pair_out[0], by_kind["decouple"][0])
    rotations = trace_rotations(graph, selected)
    assert len(rotations) == 2
    assert sorted(r.trips for r in rotations) == [("p", "q1"), ("p", "q2")]
    for rot in rotations:
        assert rot.coupled[0] is True and rot.coupled[1] is False
    svg = render_svg(inst, graph, selected)
    assert "#2ca02c" in svg


def test_two_selected_arcs_out_of_one_trip_rejected(toy_instance, toy_graph):
    # arcs 4 and 6 both leave t1, one to t3, one to t4
    with pytest.raises(DiagramError, match="trip t1 has two outgoing selected arcs"):
        render_svg(toy_instance, toy_graph, (0, 4, 6))


def test_empty_instance_renders_the_empty_text(toy_instance):
    empty = dataclasses.replace(toy_instance, trips=(), driver_windows=())
    assert render_ascii(empty, build_hypergraph(empty), ()) == "(empty diagram)\n"


def test_empty_instance_draws_its_one_station_and_no_hour(toy_instance):
    # no trips: the day spans minutes 0 to 60, which hold no hour tick, and
    # the depot's station A, the only one, sits halfway down the plot
    empty = dataclasses.replace(toy_instance, trips=(), driver_windows=())
    svg = ET.fromstring(render_svg(empty, build_hypergraph(empty), ()))
    lines = [(e.get("y1"), e.get("y2"), e.get("stroke"))
             for e in svg.iter("{http://www.w3.org/2000/svg}line")]
    assert lines == [("234.0", "234.0", "#dddddd")]
    texts = [e.text for e in svg.iter("{http://www.w3.org/2000/svg}text")]
    assert texts == ["A", "0 rotation(s); green = coupled pair"]


@pytest.mark.parametrize("seed", range(6))
def test_rotations_of_generated_optima_return_to_sinks(seed):
    inst = generate_synthetic(GeneratorConfig(n_trips=30, n_couplable=6, n_types=2,
                                              n_depots=2), seed)
    graph = build_hypergraph(inst)
    result = solve_exact(encode_ilp(graph, inst))
    assert result.optimal
    selected = [graph.arcs[a] for a in result.solution.decoded]
    rotations = trace_rotations(graph, result.solution.decoded)
    # one rotation per dispatched unit
    assert len(rotations) == sum(a.k_prime for a in selected if a.kind == "depot_out")
    # each trip once per unit that the selected arc into it places there
    placed = Counter()
    for arc in selected:
        for target in arc.targets:
            if graph.node(target).is_trip:
                placed[graph.node(target).trip] += arc.k
    assert Counter(t for r in rotations for t in r.trips) == placed
    # with return bounds every unit ends its day at a depot sink
    sink_stations = {d.station for d in inst.depots if d.has_sink}
    for rotation in rotations:
        assert inst.trip_by_id(rotation.trips[-1]).destination in sink_stations


@pytest.mark.parametrize("selected", [(0.0, 2.0, 10.0), (0.7, 2, 10), ("0", 2, 10)])
def test_arc_ids_that_are_not_integers_are_refused(toy_instance, toy_graph, selected):
    # int() once read 0.7 as arc 0 and "0" as arc 0
    with pytest.raises(TypeError):
        trace_rotations(toy_graph, selected)


def test_integer_arc_ids_of_any_type_trace_alike(toy_instance, toy_graph):
    want = trace_rotations(toy_graph, (0, 2, 10))
    assert trace_rotations(toy_graph, np.array([0, 2, 10])) == want
    assert trace_rotations(toy_graph, (False, 2, 10)) == want


@pytest.mark.parametrize("columns", [0, -3])
def test_ascii_grid_needs_a_column(toy_instance, toy_graph, columns):
    with pytest.raises(ValueError, match=f"columns must be >= 1, got {columns}"):
        render_ascii(toy_instance, toy_graph, (0, 2, 10), columns=columns)


@pytest.mark.parametrize("columns", [2.5, 96.0, True, "96", None])
def test_ascii_grid_columns_must_be_an_int(toy_instance, toy_graph, columns):
    # 2.5 once failed inside the grid with a bare TypeError, True drew 1 column
    with pytest.raises(ValueError, match=re.escape(f"columns must be an int, got {columns!r}")):
        render_ascii(toy_instance, toy_graph, (0, 2, 10), columns=columns)


def test_ascii_grid_takes_a_numpy_int(toy_instance, toy_graph):
    assert (render_ascii(toy_instance, toy_graph, (0, 2, 10), columns=np.int64(40))
            == render_ascii(toy_instance, toy_graph, (0, 2, 10), columns=40))


def test_ascii_grid_of_one_column(toy_instance, toy_graph):
    lines = render_ascii(toy_instance, toy_graph, (0, 2, 10), columns=1).splitlines()
    assert all(len(line) == len(lines[1]) for line in lines[1:-1])
