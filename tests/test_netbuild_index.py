"""``build_hypergraph`` and ``encode_ilp`` against the scans they replaced.

``scan_build_hypergraph`` below is the former builder, kept as the
reference: it tests every trip pair for a turnaround, scans all trips for
the feeders of a coupling and the heads of a decoupling, sorts the raw arcs
into id order, files every arc into incidence indexes, and counts driver
demand checkpoint by checkpoint over every arc. ``reference_encode_ilp`` is
the former encoder, which read its rows off those indexes and worked out
each arc's seat and bicycle shortfalls from trip demand, ``k`` and the
type's capacity, against tolerances it resolves itself. The builder must
return the same nodes and the same arcs in the same id order with
``Fraction`` costs, and ``encode_ilp``, which files arcs into rows in one
pass, must return the reference model for both driver weightings.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import ConstraintRow, IlpModel, driver_row_weight, encode_ilp
from rollstock.model import (Depot, DriverWindow, EmuType, Instance, Trip,
                             load_instance)
from rollstock.netbuild import (ARC_KINDS, HyperArc, Hypergraph, Node,
                                build_hypergraph)

from conftest import TOY_PATH, small_random_instance

_KIND_RANK = {kind: i for i, kind in enumerate(ARC_KINDS)}


def _turnaround_ok(inst: Instance, src: Trip, dst: Trip) -> bool:
    gap = dst.depart - src.arrive
    return (src.destination == dst.origin
            and inst.delta_min <= gap <= inst.delta_max)


def _trip_cost(trip: Trip, emu: EmuType) -> Fraction:
    return emu.cost_per_km * trip.distance


def _tolerance(inst: Instance, trip: Trip, k: int, kind: str) -> int:
    """The trip's ``{kind}_tolerance_coupled`` for k = 2, else its
    ``_single`` one, falling back to the instance-wide field."""
    name = f"{kind}_tolerance_{'coupled' if k == 2 else 'single'}"
    override = getattr(trip, name)
    return getattr(inst, name) if override is None else override


def _shortfalls(trip: Trip, emu: EmuType, k: int) -> tuple[int, int]:
    """Seats and bicycle slots that ``k`` units of ``emu`` leave ``trip`` short."""
    return (max(0, trip.passengers - k * emu.seats),
            max(0, trip.bicycles - k * emu.bike_slots))


def scan_build_hypergraph(instance: Instance) -> tuple[Hypergraph, dict]:
    """The graph and its incidence indexes by name: idx_cover, idx_in,
    idx_out, idx_depot_out, idx_depot_in and driver_members."""
    nodes: list[Node] = []
    for d in instance.depots:
        nodes.append(Node(id=f"src:{d.id}", kind="depot_source", depot=d.id))
    for t in instance.trips:
        nodes.append(Node(id=f"trip:{t.id}",
                          kind="trip" if t.obligatory else "service_trip",
                          trip=t.id))
    for d in instance.depots:
        if d.has_sink:
            nodes.append(Node(id=f"snk:{d.id}", kind="depot_sink", depot=d.id))
    node_index = {n.id: i for i, n in enumerate(nodes)}

    type_order = {r.id: i for i, r in enumerate(instance.emu_types)}

    # raw arcs as (kind, sources, targets, type, k, k', target trips)
    raw: list[tuple] = []

    def emit(kind: str, sources: tuple[str, ...], targets: tuple[str, ...],
             emu: EmuType, k: int, k_prime: int, target_trips: tuple[Trip, ...]):
        raw.append((kind, sources, targets, emu, k, k_prime, target_trips))

    for d in instance.depots:
        for r in instance.emu_types:
            _, out_max = d.out_bounds(r.id)
            if out_max <= 0:
                continue
            for t in instance.trips:
                if t.origin != d.station or r.id not in t.allowed_types:
                    continue
                emit("depot_out", (f"src:{d.id}",), (f"trip:{t.id}",), r, 1, 1, (t,))
                if out_max >= 2 and t.couplable and r.couplable:
                    emit("depot_out", (f"src:{d.id}",), (f"trip:{t.id}",), r, 2, 2, (t,))

    for a in instance.trips:
        for b in instance.trips:
            if a.id == b.id or not _turnaround_ok(instance, a, b):
                continue
            for r in instance.emu_types:
                if r.id not in a.allowed_types or r.id not in b.allowed_types:
                    continue
                emit("transfer", (f"trip:{a.id}",), (f"trip:{b.id}",), r, 1, 1, (b,))
                if a.couplable and b.couplable and r.couplable:
                    emit("coupled_transfer", (f"trip:{a.id}",), (f"trip:{b.id}",),
                         r, 2, 2, (b,))

    trips = instance.trips
    for c in trips:
        if not c.couplable:
            continue
        for r in instance.emu_types:
            if not r.couplable or r.id not in c.allowed_types:
                continue
            feeders = [a for a in trips
                       if a.id != c.id and r.id in a.allowed_types
                       and _turnaround_ok(instance, a, c)]
            for i in range(len(feeders)):
                for j in range(i + 1, len(feeders)):
                    emit("couple",
                         (f"trip:{feeders[i].id}", f"trip:{feeders[j].id}"),
                         (f"trip:{c.id}",), r, 2, 1, (c,))

    for a in trips:
        if not a.couplable:
            continue
        for r in instance.emu_types:
            if not r.couplable or r.id not in a.allowed_types:
                continue
            heads = [b for b in trips
                     if b.id != a.id and r.id in b.allowed_types
                     and _turnaround_ok(instance, a, b)]
            for i in range(len(heads)):
                for j in range(i + 1, len(heads)):
                    emit("decouple", (f"trip:{a.id}",),
                         (f"trip:{heads[i].id}", f"trip:{heads[j].id}"),
                         r, 1, 2, (heads[i], heads[j]))

    for d in instance.depots:
        if not d.has_sink:
            continue
        for r in instance.emu_types:
            _, in_max = d.in_bounds(r.id)
            if in_max <= 0:
                continue
            for t in instance.trips:
                if t.destination != d.station or r.id not in t.allowed_types:
                    continue
                emit("depot_in", (f"trip:{t.id}",), (f"snk:{d.id}",), r, 1, 1, ())
                if in_max >= 2 and t.couplable and r.couplable:
                    emit("depot_in", (f"trip:{t.id}",), (f"snk:{d.id}",), r, 2, 2, ())

    def sort_key(entry):
        kind, sources, targets, emu, k, k_prime, _ = entry
        return (_KIND_RANK[kind],
                tuple(node_index[s] for s in sources),
                tuple(node_index[t] for t in targets),
                type_order[emu.id], k)

    raw.sort(key=sort_key)

    arcs: list[HyperArc] = []
    for arc_id, (kind, sources, targets, emu, k, k_prime, tts) in enumerate(raw):
        cost = sum((Fraction(k) * _trip_cost(t, emu) for t in tts), Fraction(0))
        arcs.append(HyperArc(
            id=arc_id, kind=kind, sources=sources, targets=targets,
            emu_type=emu.id, k=k, k_prime=k_prime, cost=cost))

    idx_cover: dict[str, list[int]] = {t.id: [] for t in instance.trips}
    idx_in: dict[tuple[str, str], list[int]] = {}
    idx_out: dict[tuple[str, str], list[int]] = {}
    idx_depot_out: dict[tuple[str, str], list[int]] = {}
    idx_depot_in: dict[tuple[str, str], list[int]] = {}

    for arc in arcs:
        for target in arc.targets:
            node = nodes[node_index[target]]
            if node.is_trip:
                idx_cover[node.trip].append(arc.id)
            idx_in.setdefault((target, arc.emu_type), []).append(arc.id)
        for source in arc.sources:
            idx_out.setdefault((source, arc.emu_type), []).append(arc.id)
        if arc.kind == "depot_out":
            depot_id = nodes[node_index[arc.sources[0]]].depot
            idx_depot_out.setdefault((depot_id, arc.emu_type), []).append(arc.id)
        if arc.kind == "depot_in":
            depot_id = nodes[node_index[arc.targets[0]]].depot
            idx_depot_in.setdefault((depot_id, arc.emu_type), []).append(arc.id)

    driver_members: dict[tuple[str, int], list[tuple[int, int]]] = {}
    checkpoints = sorted({(w.depot, w.at) for w in instance.driver_windows})
    for depot_id, at in checkpoints:
        members: list[tuple[int, int]] = []
        for arc in arcs:
            running = 0
            seen: set[str] = set()
            for target in arc.targets:
                node = nodes[node_index[target]]
                if node.trip is None or node.trip in seen:
                    continue
                seen.add(node.trip)
                trip = instance.trip_by_id(node.trip)
                if (instance.driver_depot_of(trip) == depot_id
                        and trip.depart <= at < trip.arrive):
                    running += 1
            if running:
                members.append((arc.id, running))
        if members:
            driver_members[(depot_id, at)] = members

    def freeze(mapping):
        return {k: tuple(sorted(set(v))) for k, v in mapping.items() if v}

    return Hypergraph(nodes=tuple(nodes), arcs=tuple(arcs)), dict(
        idx_cover=freeze(idx_cover) | {t.id: () for t in instance.trips
                                       if not idx_cover[t.id]},
        idx_in=freeze(idx_in),
        idx_out=freeze(idx_out),
        idx_depot_out=freeze(idx_depot_out),
        idx_depot_in=freeze(idx_depot_in),
        driver_members={k: tuple(v) for k, v in driver_members.items()},
    )


def reference_encode_ilp(graph: Hypergraph, idx: dict, instance: Instance,
                         driver_weighting: str) -> IlpModel:
    arcs = graph.arcs
    out_all: dict[str, list[int]] = {}
    for (node_id, _), arc_ids in idx["idx_out"].items():
        out_all.setdefault(node_id, []).extend(arc_ids)
    out_all = {k: tuple(sorted(v)) for k, v in out_all.items()}

    objective: list[tuple[int, Fraction]] = []
    for arc in arcs:
        coeff = instance.alpha * arc.cost
        if arc.kind == "depot_out":
            coeff += arc.k_prime
        if coeff:
            objective.append((arc.id, coeff))

    rows: list[ConstraintRow] = []

    for trip in instance.trips:
        if not trip.obligatory:
            continue
        support = idx["idx_cover"].get(trip.id, ())
        rows.append(ConstraintRow(
            kind="coverage", relation="=", rhs=1,
            coeffs=tuple((a, 1) for a in support),
            tag=f"cover[{trip.id}]"))

    for trip in instance.trips:
        node_id = f"trip:{trip.id}"
        if not out_all.get(node_id, ()):
            continue  # terminal node: EMUs rest here at day end
        for emu in instance.emu_types:
            incoming = idx["idx_in"].get((node_id, emu.id), ())
            outgoing = idx["idx_out"].get((node_id, emu.id), ())
            if not incoming and not outgoing:
                continue
            coeffs: dict[int, int] = {}
            for a in incoming:
                coeffs[a] = coeffs.get(a, 0) + arcs[a].k
            for a in outgoing:
                coeffs[a] = coeffs.get(a, 0) - arcs[a].k_prime
            coeffs = {a: c for a, c in coeffs.items() if c}
            rows.append(ConstraintRow(
                kind="flow_balance", relation="=", rhs=0,
                coeffs=tuple(sorted(coeffs.items())),
                tag=f"flow[{trip.id},{emu.id}]"))

    for trip in instance.trips:
        outgoing = out_all.get(f"trip:{trip.id}", ())
        if not outgoing:
            continue
        rows.append(ConstraintRow(
            kind="out_degree", relation="<=", rhs=1,
            coeffs=tuple((a, 1) for a in outgoing),
            tag=f"outdeg[{trip.id}]"))

    for depot in instance.depots:
        for emu in instance.emu_types:
            support = idx["idx_depot_out"].get((depot.id, emu.id), ())
            lo, hi = depot.out_bounds(emu.id)
            if not support and lo == 0:
                continue
            rows.append(ConstraintRow(
                kind="depot_out", relation="range", lo=lo, hi=hi,
                coeffs=tuple((a, arcs[a].k_prime) for a in support),
                tag=f"depot_out[{depot.id},{emu.id}]"))

    for depot in instance.depots:
        if not depot.has_sink:
            continue
        for emu in instance.emu_types:
            support = idx["idx_depot_in"].get((depot.id, emu.id), ())
            lo, hi = depot.in_bounds(emu.id)
            if not support and lo == 0:
                continue
            rows.append(ConstraintRow(
                kind="depot_in", relation="range", lo=lo, hi=hi,
                coeffs=tuple((a, arcs[a].k) for a in support),
                tag=f"depot_in[{depot.id},{emu.id}]"))

    def exceeds_tolerance(arc) -> bool:
        emu = instance.type_by_id(arc.emu_type)
        for target in arc.targets:
            trip_id = graph.node(target).trip
            if trip_id is None:
                continue
            trip = instance.trip_by_id(trip_id)
            seats, bikes = _shortfalls(trip, emu, arc.k)
            if seats > _tolerance(instance, trip, arc.k, "seat"):
                return True
            if bikes > _tolerance(instance, trip, arc.k, "bike"):
                return True
        return False

    over_capacity = sorted(arc.id for arc in arcs if exceeds_tolerance(arc))
    if over_capacity:
        rows.append(ConstraintRow(
            kind="capacity_forbid", relation="=", rhs=0,
            coeffs=tuple((a, 1) for a in over_capacity),
            tag="capacity"))

    # unlicensed windows first, then licensed ones, each in input order
    for window in sorted(instance.driver_windows,
                         key=lambda w: w.license is not None):
        members = idx["driver_members"].get((window.depot, window.at), ())
        tag = f"{window.depot},{window.at}"
        if window.license is not None:
            covered = instance.license_types(window.license)
            members = [(a, running) for a, running in members
                       if arcs[a].emu_type in covered]
            tag += f",{window.license}"
        if not members and window.min_drivers == 0:
            continue
        coeffs = tuple(
            (a, driver_row_weight(arcs[a].k, running, driver_weighting))
            for a, running in members)
        rows.append(ConstraintRow(
            kind="driver", relation="range",
            lo=window.min_drivers, hi=window.max_drivers,
            coeffs=coeffs,
            tag=f"driver[{tag}]"))

    return IlpModel(num_vars=len(arcs), objective=tuple(objective),
                    constraints=tuple(rows))


# ---------------------------------------------------------------------------

WEIGHTINGS = ("per_emu", "per_train")


def arc_fields(arc: HyperArc) -> tuple:
    return (arc.id, arc.kind, arc.sources, arc.targets, arc.emu_type, arc.k,
            arc.k_prime, arc.cost, type(arc.cost))


def assert_same_graph(inst: Instance) -> Hypergraph:
    got = build_hypergraph(inst)
    want, idx = scan_build_hypergraph(inst)
    assert got.nodes == want.nodes
    assert [arc_fields(a) for a in got.arcs] == [arc_fields(a) for a in want.arcs]
    assert all(type(a.cost) is Fraction for a in got.arcs)
    for weighting in WEIGHTINGS:
        assert encode_ilp(got, inst, weighting) == reference_encode_ilp(
            want, idx, inst, weighting), weighting
    return got


def driver_rows(graph: Hypergraph, inst: Instance) -> dict[str, tuple]:
    """Driver row tag -> ``(arc id, en-route trip count)`` pairs, read off
    the ``per_train`` encoding, whose driver weights are those counts."""
    return {row.tag: row.coeffs
            for row in encode_ilp(graph, inst, "per_train").constraints
            if row.kind == "driver"}


def test_toy_matches_scan():
    assert_same_graph(load_instance(str(TOY_PATH)))


@pytest.mark.parametrize("seed", range(1, 25))
def test_small_random_instances_match_scan(seed):
    assert_same_graph(small_random_instance(seed))


@pytest.mark.parametrize("n_trips,n_couplable,n_types,n_depots,seeds", [
    (6, 2, 1, 1, range(3)),
    (12, 4, 2, 1, range(3)),
    (12, 6, 3, 2, range(3)),
    (40, 8, 2, 2, range(3)),
    (40, 20, 3, 4, range(2)),
    (100, 20, 3, 4, range(1000, 1003)),
    (100, 30, 1, 1, range(2)),
    (300, 60, 3, 8, range(1)),
])
def test_generated_instances_match_scan(n_trips, n_couplable, n_types, n_depots,
                                        seeds):
    for seed in seeds:
        for returns in (True, False):
            cfg = GeneratorConfig(n_trips=n_trips, n_couplable=n_couplable,
                                  n_types=n_types, n_depots=n_depots,
                                  with_return_bounds=returns,
                                  cross_type_prob=0.5)
            assert_same_graph(generate_synthetic(cfg, seed))


def _priced_variant(variant: str) -> Instance:
    """A generated instance with its prices given in one of the ways the
    build and the encoder share them by value: every trip at its own
    distance, equal distances as ``int`` on some trips and as ``Fraction``
    on others next to one of the same numerator, ``int`` costs per km, or
    ``alpha`` 0 as a Fraction or an int."""
    cfg = GeneratorConfig(n_trips=40, n_couplable=20, n_types=3, n_depots=2,
                          cross_type_prob=0.5)
    inst = generate_synthetic(cfg, 7)
    trips = inst.trips
    if variant == "distinct_distances":
        trips = [dataclasses.replace(t, distance=Fraction(1000 + i, 7))
                 for i, t in enumerate(trips)]
    elif variant in ("int_and_fraction_distances", "int_cost_per_km"):
        trips = [dataclasses.replace(t, distance=(38, Fraction(38), Fraction(38, 7), 12)[i % 4])
                 for i, t in enumerate(trips)]
    if variant == "int_cost_per_km":
        inst = dataclasses.replace(inst, emu_types=tuple(
            dataclasses.replace(r, cost_per_km=i + 2) for i, r in enumerate(inst.emu_types)))
    alpha = {"alpha_zero": Fraction(0), "alpha_int_zero": 0}.get(variant, inst.alpha)
    return dataclasses.replace(inst, trips=tuple(trips), alpha=alpha)


@pytest.mark.parametrize("variant", [
    "distinct_distances", "int_and_fraction_distances", "int_cost_per_km",
    "alpha_zero", "alpha_int_zero"])
def test_prices_shared_by_value_match_scan(variant):
    # assert_same_graph checks both driver weightings, per_train included
    inst = _priced_variant(variant)
    distances = {t.distance for t in inst.trips}
    if variant == "distinct_distances":
        assert len(distances) == len(inst.trips)
    if variant == "int_and_fraction_distances":
        assert {type(t.distance) for t in inst.trips} == {int, Fraction}
        assert distances == {38, Fraction(38, 7), 12}
    graph = assert_same_graph(inst)
    for weighting in WEIGHTINGS:
        objective = encode_ilp(graph, inst, weighting).objective
        assert objective and all(type(c) is Fraction for _, c in objective)


TOLERANCES = ("seat_tolerance_single", "seat_tolerance_coupled",
              "bike_tolerance_single", "bike_tolerance_coupled")


def crowded_instance(n_trips: int, n_couplable: int, n_types: int, seed: int,
                     bike_fill: tuple[float, float]) -> Instance:
    """A generated instance with bicycles on board (``bike_fill`` times the
    12 slots of a unit), up to 2.5 times its own type's seats in passengers,
    and each trip's four tolerances overridden at random or left to the
    instance-wide 10, 20, 2 and 4."""
    cfg = GeneratorConfig(n_trips=n_trips, n_couplable=n_couplable,
                          n_types=n_types, n_depots=2, cross_type_prob=0.5,
                          demand_fill=(0.5, 2.5), bike_fill=bike_fill)
    inst = generate_synthetic(cfg, seed)
    rng = random.Random(seed)
    choices = {"seat": (None, 0, 5, 15, 40), "bike": (None, 0, 1, 3, 8)}
    trips = tuple(dataclasses.replace(t, **{
        name: rng.choice(choices[name[:4]]) for name in TOLERANCES})
        for t in inst.trips)
    return dataclasses.replace(inst, trips=trips)


# up to 1.5 bicycles per slot never leaves a coupled pair short, up to 2.5 does
CROWDED = [(12, 4, 2, seed, (0.5, 1.5)) for seed in range(3)] + [
    (40, 12, 3, seed, (0.5, 1.5)) for seed in range(3)] + [
    (40, 12, 3, seed, (0.5, 2.5)) for seed in range(3)] + [
    (100, 30, 3, 7, (0.5, 1.5)), (100, 30, 3, 8, (0.5, 2.5))]


@pytest.mark.parametrize("n_trips,n_couplable,n_types,seed,bike_fill", CROWDED)
def test_crowded_instances_match_scan(n_trips, n_couplable, n_types, seed,
                                      bike_fill):
    inst = crowded_instance(n_trips, n_couplable, n_types, seed, bike_fill)
    assert any(t.bicycles for t in inst.trips)
    assert_same_graph(inst)


def test_crowded_instances_forbid_by_bicycles_and_by_coupled_overrides():
    """Some arc is forbidden by bicycles alone, and some coupled arc only
    because a trip's ``*_coupled`` override is below the instance-wide
    tolerance, so neither cause can go unnoticed by the scan comparison."""
    by_bicycles = by_override = 0
    for params in CROWDED:
        inst = crowded_instance(*params)
        graph = build_hypergraph(inst)
        (row,) = [r for r in encode_ilp(graph, inst).constraints
                  if r.kind == "capacity_forbid"]
        for a, _ in row.coeffs:
            arc = graph.arcs[a]
            emu = inst.type_by_id(arc.emu_type)
            heads = [inst.trip_by_id(graph.node(t).trip) for t in arc.targets
                     if graph.node(t).trip is not None]
            short = [_shortfalls(t, emu, arc.k) for t in heads]
            seat_ok = all(s <= _tolerance(inst, t, arc.k, "seat")
                          for t, (s, _) in zip(heads, short))
            by_bicycles += seat_ok
            if arc.k == 2:
                by_override += all(
                    s <= inst.seat_tolerance_coupled
                    and b <= inst.bike_tolerance_coupled
                    for s, b in short)
    assert by_bicycles and by_override


# ---------------------------------------------------------------------------
# Hand-built edge cases

R1 = EmuType(id="r1", seats=50, bike_slots=2, cost_per_km=Fraction(3, 2),
             couplable=True)
R2 = EmuType(id="r2", seats=80, cost_per_km=Fraction(2), couplable=False)


def trip(tid, origin, destination, depart, arrive, couplable=True,
         types=("r1", "r2"), depot=None, passengers=60, distance=Fraction(7, 3)):
    return Trip(id=tid, origin=origin, destination=destination, depart=depart,
                arrive=arrive, passengers=passengers, bicycles=3,
                couplable=couplable, allowed_types=frozenset(types),
                distance=distance, driver_depot=depot)


def instance(trips, depots=None, windows=(), delta=(10, 30), types=(R1, R2)):
    if depots is None:
        depots = (Depot(id="dA", station="A", out_max={"r1": 2, "r2": 1},
                        in_min={}, in_max={"r1": 2, "r2": 1}),)
    return Instance(trips=tuple(trips), emu_types=types, depots=tuple(depots),
                    driver_windows=tuple(windows), delta_min=delta[0],
                    delta_max=delta[1])


def kinds(graph, kind):
    return [(a.sources, a.targets, a.emu_type) for a in graph.arcs
            if a.kind == kind]


def test_equal_departures_keep_input_order():
    # three trips leave B at 600, listed out of station-board order
    g = assert_same_graph(instance([
        trip("a", "A", "B", 500, 580),
        trip("z", "B", "A", 600, 660),
        trip("m", "B", "A", 600, 660),
        trip("b", "A", "B", 505, 585),
        trip("k", "B", "A", 600, 650),
    ]))
    assert [t for _, (t,), r in kinds(g, "transfer") if r == "r1"][:3] == [
        "trip:z", "trip:m", "trip:k"]
    assert kinds(g, "couple")
    assert kinds(g, "decouple")


def test_gaps_at_both_window_ends_count():
    g = assert_same_graph(instance([
        trip("a", "A", "B", 500, 600),
        trip("lo", "B", "A", 610, 650),     # gap 10 == delta_min
        trip("hi", "B", "A", 630, 680),     # gap 30 == delta_max
        trip("under", "B", "A", 609, 640),  # gap 9
        trip("over", "B", "A", 631, 690),   # gap 31
    ]))
    heads = {t for (s,), (t,), _ in kinds(g, "transfer") if s == "trip:a"}
    assert heads == {"trip:lo", "trip:hi"}


def test_zero_width_window():
    g = assert_same_graph(instance([
        trip("a", "A", "B", 500, 600),
        trip("b", "A", "B", 510, 600),
        trip("on", "B", "A", 620, 650),
        trip("off", "B", "A", 621, 650),
    ], delta=(20, 20)))
    assert {t for _, (t,), _ in kinds(g, "transfer")} == {"trip:on"}
    assert kinds(g, "couple") == [(("trip:a", "trip:b"), ("trip:on",), "r1")]


def test_checkpoints_at_depart_count_and_at_arrive_do_not():
    depots = (Depot(id="dA", station="A", out_max={"r1": 2, "r2": 1}),
              Depot(id="dB", station="B", out_max={"r1": 1}))
    inst = instance(
        [trip("a", "A", "B", 500, 600, depot="dA"),
         trip("b", "B", "A", 620, 700, depot="dA"),
         trip("c", "A", "C", 615, 690)],  # no driver depot
        depots=depots,
        windows=[DriverWindow("dA", 500, 0, 3), DriverWindow("dA", 600, 0, 3),
                 DriverWindow("dA", 620, 0, 3), DriverWindow("dA", 700, 0, 3),
                 DriverWindow("dB", 650, 0, 3)])  # dB serves no trip
    g = assert_same_graph(inst)
    rows = driver_rows(g, inst)
    assert list(rows) == ["driver[dA,500]", "driver[dA,620]"]
    assert any(row.tag == "cover[c]" and row.coeffs
               for row in encode_ilp(g, inst).constraints)
    for tag, trip_id in (("driver[dA,500]", "trip:a"), ("driver[dA,620]", "trip:b")):
        assert all(trip_id in g.arcs[a].targets and n == 1 for a, n in rows[tag])
    assert not any("trip:c" in g.arcs[a].targets
                   for coeffs in rows.values() for a, _ in coeffs)


def test_decouple_with_both_heads_en_route_counts_two():
    inst = instance(
        [trip("a", "A", "B", 500, 600),
         trip("b", "B", "A", 615, 700, types=("r1",)),
         trip("c", "B", "C", 620, 690, couplable=False, types=("r1",))],
        windows=[DriverWindow("dA", 650, 0, 4)])
    g = assert_same_graph(inst)
    (decouple,) = [a for a in g.arcs if a.kind == "decouple"]
    assert decouple.targets == ("trip:b", "trip:c")
    assert (decouple.id, 2) in driver_rows(g, inst)["driver[dA,650]"]
    assert decouple.cost == 2 * Fraction(3, 2) * Fraction(7, 3)


def test_licensed_and_unlicensed_windows_share_a_checkpoint():
    inst = instance(
        [trip("a", "A", "B", 500, 600), trip("b", "B", "A", 620, 700)],
        windows=[DriverWindow("dA", 650, 0, 2, license="r1"),
                 DriverWindow("dA", 650, 0, 1),
                 DriverWindow("dA", 550, 0, 1, license="r2")])
    g = assert_same_graph(inst)
    rows = driver_rows(g, inst)
    # unlicensed rows first, then licensed ones in input order
    assert list(rows) == ["driver[dA,650]", "driver[dA,650,r1]",
                          "driver[dA,550,r2]"]
    assert {g.arcs[a].emu_type for a, _ in rows["driver[dA,650]"]} == {"r1", "r2"}
    assert rows["driver[dA,650,r1]"] == tuple(
        (a, n) for a, n in rows["driver[dA,650]"] if g.arcs[a].emu_type == "r1")
    assert {g.arcs[a].emu_type for a, _ in rows["driver[dA,550,r2]"]} == {"r2"}


def test_empty_instance():
    inst = Instance(trips=(), emu_types=(), depots=())
    g = assert_same_graph(inst)
    assert g.arcs == () and g.nodes == ()
    assert encode_ilp(g, inst).constraints == ()
