"""Trip hypergraph construction.

Nodes stand for trips plus per-depot source/sink events. Simple arcs move
one EMU between compatible trips; hyper-arcs encode the three coupled
movements (two singles joining onto one coupled trip, a coupled pair
transferring, a coupled pair splitting into two singles).

An arc is generated exactly when all of the following hold:

1. every trip it points to admits the EMU type;
2. multiplicity-2 endpoints only occur on couplable trips with a
   couplable type;
3. for every (source trip, target trip) incidence the turnaround
   ``depart(target) - arrive(source)`` lies in ``[delta_min, delta_max]``
   and the stations match;
4. depot dispatch only for types the depot can actually send out, from
   the depot's own station (pairs additionally need ``out_max >= 2``).

Arc ids are dense integers assigned kind-major (depot_out, transfer,
couple, coupled_transfer, decouple, depot_in) and lexicographic within a
kind, so identical instances always build identical graphs and the toy
instance reproduces the reference variable order x0..x10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .model import EmuType, Instance, Trip

__all__ = [
    "Node",
    "HyperArc",
    "Hypergraph",
    "SizeBounds",
    "build_hypergraph",
    "size_bounds",
    "to_dot",
    "ARC_KINDS",
]

ARC_KINDS = ("depot_out", "transfer", "couple", "coupled_transfer", "decouple",
             "depot_in")
_KIND_RANK = {kind: i for i, kind in enumerate(ARC_KINDS)}


@dataclass(frozen=True)
class Node:
    id: str
    index: int
    kind: str  # trip | service_trip | depot_source | depot_sink
    trip: Optional[str] = None
    depot: Optional[str] = None

    @property
    def is_trip(self) -> bool:
        return self.kind in ("trip", "service_trip")


@dataclass(frozen=True)
class HyperArc:
    """One candidate EMU movement; ``id`` doubles as the ILP variable index.

    ``k`` is the EMU count on each trip the arc points to, ``k_prime`` the
    count on each trip it originates from. ``seat_shortages``/``bike_shortages``
    hold the per-trip shortfalls (aligned with ``targets``); the properties
    ``seat_shortage``/``bike_shortage`` derive their maximum (0 without trips).
    """

    id: int
    kind: str
    sources: tuple[str, ...]
    targets: tuple[str, ...]
    emu_type: str
    k: int
    k_prime: int
    cost: Fraction
    seat_shortages: tuple[int, ...] = ()
    bike_shortages: tuple[int, ...] = ()

    @property
    def seat_shortage(self) -> int:
        return max(self.seat_shortages, default=0)

    @property
    def bike_shortage(self) -> int:
        return max(self.bike_shortages, default=0)

    def label(self) -> str:
        src = ",".join(self.sources)
        dst = ",".join(self.targets)
        return f"h[{src}->{dst};{self.emu_type}]"


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph with the incidence indexes the encoders consume.

    idx_cover   trip id -> arc ids pointing to it (H(tau))
    idx_in      (node id, type) -> incoming arc ids (H(v)^in_r)
    idx_out     (node id, type) -> outgoing arc ids (H(v)^out_r)
    idx_depot_out / idx_depot_in  (depot, type) -> arc ids (H(v_d)_r)
    driver_members  (depot, checkpoint) -> (arc id, en-route trip count)
    idx_driver  (depot, checkpoint) -> arc ids (H(t, d)), derived from
                driver_members
    """

    nodes: tuple[Node, ...]
    arcs: tuple[HyperArc, ...]
    idx_cover: dict[str, tuple[int, ...]]
    idx_in: dict[tuple[str, str], tuple[int, ...]]
    idx_out: dict[tuple[str, str], tuple[int, ...]]
    idx_depot_out: dict[tuple[str, str], tuple[int, ...]]
    idx_depot_in: dict[tuple[str, str], tuple[int, ...]]
    driver_members: dict[tuple[str, int], tuple[tuple[int, int], ...]] = field(
        default_factory=dict)

    def node(self, node_id: str) -> Node:
        return self._node_index[node_id]

    def trip_node_id(self, trip_id: str) -> str:
        return f"trip:{trip_id}"

    def outgoing(self, node_id: str) -> tuple[int, ...]:
        return self._out_all.get(node_id, ())

    @property
    def idx_driver(self) -> dict[tuple[str, int], tuple[int, ...]]:
        return {key: tuple(a for a, _ in members)
                for key, members in self.driver_members.items()}

    def __post_init__(self):
        object.__setattr__(self, "_node_index", {n.id: n for n in self.nodes})
        out_all: dict[str, list[int]] = {}
        for (node_id, _), arc_ids in self.idx_out.items():
            out_all.setdefault(node_id, []).extend(arc_ids)
        object.__setattr__(self, "_out_all",
                           {k: tuple(sorted(v)) for k, v in out_all.items()})


def _turnaround_ok(inst: Instance, src: Trip, dst: Trip) -> bool:
    gap = dst.depart - src.arrive
    return (src.destination == dst.origin
            and inst.delta_min <= gap <= inst.delta_max)


def _trip_cost(trip: Trip, emu: EmuType) -> Fraction:
    return emu.cost_per_km * trip.distance


def _shortages(targets: Iterable[Trip], emu: EmuType,
               k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (tuple(max(0, t.passengers - k * emu.seats) for t in targets),
            tuple(max(0, t.bicycles - k * emu.bike_slots) for t in targets))


def build_hypergraph(instance: Instance) -> Hypergraph:
    """Construct the full candidate-arc hypergraph for one instance."""
    nodes: list[Node] = []
    for d in instance.depots:
        nodes.append(Node(id=f"src:{d.id}", index=len(nodes),
                          kind="depot_source", depot=d.id))
    for t in instance.trips:
        nodes.append(Node(id=f"trip:{t.id}", index=len(nodes),
                          kind="trip" if t.obligatory else "service_trip",
                          trip=t.id))
    for d in instance.depots:
        if d.has_sink:
            nodes.append(Node(id=f"snk:{d.id}", index=len(nodes),
                              kind="depot_sink", depot=d.id))
    node_index = {n.id: n.index for n in nodes}

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
        seats, bikes = _shortages(tts, emu, k)
        # multiplicity on the pointed-to trip(s) prices every unit that runs them
        cost = sum((Fraction(k) * _trip_cost(t, emu) for t in tts), Fraction(0))
        arcs.append(HyperArc(
            id=arc_id, kind=kind, sources=sources, targets=targets,
            emu_type=emu.id, k=k, k_prime=k_prime, cost=cost,
            seat_shortages=seats, bike_shortages=bikes))

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

    # Driver demand: an arc needs drivers from depot d at checkpoint t when a
    # pointed-to trip assigned to d is en route (depart <= t < arrive).
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

    return Hypergraph(
        nodes=tuple(nodes),
        arcs=tuple(arcs),
        idx_cover=freeze(idx_cover) | {t.id: () for t in instance.trips
                                       if not idx_cover[t.id]},
        idx_in=freeze(idx_in),
        idx_out=freeze(idx_out),
        idx_depot_out=freeze(idx_depot_out),
        idx_depot_in=freeze(idx_depot_in),
        driver_members={k: tuple(v) for k, v in driver_members.items()},
    )


@dataclass(frozen=True)
class SizeBounds:
    """Worst-case size bounds next to the actual built sizes.

    ``var_bound`` is |T'|^2 |R| + |T''|^3 |R| over timetabled (obligatory)
    trips; it does not count depot or service arcs, so both the split and
    the raw total are reported instead of asserting an inequality.
    """

    n_trips: int
    n_single_only: int
    n_couplable: int
    n_types: int
    per_trip_bound: int  # |T|^2 |R|
    var_bound: int       # |T'|^2 |R| + |T''|^3 |R|
    actual_arcs: int
    depot_arcs: int

    @property
    def timetable_arcs(self) -> int:
        return self.actual_arcs - self.depot_arcs


def size_bounds(instance: Instance, graph: Optional[Hypergraph] = None) -> SizeBounds:
    if graph is None:
        graph = build_hypergraph(instance)
    obligatory = [t for t in instance.trips if t.obligatory]
    n = len(obligatory)
    n2 = sum(1 for t in obligatory if t.couplable)
    n1 = n - n2
    r = len(instance.emu_types)
    depot_arcs = sum(1 for a in graph.arcs if a.kind in ("depot_out", "depot_in"))
    return SizeBounds(
        n_trips=n, n_single_only=n1, n_couplable=n2, n_types=r,
        per_trip_bound=n * n * r,
        var_bound=n1 * n1 * r + n2 ** 3 * r,
        actual_arcs=len(graph.arcs),
        depot_arcs=depot_arcs,
    )


def to_dot(graph: Hypergraph) -> str:
    """GraphViz rendering of the hypergraph (hyper-arcs share an edge label)."""
    lines = ["digraph hypergraph {", "  rankdir=LR;"]
    for node in graph.nodes:
        shape = {"depot_source": "box", "depot_sink": "box",
                 "service_trip": "ellipse"}.get(node.kind, "circle")
        style = ' style=dashed' if node.kind == "service_trip" else ""
        lines.append(f'  "{node.id}" [shape={shape}{style}];')
    for arc in graph.arcs:
        for src in dict.fromkeys(arc.sources):
            for dst in dict.fromkeys(arc.targets):
                attr = f'label="x{arc.id}:{arc.emu_type}"'
                if arc.k == 2 or arc.k_prime == 2:
                    attr += " color=green penwidth=2"
                lines.append(f'  "{src}" -> "{dst}" [{attr}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
