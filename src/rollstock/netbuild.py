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

The build looks turnarounds up instead of scanning trip pairs. Trips are
filed per origin station by departure; each trip's successors are found by
bisecting ``[arrive + delta_min, arrive + delta_max]`` in its destination's
list and sorted back into input order, and predecessor lists are built from
them in input order. Transfers, coupled transfers and decouple heads read
the successor lists, couple feeders the predecessor lists. Each kind is
emitted directly in id order, so no arc sort is needed. A price
``k * cost_per_km * distance`` depends on a trip only through the value of
its distance, and a timetable runs the same line segments all day (a
generated 100-trip day has about four distinct distances), so each price
is computed once per (distance value, type, k) and the arcs that have it
share one ``Fraction``; with all distances distinct that is still at most
once per (trip, type, k). The cost is linear in trips times
turnaround-window hits.

``Node`` and ``HyperArc`` are built in one step (``model._one_step``),
since a build makes hundreds to thousands of arcs.

The graph is its nodes and arcs, and an arc is a movement and its price.
``ilp.encode_ilp`` decides which ILP rows an arc enters, the capacity row
included; the build reads no demand and no capacity.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import Depot, EmuType, Instance, _one_step

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
_NO_COST = Fraction(0)  # the cost of an arc that points to no trip


@_one_step
@dataclass(frozen=True)
class Node:
    id: str
    kind: str  # trip | service_trip | depot_source | depot_sink
    trip: Optional[str] = None
    depot: Optional[str] = None

    @property
    def is_trip(self) -> bool:
        return self.kind in ("trip", "service_trip")


@_one_step
@dataclass(frozen=True)
class HyperArc:
    """One candidate EMU movement and its price; ``id`` doubles as the ILP
    variable index. ``k`` is the EMU count on each trip the arc points to,
    ``k_prime`` the count on each trip it originates from, and ``cost`` the
    operating cost of running ``k`` units over the trips it points to."""

    id: int
    kind: str
    sources: tuple[str, ...]
    targets: tuple[str, ...]
    emu_type: str
    k: int
    k_prime: int
    cost: Fraction


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph: the nodes, and the arcs in id order."""

    nodes: tuple[Node, ...]
    arcs: tuple[HyperArc, ...]

    def node(self, node_id: str) -> Node:
        return self._node_index[node_id]

    def __post_init__(self):
        object.__setattr__(self, "_node_index", {n.id: n for n in self.nodes})


def _turnaround_lists(instance: Instance) -> tuple[list[list[int]], list[list[int]]]:
    """Successor and predecessor trip positions, each list in input order.

    ``b`` succeeds ``a`` when ``b`` departs from ``a``'s destination with a
    turnaround ``depart(b) - arrive(a)`` inside ``[delta_min, delta_max]``;
    the hits come from bisecting the origin station's departures.
    """
    trips = instance.trips
    boards: dict[str, list[int]] = {}
    for pos in sorted(range(len(trips)), key=lambda p: trips[p].depart):
        boards.setdefault(trips[pos].origin, []).append(pos)
    departs = {station: [trips[p].depart for p in board]
               for station, board in boards.items()}
    succ: list[list[int]] = []
    for pos, a in enumerate(trips):
        board = boards.get(a.destination, [])
        times = departs.get(a.destination, [])
        lo = bisect_left(times, a.arrive + instance.delta_min)
        hi = bisect_right(times, a.arrive + instance.delta_max)
        succ.append(sorted(p for p in board[lo:hi] if p != pos))
    pred: list[list[int]] = [[] for _ in trips]
    for a, heads in enumerate(succ):
        for b in heads:
            pred[b].append(a)
    return succ, pred


def build_hypergraph(instance: Instance) -> Hypergraph:
    """Construct the full candidate-arc hypergraph for one instance."""
    trips, types = instance.trips, instance.emu_types
    nodes: list[Node] = []
    for d in instance.depots:
        nodes.append(Node(id=f"src:{d.id}", kind="depot_source", depot=d.id))
    for t in trips:
        nodes.append(Node(id=f"trip:{t.id}",
                          kind="trip" if t.obligatory else "service_trip",
                          trip=t.id))
    for d in instance.depots:
        if d.has_sink:
            nodes.append(Node(id=f"snk:{d.id}", kind="depot_sink", depot=d.id))
    trip_node = [f"trip:{t.id}" for t in trips]
    allowed = [t.allowed_types for t in trips]
    succ, pred = _turnaround_lists(instance)

    arcs: list[HyperArc] = []
    # trips of equal distance share their prices
    distances: dict[tuple[int, int], int] = {}
    distance_of = [distances.setdefault((t.distance.numerator, t.distance.denominator),
                                        len(distances)) for t in trips]
    prices: dict[tuple[int, str, int], Fraction] = {}

    def add(kind: str, sources: tuple[str, ...], targets: tuple[str, ...],
            emu: EmuType, k: int, k_prime: int, heads: tuple[int, ...] = ()) -> None:
        """Append the next arc; ``heads`` are the positions of the (distinct)
        trips it points to."""
        cost = _NO_COST
        for pos in heads:
            # multiplicity on the pointed-to trip prices every unit that runs it
            key = (distance_of[pos], emu.id, k)
            price = prices.get(key)
            if price is None:
                price = prices[key] = Fraction(k) * emu.cost_per_km * trips[pos].distance
            # a decouple arc points to two trips and pays for both
            cost = price if cost is _NO_COST else cost + price
        arcs.append(HyperArc(len(arcs), kind, sources, targets, emu.id, k, k_prime, cost))

    # Each kind is emitted in id order: sources, then targets, type and k.
    for d in instance.depots:
        source = f"src:{d.id}"
        for pos, t in enumerate(trips):
            if t.origin != d.station:
                continue
            for r in types:
                _, out_max = d.out_bounds(r.id)
                if out_max <= 0 or r.id not in t.allowed_types:
                    continue
                add("depot_out", (source,), (trip_node[pos],), r, 1, 1, (pos,))
                if out_max >= 2 and t.couplable and r.couplable:
                    add("depot_out", (source,), (trip_node[pos],), r, 2, 2, (pos,))

    for a, heads in enumerate(succ):
        for b in heads:
            for r in types:
                if r.id in allowed[a] and r.id in allowed[b]:
                    add("transfer", (trip_node[a],), (trip_node[b],), r, 1, 1, (b,))

    for f in range(len(trips)):
        # (second feeder, coupled trip) for feeder pairs led by f; pred[c]
        # is in input order, so the second feeders are the suffix after f
        pairs = sorted((g, c) for c in succ[f] if trips[c].couplable
                       for g in pred[c][bisect_right(pred[c], f):])
        for g, c in pairs:
            for r in types:
                if (r.couplable and r.id in allowed[c] and r.id in allowed[f]
                        and r.id in allowed[g]):
                    add("couple", (trip_node[f], trip_node[g]), (trip_node[c],),
                        r, 2, 1, (c,))

    for a, heads in enumerate(succ):
        if not trips[a].couplable:
            continue
        for b in heads:
            if not trips[b].couplable:
                continue
            for r in types:
                if r.couplable and r.id in allowed[a] and r.id in allowed[b]:
                    add("coupled_transfer", (trip_node[a],), (trip_node[b],),
                        r, 2, 2, (b,))

    for a, heads in enumerate(succ):
        if not trips[a].couplable:
            continue
        for i, b in enumerate(heads):
            for c in heads[i + 1:]:
                for r in types:
                    if (r.couplable and r.id in allowed[a] and r.id in allowed[b]
                            and r.id in allowed[c]):
                        add("decouple", (trip_node[a],),
                            (trip_node[b], trip_node[c]), r, 1, 2, (b, c))

    sinks: dict[str, list[Depot]] = {}
    for d in instance.depots:
        if d.has_sink:
            sinks.setdefault(d.station, []).append(d)
    for pos, t in enumerate(trips):
        for d in sinks.get(t.destination, ()):
            for r in types:
                _, in_max = d.in_bounds(r.id)
                if in_max <= 0 or r.id not in t.allowed_types:
                    continue
                add("depot_in", (trip_node[pos],), (f"snk:{d.id}",), r, 1, 1)
                if in_max >= 2 and t.couplable and r.couplable:
                    add("depot_in", (trip_node[pos],), (f"snk:{d.id}",), r, 2, 2)

    return Hypergraph(nodes=tuple(nodes), arcs=tuple(arcs))


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


def size_bounds(instance: Instance, graph: Hypergraph) -> SizeBounds:
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
        lines.append(f'  {_dot_string(node.id)} [shape={shape}{style}];')
    for arc in graph.arcs:
        for src in dict.fromkeys(arc.sources):
            for dst in dict.fromkeys(arc.targets):
                attr = f'label={_dot_string(f"x{arc.id}:{arc.emu_type}")}'
                if arc.k == 2 or arc.k_prime == 2:
                    attr += " color=green penwidth=2"
                lines.append(f'  {_dot_string(src)} -> {_dot_string(dst)} [{attr}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_string(text: str) -> str:
    """``text`` as a quoted DOT string, its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
