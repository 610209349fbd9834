"""Static time-distance diagrams (SVG and ASCII) for circulation plans.

Time runs along the x-axis, stations are ordered on the y-axis. Every EMU
dispatched from a depot traces one polyline through the trips it serves;
segments run by a coupled pair are drawn doubled in green, matching the
usual convention for marking multiple-unit compositions.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import Instance
from .netbuild import Hypergraph

__all__ = ["Rotation", "trace_rotations", "render_svg", "render_ascii",
           "DiagramError"]


class DiagramError(ValueError):
    """Raised when a solution does not fit the instance it is drawn against."""


_TYPE_COLORS = ("#1f77b4", "#d62728", "#9467bd", "#8c564b", "#e377c2",
                "#7f7f7f", "#bcbd22", "#17becf", "#ff7f0e")
_COUPLED_COLOR = "#2ca02c"
_SVG_WIDTH, _SVG_HEIGHT = 900, 480


@dataclass(frozen=True)
class Rotation:
    """The day of one physical EMU: the trips it serves, in order."""

    emu_type: str
    depot: str
    trips: tuple[str, ...]
    coupled: tuple[bool, ...]  # aligned with trips; True = runs in a pair


def trace_rotations(graph: Hypergraph, selected: Sequence[int]) -> list[Rotation]:
    """Follow each dispatched EMU through the selected arcs.

    Coupling joins two rotations on the shared trip (both polylines carry
    it, flagged coupled); decoupling sends the two units their own
    ways again. An arc id that is not an integer is a ``TypeError``.
    """
    chosen = sorted(set(map(operator.index, selected)))
    arcs = graph.arcs
    for a in chosen:
        if not 0 <= a < len(arcs):
            raise DiagramError(f"arc id {a} outside the model ({len(arcs)} arcs)")

    # selected outgoing arc per trip node (out-degree <= 1 in feasible plans)
    out_of: dict[str, int] = {}
    for a in chosen:
        arc = arcs[a]
        for src in arc.sources:
            node = graph.node(src)
            if node.is_trip:
                if node.trip in out_of and out_of[node.trip] != a:
                    raise DiagramError(
                        f"trip {node.trip} has two outgoing selected arcs")
                out_of[node.trip] = a

    rotations: list[Rotation] = []
    decouple_claims: dict[int, int] = {}  # units already routed to a head
    for a in chosen:
        arc = arcs[a]
        if arc.kind != "depot_out":
            continue
        depot = graph.node(arc.sources[0]).depot or ""
        for _ in range(arc.k_prime):  # a pre-coupled dispatch is two units
            trips: list[str] = []
            coupled: list[bool] = []
            current = arc
            unit_trip = graph.node(current.targets[0]).trip
            guard = 0
            while unit_trip is not None:
                guard += 1
                if guard > len(arcs) + 1:
                    raise DiagramError("cycle while tracing rotations")
                trips.append(unit_trip)
                coupled.append(current.k == 2)
                nxt = out_of.get(unit_trip)
                if nxt is None:
                    break
                nxt_arc = arcs[nxt]
                if not any(graph.node(t).is_trip for t in nxt_arc.targets):
                    break  # returns to depot sink
                if nxt_arc.kind == "decouple":
                    # the two units take the two heads in deterministic order
                    taken = decouple_claims.get(nxt, 0)
                    decouple_claims[nxt] = taken + 1
                    heads = [graph.node(t).trip for t in nxt_arc.targets]
                    unit_trip = heads[min(taken, len(heads) - 1)]
                else:
                    unit_trip = graph.node(nxt_arc.targets[0]).trip
                current = nxt_arc
            rotations.append(Rotation(emu_type=arc.emu_type, depot=depot,
                                      trips=tuple(trips),
                                      coupled=tuple(coupled)))
    return rotations


def _station_order(instance: Instance) -> list[str]:
    order: list[str] = []
    for trip in instance.trips:
        for station in (trip.origin, trip.destination):
            if station not in order:
                order.append(station)
    for depot in instance.depots:
        if depot.station not in order:
            order.append(depot.station)
    return order


def _xml_text(text: str) -> str:
    """``text`` as XML character data: ``&``, ``<`` and ``>`` escaped, as
    ``xml.sax.saxutils.escape`` does, whose import would load ``urllib``,
    ``http`` and ``ssl``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(instance: Instance, graph: Hypergraph,
               selected: Sequence[int]) -> str:
    """Deterministic SVG time-distance diagram of one plan, ``_SVG_WIDTH``
    by ``_SVG_HEIGHT`` pixels."""
    width, height = _SVG_WIDTH, _SVG_HEIGHT
    rotations = trace_rotations(graph, selected)
    stations = _station_order(instance)
    type_color = {r.id: _TYPE_COLORS[i % len(_TYPE_COLORS)]
                  for i, r in enumerate(instance.emu_types)}

    if instance.trips:
        t0 = min(t.depart for t in instance.trips) - 20
        t1 = max(t.arrive for t in instance.trips) + 20
    else:
        t0, t1 = 0, 60
    margin_l, margin_t, margin_b = 90, 24, 36
    plot_w = width - margin_l - 20
    plot_h = height - margin_t - margin_b

    def x_of(minute: int) -> float:
        return margin_l + plot_w * (minute - t0) / max(1, (t1 - t0))

    def y_of(station: str) -> float:
        if len(stations) == 1:
            return margin_t + plot_h / 2
        return margin_t + plot_h * stations.index(station) / (len(stations) - 1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for station in stations:
        y = y_of(station)
        parts.append(f'<line x1="{margin_l}" y1="{y:.1f}" x2="{width - 20}" '
                     f'y2="{y:.1f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{margin_l - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end" font-size="12">{_xml_text(station)}</text>')
    first_hour = (t0 // 60 + 1) * 60
    for minute in range(first_hour, t1, 60):
        x = x_of(minute)
        parts.append(f'<line x1="{x:.1f}" y1="{margin_t}" x2="{x:.1f}" '
                     f'y2="{height - margin_b}" stroke="#eeeeee"/>')
        parts.append(f'<text x="{x:.1f}" y="{height - margin_b + 16}" '
                     f'text-anchor="middle" font-size="11">'
                     f'{minute // 60:02d}:{minute % 60:02d}</text>')

    drawn_coupled: set[str] = set()
    for idx, rot in enumerate(rotations):
        color = type_color.get(rot.emu_type, "#333333")
        prev: Optional[tuple[float, float]] = None
        for trip_id, coupled in zip(rot.trips, rot.coupled):
            trip = instance.trip_by_id(trip_id)
            xa, ya = x_of(trip.depart), y_of(trip.origin)
            xb, yb = x_of(trip.arrive), y_of(trip.destination)
            if prev is not None:
                parts.append(
                    f'<line x1="{prev[0]:.1f}" y1="{prev[1]:.1f}" '
                    f'x2="{xa:.1f}" y2="{ya:.1f}" stroke="{color}" '
                    f'stroke-width="1" stroke-dasharray="3,3"/>')
            if coupled:
                offset = 2.0 if trip_id in drawn_coupled else -2.0
                drawn_coupled.add(trip_id)
                parts.append(
                    f'<line x1="{xa:.1f}" y1="{ya + offset:.1f}" x2="{xb:.1f}" '
                    f'y2="{yb + offset:.1f}" stroke="{_COUPLED_COLOR}" '
                    f'stroke-width="2.5"/>')
            else:
                parts.append(
                    f'<line x1="{xa:.1f}" y1="{ya:.1f}" x2="{xb:.1f}" '
                    f'y2="{yb:.1f}" stroke="{color}" stroke-width="1.8"/>')
            prev = (xb, yb)
    parts.append(
        f'<text x="{margin_l}" y="{margin_t - 8}" font-size="12">'
        f'{len(rotations)} rotation(s); green = coupled pair</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_ascii(instance: Instance, graph: Hypergraph,
                 selected: Sequence[int], columns: int = 96) -> str:
    """Coarse text rendering: stations as rows, time buckets as columns;
    ``ValueError`` for fewer than 1 column or a ``columns`` that is not an int."""
    if isinstance(columns, bool) or not isinstance(columns, numbers.Integral):
        raise ValueError(f"columns must be an int, got {columns!r}")
    if columns < 1:
        raise ValueError(f"columns must be >= 1, got {columns!r}")
    rotations = trace_rotations(graph, selected)
    stations = _station_order(instance)
    if not instance.trips or not stations:
        return "(empty diagram)\n"
    t0 = min(t.depart for t in instance.trips)
    t1 = max(t.arrive for t in instance.trips)
    span = max(1, t1 - t0)
    label_w = max(len(s) for s in stations) + 1

    def col(minute: int) -> int:
        return min(columns - 1, (minute - t0) * (columns - 1) // span)

    grid = {s: [" "] * columns for s in stations}
    for rot in rotations:
        for trip_id, coupled in zip(rot.trips, rot.coupled):
            trip = instance.trip_by_id(trip_id)
            a, b = col(trip.depart), col(trip.arrive)
            mark = "=" if coupled else "-"
            row_o, row_d = grid[trip.origin], grid[trip.destination]
            mid = (a + b) // 2
            for c in range(a, mid + 1):
                if row_o[c] == " ":
                    row_o[c] = mark
            for c in range(mid, b + 1):
                if row_d[c] == " ":
                    row_d[c] = mark
            row_o[a] = "*"
            row_d[b] = "*"

    header = " " * label_w + f"{t0 // 60:02d}:{t0 % 60:02d}".ljust(
        columns - 5) + f"{t1 // 60:02d}:{t1 % 60:02d}"
    lines = [header]
    for s in stations:
        lines.append(s.ljust(label_w) + "".join(grid[s]))
    lines.append(f"{len(rotations)} rotation(s); '=' marks coupled segments")
    return "\n".join(lines) + "\n"
