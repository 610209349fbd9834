"""Synthetic timetable generator: feasible by construction.

Stands in for the proprietary operator data. Each depot anchors a
corridor; EMU rotations ping-pong along their corridor with turnarounds
drawn inside ``[delta_min, delta_max]`` and finally return to their depot
(whose return bounds admit them), so a depot-closed daily plan always
exists. With ``with_return_bounds=False`` every rotation instead gets its
own corridor and ends at its private far station, which keeps the last
node of each chain terminal.

Rotation ``i`` belongs to depot ``i % n_depots`` and EMU type
``i % n_types``; its corridor is its depot's, or ``i`` itself without
return bounds. Each rotation draws an even leg count from
``rotation_legs``, but the last one is cut to the trips that are left, so
it can be shorter than the lower bound, down to 2 legs (68 of generator
seeds 0-199 at 100 trips and the default ``(4, 8)``). Drawing it again
would change every generated day, so the cut is kept. An odd total trip
count is absorbed by one single-leg rotation, always the last, scheduled
``delta_max + 10`` minutes after the latest arrival, so its far-station
arrival has no onward departure inside the turnaround window.

Determinism: all randomness flows from one ``numpy`` PCG64 generator
seeded by the caller, and instances carry no timestamps, so equal
(params, seed) produce byte-identical serializations. The draws come in
this order, which the serializations depend on: every rotation's leg
count; the leg time of each corridor, then its km; each rotation's start
and cursor step (none for the late leg) followed by the turnaround after
each of its legs; then per trip the cross-type draws, passengers and
bicycles.

The per-trip doubles come from one ``Generator.random`` call of one row per
trip, ``n_types - 1`` cross-type uniforms in type order without the trip's
own type, then its demand fill and its bicycle fill: the same stream, in
the same order, as one scalar draw at a time, and ``lo + (hi - lo) * u`` is
the value ``Generator.uniform(lo, hi)`` makes of the same ``u``. The leg
integers stay one ``Generator.integers`` call per value. Scalar and vector
calls read the same stream, so a call per rotation for its turnarounds
gives the same day, but a rotation has only a few legs: it saved about
6 % of a 100-trip day's generation time (CPython 3.11, 2-vCPU VM).
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from .model import Depot, DriverWindow, EmuType, Instance, Trip

__all__ = ["GeneratorConfig", "generate_synthetic", "GeneratorError"]


class GeneratorError(ValueError):
    """Raised for parameter combinations that cannot yield an instance."""


_LEG_MINUTES = (35, 70)  # one-way leg time per corridor drawn from here
_DRIVER_WINDOW_MINUTES = 120  # spacing of driver checkpoints


def _count(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integral number is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise GeneratorError(f"{name} must be an int, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class GeneratorConfig:
    n_trips: int
    n_couplable: int = 0
    n_depots: int = 1
    n_types: int = 1
    delta_min: int = 5
    delta_max: int = 60
    # even leg counts drawn from here; the last rotation is cut to the
    # trips that are left, so it can be shorter (down to 2 legs)
    rotation_legs: tuple[int, int] = (4, 8)
    demand_fill: tuple[float, float] = (0.35, 0.9)  # share of own type's seats
    bike_fill: tuple[float, float] = (0.0, 0.0)
    cross_type_prob: float = 0.3
    alpha: Fraction = Fraction(1, 100)
    with_return_bounds: bool = True
    name: str = ""

    def __post_init__(self):
        for name in ("n_trips", "n_couplable", "n_depots", "n_types", "delta_min", "delta_max"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        object.__setattr__(self, "rotation_legs", tuple(
            _count(f"rotation_legs[{i}]", v) for i, v in enumerate(self.rotation_legs)))
        if self.n_trips <= 0:
            raise GeneratorError("n_trips must be >= 1")
        if not 0 <= self.n_couplable <= self.n_trips:
            raise GeneratorError("need 0 <= n_couplable <= n_trips")
        if self.n_depots < 1 or self.n_types < 1:
            raise GeneratorError("need at least one depot and one EMU type")
        if self.delta_min > self.delta_max or self.delta_min < 0:
            raise GeneratorError("need 0 <= delta_min <= delta_max")
        lo, hi = self.rotation_legs
        if lo < 2 or (lo + 1) // 2 > hi // 2:
            raise GeneratorError("rotation_legs must span even counts >= 2")
        for name in ("demand_fill", "bike_fill"):  # above 1 is overcrowding
            lo, hi = getattr(self, name)
            if not 0 <= lo <= hi < math.inf:  # also rejects NaN
                raise GeneratorError(f"need finite 0 <= lo <= hi in {name}, got {(lo, hi)}")
        if not 0 <= self.cross_type_prob <= 1:  # also rejects NaN
            raise GeneratorError(f"need 0 <= cross_type_prob <= 1, got {self.cross_type_prob}")
        # a float alpha means the decimal it prints as, exactly
        if isinstance(self.alpha, float):
            object.__setattr__(self, "alpha", Fraction(str(self.alpha)))


def _plan_rotations(cfg: GeneratorConfig, rng: np.random.Generator) -> list[int]:
    """Each rotation's leg count, a 1 for the late single leg last."""
    lo, hi = cfg.rotation_legs
    left = cfg.n_trips - cfg.n_trips % 2
    counts = []
    while left:
        legs = 2 * int(rng.integers((lo + 1) // 2, hi // 2 + 1))
        counts.append(min(legs, left))  # both even, so it stays even >= 2
        left -= counts[-1]
    return counts + [1] * (cfg.n_trips % 2)


def generate_synthetic(cfg: GeneratorConfig, seed: int) -> Instance:
    """Produce a valid, solvable instance; deterministic for a fixed seed."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    n_depots, n_types = cfg.n_depots, cfg.n_types

    emu_types = tuple(
        EmuType(id=f"r{i + 1}", seats=60 + 20 * i, bike_slots=12,
                cost_per_km=Fraction(8 + i, 10), couplable=True)
        for i in range(n_types))

    rotation_legs = _plan_rotations(cfg, rng)
    n_rotations = len(rotation_legs)
    if cfg.with_return_bounds:
        corridors = [i % n_depots for i in range(n_rotations)]
    else:
        corridors = list(range(n_rotations))  # private far stations
    n_corridors = max(corridors) + 1
    leg_time = [int(rng.integers(_LEG_MINUTES[0], _LEG_MINUTES[1] + 1))
                for _ in range(n_corridors)]
    leg_km = [Fraction(int(rng.integers(20, 61))) for _ in range(n_corridors)]

    # the leg table: (origin, destination, depart, arrive, rotation)
    max_gap = min(cfg.delta_max, cfg.delta_min + 20)
    legs: list[tuple[str, str, int, int, int]] = []
    day_cursor = 300  # first departures around 05:00
    for rot, (n_legs, corridor) in enumerate(zip(rotation_legs, corridors)):
        if n_legs == 1:
            # isolated single leg at day end: no onward departures in window
            clock = max((leg[3] for leg in legs), default=300) + cfg.delta_max + 10
        else:
            clock = day_cursor + int(rng.integers(0, 30))
            day_cursor += int(rng.integers(10, 40))
        ends = (f"D{rot % n_depots}", f"F{corridor}")
        for leg in range(n_legs):
            arrive = clock + leg_time[corridor]
            legs.append((ends[leg % 2], ends[1 - leg % 2], clock, arrive, rot))
            clock = arrive + int(rng.integers(cfg.delta_min, max_gap + 1))

    # couplable subset: latest departures first (they have feeders available)
    by_depart = sorted(range(len(legs)), key=lambda i: (-legs[i][2], i))
    couple_ids = set(by_depart[:cfg.n_couplable])

    # demands and admissible types, from one row of doubles per trip: its
    # cross-type draws, then its fills, where lo + (hi - lo) * u is exactly
    # what Generator.uniform makes of u
    draws = rng.random((len(legs), n_types + 1))
    lo_fill, hi_fill, lo_bike, hi_bike = map(float, (*cfg.demand_fill, *cfg.bike_fill))
    fills = (lo_fill + (hi_fill - lo_fill) * draws[:, -2]).tolist()
    bikes = (lo_bike + (hi_bike - lo_bike) * draws[:, -1]).tolist()
    crossed = (draws[:, :-2] < cfg.cross_type_prob).tolist()
    trips = []
    for i, (origin, destination, depart, arrive, rot) in enumerate(legs):
        own = emu_types[rot % n_types]
        others = [r.id for r in emu_types if r is not own]
        allowed = frozenset([own.id, *(r for r, hit in zip(others, crossed[i]) if hit)])
        trips.append(Trip(
            id=f"t{i:03d}", origin=origin, destination=destination,
            depart=depart, arrive=arrive,
            passengers=int(fills[i] * own.seats),
            bicycles=int(bikes[i] * own.bike_slots),
            allowed_types=allowed,
            distance=leg_km[corridors[rot]],
            obligatory=True, couplable=i in couple_ids,
            driver_depot=f"dep{rot % n_depots}"))

    # depot bounds sized to the constructed rotations, and driver
    # checkpoints spanning the active day
    out_count = Counter((i % n_depots, i % n_types) for i in range(n_rotations))
    first = min(leg[2] for leg in legs)
    last = max(leg[3] for leg in legs)
    depots = []
    windows = []
    for d in range(n_depots):
        out_max = ({emu_types[r].id: c for (dd, r), c in out_count.items() if dd == d}
                   or {emu_types[0].id: 1})
        depots.append(Depot(
            id=f"dep{d}", station=f"D{d}",
            out_min={}, out_max=out_max,
            in_min={} if cfg.with_return_bounds else None,
            in_max=dict(out_max) if cfg.with_return_bounds else None))
        rotations_here = len(range(d, n_rotations, n_depots))
        if rotations_here:
            windows.extend(
                DriverWindow(depot=f"dep{d}", at=at, min_drivers=0,
                             max_drivers=2 * rotations_here)
                for at in range(first + _DRIVER_WINDOW_MINUTES // 2, last,
                                _DRIVER_WINDOW_MINUTES))

    name = cfg.name or f"synthetic-T{cfg.n_trips}-R{n_types}-D{n_depots}"
    return Instance(
        trips=tuple(trips),
        emu_types=emu_types,
        depots=tuple(depots),
        driver_windows=tuple(windows),
        delta_min=cfg.delta_min,
        delta_max=cfg.delta_max,
        seat_tolerance_single=10,
        seat_tolerance_coupled=20,
        bike_tolerance_single=2,
        bike_tolerance_coupled=4,
        alpha=cfg.alpha,
        meta={"name": name,
              "generator": {
                  "seed": seed,
                  "n_trips": cfg.n_trips,
                  "n_couplable": cfg.n_couplable,
                  "n_depots": cfg.n_depots,
                  "n_types": cfg.n_types,
                  "delta_min": cfg.delta_min,
                  "delta_max": cfg.delta_max,
                  "with_return_bounds": cfg.with_return_bounds,
              }},
    )
