"""Synthetic timetable generator: feasible by construction.

Stands in for the proprietary operator data. Each depot anchors a
corridor; EMU rotations ping-pong along their corridor with turnarounds
drawn inside ``[delta_min, delta_max]`` and finally return to their depot
(whose return bounds admit them), so a depot-closed daily plan always
exists. With ``with_return_bounds=False`` every rotation instead gets its
own corridor and ends at its private far station, which keeps the last
node of each chain terminal.

An odd total trip count is absorbed by one single-trip rotation scheduled
after everything else, so its far-station arrival has no onward departure
inside the turnaround window.

Determinism: all randomness flows from one ``numpy`` PCG64 generator
seeded by the caller, and instances carry no timestamps, so equal
(params, seed) produce byte-identical serializations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
import numpy as np

from .model import Depot, DriverWindow, EmuType, Instance, Trip

__all__ = ["GeneratorConfig", "generate_synthetic", "GeneratorError"]


class GeneratorError(ValueError):
    """Raised for parameter combinations that cannot yield an instance."""


_LEG_MINUTES = (35, 70)  # one-way leg time per corridor drawn from here
_DRIVER_WINDOW_MINUTES = 120  # spacing of driver checkpoints


@dataclass(frozen=True)
class GeneratorConfig:
    n_trips: int
    n_couplable: int = 0
    n_depots: int = 1
    n_types: int = 1
    delta_min: int = 5
    delta_max: int = 60
    rotation_legs: tuple[int, int] = (4, 8)  # even leg counts drawn from here
    demand_fill: tuple[float, float] = (0.35, 0.9)  # share of own type's seats
    bike_fill: tuple[float, float] = (0.0, 0.0)
    cross_type_prob: float = 0.3
    alpha: Fraction = Fraction(1, 100)
    with_return_bounds: bool = True
    name: str = ""

    def __post_init__(self):
        # a float alpha means the decimal it prints as, exactly
        if isinstance(self.alpha, float):
            object.__setattr__(self, "alpha", Fraction(str(self.alpha)))

    def validate(self) -> None:
        if self.n_trips <= 0:
            raise GeneratorError("n_trips must be >= 1")
        if not 0 <= self.n_couplable <= self.n_trips:
            raise GeneratorError("need 0 <= n_couplable <= n_trips")
        if self.n_depots < 1 or self.n_types < 1:
            raise GeneratorError("need at least one depot and one EMU type")
        if self.delta_min > self.delta_max or self.delta_min < 0:
            raise GeneratorError("need 0 <= delta_min <= delta_max")
        lo, hi = self.rotation_legs
        if lo < 2 or hi < lo:
            raise GeneratorError("rotation_legs must span even counts >= 2")


@dataclass
class _Rotation:
    depot: int
    emu_type: int
    corridor: int
    legs: int
    late: bool = False


def _plan_rotations(cfg: GeneratorConfig, rng: np.random.Generator) -> list[_Rotation]:
    rotations: list[_Rotation] = []
    late_single = cfg.n_trips % 2 == 1
    target = cfg.n_trips - (1 if late_single else 0)
    emitted = 0
    idx = 0
    while emitted < target:
        lo, hi = cfg.rotation_legs
        legs = 2 * int(rng.integers(max(1, lo // 2), hi // 2 + 1))
        legs = min(legs, target - emitted)  # both even, so legs stays even >= 2
        rotations.append(_Rotation(depot=idx % cfg.n_depots,
                                   emu_type=idx % cfg.n_types,
                                   corridor=0, legs=legs))
        emitted += legs
        idx += 1
    if late_single:
        rotations.append(_Rotation(depot=idx % cfg.n_depots,
                                   emu_type=idx % cfg.n_types,
                                   corridor=0, legs=1, late=True))
    return rotations


def generate_synthetic(cfg: GeneratorConfig, seed: int) -> Instance:
    """Produce a valid, solvable instance; deterministic for a fixed seed."""
    cfg.validate()
    rng = np.random.default_rng(np.random.PCG64(seed))

    emu_types = tuple(
        EmuType(id=f"r{i + 1}", seats=60 + 20 * i, bike_slots=12,
                cost_per_km=Fraction(8 + i, 10), couplable=True)
        for i in range(cfg.n_types))

    rotations = _plan_rotations(cfg, rng)
    for i, rot in enumerate(rotations):
        if cfg.with_return_bounds:
            rot.corridor = rot.depot
        else:
            rot.corridor = i  # private far station keeps chain ends terminal

    n_corridors = max(rot.corridor for rot in rotations) + 1
    leg_time = {c: int(rng.integers(_LEG_MINUTES[0], _LEG_MINUTES[1] + 1))
                for c in range(n_corridors)}
    leg_km = {c: int(rng.integers(20, 61)) for c in range(n_corridors)}

    def depot_station(d: int) -> str:
        return f"D{d}"

    def far_station(c: int) -> str:
        return f"F{c}"

    max_gap = min(cfg.delta_max, cfg.delta_min + 20)
    trips: list[Trip] = []
    day_cursor = 300  # first departures around 05:00
    horizon_end = 300

    def schedule_rotation(rot: _Rotation, start: int) -> int:
        nonlocal horizon_end
        here = depot_station(rot.depot)
        there = far_station(rot.corridor)
        clock = start
        for leg in range(rot.legs):
            origin, dest = (here, there) if leg % 2 == 0 else (there, here)
            depart = clock
            arrive = depart + leg_time[rot.corridor]
            trips.append(Trip(
                id=f"t{len(trips):03d}", origin=origin, destination=dest,
                depart=depart, arrive=arrive,
                passengers=0, bicycles=0,  # filled in below
                allowed_types=frozenset(),
                distance=Fraction(leg_km[rot.corridor]),
                obligatory=True,
                driver_depot=f"dep{rot.depot}",
            ))
            clock = arrive + int(rng.integers(cfg.delta_min, max_gap + 1))
            horizon_end = max(horizon_end, arrive)
        return clock

    trip_owner: list[_Rotation] = []
    for rot in rotations:
        if rot.late:
            continue
        start = day_cursor + int(rng.integers(0, 30))
        day_cursor += int(rng.integers(10, 40))
        before = len(trips)
        schedule_rotation(rot, start)
        trip_owner.extend([rot] * (len(trips) - before))
    for rot in rotations:
        if not rot.late:
            continue
        # isolated single leg at day end: no onward departures in window
        start = horizon_end + cfg.delta_max + 10
        before = len(trips)
        schedule_rotation(rot, start)
        trip_owner.extend([rot] * (len(trips) - before))

    # couplable subset: latest departures first (they have feeders available)
    by_depart = sorted(range(len(trips)), key=lambda i: (-trips[i].depart, i))
    couple_ids = set(by_depart[:cfg.n_couplable])

    # demands and admissible types
    lo_fill, hi_fill = cfg.demand_fill
    lo_bike, hi_bike = cfg.bike_fill
    final = []
    for i, (trip, rot) in enumerate(zip(trips, trip_owner)):
        own = emu_types[rot.emu_type]
        allowed = {own.id}
        for other in emu_types:
            if other.id != own.id and rng.random() < cfg.cross_type_prob:
                allowed.add(other.id)
        passengers = int(rng.uniform(lo_fill, hi_fill) * own.seats)
        bicycles = int(rng.uniform(lo_bike, hi_bike) * own.bike_slots)
        final.append(replace(trip, passengers=passengers, bicycles=bicycles,
                             couplable=i in couple_ids,
                             allowed_types=frozenset(allowed)))
    trips = final

    # depot bounds sized to the constructed rotations
    out_count: dict[tuple[int, int], int] = {}
    for rot in rotations:
        key = (rot.depot, rot.emu_type)
        out_count[key] = out_count.get(key, 0) + 1
    depots = []
    for d in range(cfg.n_depots):
        out_max = {emu_types[r].id: c for (dd, r), c in out_count.items() if dd == d}
        if not out_max:
            out_max = {emu_types[0].id: 1}
        depots.append(Depot(
            id=f"dep{d}", station=depot_station(d),
            out_min={}, out_max=out_max,
            in_min={} if cfg.with_return_bounds else None,
            in_max=dict(out_max) if cfg.with_return_bounds else None))

    # driver checkpoints spanning the active day
    first = min(t.depart for t in trips)
    last = max(t.arrive for t in trips)
    windows = []
    rotations_at = {d: sum(1 for rot in rotations if rot.depot == d)
                    for d in range(cfg.n_depots)}
    for d in range(cfg.n_depots):
        if rotations_at[d] == 0:
            continue
        at = first + _DRIVER_WINDOW_MINUTES // 2
        while at < last:
            windows.append(DriverWindow(
                depot=f"dep{d}", at=at, min_drivers=0,
                max_drivers=2 * rotations_at[d]))
            at += _DRIVER_WINDOW_MINUTES

    name = cfg.name or f"synthetic-T{cfg.n_trips}-R{cfg.n_types}-D{cfg.n_depots}"
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
