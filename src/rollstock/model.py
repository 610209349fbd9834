"""Domain types, JSON instance schema, loading and validation.

An :class:`Instance` bundles everything that defines one planning day:
the timetable (trips), the EMU fleet, depots with dispatch/return bounds,
driver availability windows, turnaround limits and capacity tolerances.
Instances are immutable after construction and safe to share across
threads.

Exact arithmetic: monetary-ish quantities (``alpha``, ``cost_per_km``,
``distance``) are kept as :class:`fractions.Fraction` so that objective
values and QUBO coefficients downstream stay exact. The JSON loader
parses number literals directly into fractions, so ``0.01`` in a file
means exactly 1/100.

Errors carry a JSON-pointer path, formatted only when a check fails: the
field readers take the record's path and the field's key and build
``path/key`` only to raise, and validation formats ``/trips/i/...`` only
for the check that fails. ``Trip`` defines its own one-step ``__init__``,
as ``netbuild.HyperArc`` does, since a load builds one per trip.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from numbers import Rational as _Rational
from typing import Any, IO, Optional, Union

__all__ = [
    "InstanceError",
    "Trip",
    "EmuType",
    "Depot",
    "DriverWindow",
    "Instance",
    "load_instance",
    "loads_instance",
    "serialize_instance",
    "exact_number",
]


class InstanceError(ValueError):
    """Raised on schema violations, dangling references or broken invariants.

    ``path`` is a JSON-pointer-style location of the offending field,
    e.g. ``/trips/2/arrive``.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


Rational = Union[int, Fraction]


# Field readers: ``obj[key]``, else ``default``, checked and converted.
# ``path`` is the record's own; ``path/key`` is formatted only to raise.
_REQUIRED = object()  # the default of a field that a record must have


def _present(value: Any, key: str, path: str) -> Any:
    """``value`` unless it stands for a missing required field."""
    if value is _REQUIRED:
        raise InstanceError(f"{path}/{key}", "required field missing")
    return value


def _frac(obj: Mapping[str, Any], key: str, path: str, default: int) -> Fraction:
    value = obj.get(key, default)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InstanceError(f"{path}/{key}", "expected a number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # JSON NaN and Infinity load as floats; no Fraction holds them
        if not math.isfinite(value):
            raise InstanceError(f"{path}/{key}",
                                f"expected a finite number, got {value}")
        # str() of a float is the shortest round-tripping decimal, so this
        # converts "what was written in the file" exactly.
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InstanceError(f"{path}/{key}", f"not a rational number: {value!r}")
    raise InstanceError(f"{path}/{key}",
                        f"expected a number, got {type(value).__name__}")


def _check_rational(value: Any, path: str, key: str) -> None:
    """Reject what exact arithmetic downstream cannot use: floats, bools."""
    if isinstance(value, bool) or not isinstance(value, _Rational):
        raise InstanceError(f"{path}/{key}",
                            f"expected an int or a Fraction, got {value!r}")


def _mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise InstanceError(path, "expected an object")
    return value


def _type_list(obj: Mapping[str, Any], key: str, path: str) -> frozenset[str]:
    value = _present(obj.get(key, _REQUIRED), key, path)
    if not isinstance(value, list):
        raise InstanceError(f"{path}/{key}", "expected a list of type ids")
    for type_id in value:
        if not isinstance(type_id, str) or not type_id:
            raise InstanceError(f"{path}/{key}",
                                f"expected a non-empty string, got {type_id!r}")
    return frozenset(value)


def _int(obj: Mapping[str, Any], key: str, path: str, default: Any = _REQUIRED) -> int:
    value = obj.get(key, default)
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        _present(value, key, path)
        raise InstanceError(f"{path}/{key}", f"expected an integer, got {value!r}")
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise InstanceError(f"{path}/{key}", f"expected an integer, got {value}")
        return int(value)
    return value


def _bool(obj: Mapping[str, Any], key: str, path: str, default: bool) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise InstanceError(f"{path}/{key}", f"expected a boolean, got {value!r}")
    return value


def _str(obj: Mapping[str, Any], key: str, path: str) -> str:
    value = obj.get(key, _REQUIRED)
    if not isinstance(value, str) or not value:
        _present(value, key, path)
        raise InstanceError(f"{path}/{key}",
                            f"expected a non-empty string, got {value!r}")
    return value


# per-trip overrides of the instance-wide tolerances of the same names
_TOLERANCES = ("seat_tolerance_single", "seat_tolerance_coupled",
               "bike_tolerance_single", "bike_tolerance_coupled")
# the JSON key under "tolerances" of each instance-wide tolerance
_TOLERANCE_KEYS = dict(zip(("seat_single", "seat_coupled",
                            "bike_single", "bike_coupled"), _TOLERANCES))


@dataclass(frozen=True)
class Trip:
    """One timetabled journey from its origin to its destination station.

    ``couplable`` marks membership in the subset of trips that may be
    served by a coupled pair of identical EMUs. Non-obligatory trips are
    optional service runs: they may be covered but no coverage constraint
    is emitted for them. The four ``*_tolerance_*`` fields override the
    instance-wide shortage tolerances for arcs pointing at this trip.
    """

    id: str
    origin: str
    destination: str
    depart: int  # minutes since midnight
    arrive: int
    passengers: int
    bicycles: int = 0
    couplable: bool = False
    allowed_types: frozenset[str] = frozenset()
    distance: Fraction = Fraction(1)
    obligatory: bool = True
    driver_depot: Optional[str] = None
    seat_tolerance_single: Optional[int] = None
    seat_tolerance_coupled: Optional[int] = None
    bike_tolerance_single: Optional[int] = None
    bike_tolerance_coupled: Optional[int] = None

    def __init__(self, id: str, origin: str, destination: str, depart: int,
                 arrive: int, passengers: int, bicycles: int = 0,
                 couplable: bool = False,
                 allowed_types: frozenset[str] = frozenset(),
                 distance: Fraction = Fraction(1), obligatory: bool = True,
                 driver_depot: Optional[str] = None,
                 seat_tolerance_single: Optional[int] = None,
                 seat_tolerance_coupled: Optional[int] = None,
                 bike_tolerance_single: Optional[int] = None,
                 bike_tolerance_coupled: Optional[int] = None):
        self.__dict__.update(
            id=id, origin=origin, destination=destination, depart=depart,
            arrive=arrive, passengers=passengers, bicycles=bicycles,
            couplable=couplable, allowed_types=allowed_types, distance=distance,
            obligatory=obligatory, driver_depot=driver_depot,
            seat_tolerance_single=seat_tolerance_single,
            seat_tolerance_coupled=seat_tolerance_coupled,
            bike_tolerance_single=bike_tolerance_single,
            bike_tolerance_coupled=bike_tolerance_coupled)


@dataclass(frozen=True)
class EmuType:
    """A class of electric multiple units, the atomic rolling-stock resource."""

    id: str
    seats: int
    bike_slots: int = 0
    cost_per_km: Fraction = Fraction(1)
    couplable: bool = False


@dataclass(frozen=True)
class Depot:
    """Per-type dispatch and return bounds at one station.

    ``in_min``/``in_max`` are optional: a depot without return bounds has
    no sink node, meaning EMUs need not come back by end of day (they rest
    wherever their last trip ends).
    """

    id: str
    station: str
    out_min: Mapping[str, int] = field(default_factory=dict)
    out_max: Mapping[str, int] = field(default_factory=dict)
    in_min: Optional[Mapping[str, int]] = None
    in_max: Optional[Mapping[str, int]] = None

    @property
    def has_sink(self) -> bool:
        return self.in_max is not None

    def out_bounds(self, type_id: str) -> tuple[int, int]:
        return self.out_min.get(type_id, 0), self.out_max.get(type_id, 0)

    def in_bounds(self, type_id: str) -> tuple[int, int]:
        if self.in_max is None:
            return 0, 0
        lo = (self.in_min or {}).get(type_id, 0)
        return lo, self.in_max.get(type_id, 0)


@dataclass(frozen=True)
class DriverWindow:
    """Driver availability at one checkpoint time for one home depot."""

    depot: str
    at: int  # checkpoint, minutes since midnight
    min_drivers: int = 0
    max_drivers: int = 0
    license: Optional[str] = None


@dataclass(frozen=True)
class Instance:
    """The full, validated problem input for one planning day."""

    trips: tuple[Trip, ...]
    emu_types: tuple[EmuType, ...]
    depots: tuple[Depot, ...]
    driver_windows: tuple[DriverWindow, ...] = ()
    delta_min: int = 0
    delta_max: int = 0
    seat_tolerance_single: int = 0
    seat_tolerance_coupled: int = 0
    bike_tolerance_single: int = 0
    bike_tolerance_coupled: int = 0
    alpha: Fraction = Fraction(0)
    licenses: Mapping[str, frozenset[str]] = field(default_factory=dict)
    meta: Mapping[str, Any] = field(default_factory=dict)

    def type_by_id(self, type_id: str) -> EmuType:
        return self._type_index[type_id]

    def trip_by_id(self, trip_id: str) -> Trip:
        return self._trip_index[trip_id]

    @property
    def obligatory_trips(self) -> tuple[Trip, ...]:
        return tuple(t for t in self.trips if t.obligatory)

    def seat_tolerance(self, k: int, trip: Trip) -> int:
        override = (trip.seat_tolerance_coupled if k == 2
                    else trip.seat_tolerance_single)
        if override is not None:
            return override
        return self.seat_tolerance_coupled if k == 2 else self.seat_tolerance_single

    def bike_tolerance(self, k: int, trip: Trip) -> int:
        override = (trip.bike_tolerance_coupled if k == 2
                    else trip.bike_tolerance_single)
        if override is not None:
            return override
        return self.bike_tolerance_coupled if k == 2 else self.bike_tolerance_single

    def driver_depot_of(self, trip: Trip) -> Optional[str]:
        """Depot whose driver pool serves this trip.

        The depot-driver-trip assignment is predefined: explicit per trip,
        defaulting to the only depot when the instance has exactly one.
        Trips without an assignment impose no driver load.
        """
        if trip.driver_depot is not None:
            return trip.driver_depot
        if len(self.depots) == 1:
            return self.depots[0].id
        return None

    def license_types(self, license_id: str) -> frozenset[str]:
        """EMU types a license covers; unmapped ids cover the type of the same name."""
        if license_id in self.licenses:
            return self.licenses[license_id]
        return frozenset({license_id})

    def __post_init__(self):
        object.__setattr__(self, "_trip_index", {t.id: t for t in self.trips})
        object.__setattr__(self, "_type_index", {r.id: r for r in self.emu_types})
        _validate(self)


def _validate(inst: Instance) -> None:
    type_ids = set()
    for i, r in enumerate(inst.emu_types):
        path = f"/emu_types/{i}"
        if r.id in type_ids:
            raise InstanceError(f"{path}/id", f"duplicate EMU type id {r.id!r}")
        type_ids.add(r.id)
        if r.seats <= 0:
            raise InstanceError(f"{path}/seats", "must be > 0")
        if r.bike_slots < 0:
            raise InstanceError(f"{path}/bike_slots", "must be >= 0")
        _check_rational(r.cost_per_km, path, "cost_per_km")
        if r.cost_per_km < 0:
            raise InstanceError(f"{path}/cost_per_km", "must be >= 0")

    # paths are formatted only for the check that fails
    trip_ids = set()
    for i, t in enumerate(inst.trips):
        if t.id in trip_ids:
            raise InstanceError(f"/trips/{i}/id", f"duplicate trip id {t.id!r}")
        trip_ids.add(t.id)
        if t.arrive <= t.depart:
            raise InstanceError(f"/trips/{i}/arrive", "arrive must be > depart")
        if t.passengers < 0:
            raise InstanceError(f"/trips/{i}/passengers", "must be >= 0")
        if t.bicycles < 0:
            raise InstanceError(f"/trips/{i}/bicycles", "must be >= 0")
        _check_rational(t.distance, f"/trips/{i}", "distance")
        if t.distance < 0:
            raise InstanceError(f"/trips/{i}/distance", "must be >= 0")
        if t.obligatory and not t.allowed_types:
            raise InstanceError(f"/trips/{i}/allowed_types",
                                "obligatory trip admits no EMU type")
        for name in _TOLERANCES:
            override = getattr(t, name)
            if override is not None and override < 0:
                raise InstanceError(f"/trips/{i}/{name}", "must be >= 0")
        if not type_ids.issuperset(t.allowed_types):
            unknown = min(rid for rid in t.allowed_types if rid not in type_ids)
            raise InstanceError(f"/trips/{i}/allowed_types",
                                f"unknown EMU type {unknown!r}")

    depot_ids = set()
    for i, d in enumerate(inst.depots):
        path = f"/depots/{i}"
        if d.id in depot_ids:
            raise InstanceError(f"{path}/id", f"duplicate depot id {d.id!r}")
        depot_ids.add(d.id)
        for name, bounds in (("out_min", d.out_min), ("out_max", d.out_max)):
            for rid in bounds:
                if rid not in type_ids:
                    raise InstanceError(f"{path}/{name}", f"unknown EMU type {rid!r}")
        for rid in type_ids:
            lo, hi = d.out_bounds(rid)
            if not 0 <= lo <= hi:
                raise InstanceError(f"{path}/out_min",
                                    f"need 0 <= out_min <= out_max for type {rid!r}")
        if (d.in_min is None) != (d.in_max is None):
            raise InstanceError(f"{path}/in_min",
                                "in_min and in_max must be given together")
        if d.in_max is not None:
            for rid in list(d.in_max) + list(d.in_min or {}):
                if rid not in type_ids:
                    raise InstanceError(f"{path}/in_max", f"unknown EMU type {rid!r}")
            for rid in type_ids:
                lo, hi = d.in_bounds(rid)
                if not 0 <= lo <= hi:
                    raise InstanceError(f"{path}/in_min",
                                        f"need 0 <= in_min <= in_max for type {rid!r}")

    for i, t in enumerate(inst.trips):
        if t.driver_depot is not None and t.driver_depot not in depot_ids:
            raise InstanceError(f"/trips/{i}/driver_depot",
                                f"unknown depot {t.driver_depot!r}")

    seen_windows = set()
    for i, w in enumerate(inst.driver_windows):
        path = f"/driver_windows/{i}"
        if w.depot not in depot_ids:
            raise InstanceError(f"{path}/depot", f"unknown depot {w.depot!r}")
        if not 0 <= w.min_drivers <= w.max_drivers:
            raise InstanceError(f"{path}/min_drivers",
                                "need 0 <= min_drivers <= max_drivers")
        if (w.license is not None and w.license not in inst.licenses
                and w.license not in type_ids):
            # it would cover no EMU type, so its row could never hold min_drivers
            raise InstanceError(f"{path}/license", f"unknown license {w.license!r}")
        key = (w.depot, w.at, w.license)
        if key in seen_windows:
            raise InstanceError(f"{path}/at", f"duplicate window {key}")
        seen_windows.add(key)

    for lic, types in inst.licenses.items():
        for rid in sorted(types):
            if rid not in type_ids:
                raise InstanceError(f"/licenses/{lic}", f"unknown EMU type {rid!r}")

    if inst.delta_min < 0:
        raise InstanceError("/delta_min", "must be >= 0")
    if inst.delta_min > inst.delta_max:
        raise InstanceError("/delta_min", "delta_min must be <= delta_max")
    for key, name in _TOLERANCE_KEYS.items():
        if getattr(inst, name) < 0:
            raise InstanceError(f"/tolerances/{key}", "must be >= 0")
    _check_rational(inst.alpha, "", "alpha")
    if inst.alpha < 0:
        raise InstanceError("/alpha", "must be >= 0")


# ---------------------------------------------------------------------------
# JSON schema <-> Instance


def _type_bounds(obj: Mapping[str, Any], key: str, path: str,
                 default: Any = _REQUIRED) -> dict[str, int]:
    bounds = _present(obj.get(key, default), key, path)
    if not isinstance(bounds, Mapping):
        raise InstanceError(f"{path}/{key}",
                            "expected an object mapping type id -> integer")
    path = f"{path}/{key}"
    return {str(type_id): _int(bounds, type_id, path) for type_id in bounds}


def _parse_trip(obj: Any, path: str) -> Trip:
    obj = _mapping(obj, path)
    allowed = _type_list(obj, "allowed_types", path)
    return Trip(
        id=_str(obj, "id", path),
        origin=_str(obj, "origin", path),
        destination=_str(obj, "destination", path),
        depart=_int(obj, "depart", path),
        arrive=_int(obj, "arrive", path),
        passengers=_int(obj, "passengers", path, 0),
        bicycles=_int(obj, "bicycles", path, 0),
        couplable=_bool(obj, "couplable", path, False),
        allowed_types=allowed,
        distance=_frac(obj, "distance", path, 1),
        obligatory=_bool(obj, "obligatory", path, True),
        driver_depot=(None if obj.get("driver_depot") is None
                      else _str(obj, "driver_depot", path)),
        **{name: None if obj.get(name) is None else _int(obj, name, path)
           for name in _TOLERANCES},
    )


def _parse_emu_type(obj: Any, path: str) -> EmuType:
    obj = _mapping(obj, path)
    return EmuType(
        id=_str(obj, "id", path),
        seats=_int(obj, "seats", path),
        bike_slots=_int(obj, "bike_slots", path, 0),
        cost_per_km=_frac(obj, "cost_per_km", path, 1),
        couplable=_bool(obj, "couplable", path, False),
    )


def _parse_depot(obj: Any, path: str) -> Depot:
    obj = _mapping(obj, path)
    return Depot(
        id=_str(obj, "id", path),
        station=_str(obj, "station", path),
        out_min=_type_bounds(obj, "out_min", path, {}),
        out_max=_type_bounds(obj, "out_max", path),
        in_min=None if obj.get("in_min") is None else _type_bounds(obj, "in_min", path),
        in_max=None if obj.get("in_max") is None else _type_bounds(obj, "in_max", path),
    )


def _parse_window(obj: Any, path: str) -> DriverWindow:
    obj = _mapping(obj, path)
    return DriverWindow(
        depot=_str(obj, "depot", path),
        at=_int(obj, "at", path),
        min_drivers=_int(obj, "min_drivers", path, 0),
        max_drivers=_int(obj, "max_drivers", path),
        license=(None if obj.get("license") is None
                 else _str(obj, "license", path)),
    )


def loads_instance(text: str) -> Instance:
    """Parse an instance from JSON text. See :func:`load_instance`."""
    try:
        data = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise InstanceError("/", f"invalid JSON: {exc}") from exc
    if not isinstance(data, Mapping):
        raise InstanceError("/", "top level must be a JSON object")

    tol = _mapping(data.get("tolerances", {}), "/tolerances")

    def seq(key: str) -> list:
        value = data.get(key, [])
        if not isinstance(value, list):
            raise InstanceError(f"/{key}", "expected a list")
        return value

    listed = _mapping(data.get("licenses", {}), "/licenses")
    licenses = {str(k): _type_list(listed, k, "/licenses") for k in listed}

    return Instance(
        trips=tuple(_parse_trip(t, f"/trips/{i}") for i, t in enumerate(seq("trips"))),
        emu_types=tuple(_parse_emu_type(r, f"/emu_types/{i}")
                        for i, r in enumerate(seq("emu_types"))),
        depots=tuple(_parse_depot(d, f"/depots/{i}")
                     for i, d in enumerate(seq("depots"))),
        driver_windows=tuple(_parse_window(w, f"/driver_windows/{i}")
                             for i, w in enumerate(seq("driver_windows"))),
        delta_min=_int(data, "delta_min", ""),
        delta_max=_int(data, "delta_max", ""),
        **{name: _int(tol, key, "/tolerances", 0)
           for key, name in _TOLERANCE_KEYS.items()},
        alpha=_frac(data, "alpha", "", 0),
        licenses=licenses,
        meta=dict(_mapping(data.get("meta", {}), "/meta")),
    )


def load_instance(source: Union[str, IO[bytes], IO[str]]) -> Instance:
    """Load and validate an instance from a path or an open stream.

    Raises :class:`InstanceError` with a JSON-pointer-style path on any
    schema violation, dangling reference or invariant breach.
    """
    if isinstance(source, str):
        with open(source, "rb") as fh:
            raw = fh.read()
    else:
        raw = source.read()
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    return loads_instance(raw)


def exact_number(value: Rational) -> Union[int, float, str]:
    """A rational as an int, a float or ``"n/d"`` text, whichever is exact;
    both the JSON value and its ``str()`` parse back to the same number."""
    if value.denominator == 1:
        return value.numerator
    try:
        as_float = float(value)
        # the text's exact decimal value, both in lowest terms
        if Decimal(str(as_float)).as_integer_ratio() == (value.numerator, value.denominator):
            return as_float
    except OverflowError:  # beyond the float range
        pass
    return f"{value.numerator}/{value.denominator}"


def _meta_json(value: Any) -> Any:
    """``meta`` as JSON values: loaded numbers are Fractions, at any depth."""
    if isinstance(value, Fraction):
        return exact_number(value)
    if isinstance(value, Mapping):
        return {key: _meta_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_meta_json(item) for item in value]
    return value


def serialize_instance(inst: Instance) -> str:
    """Inverse of :func:`loads_instance`: deterministic, round-trip exact."""
    def trip(t: Trip) -> dict:
        obj: dict[str, Any] = {
            "id": t.id, "origin": t.origin, "destination": t.destination,
            "depart": t.depart, "arrive": t.arrive,
            "passengers": t.passengers, "bicycles": t.bicycles,
            "couplable": t.couplable,
            "allowed_types": sorted(t.allowed_types),
            "distance": exact_number(t.distance), "obligatory": t.obligatory,
        }
        if t.driver_depot is not None:
            obj["driver_depot"] = t.driver_depot
        for name in _TOLERANCES:
            if getattr(t, name) is not None:
                obj[name] = getattr(t, name)
        return obj

    def emu(r: EmuType) -> dict:
        return {"id": r.id, "seats": r.seats, "bike_slots": r.bike_slots,
                "cost_per_km": exact_number(r.cost_per_km), "couplable": r.couplable}

    def depot(d: Depot) -> dict:
        obj: dict[str, Any] = {"id": d.id, "station": d.station,
                               "out_min": dict(sorted(d.out_min.items())),
                               "out_max": dict(sorted(d.out_max.items()))}
        if d.in_max is not None:
            obj["in_min"] = dict(sorted((d.in_min or {}).items()))
            obj["in_max"] = dict(sorted(d.in_max.items()))
        return obj

    def window(w: DriverWindow) -> dict:
        obj: dict[str, Any] = {"depot": w.depot, "at": w.at,
                               "min_drivers": w.min_drivers,
                               "max_drivers": w.max_drivers}
        if w.license is not None:
            obj["license"] = w.license
        return obj

    data: dict[str, Any] = {
        "meta": _meta_json(inst.meta),
        "alpha": exact_number(inst.alpha),
        "delta_min": inst.delta_min,
        "delta_max": inst.delta_max,
        "tolerances": {key: getattr(inst, name)
                       for key, name in _TOLERANCE_KEYS.items()},
        "emu_types": [emu(r) for r in inst.emu_types],
        "depots": [depot(d) for d in inst.depots],
        "trips": [trip(t) for t in inst.trips],
        "driver_windows": [window(w) for w in inst.driver_windows],
    }
    if inst.licenses:
        data["licenses"] = {k: sorted(v) for k, v in sorted(inst.licenses.items())}
    return json.dumps(data, indent=2, sort_keys=False) + "\n"
