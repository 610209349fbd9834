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

The file format is declared once, in one field table per record
(``_EMU_TYPE``, ``_DEPOT``, ``_TRIP``, ``_WINDOW``): each field's JSON key,
which is also its attribute, its reader, its default and how it is written
back. ``loads_instance`` reads and ``serialize_instance`` writes every
record through its table; docs/instance-format.md lists the same keys.

``serialize_instance``'s text is ``json.dumps(data, indent=2)`` of the
instance's JSON data, byte for byte, and tests/test_json_writer.py checks
that equality; it is written by ``_json_text`` and ``_json_records``, not by
``json``'s indented encoder, which is pure Python. Each record's fields
go out straight from its table, with no dict built per record.

Errors carry a JSON-pointer path, formatted only when a check fails: the
field readers take the record's path and the field's key and build
``path/key`` only to raise, and validation formats ``/trips/i/...`` only
for the check that fails. A record's first bad field in table order is the
one reported. ``Trip`` is built in one step (``_one_step``), since a load
builds one per trip.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str  # C code
from numbers import Rational as _Rational
from typing import Any, Callable, IO, Iterator, NamedTuple, Optional, Union

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
        # every finite JSON literal loads as a Fraction; only NaN and
        # Infinity load as floats, and no Fraction holds them
        raise InstanceError(f"{path}/{key}", f"expected a finite number, got {value}")
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InstanceError(f"{path}/{key}", f"not a rational number: {value!r}")
    raise InstanceError(f"{path}/{key}",
                        f"expected a number, got {type(value).__name__}")


def _check_rational(value: Any, *where: Any) -> None:
    """Reject what exact arithmetic downstream cannot use: floats, bools.
    The parts of ``where`` are joined into the JSON path only to raise."""
    if type(value) is Fraction:  # every loaded number: no ABC check
        return
    if isinstance(value, bool) or not isinstance(value, _Rational):
        raise InstanceError("/".join(map(str, where)),
                            f"expected an int or a Fraction, got {value!r}")


def _mapping(value: Any, path: str) -> dict[str, Any]:
    if not isinstance(value, dict):  # json.loads makes every JSON object a dict
        raise InstanceError(path, "expected an object")
    return value


def _type_list(obj: Mapping[str, Any], key: str, path: str, default: Any) -> frozenset[str]:
    value = _present(obj.get(key, default), key, path)
    if not isinstance(value, list):
        raise InstanceError(f"{path}/{key}", "expected a list of type ids")
    for type_id in value:
        if not isinstance(type_id, str) or not type_id:
            raise InstanceError(f"{path}/{key}",
                                f"expected a non-empty string, got {type_id!r}")
    return frozenset(value)


def _int(obj: Mapping[str, Any], key: str, path: str, default: Any) -> int:
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


def _str(obj: Mapping[str, Any], key: str, path: str, default: Any) -> str:
    value = obj.get(key, default)
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


def _one_step(cls: type) -> type:
    """The frozen dataclass ``cls`` with an ``__init__`` that fills the
    instance dict in one update.

    The generated frozen ``__init__`` makes one ``object.__setattr__`` call
    per field, which about doubles the cost of a record (CPython 3.11 on a
    Xeon: 1.3 against 0.7 us for ``HyperArc``'s eight fields, 2.2 against
    0.7 for ``Trip``'s sixteen), and a day makes one ``Trip``, ``Node``,
    ``HyperArc`` or ``ConstraintRow`` per trip, node, arc or row. The new
    ``__init__`` takes the fields in order, with their defaults (``cls``
    has no ``default_factory``) and annotations, and is compiled in
    ``cls``'s module, so its hints resolve there, as ``dataclasses`` does.
    Equality, hashing, ``repr``, ``dataclasses.replace`` and
    ``FrozenInstanceError`` stay the dataclass's own.
    """
    names = [f.name for f in fields(cls)]
    scope: dict[str, Any] = {}
    exec(f"def __init__(self, {', '.join(names)}):\n"
         f"    self.__dict__.update({', '.join(f'{n}={n}' for n in names)})",
         vars(sys.modules[cls.__module__]), scope)
    init = scope["__init__"]
    init.__defaults__ = tuple(f.default for f in fields(cls)
                              if f.default is not MISSING) or None
    init.__annotations__ = {f.name: f.type for f in fields(cls)}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@_one_step
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
        if r.cost_per_km.numerator < 0:
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
        _check_rational(t.distance, "/trips", i, "distance")
        if t.distance.numerator < 0:
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


def _type_bounds(obj: Mapping[str, Any], key: str, path: str, default: Any) -> dict[str, int]:
    bounds = _present(obj.get(key, default), key, path)
    if not isinstance(bounds, dict):
        raise InstanceError(f"{path}/{key}",
                            "expected an object mapping type id -> integer")
    path = f"{path}/{key}"
    return {str(type_id): _int(bounds, type_id, path, _REQUIRED) for type_id in bounds}


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


def _sorted_dict(mapping: Mapping[str, Any]) -> dict[str, Any]:
    return dict(sorted(mapping.items()))


class _Field(NamedTuple):
    """One field of a record, in the record's attribute order. ``key`` is
    both its JSON key and its attribute. The default None makes a field
    optional: absent or null reads as None, and None is not written."""

    key: str
    read: Callable[[Mapping[str, Any], str, str, Any], Any]
    default: Any = _REQUIRED  # or a value, or None
    write: Optional[Callable[[Any], Any]] = None  # None: written as is


# The instance file's records, each declared once for both directions.
_EMU_TYPE = (
    _Field("id", _str),
    _Field("seats", _int), _Field("bike_slots", _int, 0),
    _Field("cost_per_km", _frac, 1, exact_number),
    _Field("couplable", _bool, False),
)
_DEPOT = (
    _Field("id", _str),
    _Field("station", _str),
    _Field("out_min", _type_bounds, {}, _sorted_dict),
    _Field("out_max", _type_bounds, _REQUIRED, _sorted_dict),
    _Field("in_min", _type_bounds, None, _sorted_dict),
    _Field("in_max", _type_bounds, None, _sorted_dict),
)
_TRIP = (
    _Field("id", _str),
    _Field("origin", _str), _Field("destination", _str),
    _Field("depart", _int), _Field("arrive", _int),
    _Field("passengers", _int, 0), _Field("bicycles", _int, 0),
    _Field("couplable", _bool, False),
    _Field("allowed_types", _type_list, _REQUIRED, sorted),
    _Field("distance", _frac, 1, exact_number),
    _Field("obligatory", _bool, True),
    _Field("driver_depot", _str, None),
    *(_Field(name, _int, None) for name in _TOLERANCES),
)
_WINDOW = (
    _Field("depot", _str),
    _Field("at", _int),
    _Field("min_drivers", _int, 0), _Field("max_drivers", _int),
    _Field("license", _str, None),
)


def _records(data: dict[str, Any], key: str, cls: type, fields: tuple) -> Iterator:
    """The JSON list ``data[key]`` as ``cls`` records, each field read in
    turn, so a record's first bad field in ``fields`` order is reported."""
    listed = data.get(key, [])
    if not isinstance(listed, list):
        raise InstanceError(f"/{key}", "expected a list")
    for i, obj in enumerate(listed):
        path = f"/{key}/{i}"
        obj = _mapping(obj, path)
        yield cls(*[None if default is None and obj.get(name) is None
                    else read(obj, name, path, default)
                    for name, read, default, _ in fields])


def loads_instance(text: str) -> Instance:
    """Parse an instance from JSON text. See :func:`load_instance`."""
    try:
        data = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise InstanceError("/", f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceError("/", "top level must be a JSON object")

    tol = _mapping(data.get("tolerances", {}), "/tolerances")
    listed = _mapping(data.get("licenses", {}), "/licenses")
    licenses = {str(k): _type_list(listed, k, "/licenses", _REQUIRED) for k in listed}

    return Instance(
        trips=tuple(_records(data, "trips", Trip, _TRIP)),
        emu_types=tuple(_records(data, "emu_types", EmuType, _EMU_TYPE)),
        depots=tuple(_records(data, "depots", Depot, _DEPOT)),
        driver_windows=tuple(_records(data, "driver_windows", DriverWindow, _WINDOW)),
        delta_min=_int(data, "delta_min", "", _REQUIRED),
        delta_max=_int(data, "delta_max", "", _REQUIRED),
        **{name: _int(tol, key, "/tolerances", 0) for key, name in _TOLERANCE_KEYS.items()},
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


def _meta_json(value: Any) -> Any:
    """``meta`` as JSON values: loaded numbers are Fractions, at any depth."""
    if isinstance(value, Fraction):
        return exact_number(value)
    if isinstance(value, Mapping):
        return {key: _meta_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_meta_json(item) for item in value]
    return value


def _json_text(value: Any, pad: str) -> str:
    """``json.dumps(value, indent=2)`` with each line after the first
    indented by ``pad``, a newline and spaces. Strings, ints, bools and
    non-empty lists, tuples and str-keyed dicts are written here, the rest
    by ``json``: every newline it writes is structural, since strings
    escape control characters."""
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, int):  # bool is an int; json writes int subclasses as ints
        return "true" if value is True else "false" if value is False else int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)) and value:
        return f"[{inner}{(',' + inner).join([_json_text(v, inner) for v in value])}{pad}]"
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        return "{%s%s%s}" % (inner, ("," + inner).join(
            [f"{_json_str(k)}: {_json_text(v, inner)}" for k, v in value.items()]), pad)
    return json.dumps(value, indent=2).replace("\n", pad)


def _json_records(records: tuple, fields: tuple, pad: str) -> str:
    """The text of ``records`` as the JSON list ``_records`` reads back, at
    indent ``pad``: each record's fields in ``fields`` order, each optional
    None left out and each field with a ``write`` converted."""
    inner, field_pad = pad + "  ", pad + "    "
    heads = [(f"{_json_str(key)}: ", key, default is None, write)
             for key, _, default, write in fields]
    texts = []
    for record in records:
        items = []
        for head, key, optional, write in heads:
            value = getattr(record, key)
            if value is None and optional:
                continue
            items.append(head + _json_text(value if write is None else write(value), field_pad))
        texts.append(f"{{{field_pad}{(',' + field_pad).join(items)}{inner}}}")
    return f"[{inner}{(',' + inner).join(texts)}{pad}]" if texts else "[]"


def serialize_instance(inst: Instance) -> str:
    """Inverse of :func:`loads_instance`: deterministic, round-trip exact.
    The text is ``json.dumps(data, indent=2)`` of the instance's JSON data."""
    pad = "\n  "
    items = [
        ("meta", _json_text(_meta_json(inst.meta), pad)),
        ("alpha", _json_text(exact_number(inst.alpha), pad)),
        ("delta_min", _json_text(inst.delta_min, pad)),
        ("delta_max", _json_text(inst.delta_max, pad)),
        ("tolerances", _json_text({key: getattr(inst, name)
                                   for key, name in _TOLERANCE_KEYS.items()}, pad)),
        ("emu_types", _json_records(inst.emu_types, _EMU_TYPE, pad)),
        ("depots", _json_records(inst.depots, _DEPOT, pad)),
        ("trips", _json_records(inst.trips, _TRIP, pad)),
        ("driver_windows", _json_records(inst.driver_windows, _WINDOW, pad)),
    ]
    if inst.licenses:
        items.append(("licenses", _json_text(
            {k: sorted(v) for k, v in sorted(inst.licenses.items())}, pad)))
    return "{%s%s\n}\n" % (pad, ("," + pad).join(f'"{key}": {text}' for key, text in items))
