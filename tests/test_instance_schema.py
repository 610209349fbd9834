"""The instance file format as one schema, declared once per record in
``model``'s field tables: every field survives a serialize/load round trip,
each table is its record's fields in order, and the format document lists
exactly the keys the tables declare."""

import dataclasses
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rollstock import model
from rollstock.model import (Depot, DriverWindow, EmuType, Instance, InstanceError, Trip,
                             loads_instance, serialize_instance)

from conftest import REPO, TOY_PATH

# beyond the float range, so written as "n/d" text
HUGE = Fraction(10 ** 400, 3)

_names = st.text(min_size=1, max_size=5)
_rationals = st.fractions(min_value=0, max_denominator=10 ** 6) | st.just(HUGE)
# meta numbers load as ints or Fractions, so only those that are written as
# ints or floats come back as the same numbers
_meta_numbers = st.builds(lambda n, e: Fraction(n, 10 ** e),
                          st.integers(-10 ** 6, 10 ** 6), st.integers(0, 3))
_meta = st.dictionaries(_names, st.recursive(
    st.none() | st.booleans() | st.integers() | _meta_numbers | _names,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_names, inner, max_size=3),
    max_leaves=8), max_size=4)
_tolerance = st.none() | st.integers(0, 50)


@st.composite
def _bounds(draw, type_ids):
    """``(lo, hi)`` per-type maps with ``0 <= lo <= hi``, keys unsorted."""
    his = {r: draw(st.integers(0, 4)) for r in reversed(type_ids)}
    los = {r: draw(st.integers(0, hi)) for r, hi in his.items() if draw(st.booleans())}
    return los, his


@st.composite
def instances(draw):
    """Valid instances that set every optional field somewhere."""
    type_ids = [f"r{i}" for i in range(draw(st.integers(1, 3)))]
    emu_types = tuple(
        EmuType(id=r, seats=draw(st.integers(1, 500)), bike_slots=draw(st.integers(0, 9)),
                cost_per_km=draw(_rationals), couplable=draw(st.booleans()))
        for r in type_ids)
    depots = []
    for i in range(draw(st.integers(1, 3))):
        out_min, out_max = draw(_bounds(type_ids))
        in_min, in_max = draw(st.none() | _bounds(type_ids)) or (None, None)
        depots.append(Depot(id=f"d{i}", station=draw(_names), out_min=out_min,
                            out_max=out_max, in_min=in_min, in_max=in_max))
    depot_ids = [d.id for d in depots]
    licenses = draw(st.dictionaries(_names, st.frozensets(st.sampled_from(type_ids)),
                                    max_size=2))
    trips = []
    for i in range(draw(st.integers(0, 4))):
        depart = draw(st.integers(0, 1400))
        obligatory = draw(st.booleans())
        trips.append(Trip(
            id=f"t{i}", origin=draw(_names), destination=draw(_names), depart=depart,
            arrive=depart + draw(st.integers(1, 120)), passengers=draw(st.integers(0, 900)),
            bicycles=draw(st.integers(0, 20)), couplable=draw(st.booleans()),
            allowed_types=draw(st.frozensets(st.sampled_from(type_ids),
                                             min_size=1 if obligatory else 0)),
            distance=draw(_rationals), obligatory=obligatory,
            driver_depot=draw(st.none() | st.sampled_from(depot_ids)),
            seat_tolerance_single=draw(_tolerance), seat_tolerance_coupled=draw(_tolerance),
            bike_tolerance_single=draw(_tolerance), bike_tolerance_coupled=draw(_tolerance)))
    windows = []
    for at in draw(st.lists(st.integers(0, 1440), unique=True, max_size=4)):
        most = draw(st.integers(0, 5))
        windows.append(DriverWindow(
            depot=draw(st.sampled_from(depot_ids)), at=at,
            min_drivers=draw(st.integers(0, most)), max_drivers=most,
            license=draw(st.none() | st.sampled_from(type_ids + sorted(licenses)))))
    delta_min = draw(st.integers(0, 30))
    return Instance(
        trips=tuple(trips), emu_types=emu_types, depots=tuple(depots),
        driver_windows=tuple(windows), delta_min=delta_min,
        delta_max=delta_min + draw(st.integers(0, 120)),
        seat_tolerance_single=draw(st.integers(0, 50)),
        seat_tolerance_coupled=draw(st.integers(0, 50)),
        bike_tolerance_single=draw(st.integers(0, 50)),
        bike_tolerance_coupled=draw(st.integers(0, 50)),
        alpha=draw(_rationals), licenses=licenses, meta=draw(_meta))


@settings(max_examples=300, deadline=None)
@given(instances())
def test_serialize_then_load_is_the_identity(inst):
    text = serialize_instance(inst)
    again = loads_instance(text)
    assert again == inst
    assert serialize_instance(again) == text


TABLES = {"emu_types": (EmuType, model._EMU_TYPE), "depots": (Depot, model._DEPOT),
          "trips": (Trip, model._TRIP), "driver_windows": (DriverWindow, model._WINDOW)}


def test_each_field_table_is_its_record_in_attribute_order():
    # the loader builds each record positionally, the writer starts from its
    # attributes: both need the table's keys to be the fields, in order
    for cls, fields in TABLES.values():
        assert [f.key for f in fields] == [f.name for f in dataclasses.fields(cls)]


def _documented_keys(doc, record):
    """The keys of the format document's table under ``## `record[]```."""
    section = doc.split(f"## `{record}[]`\n", 1)[1].split("\n## ", 1)[0]
    cells = [line.split("|")[1] for line in section.splitlines()
             if line.startswith("| `")]
    return {key for cell in cells for key in re.findall(r"`([^`]+)`", cell)}


def test_the_format_document_lists_exactly_the_declared_keys():
    doc = (REPO / "docs" / "instance-format.md").read_text()
    for record, (_, fields) in TABLES.items():
        assert _documented_keys(doc, record) == {f.key for f in fields}, record


def test_a_record_reports_its_first_bad_field_in_table_order():
    data = json.loads(TOY_PATH.read_text())
    data["trips"][0].update(id=5, allowed_types="r1", depart="x")
    with pytest.raises(InstanceError) as err:
        loads_instance(json.dumps(data))
    assert err.value.path == "/trips/0/id"
