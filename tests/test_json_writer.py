"""``serialize_instance`` writes its text without ``json.dumps``, and the
text is still ``json.dumps(data, indent=2)`` of the same data: the value
writer ``_json_text`` equals ``json.dumps`` on any JSON value, the instance
text equals the dict-building reference kept here, and every generated day
survives a load and writes the same text again."""

import enum
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rollstock import model
from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.model import _json_text, load_instance, loads_instance, serialize_instance

from conftest import TOY_PATH
from test_generate import DIGESTS


class Level(enum.IntEnum):
    LOW = 1
    HIGH = -7


_strings = st.text() | st.sampled_from(
    ["", "\x00\x1f\x7f", "line\nbreak\ttab\r", 'quote " and \\ slash', "é ü ß",
     "  ", "\U0001f682 train", "\ud800 lone surrogate"])
_scalars = (st.none() | st.booleans() | st.integers() | st.sampled_from(list(Level))
            | st.floats(allow_nan=True, allow_infinity=True) | _strings)
_keys = _strings | st.integers() | st.floats() | st.booleans() | st.none()
_json_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_strings, inner, max_size=4)
                   | st.dictionaries(_keys, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=500, deadline=None)
@given(_json_values, st.integers(0, 6))
@example([], 0)
@example({}, 2)
@example((), 4)
@example({"a": [1, {2: ()}], "b": {}}, 2)
@example([math.nan, math.inf, -math.inf, Level.HIGH, True, None], 0)
@example({"\n": "\x00", 1.5: [Level.LOW]}, 2)
def test_json_text_is_json_dumps_at_any_indent(value, depth):
    pad = "\n" + " " * depth
    assert _json_text(value, pad) == json.dumps(value, indent=2).replace("\n", pad)


@pytest.mark.parametrize("value", [Fraction(1, 3), {1, 2}, [object()], {"a": {(1, 2): 0}}])
def test_json_text_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _json_text(value, "\n")


def reference_text(inst):
    """The instance text as it was written before the direct writer: each
    record's attributes as a dict, then ``json.dumps(data, indent=2)``."""
    def records(recs, fields):
        special = [(k, d, w) for k, _, d, w in fields if w is not None or d is None]
        objs = [vars(record).copy() for record in recs]
        for obj in objs:
            for key, default, write in special:
                if obj[key] is None and default is None:
                    del obj[key]
                elif write is not None:
                    obj[key] = write(obj[key])
        return objs

    data = {
        "meta": model._meta_json(inst.meta),
        "alpha": model.exact_number(inst.alpha),
        "delta_min": inst.delta_min,
        "delta_max": inst.delta_max,
        "tolerances": {key: getattr(inst, name)
                       for key, name in model._TOLERANCE_KEYS.items()},
        "emu_types": records(inst.emu_types, model._EMU_TYPE),
        "depots": records(inst.depots, model._DEPOT),
        "trips": records(inst.trips, model._TRIP),
        "driver_windows": records(inst.driver_windows, model._WINDOW),
    }
    if inst.licenses:
        data["licenses"] = {k: sorted(v) for k, v in sorted(inst.licenses.items())}
    return json.dumps(data, indent=2, sort_keys=False) + "\n"


@pytest.mark.parametrize("config,seed", [(c, s) for c, s, _ in DIGESTS],
                         ids=[f"{i}-T{c['n_trips']}" for i, (c, _, _) in enumerate(DIGESTS)])
def test_generated_day_text_equals_the_json_dumps_reference(config, seed):
    inst = generate_synthetic(GeneratorConfig(**config), seed)
    assert serialize_instance(inst) == reference_text(inst)


def test_toy_text_equals_the_json_dumps_reference():
    inst = load_instance(str(TOY_PATH))
    assert serialize_instance(inst) == reference_text(inst)


def test_optional_fields_licenses_and_odd_meta_equal_the_reference():
    toy = load_instance(str(TOY_PATH))
    trips = [model.Trip(**{**vars(t), "seat_tolerance_single": 3, "driver_depot": None})
             for t in toy.trips]
    inst = model.Instance(**{**{f: getattr(toy, f) for f in (
        "emu_types", "depots", "driver_windows", "delta_min", "delta_max", "alpha")},
        "trips": tuple(trips), "licenses": {"L": frozenset({"r1"})},
        "meta": {"n": Fraction(1, 3), "list": [], "map": {}, "nested": [{"x": None}],
                 "text": "é\n", "big": 10 ** 30}})
    assert serialize_instance(inst) == reference_text(inst)


@st.composite
def generator_configs(draw):
    n_trips = draw(st.integers(1, 60))
    lo_legs = draw(st.integers(2, 8))
    fill = sorted(draw(st.lists(st.floats(0, 1.5), min_size=2, max_size=2)))
    bike = sorted(draw(st.lists(st.floats(0, 1), min_size=2, max_size=2)))
    delta_min = draw(st.integers(0, 30))
    return GeneratorConfig(
        n_trips=n_trips, n_couplable=draw(st.integers(0, n_trips)),
        n_depots=draw(st.integers(1, 4)), n_types=draw(st.integers(1, 4)),
        delta_min=delta_min, delta_max=draw(st.integers(delta_min, 90)),
        rotation_legs=(lo_legs, draw(st.integers(lo_legs + lo_legs % 2, 12))),
        demand_fill=tuple(fill), bike_fill=tuple(bike),
        cross_type_prob=draw(st.floats(0, 1)),
        with_return_bounds=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(generator_configs(), st.integers(0, 2 ** 32))
def test_generated_day_round_trips_through_its_text(cfg, seed):
    inst = generate_synthetic(cfg, seed)
    text = serialize_instance(inst)
    back = loads_instance(text)
    assert back == inst
    assert serialize_instance(back) == text
