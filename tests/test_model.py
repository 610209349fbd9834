import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rollstock.generate import GeneratorConfig, GeneratorError, generate_synthetic
from rollstock.model import (Depot, EmuType, Instance, InstanceError, Trip,
                             loads_instance, serialize_instance)

from conftest import TOY_PATH, small_random_instance


def test_toy_loads_with_expected_shape(toy_instance):
    assert len(toy_instance.obligatory_trips) == 3
    assert len(toy_instance.trips) == 4  # three timetabled + one service
    assert len(toy_instance.emu_types) == 2
    assert len(toy_instance.depots) == 1
    assert len(toy_instance.driver_windows) == 2
    assert toy_instance.alpha == Fraction(1, 100)
    assert toy_instance.delta_min == 10
    assert toy_instance.delta_max == 60
    t4 = toy_instance.trip_by_id("t4")
    assert not t4.obligatory and t4.passengers == 0
    assert toy_instance.trip_by_id("t3").couplable
    assert not toy_instance.type_by_id("r2").couplable


def test_empty_instance_is_valid():
    inst = loads_instance(json.dumps({
        "alpha": 0, "delta_min": 0, "delta_max": 0,
        "emu_types": [{"id": "r1", "seats": 10}],
        "depots": [{"id": "d", "station": "A", "out_max": {"r1": 1}}],
        "trips": [],
    }))
    assert inst.trips == ()
    assert len(inst.depots) == 1


def test_dangling_type_reference_reports_path():
    data = json.loads(TOY_PATH.read_text())
    data["trips"][0]["allowed_types"] = ["r9"]
    with pytest.raises(InstanceError) as err:
        loads_instance(json.dumps(data))
    assert "/trips/0/allowed_types" in str(err.value)
    assert "r9" in str(err.value)


def test_dangling_depot_reference():
    data = json.loads(TOY_PATH.read_text())
    data["driver_windows"][0]["depot"] = "nowhere"
    with pytest.raises(InstanceError) as err:
        loads_instance(json.dumps(data))
    assert "/driver_windows/0/depot" in str(err.value)


def test_negative_delta_min_rejected():
    # a negative minimum turnaround would let a unit depart before it arrived
    data = json.loads(TOY_PATH.read_text())
    data["delta_min"] = -30
    with pytest.raises(InstanceError) as err:
        loads_instance(json.dumps(data))
    assert "/delta_min" in str(err.value)


@pytest.mark.parametrize("mutate,path", [
    (lambda d: d["trips"][0].update(arrive=d["trips"][0]["depart"]),
     "/trips/0/arrive"),
    (lambda d: d["trips"][1].update(passengers=-1), "/trips/1/passengers"),
    (lambda d: d.update(delta_min=999), "/delta_min"),
    (lambda d: d["driver_windows"][0].update(min_drivers=5),
     "/driver_windows/0/min_drivers"),
    (lambda d: d["trips"][0].pop("depart"), "/trips/0/depart"),
    (lambda d: d["emu_types"][0].update(seats=0), "/emu_types/0/seats"),
    # neither a licenses key nor an EMU type id: the window would cover no type
    (lambda d: d["driver_windows"].append(
        {"depot": "depA", "at": 600, "min_drivers": 1, "max_drivers": 3,
         "license": "rX"}), "/driver_windows/2/license"),
    (lambda d: d["depots"].append(dict(d["depots"][0])), "/depots/1/id"),
    (lambda d: d["depots"][0].update(out_min={"r1": 3}), "/depots/0/out_min"),
    (lambda d: d["depots"][0].update(in_min={}, in_max={"rX": 1}), "/depots/0/in_max"),
    (lambda d: d["depots"][0].update(in_min={"r1": 2}, in_max={"r1": 1}),
     "/depots/0/in_min"),
])
def test_invariant_violations_report_paths(mutate, path):
    data = json.loads(TOY_PATH.read_text())
    mutate(data)
    with pytest.raises(InstanceError) as err:
        loads_instance(json.dumps(data))
    assert path in str(err.value)


@pytest.mark.parametrize("mutate,path", [
    (lambda d: d.update(meta=[1]), "/meta"),
    (lambda d: d.update(trips=[5]), "/trips/0"),
    (lambda d: d.update(emu_types=["r1"]), "/emu_types/0"),
    (lambda d: d.update(depots=[None]), "/depots/0"),
    (lambda d: d.update(driver_windows=[[]]), "/driver_windows/0"),
    (lambda d: d.update(licenses={"a": 3}), "/licenses/a"),
    (lambda d: d.update(licenses={"a": "r1"}), "/licenses/a"),
    (lambda d: d.update(licenses=[]), "/licenses"),
    (lambda d: d.update(tolerances=0), "/tolerances"),
])
def test_malformed_containers_report_paths(mutate, path):
    data = json.loads(TOY_PATH.read_text())
    mutate(data)
    with pytest.raises(InstanceError) as err:
        loads_instance(json.dumps(data))
    assert err.value.path == path


def _one_trip_instance(alpha=Fraction(0), distance=Fraction(1),
                       cost_per_km=Fraction(1)):
    return Instance(
        trips=(Trip(id="t", origin="A", destination="B", depart=0, arrive=10,
                    passengers=1, allowed_types=frozenset({"r1"}),
                    distance=distance),),
        emu_types=(EmuType(id="r1", seats=10, cost_per_km=cost_per_km),),
        depots=(Depot(id="d", station="A", out_max={"r1": 1}),),
        alpha=alpha)


@pytest.mark.parametrize("field,value,path", [
    ("alpha", 0.5, "/alpha"),
    ("alpha", True, "/alpha"),
    ("distance", 1.5, "/trips/0/distance"),
    ("cost_per_km", 0.25, "/emu_types/0/cost_per_km"),
    ("cost_per_km", False, "/emu_types/0/cost_per_km"),
])
def test_non_rational_numbers_rejected(field, value, path):
    with pytest.raises(InstanceError) as err:
        _one_trip_instance(**{field: value})
    assert err.value.path == path


def test_generator_float_alpha_is_exact_and_exports():
    from rollstock.ilp import encode_ilp, export_lp
    from rollstock.netbuild import build_hypergraph
    from rollstock.qubo import encode_qubo, export_qubo_coo

    inst = generate_synthetic(GeneratorConfig(n_trips=8, alpha=0.5), 1)
    assert inst.alpha == Fraction(1, 2)
    assert isinstance(inst.alpha, Fraction)
    model = encode_ilp(build_hypergraph(inst), inst)
    assert export_qubo_coo(encode_qubo(model)).startswith("# qubo")
    assert export_lp(model).startswith("\\ Problem")
    assert loads_instance(serialize_instance(inst)) == inst


def test_obligatory_trip_needs_allowed_types():
    with pytest.raises(InstanceError) as err:
        Instance(
            trips=(Trip(id="t", origin="A", destination="B", depart=0,
                        arrive=10, passengers=0, allowed_types=frozenset()),),
            emu_types=(EmuType(id="r1", seats=10),),
            depots=(Depot(id="d", station="A", out_max={"r1": 1}),))
    assert "allowed_types" in str(err.value)


def test_roundtrip_on_toy(toy_instance):
    assert loads_instance(serialize_instance(toy_instance)) == toy_instance


def test_meta_numbers_roundtrip():
    data = json.loads(TOY_PATH.read_text())
    data["meta"] = {"scale": 0.5, "count": 3, "flag": True, "none": None,
                    "nested": {"xs": [0.25, 1, "a", [2.5, False]], "big": 1e-3}}
    inst = loads_instance(json.dumps(data))
    assert inst.meta["scale"] == Fraction(1, 2)
    text = serialize_instance(inst)
    again = loads_instance(text)
    assert again == inst
    assert again.meta == inst.meta
    assert serialize_instance(again) == text
    assert json.loads(text)["meta"]["nested"]["xs"] == [0.25, 1, "a", [2.5, False]]


def test_load_from_open_byte_stream(toy_instance):
    from rollstock.model import load_instance
    with open(TOY_PATH, "rb") as fh:
        assert load_instance(fh) == toy_instance


@pytest.mark.parametrize("seed", range(1, 13))
def test_roundtrip_and_validity_on_generated(seed):
    inst = small_random_instance(seed)
    text = serialize_instance(inst)
    assert loads_instance(text) == inst


def test_fraction_values_survive_roundtrip():
    inst = Instance(
        trips=(Trip(id="t", origin="A", destination="B", depart=0, arrive=10,
                    passengers=1, allowed_types=frozenset({"r1"}),
                    distance=Fraction(1, 3)),),
        emu_types=(EmuType(id="r1", seats=10, cost_per_km=Fraction(7, 3)),),
        depots=(Depot(id="d", station="A", out_max={"r1": 1}),),
        alpha=Fraction(1, 7))
    again = loads_instance(serialize_instance(inst))
    assert again.alpha == Fraction(1, 7)
    assert again.trips[0].distance == Fraction(1, 3)
    assert again.emu_types[0].cost_per_km == Fraction(7, 3)


def test_rational_beyond_float_range_roundtrips():
    # float() of this distance overflows, so it is written as "n/d" text
    data = json.loads(TOY_PATH.read_text())
    data["trips"][0]["distance"] = "1" + "0" * 400 + "/3"
    inst = loads_instance(json.dumps(data))
    text = serialize_instance(inst)
    assert json.loads(text)["trips"][0]["distance"] == "1" + "0" * 400 + "/3"
    assert loads_instance(text) == inst


def test_generator_is_deterministic():
    cfg = GeneratorConfig(n_trips=30, delta_max=60)
    a = serialize_instance(generate_synthetic(cfg, seed=7))
    b = serialize_instance(generate_synthetic(cfg, seed=7))
    assert a == b
    c = serialize_instance(generate_synthetic(cfg, seed=8))
    assert a != c


def test_generator_single_type_single_depot_shape():
    cfg = GeneratorConfig(n_trips=30, n_couplable=0, n_depots=1, n_types=1,
                          delta_min=5, delta_max=60)
    inst = generate_synthetic(cfg, seed=7)
    assert len(inst.trips) == 30
    assert all(t.obligatory for t in inst.trips)
    assert sum(t.couplable for t in inst.trips) == 0
    assert len(inst.emu_types) == 1
    assert len(inst.depots) == 1
    assert inst.delta_max == 60


def test_generator_rejects_degenerate_params():
    with pytest.raises(GeneratorError):
        generate_synthetic(GeneratorConfig(n_trips=0), seed=1)
    with pytest.raises(GeneratorError):
        generate_synthetic(GeneratorConfig(n_trips=3, n_couplable=5), seed=1)
    with pytest.raises(GeneratorError):
        generate_synthetic(GeneratorConfig(n_trips=3, n_depots=0), seed=1)


def test_generator_odd_trip_count():
    inst = generate_synthetic(GeneratorConfig(n_trips=11), seed=3)
    assert len(inst.trips) == 11


def test_driver_depot_defaults():
    inst = loads_instance(TOY_PATH.read_text())
    # single depot: every trip is assigned to it implicitly
    for trip in inst.trips:
        assert inst.driver_depot_of(trip) == "depA"


@pytest.mark.parametrize("field,value,path", [
    ("alpha", "NaN", "/alpha"),
    ("alpha", "Infinity", "/alpha"),
    ("distance", "-Infinity", "/trips/0/distance"),
    ("cost_per_km", "NaN", "/emu_types/0/cost_per_km"),
])
def test_non_finite_numbers_rejected_at_their_path(field, value, path):
    data = json.loads(TOY_PATH.read_text())
    owner = {"alpha": data, "distance": data["trips"][0],
             "cost_per_km": data["emu_types"][0]}[field]
    owner[field] = "@"
    text = json.dumps(data).replace('"@"', value)
    with pytest.raises(InstanceError) as err:
        loads_instance(text)
    assert err.value.path == path


_TOY = json.loads(TOY_PATH.read_text())


def _json_paths(value, path=()):
    """Every position inside a JSON document, as a tuple of keys."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from _json_paths(item, path + (key,))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12)


def _loads_or_instance_error(text):
    try:
        assert isinstance(loads_instance(text), Instance)
    except InstanceError:
        pass


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_arbitrary_json_loads_or_raises_instance_error(doc):
    _loads_or_instance_error(json.dumps(doc))


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(_json_paths(_TOY), key=str)), _json_values)
@example(("alpha",), float("nan"))
def test_toy_with_one_field_replaced_loads_or_raises_instance_error(path, value):
    data = json.loads(json.dumps(_TOY))
    owner = data
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    _loads_or_instance_error(json.dumps(data))


# ---------------------------------------------------------------------------
# Error paths: one record field replaced (or removed, MISSING) in the toy.
# The paths and messages were recorded before the loader formatted a path
# only for the check that fails, and must not change.

MISSING = object()

# (array, index) -> (field, value, message); the path is /array/index/field
RECORD_ERRORS = {
    ("trips", 2): [
        ("id", 5, "expected a non-empty string, got 5"),
        ("id", "", "expected a non-empty string, got ''"),
        ("origin", 5, "expected a non-empty string, got 5"),
        ("destination", "", "expected a non-empty string, got ''"),
        ("depart", "x", "expected an integer, got 'x'"),
        ("arrive", 1.5, "expected an integer, got 3/2"),
        ("passengers", "x", "expected an integer, got 'x'"),
        ("bicycles", True, "expected an integer, got True"),
        ("couplable", 1, "expected a boolean, got 1"),
        ("allowed_types", "r1", "expected a list of type ids"),
        ("allowed_types", [5], "expected a non-empty string, got 5"),
        ("distance", [], "expected a number, got list"),
        ("distance", "abc", "not a rational number: 'abc'"),
        ("distance", "1/0", "not a rational number: '1/0'"),
        ("obligatory", "yes", "expected a boolean, got 'yes'"),
        ("driver_depot", 5, "expected a non-empty string, got 5"),
        ("seat_tolerance_single", "x", "expected an integer, got 'x'"),
        ("seat_tolerance_coupled", 1.5, "expected an integer, got 3/2"),
        ("bike_tolerance_single", True, "expected an integer, got True"),
        ("bike_tolerance_coupled", [], "expected an integer, got []"),
        ("arrive", 100, "arrive must be > depart"),
        ("passengers", -1, "must be >= 0"),
        ("bicycles", -1, "must be >= 0"),
        ("distance", -1, "must be >= 0"),
        ("allowed_types", [], "obligatory trip admits no EMU type"),
        ("allowed_types", ["zz", "ab", "r1"], "unknown EMU type 'ab'"),
        ("seat_tolerance_single", -1, "must be >= 0"),
        ("seat_tolerance_coupled", -2, "must be >= 0"),
        ("bike_tolerance_single", -1, "must be >= 0"),
        ("bike_tolerance_coupled", -1, "must be >= 0"),
        ("driver_depot", "nope", "unknown depot 'nope'"),
        ("id", "t1", "duplicate trip id 't1'"),
        ("id", MISSING, "required field missing"),
        ("origin", MISSING, "required field missing"),
        ("destination", MISSING, "required field missing"),
        ("depart", MISSING, "required field missing"),
        ("arrive", MISSING, "required field missing"),
        ("allowed_types", MISSING, "required field missing"),
    ],
    ("driver_windows", 1): [
        ("depot", 5, "expected a non-empty string, got 5"),
        ("at", "x", "expected an integer, got 'x'"),
        ("min_drivers", "x", "expected an integer, got 'x'"),
        ("max_drivers", 1.5, "expected an integer, got 3/2"),
        ("license", 5, "expected a non-empty string, got 5"),
        ("license", "", "expected a non-empty string, got ''"),
        ("depot", "nope", "unknown depot 'nope'"),
        ("min_drivers", 3, "need 0 <= min_drivers <= max_drivers"),
        ("license", "rX", "unknown license 'rX'"),
        ("at", 485, "duplicate window ('depA', 485, None)"),
        ("depot", MISSING, "required field missing"),
        ("at", MISSING, "required field missing"),
        ("max_drivers", MISSING, "required field missing"),
    ],
    ("emu_types", 1): [
        ("id", 5, "expected a non-empty string, got 5"),
        ("seats", "x", "expected an integer, got 'x'"),
        ("bike_slots", 1.5, "expected an integer, got 3/2"),
        ("cost_per_km", "x", "not a rational number: 'x'"),
        ("couplable", "no", "expected a boolean, got 'no'"),
        ("seats", 0, "must be > 0"),
        ("bike_slots", -1, "must be >= 0"),
        ("cost_per_km", -1, "must be >= 0"),
        ("id", "r1", "duplicate EMU type id 'r1'"),
        ("id", MISSING, "required field missing"),
        ("seats", MISSING, "required field missing"),
    ],
    ("depots", 0): [
        ("id", 5, "expected a non-empty string, got 5"),
        ("station", "", "expected a non-empty string, got ''"),
        ("out_min", [], "expected an object mapping type id -> integer"),
        ("in_min", {"r1": 1}, "in_min and in_max must be given together"),
        ("in_max", 3, "expected an object mapping type id -> integer"),
        ("out_max", {"zz": 1}, "unknown EMU type 'zz'"),
        ("id", MISSING, "required field missing"),
        ("station", MISSING, "required field missing"),
        ("out_max", MISSING, "required field missing"),
    ],
}

# (top-level field or None, record field, value, path, message)
OTHER_ERRORS = [
    (("depots", 0), "out_max", {"r1": "x"}, "/depots/0/out_max/r1",
     "expected an integer, got 'x'"),
    (None, "delta_min", MISSING, "/delta_min", "required field missing"),
    (None, "delta_max", MISSING, "/delta_max", "required field missing"),
    (None, "delta_max", "x", "/delta_max", "expected an integer, got 'x'"),
    (None, "alpha", "x", "/alpha", "not a rational number: 'x'"),
    (None, "alpha", -1, "/alpha", "must be >= 0"),
    (None, "tolerances", {"seat_single": "x"}, "/tolerances/seat_single",
     "expected an integer, got 'x'"),
    # the validator names the JSON key, not the field bike_tolerance_coupled
    (None, "tolerances", {"bike_coupled": -1}, "/tolerances/bike_coupled",
     "must be >= 0"),
    (None, "tolerances", {"seat_single": -1}, "/tolerances/seat_single",
     "must be >= 0"),
    (None, "tolerances", {"seat_coupled": -2}, "/tolerances/seat_coupled",
     "must be >= 0"),
    (None, "tolerances", {"bike_single": -1}, "/tolerances/bike_single",
     "must be >= 0"),
    (None, "trips", {}, "/trips", "expected a list"),
    (None, "licenses", {"L": ["zz", "ab"]}, "/licenses/L", "unknown EMU type 'ab'"),
]

ERROR_CASES = [(record, key, value, f"/{record[0]}/{record[1]}/{key}", message)
               for record, cases in RECORD_ERRORS.items()
               for key, value, message in cases] + OTHER_ERRORS


@pytest.mark.parametrize("record,key,value,path,message", ERROR_CASES,
                         ids=[f"{path}={value!r}" if value is not MISSING
                              else f"{path}-missing"
                              for _, _, value, path, _ in ERROR_CASES])
def test_field_errors_keep_their_paths_and_messages(record, key, value, path,
                                                    message):
    data = json.loads(TOY_PATH.read_text())
    owner = data if record is None else data[record[0]][record[1]]
    if value is MISSING:
        del owner[key]
    else:
        owner[key] = value
    with pytest.raises(InstanceError) as err:
        loads_instance(json.dumps(data))
    assert (err.value.path, err.value.message) == (path, message)


def test_invalid_json_is_an_instance_error_at_the_root():
    with pytest.raises(InstanceError) as err:
        loads_instance("{")
    assert err.value.path == "/"
    assert "invalid JSON" in err.value.message


def test_licenses_and_licensed_windows_roundtrip():
    data = json.loads(TOY_PATH.read_text())
    data["licenses"] = {"L": ["r2", "r1"]}
    data["driver_windows"].append(
        {"depot": "depA", "at": 600, "min_drivers": 0, "max_drivers": 1, "license": "L"})
    inst = loads_instance(json.dumps(data))
    assert inst.licenses == {"L": frozenset({"r1", "r2"})}
    assert inst.driver_windows[-1].license == "L"
    text = serialize_instance(inst)
    again = loads_instance(text)
    assert again == inst
    assert serialize_instance(again) == text


def test_boolean_alpha_is_not_a_number():
    data = json.loads(TOY_PATH.read_text())
    data["alpha"] = True
    with pytest.raises(InstanceError) as err:
        loads_instance(json.dumps(data))
    assert (err.value.path, err.value.message) == ("/alpha", "expected a number")


@pytest.mark.parametrize("value,shown", [("NaN", "nan"), ("-Infinity", "-inf")])
def test_non_finite_alpha_names_its_value(value, shown):
    data = json.loads(TOY_PATH.read_text())
    data["alpha"] = "@"
    with pytest.raises(InstanceError) as err:
        loads_instance(json.dumps(data).replace('"@"', value))
    assert (err.value.path, err.value.message) == ("/alpha", f"expected a finite number, got {shown}")
