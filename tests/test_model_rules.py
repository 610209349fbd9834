"""Each instance rule is decided in one place, so an error names its own
field and the same culprit on every run.

An undeclared EMU type in any of a depot's four bound maps is reported at
that map's path and names the least undeclared id; a bound pair broken for
several types names the first of them in ``emu_types`` order, whatever the
interpreter's string hash seed.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rollstock
from rollstock.model import Depot, EmuType, Instance, InstanceError, Trip, loads_instance

from conftest import TOY_PATH

SRC = Path(rollstock.__file__).resolve().parent.parent


def toy_with_depot(**bounds):
    """The toy instance's text with its depot's bound maps updated."""
    data = json.loads(TOY_PATH.read_text())
    data["depots"][0].update(bounds)
    return json.dumps(data)


def error_of(text):
    with pytest.raises(InstanceError) as err:
        loads_instance(text)
    return err.value.path, err.value.message


def test_unknown_type_in_in_min_is_reported_at_in_min():
    text = toy_with_depot(in_min={"zz": 0}, in_max={"r1": 1})
    assert error_of(text) == ("/depots/0/in_min", "unknown EMU type 'zz'")


VALID_MAPS = {"out_min": {}, "out_max": {"r1": 2, "r2": 1},
              "in_min": {}, "in_max": {"r1": 2, "r2": 1}}


@pytest.mark.parametrize("key", list(VALID_MAPS))
def test_a_depot_map_names_its_least_unknown_type_at_its_own_path(key):
    text = toy_with_depot(**{**VALID_MAPS, key: {"zz": 0, "aa": 0}})
    assert error_of(text) == (f"/depots/0/{key}", "unknown EMU type 'aa'")


def test_unknown_types_in_both_return_maps_are_reported_at_in_min_first():
    text = toy_with_depot(in_min={"zz": 0}, in_max={"yy": 1})
    assert error_of(text) == ("/depots/0/in_min", "unknown EMU type 'zz'")


BROKEN_PAIRS = {
    "out": (dict(out_min={"r1": 3, "r2": 2}, out_max={"r1": 2, "r2": 1}),
            "/depots/0/out_min: need 0 <= out_min <= out_max for type 'r1'"),
    "in": (dict(in_min={"r1": 3, "r2": 2}, in_max={"r1": 2, "r2": 1}),
           "/depots/0/in_min: need 0 <= in_min <= in_max for type 'r1'"),
}

REPORT = """\
import sys
from rollstock.model import InstanceError, loads_instance
try:
    loads_instance(sys.stdin.read())
except InstanceError as err:
    print(err)
"""


@pytest.mark.parametrize("pair", list(BROKEN_PAIRS))
def test_a_pair_broken_for_both_types_names_the_first_declared_under_any_hash_seed(pair):
    bounds, expected = BROKEN_PAIRS[pair]
    text = toy_with_depot(**bounds)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    outputs = set()
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", REPORT], input=text, env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(done.stdout)
    assert outputs == {expected + "\n"}


def test_a_pair_broken_for_both_types_names_the_first_declared_in_process():
    # declared r2 first: the named type follows emu_types, not the id order
    data = json.loads(toy_with_depot(**BROKEN_PAIRS["out"][0]))
    data["emu_types"].reverse()
    assert error_of(json.dumps(data)) == (
        "/depots/0/out_min", "need 0 <= out_min <= out_max for type 'r2'")


def test_a_pairing_error_is_reported_before_a_broken_dispatch_bound():
    text = toy_with_depot(out_min={"r1": 3}, in_min={"r1": 0})
    assert error_of(text) == ("/depots/0/in_min",
                              "in_min and in_max must be given together")


def one_trip_instance(alpha=0, distance=1, cost_per_km=1):
    return Instance(
        trips=(Trip(id="t", origin="A", destination="B", depart=0, arrive=10,
                    passengers=1, allowed_types=frozenset({"r1"}),
                    distance=distance),),
        emu_types=(EmuType(id="r1", seats=10, cost_per_km=cost_per_km),),
        depots=(Depot(id="d", station="A", out_max={"r1": 1}),),
        alpha=alpha)


@pytest.mark.parametrize("field,path", [("alpha", "/alpha"),
                                        ("distance", "/trips/0/distance"),
                                        ("cost_per_km", "/emu_types/0/cost_per_km")])
@pytest.mark.parametrize("value", [-1, Fraction(-1, 3)])
def test_every_amount_refuses_a_negative_int_or_fraction_at_its_path(field, path, value):
    with pytest.raises(InstanceError) as err:
        one_trip_instance(**{field: value})
    assert (err.value.path, err.value.message) == (path, "must be >= 0")
