"""The synthetic generator's output, pinned byte for byte.

``DIGESTS`` holds the sha256 of ``serialize_instance`` for a table of
configs and seeds: one trip, odd and even counts, open corridors (no
return bounds), 1 to 8 depots, 1 to 11 types, non-default fills, legs and
turnaround limits, and the paper's scale (404 trips, 11 types, 80
couplable, 4 depots). Any change to the random draw order, the rotation
rule or a trip field changes a digest. The other tests pin the
generator's rules one at a time.
"""

import dataclasses
import hashlib
import math
import re
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from rollstock.generate import (GeneratorConfig, GeneratorError, _plan_rotations,
                                generate_synthetic)
from rollstock.model import serialize_instance

DIGESTS = [
    (dict(n_trips=1), 0,
     "e3de90a61433c681f78a418bcf3feaf4eaeca6ee2fc488fa7e4dc0a7b7fe5c53"),
    (dict(n_trips=1, with_return_bounds=False), 3,
     "9e932c9fc59d42d53846692dfa26507ad291275dfaf13c77a0a756f22dff1a14"),
    (dict(n_trips=2), 1,
     "6da894baa9d4a5a14a4281cb70a24c3e59812ebfefd6fcd8a0af2f67098552d2"),
    (dict(n_trips=13, n_couplable=3, n_types=3, n_depots=2), 5,
     "dc4f3fe6c6fada3b3b484079486a07181dca23a1bfd86ce3db33d7805bea1a18"),
    (dict(n_trips=40, n_couplable=8, n_types=3, n_depots=4), 40,
     "56031f78dfa172c9b5d257e15cf14f21044fe963de6370c1017faf9ce8425cdf"),
    (dict(n_trips=21, n_couplable=4, n_types=2, n_depots=3,
          with_return_bounds=False), 7,
     "7205d70069a48f77e852f3240b8df7c40b4b4c8a8d594bdf2c79ef05fc87c438"),
    (dict(n_trips=60, n_couplable=12, n_types=3, n_depots=2,
          with_return_bounds=False), 60,
     "f7f7944095d969d62b01439a48cae4f87c1d94ecb27766908e915b430b82c933"),
    (dict(n_trips=30, n_depots=1, n_types=1), 7,
     "aecd5dbb86e87e1c18b110cc64c45e4cc9d7a469c64466baf910502c8bcc4e6b"),
    # more depots than rotations: the idle ones get a bound of 1 and no windows
    (dict(n_trips=5, n_depots=8, n_types=3), 2,
     "2868feb179218c79752cdabc333ac23afc228f1aaea4929f1d735a225d9f16b6"),
    (dict(n_trips=120, n_couplable=24, n_depots=8, n_types=11), 120,
     "5d81e251118fcf6cb83ae8adb7fc6647967d5b974299b9b7ea2b377215f8ee89"),
    (dict(n_trips=31, n_couplable=6, n_types=3, demand_fill=(0.1, 0.5),
          bike_fill=(0.2, 0.8), cross_type_prob=0.7), 31,
     "f625db18029da1b72bcc2f00a3d6bce8624fd0ac41acdd8d9aa3f5bf50fbbd59"),
    (dict(n_trips=24, n_types=11, cross_type_prob=0.0), 4,
     "96ed232c8ed9efa04fd7ca7974be192b6f1ca70a3cb904337bfe24d82814328b"),
    (dict(n_trips=50, n_types=3, n_depots=2, delta_min=0, delta_max=10,
          rotation_legs=(2, 2)), 9,
     "b9f2e956435019d6dc7f98ec3422deccd8c3054d0c4f75dca9f252a8a9a6f539"),
    (dict(n_trips=45, n_types=2, n_depots=3, rotation_legs=(6, 12),
          alpha=0.25, name="named"), 45,
     "24e1c464fed9fcc24190784309bff154927c02af30f5f645b0f236c05bbaed2f"),
    # the paper rung
    (dict(n_trips=404, n_couplable=80, n_types=11, n_depots=4), 404,
     "749ab5bf3bbd8de3f268fc5b0e5878d29f73cff1906b39dd448233d3d8e3cd79"),
]


@pytest.mark.parametrize("config,seed,digest", DIGESTS,
                         ids=[f"{i}-T{c['n_trips']}" for i, (c, _, _) in enumerate(DIGESTS)])
def test_serialization_digest(config, seed, digest):
    text = serialize_instance(generate_synthetic(GeneratorConfig(**config), seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def rotation_lengths(inst) -> list[int]:
    """Leg counts per rotation of an open-corridor instance, in trip order:
    each rotation there has a far station of its own."""
    legs = defaultdict(int)
    for trip in inst.trips:
        legs[trip.destination if trip.origin.startswith("D") else trip.origin] += 1
    return list(legs.values())


@pytest.mark.parametrize("seed", range(10))
def test_odd_lower_leg_bound_draws_no_shorter_rotation(seed):
    cfg = GeneratorConfig(n_trips=60, rotation_legs=(3, 9), with_return_bounds=False)
    lengths = rotation_lengths(generate_synthetic(cfg, seed))
    assert sum(lengths) == 60
    # the last rotation is cut to the trips that are left
    assert all(n in (4, 6, 8) for n in lengths[:-1]), lengths


@pytest.mark.parametrize("legs", [(3, 3), (5, 5), (4, 3), (1, 1), (0, 8)])
def test_leg_range_without_an_even_count_of_two_or_more_is_rejected(legs):
    with pytest.raises(GeneratorError, match="rotation_legs"):
        GeneratorConfig(n_trips=10, rotation_legs=legs)


@pytest.mark.parametrize("changes", [dict(n_trips=0), dict(n_couplable=11),
                                     dict(n_depots=0), dict(n_types=0),
                                     dict(delta_min=61), dict(delta_min=-1)])
def test_config_is_valid_where_it_is_built(changes):
    valid = GeneratorConfig(n_trips=10)
    with pytest.raises(GeneratorError):
        GeneratorConfig(**{"n_trips": 10, **changes})
    with pytest.raises(GeneratorError):
        dataclasses.replace(valid, **changes)


@pytest.mark.parametrize("seed", range(4))
def test_late_single_leg_follows_the_day_at_its_rotations_depot(seed):
    config = dict(n_trips=23, n_types=2, n_depots=3)
    late_rotation = len(rotation_lengths(generate_synthetic(
        GeneratorConfig(**config, with_return_bounds=False), seed))) - 1
    for open_corridors in (False, True):
        cfg = GeneratorConfig(**config, with_return_bounds=not open_corridors)
        *day, late = generate_synthetic(cfg, seed).trips
        assert late.depart == max(t.arrive for t in day) + cfg.delta_max + 10
        depot = late_rotation % 3
        corridor = late_rotation if open_corridors else depot
        assert (late.origin, late.destination) == (f"D{depot}", f"F{corridor}")
        assert late.driver_depot == f"dep{depot}"
        assert f"r{late_rotation % 2 + 1}" in late.allowed_types


@pytest.mark.parametrize("changes", [
    dict(demand_fill=(-1, -0.5)), dict(demand_fill=(0.9, 0.2)),
    dict(demand_fill=(math.nan, 0.5)), dict(demand_fill=(0.1, math.inf)),
    dict(bike_fill=(0.5, 0.1)), dict(bike_fill=(-0.1, 0.2)), dict(bike_fill=(0, math.nan)),
    dict(cross_type_prob=1.5), dict(cross_type_prob=-0.1), dict(cross_type_prob=math.nan)])
def test_fill_and_probability_are_checked_where_the_config_is_built(changes):
    # these once passed, then failed inside Instance (a negative demand),
    # in numpy (high < low) or not at all (a probability of 1.5)
    name = next(iter(changes))
    with pytest.raises(GeneratorError, match=name):
        GeneratorConfig(n_trips=4, **changes)
    with pytest.raises(GeneratorError, match=name):
        dataclasses.replace(GeneratorConfig(n_trips=4), **changes)


def test_fills_above_one_are_overcrowding_and_stay_legal():
    cfg = GeneratorConfig(n_trips=4, demand_fill=(1.2, 1.5), bike_fill=(0.5, 2.0),
                          cross_type_prob=1.0)
    inst = generate_synthetic(cfg, 0)
    seats = {e.id: e.seats for e in inst.emu_types}
    assert all(t.passengers >= 1.2 * seats["r1"] - 1 for t in inst.trips)


def test_last_rotation_is_cut_to_the_trips_left():
    # kept on purpose: drawing the last rotation again would change every
    # generated day and every recorded digest
    cfg = GeneratorConfig(n_trips=100, with_return_bounds=False)
    last = []
    for seed in range(20):
        *rest, end = rotation_lengths(generate_synthetic(cfg, seed))
        assert all(n in (4, 6, 8) for n in rest)
        last.append(end)
    assert [seed for seed, n in enumerate(last) if n == 2] == [8, 9, 11, 18]


def scalar_demands(rng, cfg, emu_types, rotations):
    """Each trip's (passengers, bicycles, allowed types) drawn one double at
    a time, the way the demand pass drew them before its one call: per trip
    the cross-type draws in type order without its own type, then the
    demand fill, then the bicycle fill."""
    out = []
    for rot in rotations:
        own = emu_types[rot % cfg.n_types]
        allowed = {own.id}
        for other in emu_types:
            if other.id != own.id and rng.random() < cfg.cross_type_prob:
                allowed.add(other.id)
        passengers = int(rng.uniform(*cfg.demand_fill) * own.seats)
        bicycles = int(rng.uniform(*cfg.bike_fill) * own.bike_slots)
        out.append((passengers, bicycles, frozenset(allowed)))
    return out


@pytest.mark.parametrize("n_types", [1, 3, 11])
@pytest.mark.parametrize("cross_type_prob", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n_trips,seed,bike_fill", [(41, 3, (0.0, 0.0)),
                                                    (17, 8, (0.25, 0.9)),
                                                    (100, 4001, (0.1, 0.2))])
def test_one_call_demand_draws_equal_the_scalar_loop(monkeypatch, n_types, cross_type_prob,
                                                    n_trips, seed, bike_fill):
    made, before = [], []

    class Recording(np.random.Generator):
        """Keeps itself and its state before each ``random`` call."""

        def __init__(self, bit_generator):
            super().__init__(bit_generator)
            made.append(self)

        def random(self, *args, **kwargs):
            before.append(self.bit_generator.state)
            return super().random(*args, **kwargs)

    cfg = GeneratorConfig(n_trips=n_trips, n_couplable=n_trips // 5, n_types=n_types,
                          n_depots=4, bike_fill=bike_fill, cross_type_prob=cross_type_prob)
    monkeypatch.setattr(np.random, "default_rng", Recording)
    inst = generate_synthetic(cfg, seed)
    monkeypatch.undo()
    assert len(made) == 1 and len(before) == 1  # the demand pass is one call

    counts = _plan_rotations(cfg, np.random.default_rng(np.random.PCG64(seed)))
    rotations = [rot for rot, n in enumerate(counts) for _ in range(n)]
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = before[0]
    want = scalar_demands(rng, cfg, inst.emu_types, rotations)
    assert [(t.passengers, t.bicycles, t.allowed_types) for t in inst.trips] == want
    assert made[0].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("name,value", [
    ("n_trips", 10.0), ("n_trips", True), ("n_couplable", 2.5), ("n_couplable", False),
    ("n_depots", 2.0), ("n_types", True), ("n_types", Fraction(2)),
    ("delta_min", 5.5), ("delta_max", 60.0), ("delta_max", "60")])
def test_config_counts_must_be_ints(name, value):
    # these once gave a day that loads_instance refused (delta_min=5.5), a
    # TypeError deep inside (n_trips=10.0) or a 1-trip day (n_trips=True)
    changes = {"n_trips": 10, name: value}
    with pytest.raises(GeneratorError, match=re.escape(f"{name} must be an int, got {value!r}")):
        GeneratorConfig(**changes)
    with pytest.raises(GeneratorError, match=re.escape(f"{name} must be an int")):
        dataclasses.replace(GeneratorConfig(n_trips=10), **{name: value})


@pytest.mark.parametrize("legs,bad", [((4.0, 8), "rotation_legs[0] must be an int, got 4.0"),
                                      ((4, True), "rotation_legs[1] must be an int, got True"),
                                      ((4, 7.5), "rotation_legs[1] must be an int, got 7.5")])
def test_rotation_leg_bounds_must_be_ints(legs, bad):
    with pytest.raises(GeneratorError, match=re.escape(bad)):
        GeneratorConfig(n_trips=10, rotation_legs=legs)


def test_numpy_int_counts_give_the_same_day_as_python_ints():
    config = dict(n_trips=31, n_couplable=6, n_types=3, n_depots=2, delta_min=4,
                  delta_max=50, rotation_legs=(2, 6))
    as_numpy = GeneratorConfig(**{k: np.asarray(v, dtype=np.int64)[()] if isinstance(v, int)
                                  else tuple(np.int32(x) for x in v)
                                  for k, v in config.items()})
    assert as_numpy == GeneratorConfig(**config)
    assert (serialize_instance(generate_synthetic(as_numpy, 31))
            == serialize_instance(generate_synthetic(GeneratorConfig(**config), 31)))
