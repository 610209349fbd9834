"""Frozen value objects built in one step.

``Node``, ``HyperArc``, ``ConstraintRow`` and ``Trip`` keep
``@dataclass(frozen=True)`` but ``model._one_step`` gives each an
``__init__`` that fills the instance dict in one update instead of one
``object.__setattr__`` per field. Each ``__init__`` must take the dataclass
fields in order with their defaults, resolve its type hints, belong to its
class's module and name its class in its errors, and the instances must
behave as those of the generated ``__init__`` do: compared, hashed,
printed, pickled and replaced alike, and still frozen.
"""

import dataclasses
import inspect
import pickle
import typing
from fractions import Fraction

import pytest

from rollstock.ilp import ConstraintRow
from rollstock.model import Trip
from rollstock.netbuild import HyperArc, Node

# one instance per class, built positionally from every field
SAMPLES = [
    (Node, ("trip:t1", "trip", "t1", None)),
    (HyperArc, (3, "decouple", ("trip:a",), ("trip:b", "trip:c"), "r1", 1, 2,
                Fraction(7, 3))),
    (ConstraintRow, ("driver", ((0, 1), (4, 2)), "range", 0, 1, 5, "driver[d,600]")),
    (Trip, ("t1", "A", "B", 480, 540, 70, 2, True, frozenset({"r1"}), Fraction(5, 2),
            False, "dep", 1, 2, 3, 4)),
]
CLASSES = [cls for cls, _ in SAMPLES]


def generated_twin(cls):
    """The same frozen dataclass with the ``__init__`` dataclass generates."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(default=f.default,
                                            default_factory=f.default_factory))
         for f in dataclasses.fields(cls)],
        frozen=True)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_init_takes_the_fields_in_order_with_their_defaults(cls):
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    fields = dataclasses.fields(cls)
    assert [p.name for p in params] == [f.name for f in fields]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    for p, f in zip(params, fields):
        want = inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        assert p.default == want and type(p.default) is type(want), f.name
    # the same annotations as well
    assert params == list(inspect.signature(generated_twin(cls)).parameters.values())


@pytest.mark.parametrize("cls,args", SAMPLES, ids=lambda v: getattr(v, "__name__", ""))
def test_instances_behave_as_generated_ones(cls, args):
    obj, twin = cls(*args), generated_twin(cls)(*args)
    names = [f.name for f in dataclasses.fields(cls)]
    assert obj.__dict__ == twin.__dict__
    assert list(obj.__dict__) == names
    assert repr(obj) == repr(twin)
    assert hash(obj) == hash(twin)
    assert obj == cls(*args) and obj is not cls(*args)
    assert obj == cls(**dict(zip(names, args)))
    assert len({obj, cls(*args)}) == 1
    assert pickle.loads(pickle.dumps(obj)) == obj
    for name in names + ["extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, names[0])
    changed = dataclasses.replace(obj, **{names[0]: args[1]})
    assert type(changed) is cls and changed != obj
    assert getattr(changed, names[0]) == args[1]
    assert dataclasses.astuple(changed)[1:] == dataclasses.astuple(obj)[1:]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_defaults_fill_omitted_fields(cls):
    fields = dataclasses.fields(cls)
    required = [f for f in fields if f.default is dataclasses.MISSING]
    args = dict(zip((f.name for f in required), dict(SAMPLES)[cls]))
    obj = cls(**args)
    for f in fields:
        assert getattr(obj, f.name) == args.get(f.name, f.default), f.name


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_init_resolves_the_type_hints_of_its_class(cls):
    assert typing.get_type_hints(cls.__init__) == typing.get_type_hints(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_init_belongs_to_the_module_of_its_class(cls):
    assert cls.__init__.__module__ == cls.__module__


@pytest.mark.parametrize("cls,args", SAMPLES, ids=lambda v: getattr(v, "__name__", ""))
def test_init_errors_name_the_class(cls, args):
    for bad in (lambda: cls(*args[:1]), lambda: cls(*args, unknown=1)):
        with pytest.raises(TypeError) as caught:
            bad()
        assert str(caught.value).startswith(f"{cls.__qualname__}.__init__()")
