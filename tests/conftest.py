import math
import pathlib
from fractions import Fraction

import pytest

from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import encode_ilp
from rollstock.model import load_instance
from rollstock.netbuild import build_hypergraph
from rollstock.qubo import DEFAULT_LAMBDAS, Couplings, QuboModel, encode_qubo

REPO = pathlib.Path(__file__).resolve().parent.parent
TOY_PATH = REPO / "instances" / "toy.json"


@pytest.fixture(scope="session")
def toy_instance():
    return load_instance(str(TOY_PATH))


@pytest.fixture(scope="session")
def toy_graph(toy_instance):
    return build_hypergraph(toy_instance)


@pytest.fixture(scope="session")
def toy_ilp(toy_graph, toy_instance):
    return encode_ilp(toy_graph, toy_instance)


@pytest.fixture(scope="session")
def toy_qubo(toy_ilp):
    return encode_qubo(toy_ilp)


def toy_x(*ones):
    """Assignment vector over the 11 toy arcs with the given indices set."""
    return tuple(1 if i in ones else 0 for i in range(11))


def small_random_instance(seed, max_trips=12, with_couplable=True):
    """Deterministic small instances for oracle cross-checks."""
    n_trips = 2 + seed % (max_trips - 1)
    cfg = GeneratorConfig(
        n_trips=n_trips,
        n_couplable=min(seed % 4, n_trips) if with_couplable else 0,
        n_depots=1 + seed % 2,
        n_types=1 + seed % 3,
        rotation_legs=(2, 4),
        cross_type_prob=0.5,
        with_return_bounds=(seed % 3 != 0),
    )
    return generate_synthetic(cfg, seed=seed)


def qubo_model(n, q, offset=0):
    """A hand-made QuboModel over ``n`` decision bits from exact rational
    entries ``{(i, j): value}``, scaled to integers over the LCM of their
    denominators."""
    q = {key: Fraction(value) for key, value in q.items()}
    offset = Fraction(offset)
    den = math.lcm(offset.denominator, *(v.denominator for v in q.values()))
    q = Couplings(n, [i for i, _ in q], [j for _, j in q], [int(v * den) for v in q.values()])
    return QuboModel(num_decision=n, num_slack=0, q=q, offset=int(offset * den),
                     den=den, lambdas=DEFAULT_LAMBDAS)


def as_dict(values):
    """Model entries as a dict of Python ints, in stored order:
    ``{(i, j): value}`` for ``Couplings``, and ``{i: h_i}`` over the
    nonzero fields of an Ising ``h`` array."""
    if isinstance(values, Couplings):
        return dict(zip(zip(values.i.tolist(), values.j.tolist()), values.value.tolist()))
    return {i: v for i, v in enumerate(values.tolist()) if v}


def lifted(values, den):
    """Integer model entries in units of ``1/den`` as exact fractions,
    keyed as ``as_dict`` keys them."""
    return {key: Fraction(v, den) for key, v in as_dict(values).items()}
