"""The integer QUBO/Ising models against a plain ``Fraction`` reference.

``reference_encode_qubo`` and ``reference_to_ising`` expand every term in
``Fraction`` arithmetic, one coefficient at a time, and the reference COO
writers format each entry on its own. The library's integer models, lifted
entry by entry to ``Fraction(v, den)``, must equal them entry for entry,
stored in sorted ``(i, j)`` order, and their COO text must be byte-equal.
"""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from rollstock import qubo as qubo_module
from rollstock.anneal import _schedule
from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import ConstraintRow, IlpModel, encode_ilp
from rollstock.model import exact_number
from rollstock.netbuild import build_hypergraph
from rollstock.qubo import (_FAMILY_OF_KIND, DEFAULT_LAMBDAS, PenaltyRow,
                            _as_lambdas, encode_qubo, export_ising_coo,
                            export_qubo_coo, qubo_energy, to_ising)

from conftest import as_dict, lifted, qubo_model


def reference_encode_qubo(model, lambdas=DEFAULT_LAMBDAS):
    lam = _as_lambdas(lambdas)
    n = model.num_vars
    q = {}
    offset = Fraction(0)

    def add(i, j, value):
        if i > j:
            i, j = j, i
        q[(i, j)] = q.get((i, j), Fraction(0)) + value

    for v, c in model.objective:
        add(v, v, c)
    offset += model.constant

    next_slack = n
    penalty_rows = []
    capacity_vars = []
    for row in model.constraints:
        family = _FAMILY_OF_KIND[row.kind]
        weight = lam[family]
        if row.kind == "capacity_forbid":
            capacity_vars.extend(v for v, _ in row.coeffs)
            for v, _ in row.coeffs:
                add(v, v, weight)
            continue
        if row.relation == "=":
            constant, width = -row.rhs, 0
        elif row.relation == "<=":
            constant, width = 0, row.rhs
        else:
            constant, width = -row.lo, row.hi - row.lo
        slacks = tuple(range(next_slack, next_slack + width))
        next_slack += width
        terms = list(row.coeffs) + [(s, -1) for s in slacks]
        penalty_rows.append(PenaltyRow(
            family=family, tag=row.tag, coeffs=row.coeffs,
            constant=constant, slack_indices=slacks))
        for a in range(len(terms)):
            va, ca = terms[a]
            add(va, va, weight * (ca * ca + 2 * constant * ca))
            for b in range(a + 1, len(terms)):
                vb, cb = terms[b]
                add(va, vb, 2 * weight * ca * cb)
        offset += weight * constant * constant

    return SimpleNamespace(
        num_decision=n, num_slack=next_slack - n, num_vars=next_slack,
        q={key: val for key, val in q.items() if val != 0},
        offset=offset, lambdas=lam,
        penalty_rows=tuple(penalty_rows), capacity_vars=tuple(capacity_vars))


def fractional(model):
    """The integer QUBO model lifted to ``Fraction`` entries."""
    return SimpleNamespace(num_vars=model.num_vars, q=lifted(model.q, model.den),
                           offset=Fraction(model.offset, model.den))


def reference_to_ising(model):
    h = {}
    j = {}
    offset = model.offset
    for (a, b), value in model.q.items():
        if a == b:
            h[a] = h.get(a, Fraction(0)) + value / 2
            offset += value / 2
        else:
            quarter = value / 4
            j[(a, b)] = j.get((a, b), Fraction(0)) + quarter
            h[a] = h.get(a, Fraction(0)) + quarter
            h[b] = h.get(b, Fraction(0)) + quarter
            offset += quarter
    return SimpleNamespace(num_vars=model.num_vars,
                           h={k: v for k, v in h.items() if v != 0},
                           j={k: v for k, v in j.items() if v != 0},
                           offset=offset)


def reference_qubo_coo(model):
    lines = [f"# qubo num_vars={model.num_vars} offset={exact_number(model.offset)}"]
    for (i, j) in sorted(model.q):
        lines.append(f"{i} {j} {exact_number(model.q[(i, j)])}")
    return "\n".join(lines) + "\n"


def reference_ising_coo(model):
    lines = [f"# ising num_vars={model.num_vars} offset={exact_number(model.offset)}"]
    entries = [((i, i), v) for i, v in model.h.items()]
    entries += [(key, v) for key, v in model.j.items()]
    for (i, j), value in sorted(entries):
        lines.append(f"{i} {j} {exact_number(value)}")
    return "\n".join(lines) + "\n"


def assert_integer_model(values, offset, den):
    assert type(den) is int and den >= 1
    assert type(offset) is int
    assert all(type(v) is int for v in values)


def assert_same_ising(got, want):
    assert_integer_model([*got.h.tolist(), *got.j.value.tolist()], got.offset, got.den)
    assert got.num_vars == want.num_vars == len(got.h)
    assert list(as_dict(got.j)) == sorted(want.j)
    assert lifted(got.h, got.den) == want.h
    assert lifted(got.j, got.den) == want.j
    assert Fraction(got.offset, got.den) == want.offset
    assert export_ising_coo(got) == reference_ising_coo(want)


def assert_same_as_reference(ilp, lambdas):
    got = encode_qubo(ilp, lambdas)
    want = reference_encode_qubo(ilp, lambdas)
    assert_integer_model(got.q.value.tolist(), got.offset, got.den)
    assert got.den == math.lcm(Fraction(ilp.constant).denominator,
                               *(w.denominator for w in want.lambdas),
                               *(c.denominator for _, c in ilp.objective))
    assert list(as_dict(got.q)) == sorted(want.q)
    assert lifted(got.q, got.den) == want.q
    assert Fraction(got.offset, got.den) == want.offset
    for name in ("num_decision", "num_slack", "lambdas", "penalty_rows",
                 "capacity_vars"):
        assert getattr(got, name) == getattr(want, name), name
    assert export_qubo_coo(got) == reference_qubo_coo(want)
    ising = to_ising(got)
    assert ising.den == 4 * got.den
    assert_same_ising(ising, reference_to_ising(want))


FRACTIONAL_LAMBDAS = (Fraction(1, 3), 7, Fraction(5, 2), 0.1, 100)
GENERATED = {
    "12": (dict(n_trips=12), 3),
    "80": (dict(n_trips=80, n_couplable=16, n_types=2, n_depots=2), 5),
    "200": (dict(n_trips=200, n_couplable=40, n_types=3, n_depots=8), 0),
    "80-alpha-2/3": (dict(n_trips=80, n_couplable=16, n_types=2, n_depots=2,
                          alpha=Fraction(2, 3)), 7),
    "12-alpha-0.3": (dict(n_trips=12, n_types=2, alpha=0.3), 4),
}


def generated_ilp(name):
    gen, seed = GENERATED[name]
    inst = generate_synthetic(GeneratorConfig(**gen), seed)
    return encode_ilp(build_hypergraph(inst), inst)


@pytest.mark.parametrize("lambdas", [DEFAULT_LAMBDAS, FRACTIONAL_LAMBDAS],
                         ids=["default", "fractional"])
@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_models_match_reference(name, lambdas):
    assert_same_as_reference(generated_ilp(name), lambdas)


@pytest.mark.parametrize("lambdas", [DEFAULT_LAMBDAS, FRACTIONAL_LAMBDAS],
                         ids=["default", "fractional"])
def test_toy_matches_reference(toy_ilp, lambdas):
    assert_same_as_reference(toy_ilp, lambdas)


@pytest.mark.parametrize("weight", [2 ** 62, 10 ** 30])
def test_weights_past_int64_match_reference(toy_ilp, weight):
    # 2 * 2**62 already wraps in int64, and 10**30 does not fit it at all:
    # both models expand and sum in Python ints
    for ilp in (toy_ilp, generated_ilp("12")):
        assert_same_as_reference(ilp, (weight,) * 5)
        model = encode_qubo(ilp, (weight,) * 5)
        assert model.q.value.dtype == object
        assert_energies_match_reference(model, samples=20)


def test_zero_weights_and_repeated_objective_match_reference():
    # a zero weight leaves keys that sum to zero; a variable listed twice
    # in the objective merges here, and a row that names one variable twice
    # is merged when the model is built
    ilp = IlpModel(
        num_vars=4,
        objective=((0, Fraction(1, 3)), (2, Fraction(-1, 6)), (0, Fraction(2, 3))),
        constraints=(
            ConstraintRow(kind="coverage", relation="=", rhs=1,
                          coeffs=((3, 1), (1, 1)), tag="c"),
            ConstraintRow(kind="driver", relation="range", lo=1, hi=3,
                          coeffs=((2, 2), (0, 1), (2, 1)), tag="d"),
            ConstraintRow(kind="capacity_forbid", relation="=", rhs=0,
                          coeffs=((1, 1),), tag="capacity"),
        ),
        constant=Fraction(5, 7))
    for lambdas in [(0, 1, 0, 2, Fraction(3, 4)), (0,) * 5, DEFAULT_LAMBDAS]:
        assert_same_as_reference(ilp, lambdas)


def test_wide_chains_with_repeated_variables_match_reference():
    # range rows with chains of 3 to 6 bits name one variable two or three
    # times, never next to each other: the model sums them into its first
    # entry, so its decision-chain pairs carry that sum (zero for var 2 in
    # "d3", so those keys drop out)
    ilp = IlpModel(
        num_vars=5,
        objective=((1, Fraction(2, 3)), (4, Fraction(-1, 2))),
        constraints=(
            ConstraintRow(kind="driver", relation="range", lo=1, hi=5,
                          coeffs=((0, 1), (2, 2), (0, 3), (4, 1)), tag="d1"),
            ConstraintRow(kind="coverage", relation="=", rhs=1,
                          coeffs=((0, 1), (1, 1)), tag="c"),
            ConstraintRow(kind="depot_out", relation="range", lo=0, hi=3,
                          coeffs=((3, 1), (1, 1), (3, -1), (2, 1), (3, 2)),
                          tag="d2"),
            ConstraintRow(kind="driver", relation="range", lo=2, hi=8,
                          coeffs=((2, 1), (4, 1), (2, -1), (1, 1)), tag="d3"),
            ConstraintRow(kind="depot_in", relation="<=", rhs=4,
                          coeffs=((4, 1), (0, 1), (4, 1)), tag="d4"),
        ))
    assert ilp.constraints[3].coeffs == ((2, 0), (4, 1), (1, 1))
    assert [len(row.slack_indices) for row in encode_qubo(ilp).penalty_rows] == [4, 0, 3, 6, 4]
    for lambdas in (DEFAULT_LAMBDAS, FRACTIONAL_LAMBDAS, (Fraction(1, 2), 1, 0, 1, 3)):
        assert_same_as_reference(ilp, lambdas)
    # rows with no coefficients, between rows with some: a chain alone and
    # an equality that adds nothing
    bare = IlpModel(
        num_vars=3, objective=((2, Fraction(1, 4)),),
        constraints=(
            ConstraintRow(kind="coverage", relation="=", rhs=1,
                          coeffs=((0, 1), (1, 1)), tag="c"),
            ConstraintRow(kind="driver", relation="range", lo=1, hi=3,
                          coeffs=(), tag="chain"),
            ConstraintRow(kind="flow_balance", relation="=", rhs=0,
                          coeffs=(), tag="empty"),
            ConstraintRow(kind="depot_out", relation="range", lo=0, hi=1,
                          coeffs=((2, 1), (1, 1)), tag="d"),
        ))
    for lambdas in (DEFAULT_LAMBDAS, FRACTIONAL_LAMBDAS):
        assert_same_as_reference(bare, lambdas)


def test_model_without_constraints_matches_reference():
    ilp = IlpModel(num_vars=3, objective=((1, Fraction(3, 10)),),
                   constraints=())
    assert_same_as_reference(ilp, DEFAULT_LAMBDAS)
    empty = IlpModel(num_vars=0, objective=(), constraints=())
    assert_same_as_reference(empty, FRACTIONAL_LAMBDAS)
    assert len(encode_qubo(empty).q) == 0


def test_mixed_denominators_through_to_ising():
    model = qubo_model(4, {
        (0, 0): Fraction(1, 3), (0, 2): Fraction(-5, 6), (1, 3): Fraction(7),
        (2, 2): Fraction(3, 4), (1, 2): Fraction(2, 9), (3, 3): Fraction(-1, 5),
        (0, 3): Fraction(1, 2), (1, 1): Fraction(-2, 9)}, offset=Fraction(11, 7))
    got = to_ising(model)
    assert_same_ising(got, reference_to_ising(fractional(model)))
    assert export_qubo_coo(model) == reference_qubo_coo(fractional(model))
    # h_0 = (1/3)/2 + (-5/6)/4 + (1/2)/4
    assert Fraction(int(got.h[0]), got.den) == Fraction(1, 12)


def test_cancelling_entries_leave_no_ising_terms():
    model = qubo_model(2, {(0, 0): Fraction(-1, 2), (0, 1): Fraction(2),
                           (1, 1): Fraction(-1)})
    got = to_ising(model)
    assert_same_ising(got, reference_to_ising(fractional(model)))
    assert lifted(got.h, got.den) == {0: Fraction(1, 4)}


def test_empty_qubo_to_ising():
    model = qubo_model(0, {}, offset=Fraction(2, 3))
    got = to_ising(model)
    assert_same_ising(got, reference_to_ising(fractional(model)))
    assert Fraction(got.offset, got.den) == Fraction(2, 3)
    assert got.h.shape == (0,) and len(got.j) == 0


# texts of the scaled values: ints, floats (1/4, -5/8) and n/d (1/3, -2/3)
COO_VALUES = (Fraction(-7), Fraction(3), Fraction(1, 4), Fraction(-5, 8),
              Fraction(1, 3), Fraction(-2, 3))


@pytest.mark.parametrize("chunk", [1, 3, None], ids=["chunk1", "chunk3", "default"])
@pytest.mark.parametrize("scale", [1, 2 ** 70], ids=["int64", "object"])
@pytest.mark.parametrize("n", [0, 1, 10, 11, 100, 101])
def test_coo_writers_match_reference(monkeypatch, n, scale, chunk):
    # the index column gains a digit at 10 and 100 variables; every value
    # but 1/32 is scaled, so at 2**70 the values, ints, floats and n/d
    # alike, are Python ints past int64 next to small ones
    if chunk is not None:
        monkeypatch.setattr(qubo_module, "_COO_CHUNK", chunk)
    rng = random.Random(n)
    keys = {(0, 0), (0, n - 1), (n - 1, n - 1)} if n else set()
    keys |= {tuple(sorted((rng.randrange(n), rng.randrange(n)))) for _ in range(3 * n)}
    values = [v * scale for v in COO_VALUES] + [Fraction(1, 32)]
    q = {key: values[k % len(values)] for k, key in enumerate(sorted(keys))}
    model = qubo_model(n, q, offset=-values[n % len(values)])
    if n > 1:
        assert model.q.value.dtype == (object if scale > 1 else np.int64)
    text = export_qubo_coo(model)
    assert text == reference_qubo_coo(fractional(model))
    assert len(text.splitlines()) == 1 + len(q)
    assert_same_ising(to_ising(model), reference_to_ising(fractional(model)))


@pytest.mark.parametrize("name", ["12", "80", "80-alpha-2/3"])
def test_schedule_denominator_stays_one_for_fractional_objectives(name):
    # the model's den carries the objective's denominators, but with integer
    # penalty weights every coupling is a whole number, so the annealer's
    # local fields need no division
    qubo = encode_qubo(generated_ilp(name))
    assert qubo.den > 1
    assert _schedule(qubo).den == 1


def reference_qubo_energy(model, y):
    total = model.offset
    for (i, j), value in model.q.items():
        if y[i] and y[j]:
            total += value
    return total


def assert_energies_match_reference(model, samples=60, seed=0):
    rng = random.Random(seed)
    n = model.num_vars
    ys = [tuple([0] * n), tuple([1] * n)]
    ys += [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(samples)]
    want = fractional(model)
    for y in ys:
        got = qubo_energy(model, y)
        assert isinstance(got, Fraction)
        assert got == reference_qubo_energy(want, y)


@pytest.mark.parametrize("lambdas", [DEFAULT_LAMBDAS, FRACTIONAL_LAMBDAS],
                         ids=["default", "fractional"])
@pytest.mark.parametrize("name", ["12", "80", "80-alpha-2/3", "12-alpha-0.3"])
def test_qubo_energy_matches_fraction_reference(name, lambdas):
    assert_energies_match_reference(encode_qubo(generated_ilp(name), lambdas))


def test_qubo_energy_matches_reference_on_toy(toy_qubo, toy_ilp):
    assert_energies_match_reference(toy_qubo, samples=200)
    assert_energies_match_reference(encode_qubo(toy_ilp, FRACTIONAL_LAMBDAS))


def test_qubo_energy_mixed_denominators_and_empty():
    q = {(0, 0): Fraction(1, 3), (0, 1): Fraction(-5, 6), (1, 1): Fraction(7, 4),
         (1, 2): 2, (2, 2): Fraction(-1, 9), (0, 2): Fraction(3, 10)}
    mixed = qubo_model(3, q, offset=Fraction(2, 7))
    for bits in range(8):
        y = tuple((bits >> k) & 1 for k in range(3))
        assert qubo_energy(mixed, y) == reference_qubo_energy(fractional(mixed), y)
    empty = qubo_model(2, {}, offset=Fraction(-3, 4))
    assert qubo_energy(empty, (1, 0)) == Fraction(-3, 4)
    nothing = qubo_model(0, {})
    assert qubo_energy(nothing, ()) == 0
    with pytest.raises(ValueError):
        qubo_energy(mixed, (0, 1))
