"""``IlpModel``'s compiled arrays against the rows they are built from.

Building an ``IlpModel`` compiles it once: its rows in CSR form
(``indptr``, ``indices``, ``data``), their ``bounds()`` as ``lo`` and
``hi``, and the objective summed per variable as integers ``obj`` over
``den``, with the constant as ``offset``. ``check_feasibility`` and
``objective_value`` read only those arrays. Here they are checked against
plain references on seeded random and Hypothesis-drawn models, with
repeated variables, empty rows, all three relations, negative
coefficients, and coefficients, bounds and objective values past 2**63:

- the arrays hold the rows' ``(var, coeff)`` entries, merged, in row and
  entry order, and their ``bounds()``;
- ``check_feasibility`` equals ``FeasibilityReport.of`` over every row's
  ``ConstraintRow.lhs``, dict order and ``int`` types included, on random
  0/1 assignments;
- ``objective_value`` equals a plain ``Fraction`` sum;
- the arrays are read-only, and equality, ``hash``, ``repr``,
  ``dataclasses.replace`` and a pickle round trip see only the four
  fields a model is built from;
- ``kinds``, ``tags`` and ``relations`` are the rows' own, ``export_lp``
  writes byte for byte what a per-row writer over ``row.coeffs`` writes,
  and ``brute_force``'s 2**63 guard rejects exactly the models with a row
  whose ``sum |c| + max(|lo|, |hi|)`` reaches 2**63.
"""

import dataclasses
import math
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rollstock.exact import brute_force, solve_exact
from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import (ConstraintRow, FeasibilityReport, IlpModel, _lp_expr, _lp_name,
                           check_feasibility, encode_ilp, export_lp, objective_value)
from rollstock.netbuild import build_hypergraph

ARRAYS = ("indptr", "indices", "data", "lo", "hi", "obj")
HUGE = (2 ** 62, 2 ** 63 - 1, 2 ** 63, 2 ** 70)


def random_int(rng: random.Random) -> int:
    """Mostly small, sometimes at or past the int64 range, either sign."""
    value = rng.choice(HUGE) if rng.random() < 0.15 else rng.randint(0, 4)
    return -value if rng.random() < 0.5 else value


def random_model(rng: random.Random) -> tuple[IlpModel, tuple[ConstraintRow, ...]]:
    """A model and the rows it was built from, before their merge."""
    n = rng.randint(1, 6)
    rows = []
    for r in range(rng.randint(0, 5)):
        coeffs = tuple((rng.randrange(n), random_int(rng))
                       for _ in range(rng.choice((0, 1, 2, 3, 5))))
        rows.append(ConstraintRow(
            kind=rng.choice(("coverage", "flow_balance", "driver")),
            relation=rng.choice(("=", "<=", "range")), coeffs=coeffs,
            rhs=random_int(rng), lo=random_int(rng), hi=random_int(rng), tag=f"r{r}"))
    objective = tuple((rng.randrange(n), Fraction(random_int(rng), rng.randint(1, 12)))
                      for _ in range(rng.randint(0, 8)))
    constant = Fraction(random_int(rng), rng.randint(1, 12))
    rows = tuple(rows)
    return IlpModel(num_vars=n, objective=objective, constraints=rows,
                    constant=constant), rows


def merged(coeffs):
    sums = {}
    for v, c in coeffs:
        sums[v] = sums.get(v, 0) + c
    return list(sums.items())


def assert_compiled(model: IlpModel, built_from):
    """The arrays of ``model`` against the rows ``built_from``, merged, and
    its objective, entry by entry."""
    rows = model.constraints
    entries = [merged(row.coeffs) for row in built_from]
    assert [list(row.coeffs) for row in rows] == entries
    assert model.indptr.tolist() == [0, *accumulate(map(len, entries))]
    assert model.indices.tolist() == [v for row in entries for v, _ in row]
    assert model.data.tolist() == [c for row in entries for _, c in row]
    assert list(zip(model.lo.tolist(), model.hi.tolist())) == [row.bounds() for row in rows]
    assert all(type(v) is int for name in ("data", "lo", "hi", "obj")
               for v in getattr(model, name).tolist())

    sums = [Fraction(0)] * model.num_vars
    for v, c in model.objective:
        sums[v] += c
    assert [Fraction(o, model.den) for o in model.obj.tolist()] == sums
    assert Fraction(model.offset, model.den) == model.constant
    assert model.den == math.lcm(model.constant.denominator,
                                 *(c.denominator for _, c in model.objective))

    # reach bounds every row's |lhs| + |lo| + |hi|; int64 only below 2**63
    for row in rows:
        lo, hi = row.bounds()
        assert sum(abs(c) for _, c in row.coeffs) + abs(lo) + abs(hi) <= model.reach
    int64 = np.dtype(np.int64)
    for name in ("data", "lo", "hi"):
        assert getattr(model, name).dtype == (int64 if model.reach < 2 ** 63 else object)
    # obj is int64 when its entries' scaled |c| and |offset| sum below 2**63
    magnitude = sum(abs(c) * model.den for _, c in model.objective) + abs(model.offset)
    assert model.obj.dtype == (int64 if magnitude < 2 ** 63 else object)


def assert_evaluates_like_the_rows(model: IlpModel, x):
    rows = model.constraints
    want = FeasibilityReport.of(rows, [row.lhs(x) for row in rows])
    got = check_feasibility(model, x)
    assert list(got.violations.items()) == list(want.violations.items())
    assert all(type(v.lhs) is int for vs in got.violations.values() for v in vs)
    value = objective_value(model, x)
    assert type(value) is Fraction
    assert value == sum((c for v, c in model.objective if x[v]), Fraction(0)) + model.constant


def check_random_model(rng: random.Random):
    model, rows = random_model(rng)
    assert_compiled(model, rows)
    for _ in range(8):
        assert_evaluates_like_the_rows(
            model, tuple(rng.randint(0, 1) for _ in range(model.num_vars)))


def test_seeded_random_models_compile_and_evaluate_like_their_rows():
    for seed in range(400):
        check_random_model(random.Random(seed))


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_drawn_models_compile_and_evaluate_like_their_rows(rng):
    check_random_model(rng)


def test_repeated_variables_are_compiled_merged():
    rows = (ConstraintRow(kind="driver", relation="range", lo=-2, hi=-2,
                          coeffs=((3, 2), (2, 2), (1, 1), (2, -2)), tag="d"),
            ConstraintRow(kind="coverage", relation="=", rhs=1, coeffs=(), tag="empty"),
            ConstraintRow(kind="out_degree", relation="<=", rhs=1,
                          coeffs=((0, -3), (0, 1), (1, -1)), tag="o"))
    model = IlpModel(num_vars=4, objective=((1, Fraction(1, 2)), (1, Fraction(1, 3))),
                     constraints=rows)
    assert_compiled(model, rows)
    assert model.indptr.tolist() == [0, 3, 3, 5]
    assert model.indices.tolist() == [3, 2, 1, 0, 1]
    assert model.data.tolist() == [2, 0, 1, -2, -1]
    assert model.lo.tolist() == [-2, 1, -3] and model.hi.tolist() == [-2, 1, 1]
    assert model.obj.tolist() == [0, 5, 0, 0] and model.den == 6


@pytest.mark.parametrize("coeff,rhs",
                         [(1.5, 1), (Fraction(3, 2), 1), (1, 0.5), (1, Fraction(1))])
def test_a_non_integer_coefficient_or_bound_is_refused(coeff, rhs):
    # once summed as given by the feasibility check and cut to an int by
    # the QUBO encoder and the oracle
    row = ConstraintRow(kind="coverage", relation="=", rhs=rhs, coeffs=((0, coeff),), tag="c")
    with pytest.raises(TypeError):
        IlpModel(num_vars=1, objective=(), constraints=(row,))


@pytest.mark.parametrize("coeff", [0.5, "1", np.float64(0.5)], ids=repr)
def test_a_non_rational_objective_coefficient_is_refused(coeff):
    with pytest.raises(TypeError, match=re.escape(
            f"objective coefficient of variable 1 is {coeff!r}, not a rational")):
        IlpModel(num_vars=2, objective=((0, Fraction(1, 3)), (1, coeff)), constraints=())


def test_a_non_rational_constant_is_refused():
    with pytest.raises(TypeError, match="constant is 0.25, not a rational"):
        IlpModel(num_vars=1, objective=((0, 1),), constraints=(), constant=0.25)


@pytest.mark.parametrize("coeff", [Fraction(3, 2), 3, np.int64(3), True], ids=repr)
def test_rational_objective_coefficients_are_taken(coeff):
    model = IlpModel(num_vars=2, objective=((1, coeff),), constraints=(), constant=True)
    assert model.obj.tolist() == [0, coeff * model.den]
    assert model.offset == model.den


@pytest.mark.parametrize("seed", range(3))
def test_generated_days_compile_and_evaluate_like_their_rows(seed):
    inst = generate_synthetic(
        GeneratorConfig(n_trips=40, n_couplable=8, n_types=3, n_depots=4), 7000 + seed)
    model = encode_ilp(build_hypergraph(inst), inst)
    assert_compiled(model, model.constraints)
    assert model.data.dtype == np.int64 and model.obj.dtype == np.int64
    rng = random.Random(seed)
    for _ in range(20):
        assert_evaluates_like_the_rows(
            model, tuple(rng.randint(0, 1) for _ in range(model.num_vars)))
    optimum = solve_exact(model).solution
    assert optimum.report.feasible
    assert_evaluates_like_the_rows(model, optimum.x)


def test_the_arrays_are_read_only(toy_ilp):
    for name in ARRAYS:
        array = getattr(toy_ilp, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1


def test_the_arrays_are_derived_not_set(toy_ilp):
    assert [f.name for f in dataclasses.fields(IlpModel) if f.init] == [
        "num_vars", "objective", "constraints", "constant"]
    with pytest.raises(TypeError):
        IlpModel(num_vars=1, objective=(), constraints=(), indptr=np.zeros(1))
    with pytest.raises(ValueError):
        dataclasses.replace(toy_ilp, den=1)


def test_equality_hash_repr_and_pickle_see_only_the_built_fields(toy_ilp):
    copy = dataclasses.replace(toy_ilp)
    assert copy == toy_ilp and hash(copy) == hash(toy_ilp)
    assert repr(copy) == repr(toy_ilp)
    assert repr(toy_ilp) == (
        f"IlpModel(num_vars={toy_ilp.num_vars!r}, objective={toy_ilp.objective!r}, "
        f"constraints={toy_ilp.constraints!r}, constant={toy_ilp.constant!r})")
    loaded = pickle.loads(pickle.dumps(toy_ilp))
    assert loaded == toy_ilp and hash(loaded) == hash(toy_ilp)
    for name in ARRAYS:
        assert np.array_equal(getattr(loaded, name), getattr(toy_ilp, name))
        assert not getattr(loaded, name).flags.writeable
    assert (loaded.reach, loaded.offset, loaded.den) == (
        toy_ilp.reach, toy_ilp.offset, toy_ilp.den)
    # other rows, other arrays
    fewer = dataclasses.replace(toy_ilp, constraints=toy_ilp.constraints[1:])
    assert fewer != toy_ilp
    assert fewer.indptr.tolist() == (toy_ilp.indptr[1:] - toy_ilp.indptr[1]).tolist()


def lp_per_row(model: IlpModel) -> str:
    """``export_lp``'s text written from the rows as built, one row at a
    time: each row's entries from ``row.coeffs`` and its bound from
    ``row.relation``, ``row.rhs``, ``row.lo`` and ``row.hi``."""
    n = model.num_vars
    lines = ["\\ Problem: rollstock", "Minimize", " obj: " + _lp_expr(model.objective),
             "Subject To"]
    names = set()
    for i, row in enumerate(model.constraints):
        if row.relation != "range":
            parts = [("", row.relation, row.rhs)]
        else:
            least = sum(c for _, c in row.coeffs if c < 0)
            parts = [("_lo", ">=", row.lo)] if row.lo > least else []
            parts.append(("_hi", "<=", row.hi))
        base = _lp_name(row.tag, f"c{i}")
        while any(base + suffix in names for suffix, _, _ in parts):
            base += f"_{i}"
        for suffix, relation, rhs in parts:
            names.add(base + suffix)
            lines.append(f" {base}{suffix}: {_lp_expr(row.coeffs)} {relation} {rhs}")
    lines += ["Bounds", *(f" 0 <= x{v} <= 1" for v in range(n)), "Binary"]
    if n:
        lines.append(" " + " ".join(f"x{v}" for v in range(n)))
    return "\n".join(lines + ["End"]) + "\n"


def assert_read_like_the_rows(model: IlpModel):
    """The row tuples, ``export_lp`` and ``brute_force``'s 2**63 guard,
    all read from the arrays, against the rows as built."""
    rows = model.constraints
    assert model.kinds == tuple(row.kind for row in rows)
    assert model.tags == tuple(row.tag for row in rows)
    assert model.relations == tuple(row.relation for row in rows)
    assert export_lp(model) == lp_per_row(model)
    far = [row.tag for row in rows
           if sum(abs(c) for _, c in row.coeffs) + max(map(abs, row.bounds())) >= 2 ** 63]
    if far:
        with pytest.raises(ValueError, match=re.escape(f"row {far[0]!r} could reach 2**63")):
            brute_force(model)
        return
    feasible = [s.x for s in brute_force(model).solutions]
    assert sorted(feasible) == [x for x in product((0, 1), repeat=model.num_vars)
                                if check_feasibility(model, x).feasible]


def test_seeded_random_models_export_and_guard_like_their_rows():
    seen = Counter()
    for seed in range(400):
        model, _ = random_model(random.Random(seed))
        assert_read_like_the_rows(model)
        text = export_lp(model)
        seen["_lo"] += text.count("_lo: ")
        seen["range"] += model.relations.count("range")
        seen["wide"] += model.data.dtype == object
    # both kinds of range row and the wide rows are met
    assert 0 < seen["_lo"] < seen["range"] and seen["wide"] > 0


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_drawn_models_export_and_guard_like_their_rows(rng):
    assert_read_like_the_rows(random_model(rng)[0])


@pytest.mark.parametrize("seed", range(3))
def test_generated_days_export_like_their_rows(seed):
    inst = generate_synthetic(
        GeneratorConfig(n_trips=40, n_couplable=8, n_types=3, n_depots=4), 7000 + seed)
    model = encode_ilp(build_hypergraph(inst), inst)
    assert model.kinds == tuple(row.kind for row in model.constraints)
    assert export_lp(model) == lp_per_row(model)
