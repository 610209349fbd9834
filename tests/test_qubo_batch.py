"""``decode_many`` and ``qubo_energies`` against per-sample references.

The batch routines sum every row and every term over a whole sample set
in numpy. The references below evaluate one sample at a time in Python
ints, as ``decode`` and ``qubo_energy`` did before they became the
one-sample calls of the batch: each row's lhs via ``ConstraintRow.lhs``,
the report via ``FeasibilityReport.of`` over every row and each chain's
bit count against ``PenaltyRow.slack_sum_at`` for ``decode_many``, which
prices nothing, and the energy term by term for ``qubo_energies``.
They are compared field by field, report dict order included, on every
distinct sample that annealing leaves on the toy and on
anneal-portfolio-sized instances, on every sample of small hand-built
ILPs (an empty row, mixed signs, coefficients of 2**70), at lambda 10**30,
whose energies need Python ints, on an empty sample list and on foreign
ILPs.
"""

import dataclasses
import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import rollstock.qubo as QUBO
from rollstock.anneal import AnnealParams, anneal
from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import ConstraintRow, FeasibilityReport, IlpModel, encode_ilp
from rollstock.netbuild import build_hypergraph
from rollstock.qubo import (Couplings, decode, decode_many, encode_qubo, qubo_energies,
                            qubo_energy)

from conftest import as_dict
from test_qubo_decode import generated


def per_sample_energy(model, y):
    if len(y) != model.num_vars:
        raise ValueError(f"assignment length {len(y)} != {model.num_vars}")
    total = model.offset + sum(v for (i, j), v in as_dict(model.q).items() if y[i] and y[j])
    return Fraction(total, model.den)


def per_sample_decode(model, ilp, y):
    if len(y) != model.num_vars:
        raise ValueError(f"assignment length {len(y)} != {model.num_vars}")
    if ilp.num_vars != model.num_decision:
        raise ValueError(f"ILP has {ilp.num_vars} variables, "
                         f"QUBO has {model.num_decision} decision variables")
    y = tuple(int(v) for v in y)
    x = y[:model.num_decision]
    rows = ilp.constraints
    sums = [row.lhs(x) for row in rows]
    penalties = iter(model.penalty_rows)
    consistent = True
    for index, (row, lhs) in enumerate(zip(rows, sums)):
        if row.kind == "capacity_forbid":
            continue
        penalty = next(penalties, None)
        if penalty is None or penalty.tag != row.tag:
            found = "no penalty row" if penalty is None else f"penalty row {penalty.tag!r}"
            raise ValueError(f"ILP row {index} {row.tag!r} meets {found}")
        if consistent:
            chain = sum(y[s] for s in penalty.slack_indices)
            consistent = chain == penalty.slack_sum_at(lhs + penalty.constant)
    extra = next(penalties, None)
    if extra is not None:
        raise ValueError(f"penalty row {extra.tag!r} meets no ILP row")
    return QUBO.DecodedSample(
        y=y, x=x, slack_consistent=consistent, report=FeasibilityReport.of(rows, sums))


def assert_same_sample(got, want):
    assert got.y == want.y and got.x == want.x
    assert all(type(v) is int for v in got.y)
    assert got.slack_consistent is want.slack_consistent
    assert list(got.report.violations.items()) == list(want.report.violations.items())
    assert all(type(v.lhs) is int for vs in got.report.violations.values() for v in vs)
    assert got == want


def assert_batch_matches(model, ilp, ys):
    """Decode and price ``ys`` against the references; returns the decoded
    samples and their energies."""
    got = decode_many(model, ilp, ys)
    want = [per_sample_decode(model, ilp, y) for y in ys]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_sample(g, w)
    energies = qubo_energies(model, ys)
    assert all(type(e) is Fraction for e in energies)
    assert energies == [per_sample_energy(model, y) for y in ys]
    return got, energies


def portfolio_sized(index):
    inst = generate_synthetic(GeneratorConfig(n_trips=12, n_types=1, n_depots=1),
                              1000 + index)
    ilp = encode_ilp(build_hypergraph(inst), inst)
    return encode_qubo(ilp), ilp


@pytest.mark.parametrize("index", range(4))
def test_every_distinct_anneal_sample_matches_per_sample(index):
    model, ilp = portfolio_sized(index)
    samples = anneal(model, AnnealParams(num_reads=100, sweeps=500, seed=1000 + index))
    ys = [e.y for e in samples.entries]
    got, energies = assert_batch_matches(model, ilp, ys)
    assert [e.energy for e in samples.entries] == energies
    assert len({d.feasible for d in got}) == 2


def test_every_distinct_toy_sample_matches_per_sample(toy_qubo, toy_ilp):
    samples = anneal(toy_qubo, AnnealParams(num_reads=100, sweeps=200, seed=3))
    got, energies = assert_batch_matches(toy_qubo, toy_ilp, [e.y for e in samples.entries])
    assert [e.energy for e in samples.entries] == energies
    assert {d.feasible for d in got} == {True, False}


def hand_built(scale):
    """An empty row that always holds, an empty row that never does,
    mixed-sign rows, a capacity row and, at ``scale`` 2**70, rows whose
    sums leave int64."""
    rows = (
        ConstraintRow(kind="coverage", relation="=", rhs=scale,
                      coeffs=((0, scale), (1, -3)), tag="c"),
        ConstraintRow(kind="depot_out", relation="range", lo=0, hi=1,
                      coeffs=(), tag="empty-met"),
        ConstraintRow(kind="depot_in", relation="range", lo=1, hi=2,
                      coeffs=(), tag="empty-unmet"),
        ConstraintRow(kind="capacity_forbid", relation="=", rhs=0,
                      coeffs=((2, 1),), tag="capacity"),
        ConstraintRow(kind="driver", relation="range", lo=-scale, hi=1 - scale,
                      coeffs=((0, 1), (1, 2), (3, -scale)), tag="d"),
        # a <= row's lo is the sum of its negative coefficients, here -1
        ConstraintRow(kind="out_degree", relation="<=", rhs=1,
                      coeffs=((1, 1), (2, -1), (3, 1)), tag="o"),
    )
    return IlpModel(num_vars=4, objective=((2, Fraction(1, 3)),), constraints=rows)


@pytest.mark.parametrize("scale", [1, 2 ** 70])
@pytest.mark.parametrize("lambdas", [(100,) * 5, (10 ** 30,) * 5, (3, 7, 2, 1, 11)])
def test_hand_built_rows_match_per_sample_on_every_sample(scale, lambdas):
    ilp = hand_built(scale)
    model = encode_qubo(ilp, lambdas)
    ys = list(itertools.product((0, 1), repeat=model.num_vars))
    got, energies = assert_batch_matches(model, ilp, ys)
    assert {(d.slack_consistent, d.feasible) for d in got} == {(True, False), (False, False)}
    assert all("depot_in" in d.report.violations for d in got)
    assert any(list(d.report.violations)[:2] == ["coverage", "depot_in"] for d in got)
    largest = max(abs(e) * model.den for e in energies)
    assert (largest >= 2 ** 63) == (scale > 1 or lambdas[0] == 10 ** 30)


def test_lambda_1e30_energies_need_python_ints(toy_ilp):
    model = encode_qubo(toy_ilp, (10 ** 30,) * 5)
    rng = random.Random(4)
    ys = [tuple(rng.randint(0, 1) for _ in range(model.num_vars)) for _ in range(200)]
    _, energies = assert_batch_matches(model, toy_ilp, ys)
    assert max(map(abs, energies)) * model.den >= 2 ** 63


@pytest.mark.parametrize("per_block", [1, 7, 13])
def test_sample_blocks_do_not_change_the_results(monkeypatch, toy_qubo, toy_ilp, per_block):
    # qubo_energies' blocks hold per_block samples, one cell per term;
    # decode_many's hold at least as many, its cells being fewer
    rng = random.Random(per_block)
    ys = [tuple(rng.randint(0, 1) for _ in range(toy_qubo.num_vars)) for _ in range(50)]
    want = decode_many(toy_qubo, toy_ilp, ys), qubo_energies(toy_qubo, ys)
    monkeypatch.setattr("rollstock.ilp._BLOCK", per_block * toy_qubo.num_terms())
    assert (decode_many(toy_qubo, toy_ilp, ys), qubo_energies(toy_qubo, ys)) == want
    assert_batch_matches(toy_qubo, toy_ilp, ys)


def test_empty_sample_list(toy_qubo, toy_ilp):
    assert decode_many(toy_qubo, toy_ilp, []) == []
    assert qubo_energies(toy_qubo, []) == []


def foreign_ilps(ilp):
    rows = ilp.constraints
    last = max(i for i, row in enumerate(rows) if row.kind != "capacity_forbid")
    for constraints in (rows[:1] + rows[2:], (rows[1], rows[0]) + rows[2:],
                        rows + (rows[0],), rows[:last] + rows[last + 1:]):
        yield dataclasses.replace(ilp, constraints=constraints)
    yield generated(0)  # another number of variables


def test_foreign_ilps_raise_the_per_sample_messages(toy_qubo, toy_ilp):
    y = (0,) * toy_qubo.num_vars
    for foreign in foreign_ilps(toy_ilp):
        with pytest.raises(ValueError) as want:
            per_sample_decode(toy_qubo, foreign, y)
        for ys in ([y], [y, y], []):
            with pytest.raises(ValueError) as got:
                decode_many(toy_qubo, foreign, ys)
            assert str(got.value) == str(want.value)
        with pytest.raises(ValueError) as got:
            decode(toy_qubo, foreign, y)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("var", [-1, 11])
def test_rows_naming_a_variable_outside_the_decision_bits_are_rejected(
        toy_qubo, toy_ilp, var):
    # 11 would be the first slack bit of the toy's 20; such a model cannot
    # be built, so decode_many is never handed one
    rows = toy_ilp.constraints
    row = dataclasses.replace(rows[0], coeffs=rows[0].coeffs + ((var, 1),))
    match = rf"row {re.escape(repr(row.tag))} names variable {var}, outside range\(11\)"
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(toy_ilp, constraints=(row,) + rows[1:])


def test_wrong_lengths_are_named(toy_qubo, toy_ilp):
    good = (0,) * toy_qubo.num_vars
    for call in (lambda ys: decode_many(toy_qubo, toy_ilp, ys),
                 lambda ys: qubo_energies(toy_qubo, ys)):
        with pytest.raises(ValueError, match=f"assignment length 19 != {toy_qubo.num_vars}"):
            call([good, good[:19]])


def test_decoding_reads_no_term_and_returns_no_energy(toy_qubo, toy_ilp):
    rng = random.Random(5)
    ys = [tuple(rng.randint(0, 1) for _ in range(toy_qubo.num_vars)) for _ in range(20)]
    termless = dataclasses.replace(toy_qubo, q=Couplings(toy_qubo.num_vars), offset=0)
    assert decode_many(termless, toy_ilp, ys) == decode_many(toy_qubo, toy_ilp, ys)
    assert "energy" not in {f.name for f in dataclasses.fields(QUBO.DecodedSample)}


@pytest.mark.parametrize("value", [2, -1])
def test_entries_outside_0_1_are_rejected(toy_qubo, toy_ilp, value):
    y = [0] * toy_qubo.num_vars
    y[0] = value
    message = f"sample 0 entry 0 is {value}, not 0 or 1"
    with pytest.raises(ValueError, match=message):
        decode(toy_qubo, toy_ilp, y)
    with pytest.raises(ValueError, match=message):
        qubo_energy(toy_qubo, y)
    y[0], y[5] = 0, value
    ys = [(0,) * toy_qubo.num_vars] * 3 + [tuple(y)] * 2
    message = f"sample 3 entry 5 is {value}, not 0 or 1"
    with pytest.raises(ValueError, match=message):
        decode_many(toy_qubo, toy_ilp, ys)
    with pytest.raises(ValueError, match=message):
        qubo_energies(toy_qubo, ys)


def test_numpy_bools_and_ints_decode_like_python_ints(toy_qubo, toy_ilp):
    rng = random.Random(9)
    ys = [tuple(rng.randint(0, 1) for _ in range(toy_qubo.num_vars)) for _ in range(20)]
    want = decode_many(toy_qubo, toy_ilp, ys)
    assert decode_many(toy_qubo, toy_ilp, np.array(ys, dtype=bool)) == want
    assert decode_many(toy_qubo, toy_ilp, [np.array(y) for y in ys]) == want
    assert [decode(toy_qubo, toy_ilp, tuple(map(bool, y))) for y in ys] == want
    assert (qubo_energies(toy_qubo, np.array(ys, dtype=np.int8))
            == [per_sample_energy(toy_qubo, y) for y in ys])


def test_one_sample_blocks_name_the_sample_by_its_place_in_the_list(
        monkeypatch, toy_qubo, toy_ilp):
    monkeypatch.setattr("rollstock.ilp._BLOCK", 1)
    y = [0] * toy_qubo.num_vars
    y[5] = 2
    ys = [(0,) * toy_qubo.num_vars] * 3 + [tuple(y)]
    for call in (lambda: decode_many(toy_qubo, toy_ilp, ys),
                 lambda: qubo_energies(toy_qubo, ys)):
        with pytest.raises(ValueError, match="sample 3 entry 5 is 2, not 0 or 1"):
            call()


def test_a_text_entry_among_numbers_is_named_where_it_stands(toy_qubo, toy_ilp):
    # numpy reads such a list as text, where every entry would look wrong
    from rollstock.ilp import check_feasibility
    x = [0] * toy_ilp.num_vars
    x[1] = "1"
    with pytest.raises(ValueError, match=re.escape("sample 0 entry 1 is '1', not 0 or 1")):
        check_feasibility(toy_ilp, x)
    y = [0] * toy_qubo.num_vars
    y[1] = "1"
    ys = [(0,) * toy_qubo.num_vars] * 2 + [y]
    with pytest.raises(ValueError, match=re.escape("sample 2 entry 1 is '1', not 0 or 1")):
        decode_many(toy_qubo, toy_ilp, ys)
