"""``Couplings``, the array form of the QUBO and Ising couplings.

A ``Couplings`` is valid where it is built: entries sorted by ``(i, j)``,
``i <= j``, each pair once and no zero, else ``ValueError``. A model keeps
its values int64 only while ``|offset| + sum |values|`` stays below 2**63,
and Python ints past it; the boundary cases must equal the ``Fraction``
reference in COO text, energies and Ising form on both sides of it.
"""

import dataclasses
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rollstock.qubo import (DEFAULT_LAMBDAS, Couplings, IsingModel, QuboModel,
                            encode_qubo, export_qubo_coo, ising_energy,
                            qubo_energies, qubo_energy, to_ising)

from conftest import as_dict, qubo_model
from test_qubo_integer_core import (assert_same_ising, fractional,
                                    reference_qubo_coo, reference_qubo_energy,
                                    reference_to_ising)


def test_unsorted_repeated_and_zero_entries_are_made_canonical():
    c = Couplings(4, [2, 0, 1, 0, 3, 1], [3, 1, 1, 1, 3, 2], [5, 2, 0, 4, -1, 7])
    assert as_dict(c) == {(0, 1): 6, (1, 2): 7, (2, 3): 5, (3, 3): -1}
    assert c.i.dtype == c.j.dtype == np.intp and c.value.dtype == np.int64
    assert c.magnitude == 19
    # a pair that sums to zero leaves no entry
    assert len(Couplings(2, [0, 0], [1, 1], [3, -3])) == 0
    for array in (c.i, c.j, c.value):
        assert not array.flags.writeable


def test_canonical_input_is_taken_as_it_is():
    i, j, value = np.array([0, 0, 2]), np.array([0, 2, 2]), np.array([1, -4, 9])
    c = Couplings(3, i, j, value)
    assert all(np.shares_memory(a, b) for a, b in ((c.i, i), (c.j, j), (c.value, value)))
    assert value.flags.writeable  # the caller's array is not frozen, only the view


@pytest.mark.parametrize("n,i,j,message", [
    (2, [1], [0], r"entry \(1, 0\) lies below the diagonal"),
    (2, [0], [5], r"entry \(0, 5\) lies outside range\(2\)"),
    (2, [-1], [0], r"entry \(-1, 0\) lies outside range\(2\)"),
    (0, [0], [0], r"entry \(0, 0\) lies outside range\(0\)"),
])
def test_bad_indices_fail_where_the_couplings_are_built(n, i, j, message):
    with pytest.raises(ValueError, match=message):
        Couplings(n, i, j, [3])


def test_hand_made_models_fail_where_they_are_built(toy_qubo):
    # a lower-triangle key once exported as the line `1 0 3`, and an index
    # past num_vars failed later with a bare IndexError
    with pytest.raises(ValueError, match=r"entry \(1, 0\) lies below the diagonal"):
        qubo_model(2, {(1, 0): 3})
    with pytest.raises(ValueError, match=r"entry \(0, 5\) lies outside range\(2\)"):
        qubo_model(2, {(0, 5): 1})
    with pytest.raises(ValueError, match="q is over 3 variables, the model has 20"):
        dataclasses.replace(toy_qubo, q=Couplings(3, [0], [2], [1]))
    with pytest.raises(ValueError, match="one length"):
        Couplings(3, [0, 1], [1], [1, 2])
    with pytest.raises(TypeError):
        Couplings(2, [0], [1], [Fraction(1, 2)])
    with pytest.raises(TypeError):
        Couplings(2, [0], [1], [0.5])


def test_hand_made_ising_models_fail_where_they_are_built():
    j = Couplings(3, [0], [2], [4])
    assert IsingModel(num_vars=3, h=[1, 0, -2], j=j, offset=0, den=4).h.tolist() == [1, 0, -2]
    with pytest.raises(ValueError, match="over the model's 3 variables"):
        IsingModel(num_vars=3, h=[1, 0], j=j, offset=0, den=4)
    with pytest.raises(ValueError, match="over the model's 2 variables"):
        IsingModel(num_vars=2, h=[1, 0], j=j, offset=0, den=4)
    with pytest.raises(ValueError, match="j has a diagonal entry"):
        IsingModel(num_vars=3, h=[0, 0, 0], j=Couplings(3, [1], [1], [2]), offset=0, den=4)


def test_ising_energy_rejects_spins_outside_plus_minus_one(toy_qubo):
    ising = to_ising(toy_qubo)
    n = ising.num_vars
    # both were priced (3257 and 15471) instead of rejected
    with pytest.raises(ValueError, match=r"spin entry 0 is 0, not -1 or \+1"):
        ising_energy(ising, [0] * n)
    with pytest.raises(ValueError, match=r"spin entry 0 is 2, not -1 or \+1"):
        ising_energy(ising, [2] * n)
    s = [1] * n
    s[7] = -3
    with pytest.raises(ValueError, match=r"spin entry 7 is -3, not -1 or \+1"):
        ising_energy(ising, s)
    with pytest.raises(ValueError, match=f"spin vector length 3 != {n}"):
        ising_energy(ising, [1, 1, 1])


def assert_exact_on_every_assignment(model):
    want = fractional(model)
    assert export_qubo_coo(model) == reference_qubo_coo(want)
    ys = list(product((0, 1), repeat=model.num_vars))
    assert qubo_energies(model, ys) == [reference_qubo_energy(want, y) for y in ys]
    ising = to_ising(model)
    assert_same_ising(ising, reference_to_ising(want))
    for y in ys:
        assert ising_energy(ising, [2 * v - 1 for v in y]) == qubo_energy(model, y)
    return ising


@pytest.mark.parametrize("total,dtype", [(2 ** 63 - 1, np.int64), (2 ** 63, object)])
def test_the_qubo_bound_picks_the_dtype_and_stays_exact(total, dtype):
    # |offset| + sum |q| == total; the all-ones energy is total itself
    q = {(0, 0): 2 ** 61, (0, 1): 2 ** 61, (1, 1): 2 ** 62 - 7}
    model = qubo_model(2, q, offset=total - 2 ** 63 + 7)
    assert model.q.value.dtype == dtype
    assert model.q.magnitude + abs(model.offset) == total
    assert qubo_energy(model, (1, 1)) == total
    assert_exact_on_every_assignment(model)


@pytest.mark.parametrize("a", [
    (2 ** 63 // 4 - 1) // 3,  # 4 (sum |q|) just below 2**63: int64 sums
    2 ** 63 // 12 + 1,  # just above: Python ints
    2 ** 63 // 5 + 1,  # the Ising offset 5a itself passes 2**63
])
def test_the_ising_bound_of_four_times_the_qubo_stays_exact(a):
    model = qubo_model(2, {(0, 0): a, (0, 1): a, (1, 1): a})
    assert model.q.value.dtype == np.int64
    ising = assert_exact_on_every_assignment(model)
    assert ising.h.tolist() == [3 * a, 3 * a] and ising.offset == 5 * a
    bound = abs(ising.offset) + 6 * a + a
    assert ising.h.dtype == (np.int64 if bound < 2 ** 63 else object)


def test_summed_pairs_take_python_ints_when_int64_would_wrap():
    c = Couplings(1, [0, 0], [0, 0], np.array([2 ** 62, 2 ** 62], np.int64))
    assert c.value.dtype == object and as_dict(c) == {(0, 0): 2 ** 63}
    # a model whose bound fits takes int64 values, whatever it was given
    big = Couplings(2, [0, 0], [0, 0], [2 ** 70, 5 - 2 ** 70])
    assert big.value.dtype == object
    model = QuboModel(num_decision=2, num_slack=0, q=big, offset=0, den=1,
                      lambdas=DEFAULT_LAMBDAS)
    assert model.q.value.dtype == np.int64 and as_dict(model.q) == {(0, 0): 5}


def test_models_compare_by_value(toy_ilp):
    qubo = encode_qubo(toy_ilp)
    assert qubo == encode_qubo(toy_ilp) and to_ising(qubo) == to_ising(encode_qubo(toy_ilp))
    other = encode_qubo(toy_ilp, (100, 100, 100, 5, 100))
    assert qubo != other and to_ising(qubo) != to_ising(other)
