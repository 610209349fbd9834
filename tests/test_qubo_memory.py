"""The QUBO layer builds each table that grows with the term count once.

``encode_qubo`` deletes the zeros of its accumulator in place and returns
it, ``to_ising`` keys its couplings with the QUBO's own key tuples and
drops its zeros in place, and a COO export holds only the sorted keys, one
chunk of lines and the text. The first tests pin the shared keys and the
first-hit order left by the in-place deletions against the ``Fraction``
reference encoder. The last bounds each stage's traced memory, in bytes
per QUBO term, on the 200-trip reference instance of the compile-large
benchmark (9,541 terms, several chunks of export lines): a copy of any of
these tables pushes its stage over the bound, which is set with margin over
the measured figures. ``decode_many`` gets its own bound on the same QUBO.
"""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest

from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import ConstraintRow, IlpModel, encode_ilp
from rollstock.netbuild import build_hypergraph
from rollstock.qubo import (DEFAULT_LAMBDAS, decode_many, encode_qubo,
                            export_ising_coo, export_qubo_coo, to_ising)

from conftest import qubo_model
from test_qubo_integer_core import (assert_same_as_reference, assert_same_ising,
                                    fractional, reference_to_ising)

REFERENCE = dict(n_trips=200, n_couplable=40, n_types=3, n_depots=8)


def reference_ilp():
    inst = generate_synthetic(GeneratorConfig(**REFERENCE), 0)
    return encode_ilp(build_hypergraph(inst), inst)


def test_cancelled_entries_are_dropped_in_first_hit_order():
    # the objective's 100 x0 cancels the coverage row's -100 x0 on q[0,0],
    # and the coverage row's 2 * (-100) + 200 cancels on h_1; the entries
    # around them keep their first-hit order
    ilp = IlpModel(
        num_vars=3,
        objective=((0, Fraction(100)), (2, Fraction(1))),
        constraints=(ConstraintRow(kind="coverage", relation="=", rhs=1,
                                   coeffs=((0, 1), (1, 1)), tag="c"),),
    )
    assert_same_as_reference(ilp, DEFAULT_LAMBDAS)
    qubo = encode_qubo(ilp)
    assert list(qubo.q) == [(2, 2), (0, 1), (1, 1)]
    ising = to_ising(qubo)
    assert list(ising.h) == [2, 0]
    assert list(ising.j) == [(0, 1)]
    # a stored zero coupling of a hand-made model leaves no j entry
    model = qubo_model(3, {(0, 1): 0, (1, 1): 2, (1, 2): -3})
    ising = to_ising(model)
    assert_same_ising(ising, reference_to_ising(fractional(model)))
    assert list(ising.j) == [(1, 2)]


def test_ising_couplings_share_the_qubo_key_tuples():
    qubo = encode_qubo(reference_ilp())
    keys = {key: key for key in qubo.q}
    ising = to_ising(qubo)
    assert len(ising.j) > 8000
    assert all(key is keys[key] for key in ising.j)


# bytes per term: (live after the call, peak during it), None = unchecked
BOUNDS = {
    "encode_qubo": (None, 150),
    "to_ising": (65, 100),
    "export_qubo_coo": (None, 90),
    "export_ising_coo": (None, 100),
}


@pytest.fixture(scope="module")
def traced_stages():
    """Live and peak traced bytes per term of each stage, run in order."""
    ilp = reference_ilp()
    gc.collect()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    sizes = {}
    kept = {}

    def stage(name, call):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kept[name] = call()
        live, peak = tracemalloc.get_traced_memory()
        sizes[name] = (live - base, peak - base)
        return kept[name]

    try:
        qubo = stage("encode_qubo", lambda: encode_qubo(ilp))
        ising = stage("to_ising", lambda: to_ising(qubo))
        stage("export_qubo_coo", lambda: export_qubo_coo(qubo))
        stage("export_ising_coo", lambda: export_ising_coo(ising))
    finally:
        if not was_tracing:
            tracemalloc.stop()
    terms = qubo.num_terms()
    assert terms > 9000
    return {name: (live / terms, peak / terms) for name, (live, peak) in sizes.items()}


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_stage_memory_per_term_is_bounded(traced_stages, name):
    live, peak = traced_stages[name]
    live_bound, peak_bound = BOUNDS[name]
    if live_bound is not None:
        assert live <= live_bound, f"{name} keeps {live:.0f} B/term"
    assert peak <= peak_bound, f"{name} peaks at {peak:.0f} B/term"


def test_decode_many_memory_on_the_200_trip_reference_is_bounded():
    # 100 random samples over 1,428 vars and 9,541 terms: the 100 decoded
    # samples and their violations stay live (6.1 MiB) and the peak was
    # 7.0 MiB, a block of 13 samples at a time; all 100 at once add an
    # int64 (sample, term) table of 7.3 MiB
    ilp = reference_ilp()
    model = encode_qubo(ilp)
    assert (model.num_vars, model.num_terms()) == (1428, 9541)
    rng = random.Random(0)
    ys = [tuple(rng.randint(0, 1) for _ in range(model.num_vars)) for _ in range(100)]
    gc.collect()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        decoded = decode_many(model, ilp, ys)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(decoded) == 100
    assert peak <= 8 * 2 ** 20, f"decode_many peaks at {peak / 2 ** 20:.1f} MiB"
