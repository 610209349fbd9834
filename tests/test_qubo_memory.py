"""The QUBO layer holds each table that grows with the term count as
arrays, built once.

``QuboModel.q`` and ``IsingModel.j`` are ``Couplings``, three parallel
arrays of the sorted nonzero entries, and ``IsingModel.h`` is one array of
fields. The first tests pin the canonical form, the cancelled entries
dropped and the rest in ``(i, j)`` order, against the ``Fraction``
reference encoder, and that ``to_ising`` takes its couplings straight from
``q``. The last bounds each stage's traced memory, in bytes per QUBO term,
on the 200-trip reference instance of the compile-large benchmark (9,541
terms, three chunks of export lines): a copy of any of these tables, or
a table of Python objects per term, pushes its stage over the bound, which
is set with margin over the measured figures. The two exports are bounded
again on a QUBO of ten chunks, where a chunk's buffers add only a few
bytes per term, so a per-term table shows apart from them.
``decode_many`` gets its own bound on the 200-trip QUBO.
"""

import gc
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import ConstraintRow, IlpModel, encode_ilp
from rollstock.netbuild import build_hypergraph
from rollstock.qubo import (_COO_CHUNK, DEFAULT_LAMBDAS, decode_many, encode_qubo,
                            export_ising_coo, export_qubo_coo, to_ising)

from conftest import as_dict, qubo_model
from test_qubo_integer_core import (assert_same_as_reference, assert_same_ising,
                                    fractional, reference_to_ising)

REFERENCE = dict(n_trips=200, n_couplable=40, n_types=3, n_depots=8)


def reference_ilp():
    inst = generate_synthetic(GeneratorConfig(**REFERENCE), 0)
    return encode_ilp(build_hypergraph(inst), inst)


def test_cancelled_entries_are_dropped_and_the_rest_sorted():
    # the objective's 100 x0 cancels the coverage row's -100 x0 on q[0,0],
    # and the coverage row's 2 * (-100) + 200 cancels on h_1
    ilp = IlpModel(
        num_vars=3,
        objective=((0, Fraction(100)), (2, Fraction(1))),
        constraints=(ConstraintRow(kind="coverage", relation="=", rhs=1,
                                   coeffs=((0, 1), (1, 1)), tag="c"),),
    )
    assert_same_as_reference(ilp, DEFAULT_LAMBDAS)
    qubo = encode_qubo(ilp)
    assert as_dict(qubo.q) == {(0, 1): 200, (1, 1): -100, (2, 2): 1}
    assert list(as_dict(qubo.q)) == [(0, 1), (1, 1), (2, 2)]
    ising = to_ising(qubo)
    assert ising.h.tolist() == [200, 0, 2]  # 2 q_aa + each q_ab naming a
    assert as_dict(ising.j) == {(0, 1): 200}
    # a zero coupling given to a hand-made model is dropped where it is built
    model = qubo_model(3, {(0, 1): 0, (1, 1): 2, (1, 2): -3})
    assert list(as_dict(model.q)) == [(1, 1), (1, 2)]
    ising = to_ising(model)
    assert_same_ising(ising, reference_to_ising(fractional(model)))
    assert list(as_dict(ising.j)) == [(1, 2)]


def test_ising_couplings_are_the_off_diagonal_qubo_arrays():
    qubo = encode_qubo(reference_ilp())
    ising = to_ising(qubo)
    off = qubo.q.i != qubo.q.j
    assert len(ising.j) > 8000
    for name in ("i", "j", "value"):
        got, want = getattr(ising.j, name), getattr(qubo.q, name)[off]
        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert ising.h.shape == (qubo.num_vars,) and ising.h.dtype == np.int64


# bytes per term: (live after the call, peak during it), None = unchecked
BOUNDS = {
    "encode_qubo": (60, 150),
    "to_ising": (30, 50),
    "export_qubo_coo": (20, 60),
    "export_ising_coo": (20, 90),
}


# bytes per term of the two exports on a QUBO of ten export chunks (41,450
# terms; 37,514 Ising couplings), where the chunk's own buffers add a few
# bytes per term: (live, peak). The peaks measured 29 and 53 B/term, so a
# table of one Python object per term (about 60 B/term) exceeds either bound.
MANY_CHUNKS = dict(n_trips=400, n_couplable=80, n_types=3, n_depots=8)
MANY_CHUNK_BOUNDS = {
    "export_qubo_coo": (20, 40),
    "export_ising_coo": (20, 70),
}


def trace_stages(config: dict) -> tuple[int, dict[str, tuple[float, float]]]:
    """The QUBO term count of generator seed 0 under ``config``, and the
    live and peak traced bytes per term of each stage, run in order."""
    inst = generate_synthetic(GeneratorConfig(**config), 0)
    ilp = encode_ilp(build_hypergraph(inst), inst)
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
    return terms, {name: (live / terms, peak / terms)
                   for name, (live, peak) in sizes.items()}


@pytest.fixture(scope="module")
def traced_stages():
    """Live and peak traced bytes per term of each stage, run in order."""
    terms, sizes = trace_stages(REFERENCE)
    assert terms > 9000
    return sizes


@pytest.fixture(scope="module")
def traced_stages_many_chunks():
    terms, sizes = trace_stages(MANY_CHUNKS)
    assert terms >= 8 * _COO_CHUNK
    return sizes


def assert_bounded(sizes, bounds, name):
    live, peak = sizes[name]
    live_bound, peak_bound = bounds[name]
    if live_bound is not None:
        assert live <= live_bound, f"{name} keeps {live:.0f} B/term"
    assert peak <= peak_bound, f"{name} peaks at {peak:.0f} B/term"


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_stage_memory_per_term_is_bounded(traced_stages, name):
    assert_bounded(traced_stages, BOUNDS, name)


@pytest.mark.parametrize("name", sorted(MANY_CHUNK_BOUNDS))
def test_export_memory_per_term_over_many_chunks_is_bounded(traced_stages_many_chunks,
                                                            name):
    assert_bounded(traced_stages_many_chunks, MANY_CHUNK_BOUNDS, name)


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
