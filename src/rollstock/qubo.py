"""Penalty-method QUBO compilation of the ILP, Ising form and decoding.

Constraint families map onto five penalty weights:

P1 (lambda1)  coverage equalities, squared
P2 (lambda2)  flow-balance equalities squared, plus out-degree rows squared
              with one slack bit each
P3 (lambda3)  depot dispatch/return ranges, squared with a unary slack
              chain of length (hi - lo)
P4 (lambda4)  capacity: a plain linear term per over-tolerance arc (not
              squared), so overcrowded-but-otherwise-valid plans stay low
              in the spectrum when lambda4 is chosen small
P5 (lambda5)  driver ranges, squared with unary slack chains

Slack variables are appended after the decision variables in ILP row
order, one unary chain per inequality row: ``PenaltyRow.slack_indices``.

Both models are integers over one common denominator: ``QuboModel.q``
and ``offset`` count in units of ``1/den``, ``den`` being the LCM of the
penalty weights' denominators and the ILP's ``den``, in whose units
``IlpModel.obj`` and ``offset`` already hold the objective, so it is not
scaled again here; ``IsingModel`` counts in units of ``1/(4 qubo.den)``.
``Fraction``s appear only at the boundaries: the energies returned and
the COO text.

Both models hold their quadratic couplings as ``Couplings``: parallel
``i``, ``j`` and ``value`` arrays of the nonzero upper-triangular entries,
sorted by ``(i, j)``, each pair once. ``Couplings`` is the one routine
that makes entries canonical, and it does the work only when a vectorised
check finds its input is not: it sums repeated pairs, drops zeros and
sorts. ``encode_qubo`` lays every penalty row end to end, its entries in
the ILP's CSR arrays followed by its slack bits at coefficient -1,
expands all the rows' squares in one numpy pass into raw ``(i, j,
value)`` triples, and merges them there once. ``IsingModel.h`` is one array of ``num_vars``
fields. Values are int64 while a model's ``|offset| + sum |value|`` (and,
for the Ising model, ``sum |h|``) stays below 2**63, and Python ints
(``object`` arrays) otherwise, since an int64 sum past that wraps
silently: so every energy a model prices is exact. That int64-or-exact
policy (``_dtype``, ``_integers``) lives in ``rollstock.ilp``.
The builders pick their arithmetic the same way: ``encode_qubo`` expands
its rows in int64 when a bound on every product they form is below 2**63,
and ``to_ising`` sums in int64 when ``4 (|offset| + sum |q|)``, which
bounds its offset and fields, is. A COO export formats each index and
each distinct value once, into tables of fixed-width byte rows padded with
0 bytes, and writes a chunk of lines as one numpy gather from those tables
with the 0 bytes dropped, so it builds no Python string per line.

A sample set is evaluated in one call per job: ``qubo_energies`` gives
each sample's ``offset + sum of (y_i & y_j) q_ij`` over the terms, and
``decode_many``, which prices nothing, sums each ILP row over all samples
at once with the ILP's row evaluator, the one ``check_feasibility`` uses,
and reports through the same routine, which turns only the (sample, row)
pairs off their bounds into Python objects. Its own work is the slack
check: each chain is read at its ``slack_indices`` (a hand-built model
need not number them contiguously) and summed by the same evaluator.
Energies are summed in the dtype of ``q``'s values; row sums in the
dtype of the ILP's ``data``, and a chain's target in int64 while the
ILP's ``reach`` plus the largest ``|constant|`` stays below 2**63, exact
Python ints otherwise. Samples go through the ILP's block splitter,
``_bit_blocks``, in blocks of at most its ``_BLOCK`` = 2**17 (sample,
cell) pairs, a cell being a term, a row coefficient or a chain bit, so the
scratch of a call stays within a few MiB whatever the sample count; each
block is checked and converted by the ILP's one assignment check,
``_bits``, so a sample of the wrong length or with an entry outside
{0, 1} is a ``ValueError`` that names it; ``consistent_slacks`` checks
its decision the same way.
``decode`` and ``qubo_energy`` are the one-sample calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, zip_longest
from typing import Sequence, Union

import numpy as np

from .ilp import (FeasibilityReport, IlpModel, _bit_blocks, _bits, _dtype, _EXACT, _frozen,
                  _integers, _largest, _reports, _row_sums)
from .model import Instance, exact_number
from .netbuild import Hypergraph, size_bounds

__all__ = [
    "Couplings",
    "QuboModel",
    "IsingModel",
    "DecodedSample",
    "PenaltyRow",
    "encode_qubo",
    "qubo_energy",
    "to_ising",
    "ising_energy",
    "decode",
    "decode_many",
    "qubo_energies",
    "consistent_slacks",
    "slack_optimized_energy",
    "scaling_report",
    "ScalingReport",
    "export_qubo_coo",
    "export_ising_coo",
    "DEFAULT_LAMBDAS",
]

Rational = Union[int, float, str, Fraction]

DEFAULT_LAMBDAS = (Fraction(100),) * 5

_FAMILY_OF_KIND = {
    "coverage": 0,
    "flow_balance": 1,
    "out_degree": 1,
    "depot_out": 2,
    "depot_in": 2,
    "capacity_forbid": 3,
    "driver": 4,
}


@dataclass(frozen=True)
class PenaltyRow:
    """One squared penalty term: lambda * (coeffs.x + constant - sum slacks)^2."""

    family: int  # 0-based index into lambdas
    tag: str
    coeffs: tuple[tuple[int, int], ...]
    constant: int
    slack_indices: tuple[int, ...]

    def residual(self, x: Sequence[int]) -> int:
        return sum(c * x[v] for v, c in self.coeffs) + self.constant

    def best_slack_sum(self, x: Sequence[int]) -> int:
        return self.slack_sum_at(self.residual(x))

    def slack_sum_at(self, residual: int) -> int:
        """The chain's bit count of least penalty at ``residual``."""
        return min(max(residual, 0), len(self.slack_indices))


@dataclass(frozen=True, eq=False)
class Couplings:
    """The nonzero entries ``value[k]`` at ``(i[k], j[k])`` of an
    upper-triangular integer matrix over ``num_vars`` variables.

    Building one, also through ``dataclasses.replace``, raises
    ``TypeError`` for an index or value that is not an integer (bools
    read as 0 and 1), ``ValueError`` for an index outside
    ``range(num_vars)`` or an entry with ``i > j``, and leaves the entries
    sorted by ``(i, j)`` with each pair once and no zero: repeated pairs
    are summed. ``value`` is an int64 array, or an ``object`` array of
    Python ints when the input does not fit int64 or its repeated pairs
    could not be summed in it; the arrays are read-only. ``magnitude`` is
    ``sum |value|``, exact.
    """

    num_vars: int
    i: np.ndarray = ()
    j: np.ndarray = ()
    value: np.ndarray = ()
    magnitude: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.num_vars
        i, j, value = _integers(self.i), _integers(self.j), _integers(self.value)
        if not i.ndim == 1 or not i.shape == j.shape == value.shape:
            raise ValueError("i, j and value must be 1-d arrays of one length")
        outside = (i < 0) | (j >= n)
        if outside.any():
            k = int(outside.argmax())
            raise ValueError(f"entry ({i[k]}, {j[k]}) lies outside range({n})")
        below = i > j
        if below.any():
            k = int(below.argmax())
            raise ValueError(f"entry ({i[k]}, {j[k]}) lies below the diagonal")
        # 0 <= i <= j < n, so the indices fit intp
        i, j, value = _canonical(n, i.astype(np.intp, copy=False),
                                 j.astype(np.intp, copy=False), value)
        for name, array in (("i", i), ("j", j), ("value", value)):
            object.__setattr__(self, name, _frozen(array))
        object.__setattr__(self, "magnitude", _magnitude(value))

    def __len__(self) -> int:
        return len(self.i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Couplings):
            return NotImplemented
        return (self.num_vars == other.num_vars and np.array_equal(self.i, other.i)
                and np.array_equal(self.j, other.j)
                and np.array_equal(self.value, other.value))

    def astype(self, dtype) -> Couplings:
        """These entries with values of ``dtype`` (int64 or object)."""
        if self.value.dtype == dtype:
            return self
        return Couplings(self.num_vars, self.i, self.j, self.value.astype(dtype))


def _canonical(n: int, i: np.ndarray, j: np.ndarray, value: np.ndarray):
    """The entries sorted by ``(i, j)`` with repeated pairs summed and
    zeros dropped; entries that already are come back as they are."""
    key = i * n + j
    if (key[1:] > key[:-1]).all() and np.count_nonzero(value) == len(value):
        return i, j, value
    if value.dtype != object and _magnitude(value) >= _EXACT:
        value = value.astype(object)  # the sums could wrap in int64
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    value = np.add.reduceat(value[order], first) if len(first) else value[:0]
    kept = value != 0
    i, j = np.divmod(key[first][kept], n)
    return i, j, value[kept]


def _magnitude(values: np.ndarray) -> int:
    """``sum |values|``, exact: an int64 sum when a float64 estimate shows
    it cannot wrap, Python ints otherwise."""
    if values.dtype != object and np.abs(values, dtype=np.float64).sum() < 2.0 ** 62:
        return int(np.abs(values).sum())
    return sum(map(abs, values.tolist()))


@dataclass(frozen=True)
class QuboModel:
    """Upper-triangular sparse quadratic form over decision + slack bits;
    the entries of ``q`` and the offset count in units of ``1/den``.
    Building one raises ``ValueError`` if ``q`` is over another number of
    variables, and makes ``q``'s values int64 if ``|offset| + sum |q|`` is
    below 2**63, Python ints otherwise."""

    num_decision: int
    num_slack: int
    q: Couplings
    offset: int
    den: int
    lambdas: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]
    penalty_rows: tuple[PenaltyRow, ...] = ()
    capacity_vars: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.q.num_vars != self.num_vars:
            raise ValueError(f"q is over {self.q.num_vars} variables, "
                             f"the model has {self.num_vars}")
        object.__setattr__(self, "q", self.q.astype(
            _dtype(abs(self.offset) + self.q.magnitude)))

    @property
    def num_vars(self) -> int:
        return self.num_decision + self.num_slack

    def num_terms(self) -> int:
        return len(self.q)


@dataclass(frozen=True, eq=False)
class IsingModel:
    """Spin form: sum_{i<j} J_ij s_i s_j + sum_i h_i s_i + offset, with
    ``h``, ``j`` and the offset in units of ``1/den``. ``h`` holds one
    field per variable, zeros included; ``j`` has no diagonal entry.
    Building one raises ``ValueError`` if ``h`` or ``j`` is over another
    number of variables or ``j`` has a diagonal entry, and makes the
    values int64 if ``|offset| + sum |h| + sum |j|`` is below 2**63,
    Python ints otherwise."""

    num_vars: int
    h: np.ndarray
    j: Couplings
    offset: int
    den: int

    def __post_init__(self) -> None:
        h = _integers(self.h)
        if h.shape != (self.num_vars,) or self.j.num_vars != self.num_vars:
            raise ValueError(f"h and j must be over the model's {self.num_vars} variables")
        if (self.j.i == self.j.j).any():
            raise ValueError("j has a diagonal entry; fields belong in h")
        dtype = _dtype(abs(self.offset) + _magnitude(h) + self.j.magnitude)
        object.__setattr__(self, "h", _frozen(h.astype(dtype, copy=False)))
        object.__setattr__(self, "j", self.j.astype(dtype))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IsingModel):
            return NotImplemented
        return (self.num_vars == other.num_vars and np.array_equal(self.h, other.h)
                and self.j == other.j and self.offset == other.offset
                and self.den == other.den)


@dataclass(frozen=True)
class DecodedSample:
    y: tuple[int, ...]
    x: tuple[int, ...]
    slack_consistent: bool
    report: FeasibilityReport

    @property
    def feasible(self) -> bool:
        return self.report.feasible


def _as_lambdas(lambdas) -> tuple[Fraction, ...]:
    vals = tuple(Fraction(str(v)) if isinstance(v, float) else Fraction(v)
                 for v in lambdas)
    if len(vals) != 5:
        raise ValueError("expected exactly five penalty weights")
    if any(v < 0 for v in vals):
        raise ValueError("penalty weights must be nonnegative")
    return vals


def encode_qubo(model: IlpModel,
                lambdas: Sequence[Rational] = DEFAULT_LAMBDAS) -> QuboModel:
    """Compile the ILP into an unconstrained quadratic form.

    Each row ``lo <= a . x <= hi`` (``model.lo`` and ``model.hi``),
    capacity aside, adds ``lambda * (a . x - lo - sum of s)^2`` over
    ``hi - lo`` unary slack bits ``s``.

    The objective and the expanded penalty rows are summed as integers in
    units of ``1/den``, ``den`` being the LCM of the penalty weights'
    denominators and ``model.den``, in whose units ``model.obj`` and
    ``model.offset`` hold the objective.
    """
    lam = _as_lambdas(lambdas)
    den = math.lcm(model.den, *(w.denominator for w in lam))
    scaled = [w.numerator * (den // w.denominator) for w in lam]
    n = model.num_vars
    offset = model.offset * (den // model.den)
    next_slack = n
    penalty_rows: list[PenaltyRow] = []

    penalty = np.array([kind != "capacity_forbid" for kind in model.kinds], bool)
    # a penalty row's coeffs are its ILP row's own tuple: no copy is built
    rows = zip(model.kinds, model.tags, model.lo.tolist(), model.hi.tolist(),
               (row.coeffs for row in model.constraints))
    for kind, tag, lo, hi, coeffs in compress(rows, penalty):
        if kind not in _FAMILY_OF_KIND:
            raise ValueError(f"unsupported constraint kind {kind!r}")
        if hi < lo:  # no x meets the row, and a slack chain cannot be < 0 long
            raise ValueError(f"row {tag!r} has lo {lo} > hi {hi}")
        width = hi - lo
        family = _FAMILY_OF_KIND[kind]
        penalty_rows.append(PenaltyRow(
            family=family, tag=tag, coeffs=coeffs, constant=-lo,
            slack_indices=tuple(range(next_slack, next_slack + width))))
        next_slack += width
        offset += scaled[family] * lo * lo

    kept = np.repeat(penalty, np.diff(model.indptr))  # the penalty rows' entries
    capacity_vars = model.indices[~kept].tolist()
    # the diagonal terms of the objective and the capacity rows
    chosen = np.flatnonzero(model.obj)
    diagonal = chosen.tolist() + capacity_vars
    values = [v * (den // model.den) for v in model.obj[chosen].tolist()]
    values += [scaled[_FAMILY_OF_KIND["capacity_forbid"]]] * len(capacity_vars)
    q = Couplings(next_slack, *_raw_triples(model, penalty, kept, scaled, diagonal, values))
    return QuboModel(
        num_decision=n,
        num_slack=next_slack - n,
        q=q,
        offset=offset,
        den=den,
        lambdas=lam,  # type: ignore[arg-type]
        penalty_rows=tuple(penalty_rows),
        capacity_vars=tuple(capacity_vars),
    )


def _raw_triples(model: IlpModel, penalty: np.ndarray, kept: np.ndarray, scaled: Sequence[int],
                 diagonal: list[int], diagonal_values: list[int]):
    """The raw ``(i, j, value)`` arrays of ``encode_qubo``'s terms, with
    repeated pairs: ``diagonal_values`` on the ``diagonal``, then every
    penalty row expanded in one pass.

    The penalty rows are ``model``'s rows but its capacity rows, in order,
    read from its arrays: ``penalty`` marks them and ``kept`` their
    entries. Each is laid out as its CSR entries followed by its ``hi -
    lo`` slack bits, each of coefficient -1, the chains numbered on from
    ``model.num_vars`` in row order. An entry ``a`` (variable ``v_a``,
    coefficient ``c_a``) of a row of weight ``w = scaled[family]`` and
    constant ``k = -lo`` gives ``w c_a (c_a + 2 k)`` on ``(v_a, v_a)``,
    and each later entry ``b`` of its row ``2 w c_a c_b`` on
    ``(min(v_a, v_b), max(v_a, v_b))``. The values are int64 when a bound
    on every product formed, from the largest weight, coefficient and
    constant, is below 2**63, Python ints otherwise."""
    lo = model.lo[penalty]
    top = _largest(model.data) + 1  # a slack bit's |c| is 1
    dtype = _dtype(2 * (max(scaled) + 1) * top * (top + 2 * _largest(lo)))
    sizes = np.diff(model.indptr)[penalty]
    width = (model.hi[penalty] - lo).astype(np.intp)
    at = np.repeat(np.cumsum(sizes), width)  # each chain follows its row's entries
    slack = np.arange(model.num_vars, model.num_vars + width.sum())
    var = np.insert(model.indices[kept], at, slack)
    c = np.insert(model.data[kept].astype(dtype), at, -1)
    lengths = sizes + width
    weight = [scaled[_FAMILY_OF_KIND[kind]] for kind in compress(model.kinds, penalty)]
    w = np.repeat(np.array(weight, dtype), lengths)
    k = np.repeat((-lo).astype(dtype), lengths)
    # entry a pairs with the later entries of its row, a + 1 to its row's end
    later = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(var)) - 1
    a = np.repeat(np.arange(len(var)), later)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
    diagonal = np.array(diagonal, np.intp)
    return (np.concatenate([diagonal, var, np.minimum(var[a], var[b])]),
            np.concatenate([diagonal, var, np.maximum(var[a], var[b])]),
            np.concatenate([_integers(diagonal_values), w * c * (c + 2 * k),
                            2 * w[a] * c[a] * c[b]]))


def qubo_energy(model: QuboModel, y: Sequence[int]) -> Fraction:
    """Exact energy of ``y``: ``qubo_energies`` of the one sample."""
    return qubo_energies(model, [y])[0]


def qubo_energies(model: QuboModel, ys: Sequence[Sequence[int]]) -> list[Fraction]:
    """Exact energies of the samples ``ys``, in order; ``ValueError``
    names the first sample of the wrong length or the first entry outside
    {0, 1}. The sums are in the dtype of ``q``'s values, which the model
    keeps exact."""
    q = model.q
    energies: list[Fraction] = []
    for bits in _bit_blocks(ys, model.num_vars, len(q)):
        # einsum sums the products in buffered chunks, with no int64 copy
        # of the (sample, term) table
        totals = np.einsum("st,t->s", bits[:, q.i] & bits[:, q.j], q.value)
        energies += [Fraction(model.offset + t, model.den) for t in totals.tolist()]
    return energies


def to_ising(model: QuboModel) -> IsingModel:
    """Exact change of variables y = (s + 1) / 2 onto spins s in {-1, +1},
    in units of ``1/(4 model.den)``: an entry ``v`` of ``q`` is ``4 v``
    quarters, ``j`` is the off-diagonal part of ``q``, and ``h_a`` sums
    ``2 q_aa`` and each ``q_ab`` that names ``a``. The sums are int64 when
    ``4 (|offset| + sum |q|)``, which bounds them, is below 2**63."""
    q = model.q
    value = q.value.astype(_dtype(4 * (abs(model.offset) + q.magnitude)), copy=False)
    diagonal = q.i == q.j
    # a diagonal entry names its variable twice, so it counts 2 q_aa
    h = np.zeros(model.num_vars, value.dtype)
    np.add.at(h, q.i, value)
    np.add.at(h, q.j, value)
    offset = 4 * model.offset + int(value.sum()) + int(value[diagonal].sum())
    off = ~diagonal
    return IsingModel(
        num_vars=model.num_vars,
        h=h,
        j=Couplings(model.num_vars, q.i[off], q.j[off], value[off]),
        offset=offset,
        den=4 * model.den)


def ising_energy(model: IsingModel, s: Sequence[int]) -> Fraction:
    """Exact energy of the spins ``s``; ``ValueError`` names a vector of
    the wrong length or the first entry outside {-1, +1}."""
    if len(s) != model.num_vars:
        raise ValueError(f"spin vector length {len(s)} != {model.num_vars}")
    spins = np.asarray(s).reshape(-1)
    bad = (spins != 1) & (spins != -1)
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"spin entry {k} is {spins.tolist()[k]!r}, not -1 or +1")
    spins = spins.astype(np.int8)
    j = model.j
    total = int(model.h @ spins) + int((spins[j.i] * spins[j.j]) @ j.value)
    return Fraction(model.offset + total, model.den)


def consistent_slacks(model: QuboModel, x: Sequence[int]) -> tuple[int, ...]:
    """Extend a decision assignment with energy-minimizing slack bits.

    Unary chains are degenerate (only the bit sum matters); the canonical
    choice fills each chain from its first position. ``ValueError`` names
    a decision of the wrong length or its first entry outside {0, 1}.
    """
    if len(x) != model.num_decision:
        raise ValueError(f"decision length {len(x)} != {model.num_decision}")
    x = _bits([x], model.num_decision)[0].tolist()
    y = x + [0] * model.num_slack
    for row in model.penalty_rows:
        fill = row.best_slack_sum(x)
        for s in row.slack_indices[:fill]:
            y[s] = 1
    return tuple(y)


def slack_optimized_energy(model: QuboModel, x: Sequence[int]) -> Fraction:
    """Minimum QUBO energy over all slack completions of ``x``."""
    return qubo_energy(model, consistent_slacks(model, x))


def decode(model: QuboModel, ilp: IlpModel, y: Sequence[int]) -> DecodedSample:
    """Split a sample into its decision part and check it against the ILP:
    ``decode_many`` of the one sample."""
    return decode_many(model, ilp, [y])[0]


def decode_many(model: QuboModel, ilp: IlpModel,
                ys: Sequence[Sequence[int]]) -> list[DecodedSample]:
    """Decode the samples ``ys``, in order; their energies are
    ``qubo_energies``'s to give.

    Each row's lhs is summed once per sample, by the row evaluator
    ``check_feasibility`` uses, and feeds both the report, built by the
    same routine from the rows whose lhs leaves ``[lo, hi]``, and the
    row's slack check: its chain, read at its ``slack_indices``, must hold
    ``min(max(lhs - lo, 0), width)`` bits, as ``PenaltyRow.best_slack_sum``
    counts them (a penalty row's ``constant`` is ``-lo``).
    ``ilp`` must be the model ``model`` was encoded from, its non-capacity
    rows carrying the tags of ``model.penalty_rows`` in order; otherwise
    ``ValueError`` names the first mismatch. ``ValueError`` also names the
    first sample of the wrong length and the first entry outside {0, 1}.
    """
    if ilp.num_vars != model.num_decision:
        raise ValueError(f"ILP has {ilp.num_vars} variables, "
                         f"QUBO has {model.num_decision} decision variables")
    penalties = model.penalty_rows
    matched = _matched_rows(penalties, ilp.kinds, ilp.tags)
    # each chain is a row of coefficient-1 entries at its slack indices
    width = np.array([len(p.slack_indices) for p in penalties], np.intp)
    chain_ptr = np.concatenate([[0], np.cumsum(width)])
    slack = np.fromiter(chain.from_iterable(p.slack_indices for p in penalties), np.intp)
    # a chain's target, lhs + constant clipped to its width, stays within this
    dtype = _dtype(ilp.reach + max((abs(p.constant) for p in penalties), default=0))
    constant = np.array([p.constant for p in penalties], dtype)

    decoded: list[DecodedSample] = []
    cells = max(len(ilp.indices) + len(slack), model.num_vars)
    for bits in _bit_blocks(ys, model.num_vars, cells):
        lhs = _row_sums(bits, ilp.indptr, ilp.indices, ilp.data)
        chains = _row_sums(bits, chain_ptr, slack, np.ones(len(slack), np.int64))
        consistent = (chains == np.clip(lhs[:, matched] + constant, 0, width)).all(axis=1)
        for y, ok, report in zip(bits.tolist(), consistent.tolist(), _reports(ilp, lhs)):
            y = tuple(y)
            decoded.append(DecodedSample(y=y, x=y[:model.num_decision],
                                         slack_consistent=ok, report=report))
    return decoded


# ---------------------------------------------------------------------------
# Batch evaluation


def _matched_rows(penalties: Sequence[PenaltyRow], kinds: Sequence[str],
                  tags: Sequence[str]) -> list[int]:
    """The index of each penalty row's ILP row, the rows of ``kinds`` and
    ``tags`` but the capacity rows; ``ValueError`` names the first
    mismatch."""
    matched = [index for index, kind in enumerate(kinds) if kind != "capacity_forbid"]
    for index, penalty in zip_longest(matched, penalties):
        if index is None:
            raise ValueError(f"penalty row {penalty.tag!r} meets no ILP row")
        if penalty is None or penalty.tag != tags[index]:
            found = "no penalty row" if penalty is None else f"penalty row {penalty.tag!r}"
            raise ValueError(f"ILP row {index} {tags[index]!r} meets {found}")
    return matched


# ---------------------------------------------------------------------------
# Size and scaling metrics


@dataclass(frozen=True)
class ScalingReport:
    """Built sizes next to the worst-case analytic term bounds."""

    name: str
    n_trips: int
    n_single_only: int
    n_couplable: int
    n_depots: int
    n_types: int
    delta_min: int
    delta_max: int
    ilp_vars: int
    ilp_constraints: int
    qubo_vars: int
    qubo_slacks: int
    qubo_terms: int
    arc_var_bound: int        # |T'|^2 |R| + |T''|^3 |R|
    coverage_term_bound: int  # |T|^5 |R|^2
    continuity_term_bound: int
    depot_term_bound: int
    driver_term_bound: int

    @property
    def total_term_bound(self) -> int:
        return (self.coverage_term_bound + self.continuity_term_bound
                + self.depot_term_bound + self.driver_term_bound)


def scaling_report(instance: Instance, graph: Hypergraph, ilp: IlpModel,
                   qubo: QuboModel, name: str = "") -> ScalingReport:
    bounds = size_bounds(instance, graph)
    t = bounds.n_trips
    r = bounds.n_types
    d = len(instance.depots)
    biggest_depot = max(
        (max(list(dep.out_max.values()) + list((dep.in_max or {}).values()),
             default=0) for dep in instance.depots), default=0)
    max_drivers = max((w.max_drivers for w in instance.driver_windows), default=0)
    checkpoints = len({(w.depot, w.at) for w in instance.driver_windows})
    return ScalingReport(
        name=name or str(instance.meta.get("name", "")),
        n_trips=t,
        n_single_only=bounds.n_single_only,
        n_couplable=bounds.n_couplable,
        n_depots=d,
        n_types=r,
        delta_min=instance.delta_min,
        delta_max=instance.delta_max,
        ilp_vars=ilp.num_vars,
        ilp_constraints=len(ilp.kinds),
        qubo_vars=qubo.num_vars,
        qubo_slacks=qubo.num_slack,
        qubo_terms=qubo.num_terms(),
        arc_var_bound=bounds.var_bound,
        coverage_term_bound=t ** 5 * r ** 2,
        continuity_term_bound=2 * r ** 3 * t ** 5,
        depot_term_bound=2 * r * t * (2 * r * t + biggest_depot) ** 2,
        driver_term_bound=d * checkpoints * (2 * r * t + max_drivers) ** 2,
    )


# ---------------------------------------------------------------------------
# Deterministic text exports


_COO_CHUNK = 2 ** 12  # lines gathered and decoded at a time


def _index_table(n: int) -> np.ndarray:
    """``f"{k} "`` for every ``k < n`` as fixed-width byte rows, a 0 byte
    in place of each leading zero."""
    width = len(str(max(n - 1, 0)))
    k = np.arange(n)[:, None]
    powers = 10 ** np.arange(width - 1, -1, -1)
    digits = (k // powers % 10 + ord("0")).astype(np.uint8)
    digits[:, :-1][k < powers[:-1]] = 0
    space = np.full((n, 1), ord(" "), np.uint8)
    return np.hstack([digits, space]).view(f"S{width + 1}").ravel()


def _coo(kind: str, num_vars: int, offset: int, den: int,
         i: np.ndarray, j: np.ndarray, value: np.ndarray) -> str:
    """A header, then one `i j value` line per entry, in the order given,
    with values in units of ``1/den``.

    Each index and each distinct value is formatted once, into a table of
    fixed-width byte rows padded with 0 bytes. A chunk of lines is one
    gather from those tables into an ``(i, j, value)`` record block, with
    the values looked up in the sorted distinct ones; dropping the block's
    0 bytes leaves the chunk's text, since no index and no
    ``exact_number`` text holds one. Only the arrays, the tables, one
    chunk and the text are held at once."""
    distinct = np.sort(value)
    first = np.ones(len(distinct), bool)
    np.not_equal(distinct[1:], distinct[:-1], out=first[1:])
    distinct = distinct[first]
    texts = np.array([f"{exact_number(Fraction(v, den))}\n".encode()
                      for v in distinct.tolist()], "S")
    names = _index_table(num_vars)
    line = np.dtype([("i", names.dtype), ("j", names.dtype), ("value", texts.dtype)])
    parts = [f"# {kind} num_vars={num_vars} "
             f"offset={exact_number(Fraction(offset, den))}\n"]
    for start in range(0, len(value), _COO_CHUNK):
        rows = slice(start, start + _COO_CHUNK)
        block = np.empty(len(value[rows]), line)
        names.take(i[rows], out=block["i"])
        names.take(j[rows], out=block["j"])
        texts.take(np.searchsorted(distinct, value[rows]), out=block["value"])
        parts.append(block.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


def export_qubo_coo(model: QuboModel) -> str:
    """COO text: one `i j value` line per stored upper-triangular entry."""
    q = model.q
    return _coo("qubo", model.num_vars, model.offset, model.den, q.i, q.j, q.value)


def export_ising_coo(model: IsingModel) -> str:
    """Same shape for the spin form; `i i value` lines carry the nonzero
    fields h_i, each ahead of its row of couplings."""
    fields = np.flatnonzero(model.h)
    j = model.j
    at = np.searchsorted(j.i, fields)  # ahead of the couplings of its row
    return _coo("ising", model.num_vars, model.offset, model.den,
                np.insert(j.i, at, fields), np.insert(j.j, at, fields),
                np.insert(j.value, at, model.h[fields]))
