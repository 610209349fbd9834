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
penalty weights' denominators, the objective's and the ILP constant's;
``IsingModel`` counts in units of ``1/(4 qubo.den)``. ``Fraction``s
appear only at the boundaries: the energies returned and the COO text.

Both models hold their quadratic couplings as ``Couplings``: parallel
``i``, ``j`` and ``value`` arrays of the nonzero upper-triangular entries,
sorted by ``(i, j)``, each pair once. ``Couplings`` is the one routine
that makes entries canonical, and it does the work only when a vectorised
check finds its input is not: it sums repeated pairs, drops zeros and
sorts. ``encode_qubo`` emits raw ``(i, j, value)`` triples by family as
numpy blocks, the rows of one length at a time and the unary slack chains
(85 % of the 365,674 terms of the 1000-trip benchmark instance) one width
at a time, and merges them there once. ``IsingModel.h`` is one array of
``num_vars`` fields. Values are int64 while a model's
``|offset| + sum |value|`` (and, for the Ising model, ``sum |h|``) stays
below 2**63, and Python ints (``object`` arrays) otherwise, since an int64
sum past that wraps silently: so every energy a model prices is exact.
The builders pick their arithmetic the same way: ``encode_qubo`` expands
its rows in int64 when a bound on every product they form is below 2**63,
and ``to_ising`` sums in int64 when ``4 (|offset| + sum |q|)``, which
bounds its offset and fields, is. A COO export streams the sorted arrays a chunk of lines at a time and
formats each index and each distinct value once.

A sample set is evaluated in one call per job: ``qubo_energies`` gives
each sample's ``offset + sum of (y_i & y_j) q_ij`` over the terms, and
``decode_many``, which prices nothing, sums each ILP row and each slack
chain over all samples at once, from the rows laid out once per call in
CSR form (empty rows allowed). Only the (sample, row) pairs whose lhs
leaves ``bounds()`` become Python objects, handed to
``FeasibilityReport.of``, the helper ``check_feasibility`` reports with.
Energies are summed in the dtype of ``q``'s
values; decoding is int64 while for every row ``sum |c| + |lo| + |hi|``
plus its chain's ``|constant| + width`` stays below 2**63, exact Python
ints otherwise. Samples go through in blocks of at most ``_BLOCK`` = 2**17
(sample, cell) pairs, a cell being a term, a row coefficient or a chain
bit, so the scratch of a call stays within a few MiB whatever the sample
count. ``decode`` and ``qubo_energy`` are the one-sample calls; a sample
entry outside {0, 1} is a ``ValueError``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Sequence, Union

import numpy as np

from .ilp import ConstraintRow, FeasibilityReport, IlpModel
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
    ``ValueError`` for an index outside ``range(num_vars)`` or an entry
    with ``i > j``, and leaves the entries sorted by ``(i, j)`` with each
    pair once and no zero: repeated pairs are summed. ``value`` is an int64
    array, or an ``object`` array of Python ints when the input does not
    fit int64 or its repeated pairs could not be summed in it; the arrays
    are read-only. ``magnitude`` is ``sum |value|``, exact.
    """

    num_vars: int
    i: np.ndarray = ()
    j: np.ndarray = ()
    value: np.ndarray = ()
    magnitude: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.num_vars
        i = np.asarray(self.i, np.intp)
        j = np.asarray(self.j, np.intp)
        value = _integers(self.value)
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
        i, j, value = _canonical(n, i, j, value)
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


def _integers(values) -> np.ndarray:
    """``values`` as an int64 array, or as an ``object`` array of Python
    ints if given one or if one of them does not fit int64; a non-integer
    is a ``TypeError``. An int64 array is taken as it is."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.int64:
            return values
        if values.dtype == object:
            return np.array(list(map(operator.index, values.tolist())), object)
        values = values.tolist()
    ints = list(map(operator.index, values))
    try:
        return np.array(ints, np.int64)
    except OverflowError:
        return np.array(ints, object)


def _magnitude(values: np.ndarray) -> int:
    """``sum |values|``, exact: an int64 sum when a float64 estimate shows
    it cannot wrap, Python ints otherwise."""
    if values.dtype != object and np.abs(values, dtype=np.float64).sum() < 2.0 ** 62:
        return int(np.abs(values).sum())
    return sum(map(abs, values.tolist()))


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``."""
    view = array.view()
    view.flags.writeable = False
    return view


def _dtype(bound: int):
    """The value dtype of a model whose sums stay within ``bound``."""
    return np.int64 if bound < _EXACT else object


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

    Each row ``lo <= a . x <= hi`` (from ``bounds()``), capacity aside,
    adds ``lambda * (a . x - lo - sum of s)^2`` over ``hi - lo`` unary
    slack bits ``s``.

    The objective and the expanded penalty rows are summed as integers in
    units of ``1/den``, ``den`` being the LCM of the denominators of the
    penalty weights, the objective coefficients and the ILP constant.
    """
    lam = _as_lambdas(lambdas)
    den = math.lcm(model.constant.denominator, *(w.denominator for w in lam),
                   *{c.denominator for _, c in model.objective})
    scaled = [w.numerator * (den // w.denominator) for w in lam]
    n = model.num_vars

    # the diagonal terms of the objective and the capacity rows
    diagonal = [v for v, _ in model.objective]
    diagonal_values = [c.numerator * (den // c.denominator) for _, c in model.objective]
    offset = model.constant.numerator * (den // model.constant.denominator)
    # the other rows by length: coeffs, weight, constant, chain (-1: none)
    rows_by_length: dict[int, list[tuple]] = {}
    chains: list[tuple[int, int, int, int]] = []  # first bit, width, pair, diagonal
    reach = 0  # bounds every value a row expansion forms

    next_slack = n
    penalty_rows: list[PenaltyRow] = []
    capacity_vars: list[int] = []

    for row in model.constraints:
        kind = row.kind
        if kind not in _FAMILY_OF_KIND:
            raise ValueError(f"unsupported constraint kind {kind!r}")
        family = _FAMILY_OF_KIND[kind]
        weight = scaled[family]

        if kind == "capacity_forbid":
            named = [v for v, _ in row.coeffs]
            capacity_vars += named
            diagonal += named
            diagonal_values += [weight] * len(named)
            continue

        lo, hi = row.bounds()
        if hi < lo:  # no x meets the row, and a slack chain cannot be < 0 long
            raise ValueError(f"row {row.tag!r} has lo {lo} > hi {hi}")
        constant = -lo
        width = hi - lo
        coeffs = row.coeffs
        penalty_rows.append(PenaltyRow(
            family=family, tag=row.tag, coeffs=coeffs, constant=constant,
            slack_indices=tuple(range(next_slack, next_slack + width))))
        if width:
            chains.append((next_slack, width, 2 * weight, weight * (1 - 2 * constant)))
        if coeffs:
            top = max(abs(c) for _, c in coeffs)
            reach = max(reach, 2 * abs(weight) * (top + 1) * (top + 2 * abs(constant) + 1))
            rows_by_length.setdefault(len(coeffs), []).append(
                (coeffs, weight, constant, len(chains) - 1 if width else -1))
        next_slack += width
        offset += weight * constant * constant

    q = Couplings(next_slack, *_raw_triples(
        diagonal, diagonal_values, rows_by_length, chains, _dtype(reach)))
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


def _raw_triples(diagonal: list[int], diagonal_values: list[int],
                 rows_by_length: dict[int, list[tuple]],
                 chains: Sequence[tuple[int, int, int, int]], dtype):
    """The raw ``(i, j, value)`` arrays of ``encode_qubo``'s terms, with
    repeated pairs; ``dtype`` holds every value a row expansion forms.

    A row ``(coeffs, weight, constant, chain)`` of ``m`` coefficients
    ``c_a`` of variables ``v_a`` gives ``weight c_a (c_a + 2 constant)`` on
    each ``(v_a, v_a)``, ``2 weight c_a c_b`` on each pair ``a < b``, and
    ``-2 weight c_a`` on ``v_a``'s pair with each bit of its chain; rows of
    one length are expanded as one block. A chain ``(first, width, pair,
    diagonal)`` holds bits ``first`` to ``first + width - 1``, with
    ``pair`` on each pair of them and ``diagonal`` on each diagonal, laid
    out a block per width."""
    i = [np.array(diagonal, np.intp)]
    j = [i[0]]
    value = [_integers(diagonal_values)]
    links = []  # (variable, chain, value) arrays
    for m, rows in rows_by_length.items():
        coeffs = np.array([r[0] for r in rows], dtype).reshape(len(rows), m, 2)
        var = coeffs[:, :, 0].astype(np.intp)
        c = coeffs[:, :, 1]
        weight = np.array([r[1] for r in rows], dtype)[:, None]
        constant = np.array([r[2] for r in rows], dtype)[:, None]
        a, b = np.triu_indices(m, 1)
        i += [var.ravel(), np.minimum(var[:, a], var[:, b]).ravel()]
        j += [var.ravel(), np.maximum(var[:, a], var[:, b]).ravel()]
        value += [(weight * c * (c + 2 * constant)).ravel(),
                  (2 * weight * c[:, a] * c[:, b]).ravel()]
        chain = np.array([r[3] for r in rows], np.intp)
        linked = chain >= 0
        links.append((var[linked].ravel(), np.repeat(chain[linked], m),
                      (-2 * weight * c)[linked].ravel()))

    first, width = (np.array([ch[k] for ch in chains], np.intp) for k in (0, 1))
    pair, diag = (_integers([ch[k] for ch in chains]) for k in (2, 3))
    for w in sorted(set(width.tolist())):
        rows = width == w
        a, b = np.triu_indices(w)
        start = first[rows][:, None]
        i.append((start + a).ravel())
        j.append((start + b).ravel())
        value.append(np.where(a == b, diag[rows][:, None], pair[rows][:, None]).ravel())
    for variable, chain, link_value in links:
        count = width[chain]
        bit = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        i.append(np.repeat(variable, count))
        j.append(np.repeat(first[chain], count) + bit)
        value.append(np.repeat(link_value, count))
    return np.concatenate(i), np.concatenate(j), np.concatenate(value)


def qubo_energy(model: QuboModel, y: Sequence[int]) -> Fraction:
    """Exact energy of ``y``: ``qubo_energies`` of the one sample."""
    return qubo_energies(model, [y])[0]


def qubo_energies(model: QuboModel, ys: Sequence[Sequence[int]]) -> list[Fraction]:
    """Exact energies of the samples ``ys``, in order; ``ValueError``
    names the first sample of the wrong length or the first entry outside
    {0, 1}. The sums are in the dtype of ``q``'s values, which the model
    keeps exact."""
    _check_lengths(ys, model.num_vars)
    q = model.q
    energies: list[Fraction] = []
    for bits in _bit_blocks(ys, len(q)):
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
    choice fills each chain from its first position.
    """
    if len(x) != model.num_decision:
        raise ValueError(f"decision length {len(x)} != {model.num_decision}")
    y = list(int(v) for v in x) + [0] * model.num_slack
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

    Each row's lhs is summed once per sample and feeds both the
    ``FeasibilityReport.of`` report, built from the rows whose lhs leaves
    ``bounds()``, and the row's slack check: its chain must hold
    ``min(max(lhs - lo, 0), width)`` bits, as ``PenaltyRow.best_slack_sum``
    counts them (a penalty row's ``constant`` is ``-lo``).
    ``ilp`` must be the model ``model`` was encoded from, its non-capacity
    rows carrying the tags of ``model.penalty_rows`` in order; otherwise
    ``ValueError`` names the first mismatch. ``ValueError`` also names the
    first sample of the wrong length and the first entry outside {0, 1}.
    """
    _check_lengths(ys, model.num_vars)
    if ilp.num_vars != model.num_decision:
        raise ValueError(f"ILP has {ilp.num_vars} variables, "
                         f"QUBO has {model.num_decision} decision variables")
    rows, penalties = ilp.constraints, model.penalty_rows
    matched = _matched_rows(penalties, rows)
    bounds = [row.bounds() for row in rows]
    # every row sum, bound and chain count below lies within its reach
    reach = [sum(abs(c) for _, c in row.coeffs) + abs(lo) + abs(hi)
             for row, (lo, hi) in zip(rows, bounds)]
    reach += [reach[k] + abs(p.constant) + len(p.slack_indices)
              for k, p in zip(matched, penalties)]
    dtype = np.int64 if max(reach, default=0) < _EXACT else object
    lo, hi = np.array(bounds, dtype).reshape(-1, 2).T
    constant = np.array([p.constant for p in penalties], dtype)
    width = np.array([len(p.slack_indices) for p in penalties], np.int64)
    # CSR layout: the rows' (column, coefficient) pairs, then each chain's
    # bits with coefficient 1, end to end; empty rows have no start
    layout = [row.coeffs for row in rows]
    layout += [tuple(zip(p.slack_indices, repeat(1))) for p in penalties]
    lengths = np.array([len(pairs) for pairs in layout], np.intp)
    nonempty = lengths > 0
    starts = (np.cumsum(lengths) - lengths)[nonempty]
    flat = [pair for pairs in layout for pair in pairs]
    columns = np.array([v for v, _ in flat], np.intp)
    coeffs = np.array([c for _, c in flat], dtype)
    nd = model.num_decision

    decoded: list[DecodedSample] = []
    for bits in _bit_blocks(ys, max(len(flat), model.num_vars)):
        sums = np.zeros((len(bits), len(layout)), dtype)
        if len(starts):
            sums[:, nonempty] = np.add.reduceat(bits[:, columns] * coeffs, starts, axis=1)
        lhs, chains = sums[:, :len(rows)], sums[:, len(rows):]
        consistent = (chains == np.clip(lhs[:, matched] + constant, 0, width)).all(axis=1)
        # Python objects only for the (sample, row) pairs off their bounds
        off: dict[int, tuple[list, list]] = {}
        at, k = np.nonzero((lhs < lo) | (lhs > hi))
        for s, row, value in zip(at.tolist(), k.tolist(), lhs[at, k].tolist()):
            pair = off.get(s) or off.setdefault(s, ([], []))
            pair[0].append(rows[row])
            pair[1].append(value)
        for s, (y, ok) in enumerate(zip(bits.tolist(), consistent.tolist())):
            y = tuple(y)
            decoded.append(DecodedSample(
                y=y, x=y[:nd], slack_consistent=ok,
                report=FeasibilityReport.of(*off[s]) if s in off else FeasibilityReport()))
    return decoded


# ---------------------------------------------------------------------------
# Batch evaluation


_BLOCK = 2 ** 17  # (sample, cell) pairs a batch routine evaluates at a time
_EXACT = 2 ** 63  # int64 holds every sum bounded below this; beyond, Python ints


def _check_lengths(ys: Sequence[Sequence[int]], n: int) -> None:
    for y in ys:
        if len(y) != n:
            raise ValueError(f"assignment length {len(y)} != {n}")


def _bit_blocks(ys: Sequence[Sequence[int]], cells: int):
    """The samples ``ys`` in order as int8 arrays of at most
    ``_BLOCK // cells`` samples each (at least one); ``ValueError`` names
    the first entry outside {0, 1}."""
    step = max(1, _BLOCK // max(cells, 1))
    for start in range(0, len(ys), step):
        block = np.asarray(ys[start:start + step])
        if block.dtype != bool:
            bad = (block != 0) & (block != 1)
            if bad.any():
                s, i = divmod(int(bad.argmax()), block.shape[1])
                raise ValueError(f"sample {start + s} entry {i} is "
                                 f"{block[s].tolist()[i]!r}, not 0 or 1")
        yield block.astype(np.int8)


def _matched_rows(penalties: Sequence[PenaltyRow],
                  rows: Sequence[ConstraintRow]) -> list[int]:
    """The index of each penalty row's ILP row; ``ValueError`` names the
    first mismatch."""
    matched = []
    remaining = iter(penalties)
    for index, row in enumerate(rows):
        if row.kind == "capacity_forbid":
            continue
        penalty = next(remaining, None)
        if penalty is None or penalty.tag != row.tag:
            found = "no penalty row" if penalty is None else f"penalty row {penalty.tag!r}"
            raise ValueError(f"ILP row {index} {row.tag!r} meets {found}")
        matched.append(index)
    extra = next(remaining, None)
    if extra is not None:
        raise ValueError(f"penalty row {extra.tag!r} meets no ILP row")
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
        ilp_constraints=len(ilp.constraints),
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


_COO_CHUNK = 2048  # lines formatted and joined at a time


def _coo(kind: str, num_vars: int, offset: int, den: int,
         i: np.ndarray, j: np.ndarray, value: np.ndarray) -> str:
    """A header, then one `i j value` line per entry, in the order given,
    with values in units of ``1/den``. Each index and each distinct value
    is formatted once, and a chunk's lines are one join over a table of
    those strings, so only the arrays, one chunk and the text are held at
    once."""
    names = np.array([f"{k} " for k in range(num_vars)], object)
    text: dict[int, str] = {}
    parts = [f"# {kind} num_vars={num_vars} "
             f"offset={exact_number(Fraction(offset, den))}\n"]
    for start in range(0, len(value), _COO_CHUNK):
        stop = start + _COO_CHUNK
        values = value[start:stop].tolist()
        for v in set(values).difference(text):
            text[v] = f"{exact_number(Fraction(v, den))}\n"
        cells = np.empty((len(values), 3), object)
        cells[:, 0] = names[i[start:stop]]
        cells[:, 1] = names[j[start:stop]]
        cells[:, 2] = list(map(text.__getitem__, values))
        parts.append("".join(cells.ravel().tolist()))
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
