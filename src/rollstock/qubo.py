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
order, one unary chain per inequality row.

Both models are integers over one common denominator: ``QuboModel.q``
and ``offset`` count in units of ``1/den``, ``den`` being the LCM of the
penalty weights' denominators, the objective's and the ILP constant's;
``IsingModel`` counts in units of ``1/(4 qubo.den)``. ``Fraction``s
appear only at the boundaries: the energies returned and the COO text.

Each table that grows with the term count is built once. ``encode_qubo``
deletes the zeros of its accumulator in place and returns it as ``q``;
``to_ising`` keys ``j`` with the key tuples of ``q`` and drops its zeros
in place; a COO export holds only the sorted keys, one chunk of lines and
the text.

``q`` keeps the order in which the term-by-term expansion of each row
first hits its keys, and most of its keys name a slack bit. Slack bits are
fresh for each row, so each such key is new when its row is expanded, and
``encode_qubo`` inserts them a block at a time with ``dict.update``, in the
order the expansion would: a decision variable's pairs with the chain go
in at its first occurrence in the row, right after its pairs with the
later decision variables, valued by the sum of its coefficients in the
row; the chain's own pairs follow the decision variables in
``combinations_with_replacement`` order, and then its diagonal is set. A
COO export formats each index and each distinct value once per export and
takes a chunk's values through ``map`` over the tables' own lookups, so
no Python function runs per line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, compress, repeat
from operator import not_
from typing import Optional, Sequence, Union

from .ilp import FeasibilityReport, IlpModel
from .model import Instance, exact_number
from .netbuild import Hypergraph, size_bounds

__all__ = [
    "QuboModel",
    "IsingModel",
    "DecodedSample",
    "PenaltyRow",
    "encode_qubo",
    "qubo_energy",
    "to_ising",
    "ising_energy",
    "decode",
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


@dataclass(frozen=True)
class QuboModel:
    """Upper-triangular sparse quadratic form over decision + slack bits;
    the entries of ``q`` and the offset count in units of ``1/den``."""

    num_decision: int
    num_slack: int
    q: dict[tuple[int, int], int]
    offset: int
    den: int
    lambdas: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]
    slack_map: dict[int, tuple[str, int]]  # slack index -> (row tag, position)
    penalty_rows: tuple[PenaltyRow, ...] = ()
    capacity_vars: tuple[int, ...] = ()

    @property
    def num_vars(self) -> int:
        return self.num_decision + self.num_slack

    def num_terms(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class IsingModel:
    """Spin form: sum_{i<j} J_ij s_i s_j + sum_i h_i s_i + offset, with
    ``h``, ``j`` and the offset in units of ``1/den``."""

    num_vars: int
    h: dict[int, int]
    j: dict[tuple[int, int], int]
    offset: int
    den: int


@dataclass(frozen=True)
class DecodedSample:
    y: tuple[int, ...]
    energy: Fraction
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

    # objective keys first: q keeps the order in which keys were first hit
    acc: dict[tuple[int, int], int] = {}
    get = acc.get
    for v, c in model.objective:
        acc[(v, v)] = get((v, v), 0) + c.numerator * (den // c.denominator)
    offset = model.constant.numerator * (den // model.constant.denominator)

    next_slack = n
    slack_map: dict[int, tuple[str, int]] = {}
    penalty_rows: list[PenaltyRow] = []
    capacity_vars: list[int] = []

    for row in model.constraints:
        kind = row.kind
        if kind not in _FAMILY_OF_KIND:
            raise ValueError(f"unsupported constraint kind {kind!r}")
        family = _FAMILY_OF_KIND[kind]
        weight = scaled[family]

        if kind == "capacity_forbid":
            capacity_vars.extend(v for v, _ in row.coeffs)
            for v, _ in row.coeffs:
                acc[(v, v)] = get((v, v), 0) + weight
            continue

        lo, hi = row.bounds()
        if hi < lo:  # no x meets the row, and a slack chain cannot be < 0 long
            raise ValueError(f"row {row.tag!r} has lo {lo} > hi {hi}")
        constant = -lo
        width = hi - lo
        slacks = tuple(range(next_slack, next_slack + width))
        slack_map.update(zip(slacks, zip(repeat(row.tag), range(width))))
        next_slack += width

        coeffs = row.coeffs
        penalty_rows.append(PenaltyRow(
            family=family, tag=row.tag, coeffs=coeffs,
            constant=constant, slack_indices=slacks))

        # weight * (sum c_i x_i - sum s + constant)^2 expanded over binaries;
        # every key that names a slack bit is new, so those keys go in a
        # block per update, in the order a term-by-term expansion hits them
        summed: dict[int, int] = {}
        if width:
            for v, c in coeffs:
                summed[v] = summed.get(v, 0) + c
        for a, (va, ca) in enumerate(coeffs):
            acc[(va, va)] = get((va, va), 0) + weight * ca * (ca + 2 * constant)
            cross = 2 * weight * ca
            for vb, cb in coeffs[a + 1:]:
                key = (va, vb) if va < vb else (vb, va)
                acc[key] = get(key, 0) + cross * cb
            if va in summed:  # first occurrence of va in the row
                acc.update(zip(zip(repeat(va), slacks),
                               repeat(-2 * weight * summed.pop(va))))
        if width:
            acc.update(zip(combinations_with_replacement(slacks, 2),
                           repeat(2 * weight)))
            acc.update(zip(zip(slacks, slacks),
                           repeat(weight * (1 - 2 * constant))))
        offset += weight * constant * constant

    _drop_zeros(acc)
    return QuboModel(
        num_decision=n,
        num_slack=next_slack - n,
        q=acc,
        offset=offset,
        den=den,
        lambdas=lam,  # type: ignore[arg-type]
        slack_map=slack_map,
        penalty_rows=tuple(penalty_rows),
        capacity_vars=tuple(capacity_vars),
    )


def _drop_zeros(table: dict) -> None:
    """Delete the zero entries of ``table`` in place; the rest keep their
    order."""
    for key in list(compress(table, map(not_, table.values()))):
        del table[key]


def qubo_energy(model: QuboModel, y: Sequence[int]) -> Fraction:
    """Exact energy of ``y``."""
    if len(y) != model.num_vars:
        raise ValueError(f"assignment length {len(y)} != {model.num_vars}")
    total = model.offset + sum(v for (i, j), v in model.q.items() if y[i] and y[j])
    return Fraction(total, model.den)


def to_ising(model: QuboModel) -> IsingModel:
    """Exact change of variables y = (s + 1) / 2 onto spins s in {-1, +1},
    in units of ``1/(4 model.den)``: an entry ``v`` of ``q`` is ``4 v``
    quarters. ``j`` is keyed by the key tuples of ``model.q``."""
    h: dict[int, int] = {}
    j: dict[tuple[int, int], int] = {}
    get = h.get
    offset = 4 * model.offset

    for key, value in model.q.items():
        a, b = key
        if a == b:
            h[a] = get(a, 0) + 2 * value
            offset += 2 * value
        else:
            j[key] = value
            h[a] = get(a, 0) + value
            h[b] = get(b, 0) + value
            offset += value

    _drop_zeros(h)
    _drop_zeros(j)
    return IsingModel(
        num_vars=model.num_vars,
        h=h,
        j=j,
        offset=offset,
        den=4 * model.den)


def ising_energy(model: IsingModel, s: Sequence[int]) -> Fraction:
    if len(s) != model.num_vars:
        raise ValueError(f"spin vector length {len(s)} != {model.num_vars}")
    total = model.offset + sum(v * s[i] for i, v in model.h.items())
    total += sum(v * s[i] * s[j] for (i, j), v in model.j.items())
    return Fraction(total, model.den)


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
    """Split a sample into decision part, check it against the ILP.

    Each row's lhs is summed once and feeds both the ``check_feasibility``
    report and the row's slack check: its chain must hold
    ``min(max(lhs - lo, 0), width)`` bits, as ``PenaltyRow.best_slack_sum``
    counts them (a penalty row's ``constant`` is ``-lo``).
    ``ilp`` must be the model ``model`` was encoded from, its non-capacity
    rows carrying the tags of ``model.penalty_rows`` in order; otherwise
    ``ValueError`` names the first mismatch.
    """
    return _decode(model, ilp, y, None)


def _decode(model: QuboModel, ilp: IlpModel, y: Sequence[int],
            energy: Optional[Fraction]) -> DecodedSample:
    """``decode``, taking ``y``'s energy as given unless it is ``None``."""
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
    return DecodedSample(
        y=y,
        energy=qubo_energy(model, y) if energy is None else energy,
        x=x,
        slack_consistent=consistent,
        report=FeasibilityReport.of(rows, sums))


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
         keys: list, values) -> str:
    """A header, then one `i j value` line per ``(i, j)`` key in ``keys``,
    sorted here in place. ``values(chunk)`` yields the chunk's values in
    units of ``1/den``; each distinct value, and each index, is formatted
    once. Lines are built a chunk at a time, so only the keys, one chunk
    and the text are held at once."""
    keys.sort()
    names = [str(i) for i in range(num_vars)]
    text: dict[int, str] = {}
    parts = [f"# {kind} num_vars={num_vars} "
             f"offset={exact_number(Fraction(offset, den))}\n"]
    for start in range(0, len(keys), _COO_CHUNK):
        chunk = keys[start:start + _COO_CHUNK]
        chunk_values = list(values(chunk))
        for v in set(chunk_values).difference(text):
            text[v] = str(exact_number(Fraction(v, den)))
        parts.append("".join([f"{names[i]} {names[j]} {text[v]}\n"
                              for (i, j), v in zip(chunk, chunk_values)]))
    return "".join(parts)


def export_qubo_coo(model: QuboModel) -> str:
    """COO text: one `i j value` line per stored upper-triangular entry."""
    return _coo("qubo", model.num_vars, model.offset, model.den, list(model.q),
                lambda chunk: map(model.q.__getitem__, chunk))


def export_ising_coo(model: IsingModel) -> str:
    """Same shape for the spin form; `i i value` lines carry the fields h_i."""
    diag = {(i, i): v for i, v in model.h.items()}
    j = model.j
    keys = list(diag)
    keys += j
    # an `(i, i)` key is not in j, so j.get falls back to its field
    return _coo("ising", model.num_vars, model.offset, model.den, keys,
                lambda chunk: map(j.get, chunk, map(diag.get, chunk)))
