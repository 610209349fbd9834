"""ILP encoding of the trip hypergraph and assignment evaluation.

One binary variable per (hyper-)arc. The objective charges alpha times the
operating cost of every selected arc plus one unit per EMU dispatched from
a depot. Constraint families:

coverage        each obligatory trip pointed to by exactly one arc
flow_balance    per (trip node, type): EMUs delivered equal EMUs removed
out_degree      at most one arc leaves a trip node (all types combined)
depot_out       per (depot, type): dispatched EMU count within bounds
depot_in        per (depot, type): returned EMU count within bounds
capacity_forbid arcs that leave a trip they point to overcrowded sum to zero
driver          per (depot, checkpoint[, license]): en-route EMUs within bounds;
                a licensed window only counts arcs of the types its license
                covers, and its rows follow all unlicensed ones

Flow balance weights each incoming arc by the EMUs it places on the node's
trip and each outgoing arc by the EMUs it removes; a coupling hyper-arc
therefore counts once at each feeder trip and twice at the coupled trip.
Nodes without outgoing arcs are day-end rests and get no balance row.

Driver rows weight arcs by en-route EMUs (``per_emu``) or en-route trains
(``per_train``); both readings keep the reference instances' optima intact.

Arcs share few distinct prices (about 20 on a generated 100-trip day), so
each objective coefficient ``alpha * cost`` (plus the EMUs a depot arc
dispatches) is computed once per distinct (cost value, EMUs dispatched)
and shared by the arcs that have it. ``ConstraintRow`` is built in one
step (``model._one_step``).

An arc overcrowds a trip t it points to when its k units of type r leave
``passengers - k*seats > seat_tol`` or ``bicycles - k*bike_slots > bike_tol``,
the tolerances being t's ``*_coupled`` overrides for k = 2, its ``*_single``
ones otherwise, else the instance-wide values; decided once per (t, r, k).

Each row is one incidence set of the hypergraph: H(tau) for coverage,
H(v)^in_r and H(v)^out_r for flow balance and out-degree, H(v_d)_r for the
depot rows and H(t, d) for the driver rows. ``encode_ilp`` alone decides
membership: one pass over the arcs in id order files each arc into the rows
it enters (coverage, flow with ``+k``, driver per en-route checkpoint for
every trip it points to, capacity if it overcrowds one; flow with ``-k'``
and out-degree for every trip it leaves; its depot's row for a depot arc),
so every row's coefficients come out sorted by arc id. A trip's en-route
checkpoints are found once, by bisecting its driver depot's sorted
checkpoint times. The pass costs O(arcs x (endpoints + en-route
checkpoints)); the rows are then emitted in the family order above.

An ``IlpModel`` is valid where it is built (see the class), and the same
pass compiles it once into read-only arrays: the rows in CSR form
(``indptr``, ``indices``, ``data``, scipy's names), their bounds ``lo``
and ``hi``, and the objective as integers ``obj`` over one ``den``, with
each row's ``kinds``, ``tags`` and ``relations`` as tuples. This is the
one place the objective is scaled to integers, and every sum over the
rows is taken from the arrays, unchecked: the row evaluator below,
``_extremes`` (each row's least and most lhs, which branch and bound's
activity bounds, ``brute_force``'s 2**63 guard and ``export_lp``'s
``_lo`` lines share), ``brute_force``'s dense matrix and the QUBO
encoder's expanded squares. Once a model is built, no consumer reads its
rows as built but one: the QUBO encoder hands each row's own ``coeffs``
tuple to its ``PenaltyRow`` by reference, where a copy from the arrays
would cost memory. Branch and bound's entry tables, the QUBO encoder's
capacity terms, ``decode_many``'s match of penalty rows, the reports and
``export_lp`` all read the arrays and the three tuples. Values are int64
while a bound on every sum they form stays below 2**63, and Python ints
in ``object`` arrays otherwise (``_dtype``), the policy the QUBO arrays
follow too.

One row evaluator serves every check: ``_row_sums`` sums each row over a
block of 0/1 samples with one ``np.add.reduceat``, and ``_reports`` turns
only the (sample, row) pairs off their bounds into Python objects.
``check_feasibility`` is the two on one sample, ``decode_many`` the two on
a sample set and ``exact._solutions``, which builds every ``Solution``,
the two on a portfolio. One pricing routine, ``_prices``, sums each
sample's chosen entries of ``obj`` and the ``offset`` in one product;
``objective_value`` is it on one sample. One routine, ``_bits``, checks
every 0/1 assignment these and the QUBO batch routines are given: it turns
a list of samples into one int8 block and names the first sample of the
wrong length, else the first entry outside {0, 1}. ``_bit_blocks`` cuts a
sample list into such blocks of at most ``_BLOCK`` = 2**17 (sample, cell)
pairs, the one block size of every batch routine of both routes.
``ConstraintRow.lhs`` and ``FeasibilityReport.of`` are the per-row
references the tests check the evaluator and the reports against.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, islice
from numbers import Rational
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

import numpy as np

from .model import Depot, EmuType, Instance, Trip, _one_step
from .netbuild import Hypergraph

__all__ = [
    "ConstraintRow",
    "IlpModel",
    "Violation",
    "FeasibilityReport",
    "encode_ilp",
    "objective_value",
    "check_feasibility",
    "export_lp",
]


@_one_step
@dataclass(frozen=True)
class ConstraintRow:
    """A sparse integer row ``lo <= coeffs . x <= hi``.

    It is built as ``= rhs``, ``<= rhs`` or a ``range`` over ``[lo, hi]``.
    ``IlpModel`` compiles it into its arrays (the two ints of ``bounds()``
    into ``lo`` and ``hi``) and its ``kind``, ``tag`` and ``relation``
    into its tuples, and no library path reads the row after that but the
    QUBO encoder, which passes ``coeffs`` on by reference. ``bounds()``
    and ``lhs`` are the per-row references the tests check the model
    against.
    """

    kind: str
    coeffs: tuple[tuple[int, int], ...]  # (var index, integer coefficient)
    relation: str  # "=", "<=", "range"
    rhs: int = 0
    lo: int = 0
    hi: int = 0
    tag: str = ""

    def bounds(self) -> tuple[int, int]:
        """``(lo, hi)`` with ``lo <= coeffs . x <= hi``. A ``<=`` row's lo is
        its least attainable lhs, the sum of its negative coefficients, so
        it never binds."""
        if self.relation == "=":
            return self.rhs, self.rhs
        if self.relation == "<=":
            return sum(c for _, c in self.coeffs if c < 0), self.rhs
        return self.lo, self.hi

    def lhs(self, x: Sequence[int]) -> int:
        return sum(c * x[v] for v, c in self.coeffs)


_RELATIONS = frozenset(("=", "<=", "range"))
_EXACT = 2 ** 63  # int64 holds every sum bounded below this; beyond, Python ints


@dataclass(frozen=True)
class IlpModel:
    """Binary program over arcs; variable i corresponds to arc id i.

    Building one, also through ``dataclasses.replace``, raises
    ``ValueError`` for an objective or row entry outside
    ``range(num_vars)`` and for a relation other than ``=``, ``<=`` or
    ``range``, ``TypeError`` for a row coefficient or bound that is not an
    integer and for an objective coefficient or ``constant`` that is not a
    rational, and sums a row's repeated variable into its first entry, so
    every row names each variable once. Other rows stay the same objects.

    The same pass compiles the model into read-only arrays, from which
    every sum over the rows or the objective is taken, and into the
    tuples ``kinds``, ``tags`` and ``relations``, one entry per row; once
    it is built, the arrays and the tuples are all any consumer reads but
    the QUBO encoder's pass-through of ``coeffs`` (see the module
    docstring), and ``constraints`` stays as the rows it was built from,
    merged. The arrays are the rows in CSR form
    (row ``r`` is ``data[k]`` at variable ``indices[k]`` for ``k`` in
    ``indptr[r]:indptr[r + 1]``, in entry order), their ``bounds()`` as
    ``lo`` and ``hi``, and the objective summed per variable as ``obj``,
    with the constant as ``offset``, both integers in units of ``1/den``,
    ``den`` being the LCM of the objective's and the constant's
    denominators. ``reach`` bounds ``|lhs| + |lo| + |hi|`` of every row at
    every 0/1 assignment. ``data``, ``lo`` and ``hi`` are int64 when
    ``reach`` is below 2**63, and ``obj`` when ``|offset|`` plus the
    objective entries' ``|c|``, in units of ``1/den``, is; otherwise they
    are ``object`` arrays of Python ints. So no sum they form wraps.
    """

    num_vars: int
    objective: tuple[tuple[int, Fraction], ...]
    constraints: tuple[ConstraintRow, ...]
    constant: Fraction = Fraction(0)
    indptr: np.ndarray = field(init=False, repr=False, compare=False)
    indices: np.ndarray = field(init=False, repr=False, compare=False)
    data: np.ndarray = field(init=False, repr=False, compare=False)
    lo: np.ndarray = field(init=False, repr=False, compare=False)
    hi: np.ndarray = field(init=False, repr=False, compare=False)
    reach: int = field(init=False, repr=False, compare=False)
    obj: np.ndarray = field(init=False, repr=False, compare=False)
    offset: int = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)
    kinds: tuple[str, ...] = field(init=False, repr=False, compare=False)
    tags: tuple[str, ...] = field(init=False, repr=False, compare=False)
    relations: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # each step is one pass over all rows; a row is looked at on its
        # own only to merge it
        n, rows = self.num_vars, self.constraints
        self.__dict__.update(kinds=tuple(map(attrgetter("kind"), rows)),
                             tags=tuple(map(attrgetter("tag"), rows)),
                             relations=tuple(map(attrgetter("relation"), rows)))
        if not set(self.relations) <= _RELATIONS:
            k = next(k for k, r in enumerate(self.relations) if r not in _RELATIONS)
            raise ValueError(f"row {self.tags[k]!r} has relation {self.relations[k]!r}, "
                             "not one of =, <=, range")
        coeffs = list(map(attrgetter("coeffs"), rows))
        indptr = np.zeros(len(rows) + 1, np.intp)
        np.cumsum(np.fromiter(map(len, coeffs), np.intp, len(rows)), out=indptr[1:])
        pairs = _integers(chain.from_iterable(chain.from_iterable(coeffs)))  # var, coeff, ...
        # the rows' variables in row and entry order, then the objective's
        named = np.concatenate([pairs[0::2], _integers(map(itemgetter(0), self.objective))])
        outside = (named < 0) | (named >= n)
        if outside.any():
            k = int(outside.argmax())
            owner = ("objective" if k >= indptr[-1]
                     else f"row {self.tags[np.searchsorted(indptr, k, 'right') - 1]!r}")
            raise ValueError(f"{owner} names variable {named[k]}, outside range({n})")
        indices, named = named[:indptr[-1]].astype(np.intp), named[indptr[-1]:].astype(np.intp)
        # a repeated variable sorts next to itself within its row
        key = np.sort(np.repeat(np.arange(len(rows)), np.diff(indptr)) * n + indices)
        if (key[1:] == key[:-1]).any():
            object.__setattr__(self, "constraints", tuple(
                row if len(row.coeffs) == len(dict(row.coeffs))
                else replace(row, coeffs=_merged(row.coeffs)) for row in rows))
            return self.__post_init__()  # compile the merged rows
        bounds = _integers(chain.from_iterable(row.bounds() for row in rows))
        # the longest row times the largest |c|, plus twice the largest bound
        reach = max(map(len, coeffs), default=0) * _largest(pairs[1::2]) + 2 * _largest(bounds)
        data, bounds = pairs[1::2].astype(_dtype(reach)), bounds.astype(_dtype(reach))

        try:
            den = math.lcm(self.constant.denominator, *{c.denominator for _, c in self.objective})
        except AttributeError:  # only now look for the entry that is not a rational
            raise TypeError(next(
                f"{name} is {c!r}, not a rational" for name, c in chain(
                    [("constant", self.constant)],
                    ((f"objective coefficient of variable {v}", c) for v, c in self.objective))
                if not hasattr(c, "denominator"))) from None
        scaled = [c.numerator * (den // c.denominator) for _, c in self.objective]
        offset = self.constant.numerator * (den // self.constant.denominator)
        obj = np.zeros(n, _dtype(sum(map(abs, scaled)) + abs(offset)))
        np.add.at(obj, named, np.array(scaled, obj.dtype))
        self.__dict__.update(
            indptr=_frozen(indptr), indices=_frozen(indices), data=_frozen(data),
            lo=_frozen(bounds[0::2]), hi=_frozen(bounds[1::2]), reach=reach,
            obj=_frozen(obj), offset=offset, den=den)

    def __reduce__(self):
        # rebuilt from its fields, so a copy's arrays are compiled read-only
        return type(self), (self.num_vars, self.objective, self.constraints, self.constant)


def _merged(coeffs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """``coeffs`` with each variable's coefficients summed into its first
    entry."""
    sums: dict[int, int] = {}
    for v, c in coeffs:
        sums[v] = sums.get(v, 0) + c
    return tuple(sums.items())


def _largest(values: np.ndarray) -> int:
    """``max |values|``, exact; 0 for none."""
    return max(-int(values.min()), int(values.max())) if len(values) else 0


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
        return np.fromiter(ints, np.int64, len(ints))
    except OverflowError:
        return np.array(ints, object)


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``."""
    view = array.view()
    view.flags.writeable = False
    return view


def _dtype(bound: int):
    """The value dtype of a model whose sums stay within ``bound``."""
    return np.int64 if bound < _EXACT else object


@dataclass(frozen=True)
class Violation:
    tag: str
    lhs: int
    lo: int
    hi: int


@dataclass(frozen=True)
class FeasibilityReport:
    """Violations grouped by constraint family; feasible iff all lists empty."""

    violations: dict[str, tuple[Violation, ...]] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return not self.violations

    def families(self) -> tuple[str, ...]:
        return tuple(sorted(self.violations))

    def count(self) -> int:
        return sum(len(v) for v in self.violations.values())

    @classmethod
    def of(cls, rows: Iterable[ConstraintRow], sums: Iterable[int]) -> FeasibilityReport:
        """The report on ``rows`` given their lhs values: a row is violated
        when its lhs leaves ``bounds()``. The per-row reference of the
        model's reports; no library path calls it."""
        violations: dict[str, list[Violation]] = {}
        for row, lhs in zip(rows, sums):
            lo, hi = row.bounds()
            if not lo <= lhs <= hi:
                violations.setdefault(row.kind, []).append(
                    Violation(tag=row.tag, lhs=lhs, lo=lo, hi=hi))
        return cls({k: tuple(v) for k, v in violations.items()})


def _bits(ys: Sequence[Sequence[int]], n: int, first: int = 0) -> np.ndarray:
    """The samples ``ys``, each ``n`` long, as one int8 (sample, n) array;
    ``ValueError`` names the first sample of another length, else the
    first entry outside {0, 1}, numbering the samples from ``first``."""
    for y in ys:
        if len(y) != n:
            raise ValueError(f"assignment length {len(y)} != {n}")
    block = np.asarray(ys)
    if block.dtype.kind in "SU":  # numpy read every entry as text: compare them as given
        block = np.asarray(ys, dtype=object)
    if block.dtype != bool:
        bad = (block != 0) & (block != 1)
        if bad.any():
            s, i = divmod(int(bad.argmax()), n)
            raise ValueError(f"sample {first + s} entry {i} is "
                             f"{block[s].tolist()[i]!r}, not 0 or 1")
    return block.astype(np.int8)


_BLOCK = 2 ** 17  # (sample, cell) pairs a batch routine evaluates at a time


def _bit_blocks(ys: Sequence[Sequence[int]], n: int, cells: int):
    """The samples ``ys`` in order as ``_bits`` blocks of at most
    ``_BLOCK // cells`` samples each (at least one)."""
    step = max(1, _BLOCK // max(cells, 1))
    for start in range(0, len(ys), step):
        yield _bits(ys[start:start + step], n, start)


def _prices(model: IlpModel, bits: np.ndarray) -> list[int]:
    """Each sample's objective in units of ``1/den``, the ``offset`` plus
    the entries of ``obj`` it chooses, from the 0/1 (sample, var) array
    ``bits``."""
    return [total + model.offset for total in (bits @ model.obj).tolist()]


def driver_row_weight(arc_k: int, running: int, weighting: str) -> int:
    if weighting == "per_emu":
        return arc_k * running
    if weighting == "per_train":
        return running
    raise ValueError(f"unknown driver weighting {weighting!r}")


def _en_route(instance: Instance) -> dict[str, list[tuple[str, int]]]:
    """Per trip id, the checkpoints ``(depot, at)`` of its driver depot with
    ``depart <= at < arrive``, found by bisecting that depot's sorted
    checkpoint times."""
    times: dict[str, list[int]] = {}
    for depot_id, at in sorted({(w.depot, w.at) for w in instance.driver_windows}):
        times.setdefault(depot_id, []).append(at)
    en_route = {}
    for t in instance.trips:
        depot_id = instance.driver_depot_of(t)
        ats = times.get(depot_id, [])
        lo, hi = bisect_left(ats, t.depart), bisect_left(ats, t.arrive)
        en_route[t.id] = [(depot_id, at) for at in ats[lo:hi]]
    return en_route


def _overcrowded(instance: Instance, trip: Trip, emu: EmuType, k: int) -> bool:
    """k units of emu leave trip more seats or bicycles short than tolerated."""
    return (trip.passengers - k * emu.seats > instance.seat_tolerance(k, trip)
            or trip.bicycles - k * emu.bike_slots > instance.bike_tolerance(k, trip))


def encode_ilp(graph: Hypergraph, instance: Instance,
               driver_weighting: str = "per_emu") -> IlpModel:
    """Encode the hypergraph as a binary linear program."""
    driver_row_weight(1, 1, driver_weighting)  # unknown: fails with or without driver rows
    arcs = graph.arcs
    # one coefficient per distinct (cost value, EMUs dispatched)
    alpha = instance.alpha
    priced: dict[tuple[int, int, int], Fraction] = {}
    objective: list[tuple[int, Fraction]] = []
    for arc in arcs:
        cost = arc.cost
        dispatched = arc.k_prime if arc.kind == "depot_out" else 0
        key = (cost.numerator, cost.denominator, dispatched)
        coeff = priced.get(key)
        if coeff is None:
            coeff = priced[key] = alpha * cost + dispatched
        if coeff:
            objective.append((arc.id, coeff))

    # One pass in id order files every arc into the rows it enters, so each
    # row's (arc id, coefficient) list comes out sorted.
    trip_of = {n.id: n.trip for n in graph.nodes}
    en_route = _en_route(instance)
    cover: dict[str, list[tuple[int, int]]] = {}
    flow: dict[tuple[str, str], list[tuple[int, int]]] = {}
    outdeg: dict[str, list[tuple[int, int]]] = {}
    depot_rows: dict[tuple[str, str, str], list[tuple[int, int]]] = {}
    driver: dict[tuple[str, int], list[tuple[int, int]]] = {}  # (arc, running)
    crowded: dict[tuple[str, str, int], bool] = {}  # (trip, type, k)
    over_capacity: list[int] = []
    for arc in arcs:
        a, r, k = arc.id, arc.emu_type, arc.k
        running: dict[tuple[str, int], int] = {}
        over = False
        for target in arc.targets:
            trip_id = trip_of[target]
            if trip_id is None:  # depot sink
                continue
            cover.setdefault(trip_id, []).append((a, 1))
            flow.setdefault((trip_id, r), []).append((a, k))
            for key in en_route[trip_id]:
                running[key] = running.get(key, 0) + 1
            key = (trip_id, r, k)
            if key not in crowded:
                crowded[key] = _overcrowded(instance, instance.trip_by_id(trip_id),
                                            instance.type_by_id(r), k)
            over = over or crowded[key]
        for source in arc.sources:
            trip_id = trip_of[source]
            if trip_id is None:  # depot source
                continue
            flow.setdefault((trip_id, r), []).append((a, -arc.k_prime))
            outdeg.setdefault(trip_id, []).append((a, 1))
        if arc.kind == "depot_out":
            key = ("depot_out", graph.node(arc.sources[0]).depot, r)
            depot_rows.setdefault(key, []).append((a, arc.k_prime))
        elif arc.kind == "depot_in":
            key = ("depot_in", graph.node(arc.targets[0]).depot, r)
            depot_rows.setdefault(key, []).append((a, k))
        for key, count in running.items():
            driver.setdefault(key, []).append((a, count))
        if over:
            over_capacity.append(a)

    rows: list[ConstraintRow] = []

    for trip in instance.trips:
        if trip.obligatory:
            rows.append(ConstraintRow(
                kind="coverage", relation="=", rhs=1,
                coeffs=tuple(cover.get(trip.id, ())),
                tag=f"cover[{trip.id}]"))

    for trip in instance.trips:
        if trip.id not in outdeg:
            continue  # terminal node: EMUs rest here at day end
        for emu in instance.emu_types:
            coeffs = flow.get((trip.id, emu.id))
            if coeffs:
                rows.append(ConstraintRow(
                    kind="flow_balance", relation="=", rhs=0,
                    coeffs=tuple(coeffs),
                    tag=f"flow[{trip.id},{emu.id}]"))

    for trip in instance.trips:
        if trip.id in outdeg:
            rows.append(ConstraintRow(
                kind="out_degree", relation="<=", rhs=1,
                coeffs=tuple(outdeg[trip.id]),
                tag=f"outdeg[{trip.id}]"))

    # a depot without sink has no depot_in arcs and in_bounds (0, 0)
    for kind, bounds in (("depot_out", Depot.out_bounds),
                         ("depot_in", Depot.in_bounds)):
        for depot in instance.depots:
            for emu in instance.emu_types:
                coeffs = depot_rows.get((kind, depot.id, emu.id), ())
                lo, hi = bounds(depot, emu.id)
                if not coeffs and lo == 0:
                    continue
                rows.append(ConstraintRow(
                    kind=kind, relation="range", lo=lo, hi=hi,
                    coeffs=tuple(coeffs),
                    tag=f"{kind}[{depot.id},{emu.id}]"))

    if over_capacity:
        rows.append(ConstraintRow(
            kind="capacity_forbid", relation="=", rhs=0,
            coeffs=tuple((a, 1) for a in over_capacity),
            tag="capacity"))

    # unlicensed windows first, then licensed ones, each in input order
    for window in sorted(instance.driver_windows,
                         key=lambda w: w.license is not None):
        members = driver.get((window.depot, window.at), ())
        tag = f"{window.depot},{window.at}"
        if window.license is not None:
            covered = instance.license_types(window.license)
            members = [(a, running) for a, running in members
                       if arcs[a].emu_type in covered]
            tag += f",{window.license}"
        if not members and window.min_drivers == 0:
            continue
        coeffs = tuple(
            (a, driver_row_weight(arcs[a].k, running, driver_weighting))
            for a, running in members)
        rows.append(ConstraintRow(
            kind="driver", relation="range",
            lo=window.min_drivers, hi=window.max_drivers,
            coeffs=coeffs,
            tag=f"driver[{tag}]"))

    return IlpModel(num_vars=len(arcs), objective=tuple(objective),
                    constraints=tuple(rows))


def objective_value(model: IlpModel, x: Sequence[int]) -> Fraction:
    """The objective at the 0/1 assignment ``x``: the chosen entries of
    ``obj`` and the ``offset``, over ``den``."""
    return Fraction(_prices(model, _bits([x], model.num_vars))[0], model.den)


def check_feasibility(model: IlpModel, x: Sequence[int]) -> FeasibilityReport:
    bits = _bits([x], model.num_vars)
    return _reports(model, _row_sums(bits, model.indptr, model.indices, model.data))[0]


def _row_sums(bits: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
              data: np.ndarray) -> np.ndarray:
    """Each CSR row's ``sum of data * bits[:, indices]`` for each sample of
    the 0/1 array ``bits``: a (sample, row) array in ``data``'s dtype,
    where an empty row sums to 0."""
    cells = np.zeros((len(bits), len(indices) + 1), data.dtype)  # a 0 past the end
    np.multiply(bits[:, indices], data, out=cells[:, :-1])
    # an empty row's reduceat reads the cell at its start, not 0
    return np.where(np.diff(indptr) > 0, np.add.reduceat(cells, indptr[:-1], axis=1), 0)


def _extremes(model: IlpModel) -> tuple[np.ndarray, np.ndarray]:
    """Each row's least and most lhs over all 0/1 assignments: the sums of
    its negative and of its positive entries, in ``data``'s dtype."""
    ones = np.ones((1, model.num_vars), np.int8)
    return tuple(_row_sums(ones, model.indptr, model.indices, side(model.data, 0))[0]
                 for side in (np.minimum, np.maximum))


def _reports(model: IlpModel, lhs: np.ndarray) -> list[FeasibilityReport]:
    """Each sample's report from its row sums ``lhs``, a (sample, row)
    array: only the pairs whose lhs leaves ``[lo, hi]`` become Python
    objects, grouped by ``kinds`` in row order as ``FeasibilityReport.of``
    groups them."""
    off: list[dict[str, list[Violation]]] = [{} for _ in range(len(lhs))]
    at, k = np.nonzero((lhs < model.lo) | (lhs > model.hi))
    for s, row, value, lo, hi in zip(at.tolist(), k.tolist(), lhs[at, k].tolist(),
                                     model.lo[k].tolist(), model.hi[k].tolist()):
        off[s].setdefault(model.kinds[row], []).append(Violation(model.tags[row], value, lo, hi))
    return [FeasibilityReport({kind: tuple(v) for kind, v in kinds.items()}) for kinds in off]


# ---------------------------------------------------------------------------
# LP file export (CPLEX-LP dialect)


def _lp_number(value: Rational) -> str:
    """Integer text, else the shortest float text (LP files have no n/d)."""
    if value.denominator == 1:
        return str(value.numerator)
    return str(float(value))


def _lp_expr(coeffs: Iterable[tuple[int, Rational]]) -> str:
    parts = []
    for var, coeff in coeffs:
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        parts.append(f"{sign} {_lp_number(abs(coeff))} x{var}")
    if not parts:
        return "0 x0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def _lp_name(tag: str, fallback: str) -> str:
    name = "".join(ch if ch.isalnum() or ch in "_" else "_" for ch in tag)
    return name or fallback


def export_lp(model: IlpModel) -> str:
    """Serialize in LP file format with deterministic x{arc_id} naming; a
    ``range`` row has a ``_lo`` line iff ``lo`` exceeds its least lhs. Row
    names are the sanitized tags; where one would repeat a name already
    written, its row index is appended."""
    lines = ["\\ Problem: rollstock", "Minimize"]
    lines.append(" obj: " + _lp_expr(model.objective))
    lines.append("Subject To")
    names: set[str] = set()
    entries = zip(model.indices.tolist(), model.data.tolist())  # each row takes its own
    rows = zip(model.relations, model.tags, model.lo.tolist(), model.hi.tolist(),
               _extremes(model)[0].tolist(), np.diff(model.indptr).tolist())
    for i, (relation, tag, lo, hi, least, size) in enumerate(rows):
        if relation != "range":  # an = row's rhs is its lo and hi, a <= row's its hi
            parts = [("", relation, hi)]
        else:
            parts = [("_lo", ">=", lo)] if lo > least else []
            parts.append(("_hi", "<=", hi))
        base = _lp_name(tag, f"c{i}")
        while any(base + suffix in names for suffix, _, _ in parts):
            base += f"_{i}"
        expr = _lp_expr(islice(entries, size))
        for suffix, relation, rhs in parts:
            names.add(base + suffix)
            lines.append(f" {base}{suffix}: {expr} {relation} {rhs}")
    lines.append("Bounds")
    for v in range(model.num_vars):
        lines.append(f" 0 <= x{v} <= 1")
    lines.append("Binary")
    if model.num_vars:
        lines.append(" " + " ".join(f"x{v}" for v in range(model.num_vars)))
    lines.append("End")
    return "\n".join(lines) + "\n"
