"""Classical simulated annealing over QUBO models with post-filtering.

The in-repo stand-in for quantum-annealing hardware: independent
single-spin-flip Metropolis chains under a geometric inverse-temperature
schedule. Read ``r`` draws from its own PCG64 stream derived from
``SeedSequence([seed, r])``, with a fixed per-sweep convention (one
uniform per site per sweep, sites visited in index order), so serial and
read-parallel execution produce the same samples. A plain ``seed ^ r``
derivation would hand nearby master seeds the same set of streams, which
ruins multi-seed statistics.

A sweep runs level by level rather than site by site. Variable ``j`` gets
``level(j) = 1 + max(level(k))`` over the variables ``k < j`` it is
coupled to (0 if none), and variables are renumbered by (level, index).
No two variables of a level are coupled, and of every coupled pair the
lower index sits on the lower level, so one vectorised Metropolis step
per block over all reads sees exactly the states the index-order sweep
would: a site's acceptance depends only on its coupled neighbours. A
block is a level's members with the rows of their neighbours and the
dense couplings between the two. A level whose block would hold more
than ``_CELLS`` cells is cut into consecutive parts of at most
``_CELLS // rows`` members (at least one), each with its own block; its
members are uncoupled, so the parts may run one after another.

Each variable's off-diagonal local field is kept per read as an exact
integer in units of ``1/den``, stored in float64 below 2**53, and updated
after each block from that block's neighbour rows only; no n x n matrix
is built. Exact integer sums do not depend on their order, so the
samples are the same however a level is cut. ``den`` is the model's
``den`` over its gcd with the integer couplings (1 when they are whole
numbers), and ``q_ii`` is the model's integer over its ``den``, one
correctly rounded division. The acceptance test is
``u < exp(-beta * max(s * (field / den + q_ii), 0))`` with
``s = 1 - 2 y_i``, computed without the ``max``: a delta ``<= 0`` still
gives ``exp >= 1 > u``. When the off-diagonal couplings are integers, as
in every model built with integer penalty weights, this is bit for bit
the per-site sweep over a dense float matrix; otherwise the field is
exact and rounded once. Energies are exact, one
:func:`rollstock.qubo.qubo_energies` call over the distinct final states.

Each generator call fills ``ahead = ceil(_DRAW / n)`` whole sweeps of one
read's uniforms, at least one and at most ``sweeps``: the same stream as
one call per sweep, in far fewer calls on small models. The calls of all
reads fill one ``(reads, ahead, n)`` buffer, and each sweep's uniforms are
gathered from it into level order in one ``(n, reads)`` buffer, so
``ahead + 1`` sweeps of uniforms are held, and during a gather one more:
``take`` copies its strided source to a contiguous temporary first.

Most sweeps of a cooling schedule flip nothing, and while none flips the
state stands still. So after a sweep that flips nothing the annealer takes
``least``, the minimum over all sites and reads of
``c = s * (field / den + q_ii)``, built with the ufuncs and operand order
of the acceptance test, and until a sweep flips it skips every sweep
whose smallest uniform is at or above
``bound(beta) = exp(least * -beta) * (1 + 2**-40) + 2**-1022``. The test
takes ``exp`` of ``fl(c * -beta)``, and ``c >= least`` gives
``fl(c * -beta) <= fl(least * -beta)`` because rounding is monotone.
numpy's ``exp`` is accurate to a few ulp: far inside the relative margin
``2**-40`` where its result is normal, and far below the smallest normal
float, the additive margin, where it is subnormal. So no skipped site
would have accepted, and a uniform of exactly 0 is never skipped.
``least`` is positive, or its site would have accepted (``exp >= 1 > u``).
Each look-ahead costs one ``exp`` over the betas left in the block of
uniforms, and each block one ``min`` over its draws, kept per sweep; no
sweep is gathered or tested site by site until the first one the bound
allows, which runs exactly.

A sweep that runs goes through the block loop from the first block; the
bound is the one skip rule. Two fusions cut each block's work without
changing a bit. ``s * -beta`` is one array per sweep: ``(x * s) * -beta``
equals ``x * (s * -beta)`` bit for bit, because ``s = +-1`` and rounding
is symmetric in sign. A block flips its spins with two exact subtractions,
``s -= x`` twice, where ``x`` is ``s`` at an accepting site and 0
elsewhere. The product adds one ``n x reads`` array to the working set.

``sample_portfolio`` is the full pipeline: encode what it is not given,
anneal, decode the distinct samples in one
:func:`rollstock.qubo.decode_many` call, which prices nothing (the
energies stay on the ``SampleEntry``s), keep the distinct feasible plans
as a portfolio, which ``rollstock.exact``'s one block routine checks on
the full ILP and prices as it does every portfolio, and return the
infeasible ones with their violated constraint families. At INFO it logs one line
through the ``rollstock`` logger: distinct samples, feasible reads and
reads per violated family.
"""

from __future__ import annotations

import logging
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exact import SolutionPortfolio, _solutions
from .ilp import IlpModel, encode_ilp
from .model import Instance
from .netbuild import Hypergraph, build_hypergraph
# ``decode`` stays a name of this module: perfbench's tracer wraps
# ``rollstock.anneal.decode``, while ``sample_portfolio`` calls ``decode_many``
from .qubo import (DEFAULT_LAMBDAS, QuboModel, decode, decode_many, encode_qubo,
                   qubo_energies)

__all__ = [
    "AnnealParams",
    "SampleSet",
    "SampleEntry",
    "anneal",
    "sample_portfolio",
    "PortfolioRun",
]

_log = logging.getLogger("rollstock")


@dataclass(frozen=True)
class AnnealParams:
    """Sampler knobs. Defaults mirror a modest hardware protocol: start at
    100 reads and escalate by hand if the optimum stays out of reach."""

    num_reads: int = 100
    sweeps: int = 1000
    beta_min: float = 0.01
    beta_max: float = 10.0
    seed: int = 0

    def __post_init__(self):
        for name in ("num_reads", "sweeps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an int, got {value!r}")
        for name in ("beta_min", "beta_max"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.num_reads < 1:
            raise ValueError("num_reads must be >= 1")
        if self.sweeps < 0:
            raise ValueError("sweeps must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.beta_min > self.beta_max:
            raise ValueError("beta_min must be <= beta_max")
        if self.beta_min <= 0:
            raise ValueError("beta_min must be > 0")


@dataclass(frozen=True)
class SampleEntry:
    y: tuple[int, ...]
    energy: Fraction
    multiplicity: int


@dataclass(frozen=True)
class SampleSet:
    """Deduplicated final chain states, sorted by energy ascending."""

    entries: tuple[SampleEntry, ...]
    num_reads: int

    def lowest(self) -> SampleEntry:
        return self.entries[0]


_DRAW = 2048  # uniforms each generator call fills, in whole sweeps
_CELLS = 2 ** 16  # most cells of a neighbour block, unless one member has more neighbours


@dataclass(frozen=True)
class _Level:
    """Variables ``start:stop`` of the level order, a whole level or a part
    of one, the level-order rows of their neighbours, and the integer
    couplings between the two."""

    start: int
    stop: int
    rows: np.ndarray
    block: np.ndarray  # (len(rows), stop - start)


@dataclass(frozen=True)
class _Schedule:
    order: np.ndarray  # level position -> variable index
    diag: np.ndarray  # diagonal coefficients in level order
    den: int  # couplings and local fields count in units of 1/den
    levels: tuple[_Level, ...]


def _schedule(model: QuboModel) -> _Schedule:
    """Level schedule of the interaction graph and its neighbour blocks."""
    n = model.num_vars
    q = model.q
    diagonal = q.i == q.j
    diag = np.zeros(n)
    largest = model.den * int(sys.float_info.max)  # a diagonal above it has no float64
    for i, value in zip(q.i[diagonal].tolist(), q.value[diagonal].tolist()):
        if abs(value) > largest:
            raise ValueError(f"diagonal q[{i},{i}] too large for a float64")
        diag[i] = value / model.den  # Python ints: one correctly rounded division
    low, high, value = q.i[~diagonal], q.j[~diagonal], q.value[~diagonal]
    g = math.gcd(model.den, *value.tolist())
    den = model.den // g

    # each coupling both ways: variable, neighbour, integer weight
    var = np.concatenate([low, high])
    nb = np.concatenate([high, low])
    weight = np.concatenate([value, value]) // g
    reach = np.zeros(n, weight.dtype)
    np.add.at(reach, var, abs(weight))
    if den > 2 ** 53 or (reach >= 2 ** 53).any():
        raise ValueError("couplings too large for exact float64 local fields")

    lower: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip(low.tolist(), high.tolist()):
        lower[b].append(a)
    level = [0] * n
    for j in range(n):
        level[j] = 1 + max((level[k] for k in lower[j]), default=-1)
    level = np.array(level, np.intp)
    order = np.argsort(level, kind="stable")
    position = np.empty(n, np.intp)
    position[order] = np.arange(n)
    bounds = np.cumsum(np.bincount(level, minlength=1)).tolist()

    # the couplings sorted by member position, which groups them by level;
    # a level whose block would hold more than _CELLS cells is cut into
    # parts of _CELLS // rows members, where rows are the level's neighbours
    member = position[var]
    by_member = np.argsort(member, kind="stable")
    member, neighbour, weight = member[by_member], position[nb[by_member]], weight[by_member]
    levels = []
    for start, stop in zip([0] + bounds, bounds):
        lo, hi = np.searchsorted(member, [start, stop])
        count = len(np.unique(neighbour[lo:hi]))
        width = stop - start if count * (stop - start) <= _CELLS else max(_CELLS // count, 1)
        for a in range(start, stop, width):
            b = min(a + width, stop)
            lo, hi = np.searchsorted(member, [a, b])
            rows = np.unique(neighbour[lo:hi])
            block = np.zeros((len(rows), b - a))
            block[np.searchsorted(rows, neighbour[lo:hi]), member[lo:hi] - a] = weight[lo:hi]
            levels.append(_Level(a, b, rows, block))
    return _Schedule(order, diag[order], den, tuple(levels))


def _delta(f, d, den, out):
    """``out = f / den + d`` elementwise: each site's energy change on
    setting it, which the spin ``s`` turns into the change of a flip."""
    if den == 1:  # f / 1 == f, so integer couplings skip the division
        return np.add(f, d, out=out)
    np.divide(f, den, out=out)
    return np.add(out, d, out=out)


_MARGIN = 1 + 2.0 ** -40  # far above numpy exp's few-ulp relative error
_TINY = np.finfo(float).tiny  # far above exp's error where its result is subnormal


def _bound(least, betas):
    """Above ``exp(c * -beta)`` as numpy computes it for every ``c >= least``,
    one per ``beta`` of ``betas``: a sweep whose uniforms all lie at or
    above it accepts no site (module docstring)."""
    bound = np.exp(least * -betas)
    bound *= _MARGIN
    bound += _TINY
    return bound


def anneal(model: QuboModel, params: AnnealParams = AnnealParams()) -> SampleSet:
    """Run num_reads independent Metropolis chains; deterministic per seed."""
    n = model.num_vars
    if n == 0:
        raise ValueError("cannot anneal an empty model")
    plan = _schedule(model)
    order, den = plan.order, plan.den
    reads = params.num_reads
    rngs = [np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([params.seed, r])))
            for r in range(reads)]
    # chains are columns, variables are rows in level order; spin = 1 - 2 y
    y = np.stack([rng.integers(0, 2, size=n) for rng in rngs], axis=1)[order]
    spin = 1.0 - 2.0 * y
    field = np.zeros((n, reads))  # off-diagonal local fields, times den
    for lv in plan.levels:
        field[lv.rows] += lv.block @ y[lv.start:lv.stop]
    diag = np.repeat(plan.diag[:, None], reads, axis=1)
    scratch = np.empty((n, reads))
    accept = np.empty((n, reads), dtype=bool)
    slope = np.empty((n, reads))  # spin * -beta of the sweep
    u = np.empty((n, reads))  # one sweep's uniforms, level order
    steps = [(spin[sl], field[sl], diag[sl], slope[sl], u[sl], scratch[sl],
              accept[sl], lv.rows, lv.block)
             for lv in plan.levels for sl in [slice(lv.start, lv.stop)]]

    betas = np.geomspace(params.beta_min, params.beta_max, params.sweeps)
    ahead = max(min(-(-_DRAW // n), params.sweeps), 1)  # whole sweeps per call
    draws = np.empty((reads, ahead, n))  # read, sweep, variable index
    # the least change s * (f / den + d) of any site while no sweep since
    # it was taken has flipped, else None (module docstring)
    least = None
    with np.errstate(over="ignore"):  # a downhill delta may overflow exp to inf
        for first in range(0, params.sweeps, ahead):
            count = min(ahead, params.sweeps - first)
            for rng, out in zip(rngs, draws):
                rng.random(out=out[:count])
            low = None  # each sweep's smallest uniform, taken when first needed
            t = 0
            while t < count:
                if least is not None:  # jump to the first sweep the bound allows
                    if low is None:
                        # across reads first: contiguous rows, several times
                        # faster than reducing each read's short sweeps first
                        low = draws[:, :count].min(axis=0).min(axis=1)
                    allowed = low[t:] < _bound(least, betas[first + t:first + count])
                    k = int(allowed.argmax())
                    if not allowed[k]:
                        break
                    t += k
                draws[:, t].T.take(order, axis=0, out=u, mode="clip")
                np.multiply(spin, -betas[first + t], out=slope)
                flipped = False
                for s, f, d, slope_k, u_k, x, a, rows, block in steps:
                    _delta(f, d, den, x)
                    np.multiply(x, slope_k, out=x)
                    np.exp(x, out=x)
                    if not np.count_nonzero(np.less(u_k, x, out=a)):
                        continue
                    flipped = True
                    np.multiply(a, s, out=x)  # x = change of y
                    near = field.take(rows, axis=0)  # rows are distinct
                    near += block @ x
                    field[rows] = near
                    s -= x  # twice: -s where x = s, else s; both exact
                    s -= x
                if flipped:
                    least = None
                elif least is None:
                    _delta(field, diag, den, scratch)
                    least = np.multiply(scratch, spin, out=scratch).min()
                t += 1

    counts: dict[tuple[int, ...], int] = {}
    final = np.empty((n, reads), dtype=int)
    final[order] = spin < 0  # y = 1 where spin = -1
    for row in final.T.tolist():
        y = tuple(row)
        counts[y] = counts.get(y, 0) + 1
    entries = [SampleEntry(y=y, energy=energy, multiplicity=c) for (y, c), energy
               in zip(counts.items(), qubo_energies(model, list(counts)))]
    # every energy is a whole number of 1/den: sort on that integer, as the
    # Fractions would sort, without comparing Fractions
    den = model.den
    entries.sort(key=lambda e: (e.energy.numerator * (den // e.energy.denominator), e.y))
    return SampleSet(entries=tuple(entries), num_reads=reads)


@dataclass(frozen=True)
class RejectedSample:
    y: tuple[int, ...]
    x: tuple[int, ...]
    energy: Fraction
    multiplicity: int
    violated_families: tuple[str, ...]
    slack_consistent: bool


@dataclass(frozen=True)
class PortfolioRun:
    """Outcome of the anneal-and-filter pipeline on one instance."""

    portfolio: SolutionPortfolio
    rejected: tuple[RejectedSample, ...]
    samples: SampleSet
    success_rate: float  # fraction of reads ending at the lowest sampled energy


def sample_portfolio(instance: Optional[Instance],
                     lambdas: Sequence = DEFAULT_LAMBDAS,
                     params: AnnealParams = AnnealParams(),
                     graph: Optional[Hypergraph] = None,
                     ilp: Optional[IlpModel] = None,
                     qubo: Optional[QuboModel] = None) -> PortfolioRun:
    """Build -> encode -> anneal -> decode -> post-filter; stages passed
    in as ``graph``, ``ilp`` or ``qubo`` are used as given (pass an ``ilp``
    encoded ``per_train`` to weight driver rows per train). ``instance``
    is read only to encode a missing ``ilp``, so it may be ``None`` then."""
    if ilp is None:
        if instance is None:
            raise ValueError("sample_portfolio needs an instance or an ilp")
        if graph is None:
            graph = build_hypergraph(instance)
        ilp = encode_ilp(graph, instance)
    if qubo is None:
        qubo = encode_qubo(ilp, lambdas)
    samples = anneal(qubo, params)

    entries = samples.entries
    decoded = decode_many(qubo, ilp, [e.y for e in entries])
    feasible: set[tuple[int, ...]] = set()
    rejected: list[RejectedSample] = []
    for entry, sample in zip(entries, decoded):
        if sample.feasible:
            feasible.add(sample.x)
        else:
            rejected.append(RejectedSample(
                y=entry.y, x=sample.x, energy=entry.energy,
                multiplicity=entry.multiplicity,
                violated_families=sample.report.families(),
                slack_consistent=sample.slack_consistent))

    if _log.isEnabledFor(logging.INFO):
        _log.info("%s", _decode_histogram(samples, rejected))

    lowest = entries[0].energy if entries else None
    hits = sum(e.multiplicity for e in entries if e.energy == lowest)
    return PortfolioRun(
        portfolio=SolutionPortfolio(_solutions(ilp, list(feasible)), exhaustive=False),
        rejected=tuple(rejected),
        samples=samples,
        success_rate=hits / samples.num_reads if samples.num_reads else 0.0)


def _decode_histogram(samples: SampleSet, rejected: Sequence[RejectedSample]) -> str:
    """One line: distinct samples, feasible reads and the reads that
    violate each constraint family."""
    reads: dict[str, int] = {}
    for r in rejected:
        for family in r.violated_families:
            reads[family] = reads.get(family, 0) + r.multiplicity
    feasible = samples.num_reads - sum(r.multiplicity for r in rejected)
    families = ", ".join(f"{f}={n}" for f, n in sorted(reads.items())) or "none"
    return (f"decode: {len(samples.entries)} distinct samples, {feasible} of "
            f"{samples.num_reads} reads feasible; reads per violated family: "
            f"{families}")
