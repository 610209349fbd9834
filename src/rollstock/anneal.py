"""Classical simulated annealing over QUBO models with post-filtering.

The in-repo stand-in for quantum-annealing hardware: independent
single-spin-flip Metropolis chains under a geometric inverse-temperature
schedule. Read ``r`` draws from its own PCG64 stream derived from
``SeedSequence([seed, r])``, with a fixed per-sweep convention (one
uniform block per sweep, sites visited in index order), so serial and
read-parallel execution produce the same samples. A plain ``seed ^ r``
derivation would hand nearby master seeds the same set of streams, which
ruins multi-seed statistics.

``sample_portfolio`` is the full pipeline: build the hypergraph, encode
ILP and QUBO, anneal, decode every distinct sample, keep the feasible
plans as a portfolio and log the infeasible ones with their violated
constraint families.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exact import Solution, SolutionPortfolio
from .ilp import IlpModel, encode_ilp
from .model import Instance
from .netbuild import Hypergraph, build_hypergraph
from .qubo import DEFAULT_LAMBDAS, DecodedSample, QuboModel, decode, encode_qubo, qubo_energy

__all__ = [
    "AnnealParams",
    "SampleSet",
    "SampleEntry",
    "anneal",
    "sample_portfolio",
    "PortfolioRun",
]


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
        if self.num_reads < 1:
            raise ValueError("num_reads must be >= 1")
        if self.sweeps < 0:
            raise ValueError("sweeps must be >= 0")
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

    def energies(self) -> tuple[Fraction, ...]:
        return tuple(e.energy for e in self.entries)


def _dense_couplings(model: QuboModel) -> tuple[np.ndarray, np.ndarray]:
    n = model.num_vars
    diag = np.zeros(n)
    w = np.zeros((n, n))
    for (i, j), value in model.q.items():
        if i == j:
            diag[i] += float(value)
        else:
            w[i, j] += float(value)
            w[j, i] += float(value)
    return diag, w


def anneal(model: QuboModel, params: AnnealParams = AnnealParams()) -> SampleSet:
    """Run num_reads independent Metropolis chains; deterministic per seed."""
    n = model.num_vars
    if n == 0:
        raise ValueError("cannot anneal an empty model")
    diag, w = _dense_couplings(model)
    reads = params.num_reads
    rngs = [np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([params.seed, r])))
            for r in range(reads)]
    states = np.stack([rng.integers(0, 2, size=n) for rng in rngs]).astype(float)

    if params.sweeps > 0:
        betas = np.geomspace(params.beta_min, params.beta_max, params.sweeps)
        for beta in betas:
            uniforms = np.stack([rng.random(n) for rng in rngs])
            for i in range(n):
                field_i = states @ w[i] + diag[i]
                delta = (1.0 - 2.0 * states[:, i]) * field_i
                accept = (delta <= 0.0) | (
                    uniforms[:, i] < np.exp(-beta * np.maximum(delta, 0.0)))
                states[accept, i] = 1.0 - states[accept, i]

    counts: dict[tuple[int, ...], int] = {}
    for row in states.astype(int):
        y = tuple(int(v) for v in row)
        counts[y] = counts.get(y, 0) + 1
    entries = [SampleEntry(y=y, energy=qubo_energy(model, y), multiplicity=c)
               for y, c in counts.items()]
    entries.sort(key=lambda e: (e.energy, e.y))
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
    ground_energy: Optional[Fraction]
    success_rate: float  # fraction of reads ending at the lowest sampled energy
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def num_feasible_samples(self) -> int:
        return len(self.portfolio.solutions)


def sample_portfolio(instance: Instance,
                     lambdas: Sequence = DEFAULT_LAMBDAS,
                     params: AnnealParams = AnnealParams(),
                     driver_weighting: str = "per_emu",
                     graph: Optional[Hypergraph] = None,
                     ilp: Optional[IlpModel] = None,
                     qubo: Optional[QuboModel] = None) -> PortfolioRun:
    """Build -> encode -> anneal -> decode -> post-filter."""
    timings: dict[str, float] = {}
    tic = time.monotonic()
    if graph is None:
        graph = build_hypergraph(instance)
    timings["build"] = time.monotonic() - tic

    tic = time.monotonic()
    if ilp is None:
        ilp = encode_ilp(graph, instance, driver_weighting=driver_weighting)
    if qubo is None:
        qubo = encode_qubo(ilp, lambdas)
    timings["encode"] = time.monotonic() - tic

    tic = time.monotonic()
    samples = anneal(qubo, params)
    timings["anneal"] = time.monotonic() - tic

    tic = time.monotonic()
    feasible: dict[tuple[int, ...], DecodedSample] = {}
    rejected: list[RejectedSample] = []
    for entry in samples.entries:
        sample = decode(qubo, ilp, entry.y)
        if sample.feasible:
            feasible.setdefault(sample.x, sample)
        else:
            rejected.append(RejectedSample(
                y=entry.y, x=sample.x, energy=entry.energy,
                multiplicity=entry.multiplicity,
                violated_families=sample.report.families(),
                slack_consistent=sample.slack_consistent))
    solutions = sorted(
        (Solution.from_assignment(ilp, x) for x in feasible),
        key=lambda s: (s.objective, s.x))
    portfolio = SolutionPortfolio(solutions=tuple(solutions), exhaustive=False)
    timings["decode"] = time.monotonic() - tic

    lowest = samples.entries[0].energy if samples.entries else None
    hits = sum(e.multiplicity for e in samples.entries if e.energy == lowest)
    return PortfolioRun(
        portfolio=portfolio,
        rejected=tuple(rejected),
        samples=samples,
        ground_energy=lowest,
        success_rate=hits / samples.num_reads if samples.num_reads else 0.0,
        timings=timings)
