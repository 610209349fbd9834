"""Daily railway rolling-stock circulation planning toolkit.

Pipeline: instance -> trip hypergraph -> exact ILP, and independently
-> penalty-method QUBO -> simulated annealing -> post-filtered portfolio.
"""

from .model import (Depot, DriverWindow, EmuType, Instance, InstanceError,
                    Trip, load_instance, loads_instance, serialize_instance)
from .generate import GeneratorConfig, GeneratorError, generate_synthetic
from .netbuild import (HyperArc, Hypergraph, Node, SizeBounds,
                       build_hypergraph, size_bounds, to_dot)
from .ilp import (ConstraintRow, FeasibilityReport, IlpModel,
                  check_feasibility, encode_ilp, export_lp, objective_value)
from .exact import (Solution, SolutionPortfolio, SolveResult, brute_force,
                    enumerate_feasible, solve_exact)
from .qubo import (DEFAULT_LAMBDAS, Couplings, DecodedSample, IsingModel,
                   QuboModel, ScalingReport, consistent_slacks, decode,
                   decode_many, encode_qubo, export_ising_coo,
                   export_qubo_coo, ising_energy, qubo_energies, qubo_energy,
                   scaling_report, slack_optimized_energy, to_ising)
from .anneal import (AnnealParams, PortfolioRun, SampleEntry, SampleSet,
                     anneal, sample_portfolio)
from .diagram import Rotation, render_ascii, render_svg, trace_rotations

__version__ = "0.1.0"

__all__ = [
    "Trip", "EmuType", "Depot", "DriverWindow", "Instance", "InstanceError",
    "load_instance", "loads_instance", "serialize_instance",
    "GeneratorConfig", "GeneratorError", "generate_synthetic",
    "Node", "HyperArc", "Hypergraph", "SizeBounds", "build_hypergraph",
    "size_bounds", "to_dot",
    "ConstraintRow", "IlpModel", "FeasibilityReport", "encode_ilp",
    "objective_value", "check_feasibility", "export_lp",
    "Solution", "SolutionPortfolio", "SolveResult", "solve_exact",
    "enumerate_feasible", "brute_force",
    "Couplings", "QuboModel", "IsingModel", "DecodedSample", "ScalingReport",
    "DEFAULT_LAMBDAS", "encode_qubo", "qubo_energy", "qubo_energies",
    "to_ising", "ising_energy", "decode", "decode_many", "consistent_slacks", "slack_optimized_energy",
    "scaling_report", "export_qubo_coo", "export_ising_coo",
    "AnnealParams", "SampleSet", "SampleEntry", "PortfolioRun", "anneal",
    "sample_portfolio",
    "Rotation", "trace_rotations", "render_svg", "render_ascii",
    "__version__",
]
