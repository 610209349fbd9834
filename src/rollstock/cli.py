"""Command-line front end.

Subcommands: validate, generate, solve-ilp, solve-qubo, enumerate, report,
diagram, export-lp, export-qubo. Artifact files (JSON/CSV/SVG/LP/COO) are
byte-stable for fixed inputs and seeds. Library results carry no clock:
the solve commands time their own stages (solve-ilp prints ``build=``
and ``solve=``, solve-qubo ``build=`` and ``sample=``) and print them to
stdout only. ``ROLLSTOCK_LOG`` sets the level of the ``rollstock`` logger.

The six model commands (solve-ilp, solve-qubo, enumerate, report,
export-lp, export-qubo) load, build and encode through ``_compile``.
Every sampler, generator and penalty-weight option defaults to the
library's own default (``AnnealParams``, ``GeneratorConfig``,
``DEFAULT_LAMBDAS``), as do --driver-weighting and enumerate's
--max-count (``encode_ilp``'s and ``enumerate_feasible``'s signatures),
and both plan files write a plan through ``_plan_record``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import io
import json
import logging
import os
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

from .anneal import AnnealParams, sample_portfolio
from .diagram import render_ascii, render_svg
from .exact import (Solution, SolutionPortfolio, SolveResult, enumerate_feasible,
                    solve_exact)
from .generate import GeneratorConfig, generate_synthetic
from .ilp import IlpModel, encode_ilp, export_lp
from .model import Instance, load_instance, serialize_instance
from .netbuild import Hypergraph, build_hypergraph, to_dot
from .qubo import (DEFAULT_LAMBDAS, QuboModel, encode_qubo, export_ising_coo,
                   export_qubo_coo, scaling_report, to_ising)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_TIME_LIMIT = 3
_EXIT_OF_STATUS = {"optimal": EXIT_OK, "infeasible": EXIT_INFEASIBLE,
                   "time_limit": EXIT_TIME_LIMIT}


def _frac_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _default_of(func, name: str):
    """``func``'s own default for its parameter ``name``."""
    return inspect.signature(func).parameters[name].default


def _add_instance_opts(p: argparse.ArgumentParser, alpha: bool = True,
                       driver_weighting: bool = True) -> None:
    p.add_argument("instance", help="instance JSON file")
    if alpha:
        p.add_argument("--alpha", type=_frac_arg, default=None,
                       help="override the objective weight alpha")
    p.add_argument("--delta-max", type=int, default=None,
                   help="override the maximum turnaround window (arc pruning)")
    if driver_weighting:
        p.add_argument("--driver-weighting", choices=("per_emu", "per_train"),
                       default=_default_of(encode_ilp, "driver_weighting"),
                       help="weight driver rows by en-route EMUs or trains")


def _add_lambda_opts(p: argparse.ArgumentParser) -> None:
    for i, default in enumerate(DEFAULT_LAMBDAS, 1):
        p.add_argument(f"--lambda{i}", type=_frac_arg, default=default,
                       help=f"penalty weight lambda{i} (default {default})")


def _add_out_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None,
                   help="output directory for artifact files")


def _load(args, path: Optional[str] = None) -> Instance:
    """Load ``path`` (default ``args.instance``) with the command's --alpha
    and --delta-max overrides applied (diagram takes no --alpha)."""
    inst = load_instance(path or args.instance)
    overrides = {name: getattr(args, name) for name in ("alpha", "delta_max")
                 if getattr(args, name, None) is not None}
    return dataclasses.replace(inst, **overrides) if overrides else inst


class _Compiled(NamedTuple):
    instance: Instance
    graph: Hypergraph
    ilp: IlpModel
    qubo: Optional[QuboModel]
    build_s: float  # building and encoding, the load not included


def _compile(args, path: Optional[str] = None, qubo: bool = False) -> _Compiled:
    """Load ``path`` as ``_load`` does, build its hypergraph and encode the
    ILP under the command's --driver-weighting (report has no such option:
    its parser sets the library default), and with ``qubo`` the QUBO under
    --lambda1..5."""
    inst = _load(args, path)
    tic = time.monotonic()
    graph = build_hypergraph(inst)
    model = encode_ilp(graph, inst, args.driver_weighting)
    encoded = (encode_qubo(model, [getattr(args, f"lambda{i}") for i in range(1, 6)])
               if qubo else None)
    return _Compiled(inst, graph, model, encoded, time.monotonic() - tic)


def _write(args, artifacts: dict[str, str]) -> None:
    """Write each ``{name: text}`` artifact into ``--out``, if given. The
    caller builds every text first, so a text that cannot be built leaves
    no file and no directory behind."""
    if args.out is None:
        return
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        target = outdir / name
        target.write_text(text, encoding="utf-8")
        print(f"wrote {target}")


def _num_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _as_float(value: Fraction, or_text: bool = False) -> Union[float, str, None]:
    """``float(value)``; beyond the float range, None (a ``*_float`` field
    writes null) or, with ``or_text``, the exact ``n/d`` of a summary line."""
    try:
        return float(value)
    except OverflowError:
        return _num_str(value) if or_text else None


def _arc_record(graph: Hypergraph, arc_id: int) -> dict:
    arc = graph.arcs[arc_id]
    return {
        "id": arc.id,
        "kind": arc.kind,
        "sources": list(arc.sources),
        "targets": list(arc.targets),
        "emu_type": arc.emu_type,
        "k": arc.k,
        "k_prime": arc.k_prime,
        "cost": str(arc.cost),
    }


def _plan_record(graph: Hypergraph, plan: Solution) -> dict:
    """A plan's objective and selected arcs, as both plan files write it."""
    return {
        "objective": _num_str(plan.objective),
        "objective_float": _as_float(plan.objective),
        "selected_arcs": [_arc_record(graph, a) for a in plan.decoded],
    }


def _solution_json(instance: Instance, graph: Hypergraph, model: IlpModel,
                   result: SolveResult) -> str:
    payload: dict = {
        "instance": instance.meta.get("name", ""),
        "alpha": _num_str(instance.alpha),
        "status": result.status,
        "nodes": result.nodes,
    }
    if result.solution is not None:
        payload.update(_plan_record(graph, result.solution),
                       feasible=result.solution.report.feasible,
                       constraints=Counter(model.kinds))
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _portfolio_json(instance: Instance, graph: Hypergraph,
                    portfolio: SolutionPortfolio) -> str:
    payload = {
        "instance": instance.meta.get("name", ""),
        "exhaustive": portfolio.exhaustive,
        "solutions": [_plan_record(graph, plan) for plan in portfolio.solutions],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    inst = _load(args)
    obligatory = sum(1 for t in inst.trips if t.obligatory)
    print(f"valid: {len(inst.trips)} trips ({obligatory} obligatory), "
          f"{len(inst.emu_types)} EMU types, {len(inst.depots)} depots, "
          f"{len(inst.driver_windows)} driver windows")
    return EXIT_OK


def cmd_generate(args) -> int:
    cfg = GeneratorConfig(
        n_trips=args.trips, n_couplable=args.couplable,
        n_depots=args.depots, n_types=args.types,
        delta_min=args.delta_min, delta_max=args.delta_max, alpha=args.alpha,
        with_return_bounds=not args.no_return_bounds)
    inst = generate_synthetic(cfg, seed=args.seed)
    text = serialize_instance(inst)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output} ({len(inst.trips)} trips)")
    return EXIT_OK


def cmd_solve_ilp(args) -> int:
    inst, graph, model, _, build_s = _compile(args)
    tic = time.monotonic()
    result = solve_exact(model, time_limit=args.time_limit)
    solve_s = time.monotonic() - tic

    artifacts = {"solution.json": _solution_json(inst, graph, model, result)}
    if args.emit_lp:
        artifacts["model.lp"] = export_lp(model)
    if args.emit_dot:
        artifacts["hypergraph.dot"] = to_dot(graph)
    _write(args, artifacts)

    print(f"arcs={len(graph.arcs)} rows={len(model.kinds)} "
          f"build={build_s:.3f}s solve={solve_s:.3f}s nodes={result.nodes}")
    summary = f"status={result.status}"
    if result.solution is not None:
        summary += f" objective={_as_float(result.solution.objective, or_text=True)}"
    print(summary)
    return _EXIT_OF_STATUS[result.status]


def cmd_solve_qubo(args) -> int:
    params = AnnealParams(
        num_reads=args.reads, sweeps=args.sweeps,
        beta_min=args.beta_min, beta_max=args.beta_max, seed=args.seed)
    inst, graph, model, qubo, build_s = _compile(args, qubo=True)
    tic = time.monotonic()
    run = sample_portfolio(inst, params=params, graph=graph, ilp=model, qubo=qubo)
    sample_s = time.monotonic() - tic

    rejected_payload = [
        {
            "x": list(r.x),
            "energy": str(r.energy),
            "energy_float": _as_float(r.energy),
            "multiplicity": r.multiplicity,
            "violated_families": list(r.violated_families),
            "slack_consistent": r.slack_consistent,
        }
        for r in run.rejected
    ]
    _write(args, {
        "portfolio.json": _portfolio_json(inst, graph, run.portfolio),
        "rejected.json": json.dumps(rejected_payload, indent=2, sort_keys=True) + "\n",
    })

    print(f"build={build_s:.3f}s sample={sample_s:.3f}s")
    print(f"samples={len(run.samples.entries)} feasible={len(run.portfolio.solutions)} "
          f"rejected={len(run.rejected)} "
          f"success_rate={run.success_rate:.3f} (share of reads at the lowest "
          f"sampled energy)")
    if run.portfolio.solutions:
        best = run.portfolio.solutions[0]
        print(f"best objective={_as_float(best.objective, or_text=True)} "
              f"arcs={list(best.decoded)}")
    else:
        print("no feasible sample; increase --reads/--sweeps")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.show < 0:  # a negative slice end would drop plans from the end
        raise ValueError(f"show must be >= 0, got {args.show}")
    inst, graph, model, _, _ = _compile(args)
    portfolio = enumerate_feasible(model, max_count=args.max_count)
    _write(args, {"portfolio.json": _portfolio_json(inst, graph, portfolio)})
    print(f"feasible={len(portfolio.solutions)} exhaustive={portfolio.exhaustive}")
    for sol in portfolio.solutions[:args.show]:
        print(f"  objective={_as_float(sol.objective, or_text=True)} "
              f"arcs={list(sol.decoded)}")
    return EXIT_OK


def cmd_report(args) -> int:
    columns = ["instance", "|T|", "|T'|/|T''|", "|D|", "|R|", "delta",
               "Delta", "ILP vars", "QUBO vars/terms"]
    rows = []
    for path in args.instances:
        inst, graph, model, qubo, _ = _compile(args, path, qubo=True)
        rep = scaling_report(inst, graph, model, qubo,
                             name=str(inst.meta.get("name", path)))
        rows.append([
            rep.name, str(rep.n_trips),
            f"{rep.n_single_only}/{rep.n_couplable}",
            str(rep.n_depots), str(rep.n_types), str(rep.delta_min),
            str(rep.delta_max), str(rep.ilp_vars),
            f"{rep.qubo_vars}/{rep.qubo_terms}",
        ])

    if args.format == "csv":
        # quoted where a field holds a comma, a quote or a line break
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([columns] + rows)
        text = buffer.getvalue()
    else:
        # a pipe inside a cell, as in the header's |T|, is escaped
        table = [[cell.replace("|", "\\|") for cell in row] for row in [columns, *rows]]
        widths = [max(len(row[i]) for row in table) for i in range(len(columns))]
        lines = [" | ".join(v.ljust(w) for v, w in zip(row, widths)) for row in table]
        lines.insert(1, "-|-".join("-" * w for w in widths))
        text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    _write(args, {f"report.{args.format}": text})
    return EXIT_OK


def _selected_arcs(payload, graph: Hypergraph) -> list[int]:
    """The arc ids of a solve-ilp solution, or of a portfolio's first plan,
    checked against ``graph``; ValueError for any other payload."""
    if not isinstance(payload, dict):
        raise ValueError("solution file must hold a JSON object")
    plans = payload.get("solutions")
    if payload.get("selected_arcs") is None and isinstance(plans, list) and plans:
        payload = plans[0] if isinstance(plans[0], dict) else {}
    arcs = payload.get("selected_arcs")
    if not isinstance(arcs, list):
        raise ValueError("solution file contains no selected arcs")
    for record in arcs:
        if not isinstance(record, dict) or type(record.get("id")) is not int:
            raise ValueError(f"solution arc record {record!r} has no integer id")
        arc_id = record["id"]
        if not 0 <= arc_id < len(graph.arcs) or record.get("emu_type") not in (
                None, graph.arcs[arc_id].emu_type):
            raise ValueError(f"solution arc {arc_id} does not match this instance")
    return [record["id"] for record in arcs]


def cmd_diagram(args) -> int:
    inst = _load(args)
    graph = build_hypergraph(inst)
    payload = json.loads(Path(args.solution).read_text(encoding="utf-8"))
    selected = _selected_arcs(payload, graph)
    svg = render_svg(inst, graph, selected)
    ascii_art = render_ascii(inst, graph, selected)
    _write(args, {"diagram.svg": svg, "diagram.txt": ascii_art})
    sys.stdout.write(ascii_art)
    return EXIT_OK


def cmd_export_lp(args) -> int:
    text = export_lp(_compile(args).ilp)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write(args, {"model.lp": text})
    return EXIT_OK


def cmd_export_qubo(args) -> int:
    qubo = _compile(args, qubo=True).qubo
    if args.out is None:
        sys.stdout.write(export_qubo_coo(qubo))
    else:
        _write(args, {"qubo.coo": export_qubo_coo(qubo),
                      "ising.coo": export_ising_coo(to_ising(qubo))})
    print(f"qubo vars={qubo.num_vars} terms={qubo.num_terms()}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rollstock",
        description="Daily rolling-stock circulation: hypergraph ILP vs "
                    "penalty QUBO with simulated annealing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load and validate an instance")
    _add_instance_opts(p, driver_weighting=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("generate", help="generate a synthetic instance")
    p.add_argument("output", help="target file, or - for stdout")
    p.add_argument("--trips", type=int, required=True)
    p.add_argument("--couplable", type=int, default=GeneratorConfig.n_couplable)
    p.add_argument("--depots", type=int, default=GeneratorConfig.n_depots)
    p.add_argument("--types", type=int, default=GeneratorConfig.n_types)
    p.add_argument("--delta-min", type=int, default=GeneratorConfig.delta_min)
    p.add_argument("--delta-max", type=int, default=GeneratorConfig.delta_max)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=_frac_arg, default=GeneratorConfig.alpha)
    p.add_argument("--no-return-bounds", action="store_true",
                   help="omit depot return bounds (no sink nodes)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve-ilp", help="solve the ILP exactly")
    _add_instance_opts(p)
    _add_out_opt(p)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--emit-lp", action="store_true")
    p.add_argument("--emit-dot", action="store_true")
    p.set_defaults(func=cmd_solve_ilp)

    p = sub.add_parser("solve-qubo",
                       help="anneal the QUBO and post-filter samples")
    _add_instance_opts(p)
    _add_lambda_opts(p)
    _add_out_opt(p)
    p.add_argument("--reads", type=int, default=AnnealParams.num_reads)
    p.add_argument("--sweeps", type=int, default=AnnealParams.sweeps)
    p.add_argument("--beta-min", type=float, default=AnnealParams.beta_min)
    p.add_argument("--beta-max", type=float, default=AnnealParams.beta_max)
    p.add_argument("--seed", type=int, default=AnnealParams.seed)
    p.set_defaults(func=cmd_solve_qubo)

    p = sub.add_parser("enumerate", help="list every feasible plan")
    _add_instance_opts(p)
    _add_out_opt(p)
    p.add_argument("--max-count", type=int, default=_default_of(enumerate_feasible, "max_count"))
    p.add_argument("--show", type=int, default=10)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("report", help="size/scaling table for instances")
    p.add_argument("instances", nargs="*")
    p.add_argument("--alpha", type=_frac_arg, default=None)
    p.add_argument("--delta-max", type=int, default=None)
    _add_lambda_opts(p)
    p.add_argument("--format", choices=("csv", "md"), default="md")
    _add_out_opt(p)
    p.set_defaults(func=cmd_report, driver_weighting=_default_of(encode_ilp, "driver_weighting"))

    p = sub.add_parser("diagram", help="render a plan as SVG + ASCII")
    _add_instance_opts(p, alpha=False, driver_weighting=False)
    p.add_argument("--solution", required=True,
                   help="solution or portfolio JSON from solve-ilp/enumerate")
    _add_out_opt(p)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("export-lp", help="write the model in LP format")
    _add_instance_opts(p)
    _add_out_opt(p)
    p.set_defaults(func=cmd_export_lp)

    p = sub.add_parser("export-qubo", help="write QUBO/Ising in COO text form")
    _add_instance_opts(p)
    _add_lambda_opts(p)
    _add_out_opt(p)
    p.set_defaults(func=cmd_export_qubo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    level = os.environ.get("ROLLSTOCK_LOG", "WARNING").upper()
    if level not in ("CRITICAL", "ERROR", "WARNING", "INFO", "DEBUG"):
        level = "WARNING"
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help (0) or a usage error on stderr (2, which reads as infeasible)
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
    except (ValueError, OSError, OverflowError) as exc:
        # the library rejects bad input with ValueError: InstanceError,
        # GeneratorError and every out-of-range parameter; OSError covers
        # missing files, directories given as files and unwritable outputs;
        # OverflowError a rational too large for the float text of an LP file
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
