"""The generator ladder: each pipeline stage's wall time and sizes per rung.

    python3 benchmarks/ladder.py [--rungs 20 80 ...] [--repeat 5] [--out FILE]
    python3 benchmarks/ladder.py --parent PARENT/src --out BENCH.json

A rung is one synthetic day. The T ladder has T = 20, 80, 160, 320, 640
and 1000 trips with ``n_couplable = T/5``, 3 EMU types and 4 depots at
generator seed T; the paper rung (``--rungs 404``) has 404 trips, 11 types,
80 couplable trips and 4 depots at seed 404. Each rung goes through
``generate_synthetic``, ``serialize_instance``, ``loads_instance``,
``build_hypergraph``, ``encode_ilp``, ``export_lp`` and ``encode_qubo``
``--repeat`` times, after one untimed warm-up pass and each time after a
garbage collection, and the script prints and records the median wall
time of each stage and the sizes: arcs, ILP rows, QUBO variables and
terms, the share of QUBO variables that are slack bits, and
``max_degree``, the most distinct neighbours of any QUBO variable.

Outside those repetitions, the script also runs branch and bound,
``solve_exact(model, time_limit=BB_TIME_LIMIT)``, once per rung and tree,
and records its status, node count, objective (as exact text), the digest
of its plan and its wall time. On a rung where every tree finishes within
the time limit on that first run, each tree runs ``--repeat`` times in
all, the trees alternating which goes first, and the median seconds are
recorded beside each run's; the script exits with 1 if a tree's status,
nodes, objective or plan differ between its runs. A rung stopped by the
time limit runs once.
Beside them it records the arcs left free after root propagation: it
builds ``rollstock.exact._Search(model)`` and runs its ``_propagate`` over
every row. That is the script's one read of a private name.

The checkout's ``src`` is always measured. ``--parent`` adds a second
source tree, loaded into the same process under its own name with
``benchmarks/ab.py``'s loader. The two trees then alternate which goes
first from repetition to repetition and from rung to rung, each rung prints
the per-stage ratio (checkout over parent; below 1 is faster), and the
script exits with 1 if the serialized instance or the LP text of any rung
differs between the trees. The branch-and-bound column prints the ratio of
its seconds, and the script also exits with 1 if the trees leave different
free arcs after root propagation, or if, on a rung that both finish within
the time limit, they differ in status, nodes, objective or plan. A rung
stopped by the time limit (T >= 320 today) is recorded but not compared.
``--out`` writes everything as JSON. Times are raw wall clock of one
process, so only ratios taken in one run compare.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ab import load_rollstock  # noqa: E402

LADDER = (20, 80, 160, 320, 640, 1000)
PAPER_TRIPS = 404
RUNGS = {**{t: dict(n_trips=t, n_couplable=t // 5, n_types=3, n_depots=4) for t in LADDER},
         PAPER_TRIPS: dict(n_trips=PAPER_TRIPS, n_couplable=80, n_types=11, n_depots=4)}
STAGES = ("generate_synthetic", "serialize_instance", "loads_instance",
          "build_hypergraph", "encode_ilp", "export_lp", "encode_qubo")
BB_TIME_LIMIT = 20.0  # seconds of branch and bound per rung and tree
BB_RESULT = ("status", "nodes", "objective", "plan")  # equal on every run of a tree


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_rung(rs, gen: dict, seed: int) -> tuple[dict, dict, dict]:
    """One pass of the stages over one rung: the stage times, the sizes
    and the digests of the instance text and the LP text."""
    times = {}

    def timed(stage, *args):
        start = time.perf_counter()
        out = getattr(rs, stage)(*args)
        times[stage] = time.perf_counter() - start
        return out

    cfg = rs.GeneratorConfig(**gen)
    text = timed("serialize_instance", timed("generate_synthetic", cfg, seed))
    inst = timed("loads_instance", text)
    graph = timed("build_hypergraph", inst)
    model = timed("encode_ilp", graph, inst)
    lp = timed("export_lp", model)
    qubo = timed("encode_qubo", model)
    sizes = {"arcs": len(graph.arcs), "ilp_rows": len(model.kinds),
             "qubo_vars": qubo.num_vars, "qubo_terms": qubo.num_terms(),
             "slack_share": round(qubo.num_slack / qubo.num_vars, 4),
             "max_degree": max_degree(qubo)}
    return times, sizes, {"instance": sha256(text), "lp": sha256(lp)}


def max_degree(qubo) -> int:
    """The most distinct neighbours of any QUBO variable (each coupled pair
    is stored once)."""
    q = qubo.q
    off = q.i != q.j
    ends = np.concatenate([q.i[off], q.j[off]])
    return int(np.bincount(ends).max()) if len(ends) else 0


def bb_model(rs, gen: dict, seed: int):
    """One rung's ILP and the arcs root propagation leaves free in it."""
    inst = rs.generate_synthetic(rs.GeneratorConfig(**gen), seed)
    model = rs.encode_ilp(rs.build_hypergraph(inst), inst)
    root = rs.exact._Search(model)
    root._propagate(list(range(len(root.rows))))
    return model, root.x.count(-1)


def run_bb(rs, model) -> dict:
    """One branch-and-bound run on ``model``: its result and seconds."""
    gc.collect()
    start = time.perf_counter()
    result = rs.solve_exact(model, time_limit=BB_TIME_LIMIT)
    seconds = time.perf_counter() - start
    solution = result.solution
    return {"status": result.status, "nodes": result.nodes,
            "objective": None if solution is None else str(rs.exact_number(solution.objective)),
            "plan": None if solution is None else sha256(repr(solution.decoded)),
            "seconds": seconds}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rungs", type=int, nargs="+", default=[*LADDER, PAPER_TRIPS],
                    help=f"trip counts of the rungs to run, from {sorted(RUNGS)}")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--parent", type=Path, default=None,
                    help="src/ directory of a second tree to compare with")
    ap.add_argument("--out", type=Path, default=None, help="JSON file to write")
    args = ap.parse_args(argv)
    if not set(args.rungs) <= set(RUNGS):
        ap.error(f"--rungs must be among {sorted(RUNGS)}")
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")

    trees = {"change": load_rollstock(HERE.parent / "src", "rollstock_change")}
    if args.parent is not None:
        trees["parent"] = load_rollstock(args.parent, "rollstock_parent")
    names = list(trees)
    for rs in trees.values():  # one untimed pass pays each tree's first-call costs
        run_rung(rs, RUNGS[LADDER[0]], 0)
    rows, mismatches = [], []
    for r, trips in enumerate(args.rungs):
        gen, seed = RUNGS[trips], trips
        times = {name: {stage: [] for stage in STAGES} for name in names}
        sizes, digests = {}, {}
        for rep in range(args.repeat):
            for name in (names if (r + rep) % 2 == 0 else names[::-1]):
                gc.collect()
                stage_times, sizes[name], digests[name] = run_rung(trees[name], gen, seed)
                for stage, seconds in stage_times.items():
                    times[name][stage].append(seconds)
        medians = {name: {stage: statistics.median(t) for stage, t in per.items()}
                   for name, per in times.items()}
        models = {name: bb_model(trees[name], gen, seed) for name in names}
        runs = {name: [] for name in names}
        for rep in range(args.repeat):
            for name in (names if (r + rep) % 2 == 0 else names[::-1]):
                runs[name].append(run_bb(trees[name], models[name][0]))
            if rep == 0 and any(runs[name][0]["status"] == "time_limit" for name in names):
                break
        bb = {}
        for name in names:
            first = runs[name][0]
            if any(out[key] != first[key] for out in runs[name] for key in BB_RESULT):
                mismatches.append((trips, f"the {name} tree's branch-and-bound results "
                                          "differ between its runs"))
            each = [out["seconds"] for out in runs[name]]
            bb[name] = {**first, "free_arcs": models[name][1],
                        "seconds": statistics.median(each), "seconds_each": each}
        row = {"trips": trips, "gen": gen, "seed": seed, "sizes": sizes["change"],
               "digests": digests["change"], "stages_s": medians,
               "bb": {name: bb[name] for name in names}}
        print(f"T={trips} seed {seed}: " + ", ".join(f"{k} {v}" for k, v in sizes["change"].items()))
        if "parent" in trees:
            row["ratio"] = {stage: medians["change"][stage] / medians["parent"][stage]
                            for stage in STAGES}
            row["bb_ratio"] = bb["change"]["seconds"] / bb["parent"]["seconds"]
            if digests["change"] != digests["parent"] or sizes["change"] != sizes["parent"]:
                mismatches.append((trips, "the instance or LP digests differ between the trees"))
            if bb["change"]["free_arcs"] != bb["parent"]["free_arcs"]:
                mismatches.append((trips, "the free arcs after root propagation differ "
                                           "between the trees"))
            finished = all(bb[name]["status"] != "time_limit" for name in names)
            if finished and any(bb["change"][key] != bb["parent"][key] for key in BB_RESULT):
                mismatches.append((trips, "the branch-and-bound results differ between the trees"))
        for stage in STAGES:
            line = f"  {stage:<20}" + "".join(
                f" {name} {medians[name][stage] * 1e3:10.3f} ms" for name in names)
            if "ratio" in row:
                line += f"  ratio {row['ratio'][stage]:.3f}"
            print(line)
        for name in names:
            out = bb[name]
            print(f"  {'branch_and_bound':<20} {name} {out['status']}, {out['nodes']} nodes, "
                  f"objective {out['objective']}, {out['free_arcs']} free arcs after root "
                  f"propagation, {out['seconds'] * 1e3:.3f} ms (median of {len(out['seconds_each'])})")
        if "bb_ratio" in row:
            print(f"  {'branch_and_bound':<20} ratio {row['bb_ratio']:.3f}")
        rows.append(row)

    for trips, what in mismatches:
        print(f"FAILED T={trips}: {what}")
    if args.out is not None:
        args.out.write_text(json.dumps({
            "repeat": args.repeat,
            "trees": names,
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "bb_time_limit_s": BB_TIME_LIMIT,
            "rungs": rows}, indent=2) + "\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
