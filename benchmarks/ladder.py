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
terms, and the share of QUBO variables that are slack bits.

The checkout's ``src`` is always measured. ``--parent`` adds a second
source tree, loaded into the same process under its own name with
``benchmarks/ab.py``'s loader. The two trees then alternate which goes
first from repetition to repetition and from rung to rung, each rung prints
the per-stage ratio (checkout over parent; below 1 is faster), and the
script exits with 1 if the serialized instance or the LP text of any rung
differs between the trees. ``--out`` writes everything as JSON. Times are
raw wall clock of one process, so only ratios taken in one run compare.
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
             "slack_share": round(qubo.num_slack / qubo.num_vars, 4)}
    return times, sizes, {"instance": sha256(text), "lp": sha256(lp)}


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
        row = {"trips": trips, "gen": gen, "seed": seed, "sizes": sizes["change"],
               "digests": digests["change"], "stages_s": medians}
        print(f"T={trips} seed {seed}: " + ", ".join(f"{k} {v}" for k, v in sizes["change"].items()))
        if "parent" in trees:
            row["ratio"] = {stage: medians["change"][stage] / medians["parent"][stage]
                            for stage in STAGES}
            if digests["change"] != digests["parent"] or sizes["change"] != sizes["parent"]:
                mismatches.append(trips)
        for stage in STAGES:
            line = f"  {stage:<20}" + "".join(
                f" {name} {medians[name][stage] * 1e3:10.3f} ms" for name in names)
            if "ratio" in row:
                line += f"  ratio {row['ratio'][stage]:.3f}"
            print(line)
        rows.append(row)

    for trips in mismatches:
        print(f"FAILED T={trips}: the instance or LP digests differ between the trees")
    if args.out is not None:
        args.out.write_text(json.dumps({
            "repeat": args.repeat,
            "trees": names,
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "rungs": rows}, indent=2) + "\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
