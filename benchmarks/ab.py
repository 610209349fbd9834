"""Interleaved in-process A/B of one perfbench workload on two source trees.

    python3 benchmarks/ab.py PARENT/src src --workload exact-route --seed 4 \
        --count 192 --repeat 4

Loads the ``rollstock`` package of each tree into one process under its own
name, generates the first ``--count`` instances of ``perfbench/run.py``'s
workload at ``--seed`` with the first tree, and runs the workload's
operation (``OPS[workload]``) on each instance with both trees,
``--repeat`` times. Which tree goes first alternates from instance to
instance and from repetition to repetition, so both see the same phases
of a shared machine. Each operation's determinism key must be equal on
both trees; a difference is reported and the script exits with 1.

It prints each tree's geometric mean over instances of the per-instance
median time, and their ratio (second tree over first). A ratio below 1
means the second tree is faster. The times are raw wall clock, not scaled
by perfbench's calibration loop, and the ratio is the figure to read.

One repetition checks answers, not time. On anneal-portfolio, resolving a
difference of a few percent takes ``--repeat 3`` or more: runs of two
identical trees read 0.940 to 1.068 at ``--repeat 1`` and 0.999 to 1.028 at
``--repeat 3`` (16 instances). On exact-route, ``--count 64 --repeat 3``
does not resolve a few percent: two identical trees read 0.973 and 0.993
there. ``--count 96 --repeat 11``, about 100 s a run, separated a change
that read 1.036 from one that read 1.009.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(name: str, path: Path, package: bool = False):
    """The module or package at ``path``, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[str(path.parent)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # relative imports and dataclasses look it up
    spec.loader.exec_module(module)
    return module


def load_rollstock(src: Path, name: str):
    """The ``rollstock`` package under ``src``, imported as ``name``."""
    init = src.resolve() / "rollstock" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"rollstock sources not found under {src}")
    return load(name, init, package=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("first", type=Path, help="src/ directory of the first tree")
    ap.add_argument("second", type=Path, help="src/ directory of the second tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, default=None,
                    help="instances to run (default: the workload's full count)")
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args(argv)

    bench = load("perfbench_run", ROOT / "perfbench" / "run.py")
    if args.workload not in bench.OPS:
        ap.error(f"--workload must be one of {', '.join(sorted(bench.OPS))}")
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    trees = [load_rollstock(args.first, "rollstock_first"),
             load_rollstock(args.second, "rollstock_second")]
    op = bench.OPS[args.workload]
    size = dict(bench.SIZES[args.workload]["full"])
    if args.count is not None:
        size["count"] = min(args.count, size["count"])
    texts = bench.instance_texts(trees[0], size, args.seed)

    times = [[[] for _ in texts] for _ in trees]
    mismatches = []
    for rep in range(args.repeat):
        for i, text in enumerate(texts):
            order = (0, 1) if (i + rep) % 2 == 0 else (1, 0)
            keys = [None, None]
            for side in order:
                start = time.perf_counter()
                keys[side] = op(trees[side], text, size, i, args.seed)["key"]
                times[side][i].append(time.perf_counter() - start)
            if keys[0] != keys[1]:
                mismatches.append(i)

    means = [statistics.geometric_mean(statistics.median(t) for t in side)
             for side in times]
    print(f"{args.workload} seed {args.seed}: {len(texts)} instances x "
          f"{args.repeat} repetitions, order alternating")
    for src, mean in zip((args.first, args.second), means):
        print(f"  {str(src):<40} geometric mean {mean * 1e3:9.3f} ms")
    print(f"  ratio second/first {means[1] / means[0]:.3f}")
    for i in sorted(set(mismatches)):
        print(f"  FAILED instance {i}: determinism keys differ between the trees")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
