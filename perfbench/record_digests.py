"""Rewrite digests.json, the artifact digests the benchmark checks.

    python3 perfbench/record_digests.py --seeds 24

For compile-large it records the sha256 of the LP, QUBO-COO and
Ising-COO exports; for anneal-portfolio one sha256 over the sample sets
(states, exact energies, multiplicities). Both for --seed 0..N-1 and for
the fixed reference instance that every run checks. Rerun it only for a
change that is meant to alter those bytes, and say so in the change.
"""

from __future__ import annotations

import argparse
import json

import run


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=24)
    args = ap.parse_args(argv)
    rs = run.import_rollstock()
    table = {}
    for workload in sorted(run.REFERENCE):
        size = run.SIZES[workload]["full"]
        seeds = {}
        for seed in range(args.seeds):
            keys = [run.OPS[workload](rs, text, size, i, seed)["key"]
                    for i, text in enumerate(run.instance_texts(rs, size, seed))]
            seeds[str(seed)] = run.run_digest(workload, keys)
        table[workload] = {"reference": run.reference_digest(rs, workload), "seeds": seeds}
    (run.HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
