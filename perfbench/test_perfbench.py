"""Self-test of the benchmark: every workload at toy size, both modes.

Each run is a subprocess, because the benchmark re-imports rollstock and
patches its functions while tracing.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=run.ROOT)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.SIZES))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_toy_run_prints_every_metric_with_its_unit(workload, trace):
    code, result = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", trace, "--toy")
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_names_the_workloads_and_metrics_run_py_prints():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.SIZES)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)


def test_exact_check_rejects_an_objective_highs_disagrees_with():
    rs = run.import_rollstock()
    texts = run.instance_texts(rs, run.SIZES["exact-route"]["toy"], 5)
    first = [run.op_exact(rs, text, {}, i, 5) for i, text in enumerate(texts)]
    assert run.check_exact(rs, texts, first) == [""] * len(first)
    first[0]["objective"] += Fraction(1, 2)
    assert run.check_exact(rs, texts, first)[0].startswith("objective")
