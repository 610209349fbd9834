"""benchmarks/ladder.py: the QUBO degree column and repeated branch and bound.

A rung that every tree finishes within the time limit runs branch and bound
``--repeat`` times per tree and records the median seconds; a run whose
result differs from the tree's first fails the script; a rung stopped by
the time limit runs once.
"""

import importlib.util
import json
import sys

import pytest

from conftest import REPO, as_dict


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location("ladder_script",
                                                  REPO / "benchmarks" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_max_degree_counts_distinct_neighbours(ladder, toy_qubo):
    neighbours = {}
    for i, j in as_dict(toy_qubo.q):
        if i != j:
            neighbours.setdefault(i, set()).add(j)
            neighbours.setdefault(j, set()).add(i)
    assert ladder.max_degree(toy_qubo) == max(map(len, neighbours.values()))


def run(ladder, tmp_path, *args):
    # main loads the checkout's package afresh; a package object made by an
    # earlier call would not get the submodules that are still imported
    for name in [m for m in sys.modules if m.split(".")[0] == "rollstock_change"]:
        del sys.modules[name]
    out = tmp_path / "ladder.json"
    code = ladder.main(["--rungs", "20", "--out", str(out), *args])
    return code, json.loads(out.read_text())["rungs"][0]


def test_a_finished_rung_runs_branch_and_bound_repeat_times(ladder, tmp_path, monkeypatch):
    seconds = iter([5.0, 1.0, 3.0])
    real = ladder.run_bb
    monkeypatch.setattr(ladder, "run_bb",
                        lambda rs, model: {**real(rs, model), "seconds": next(seconds)})
    code, rung = run(ladder, tmp_path, "--repeat", "3")
    assert code == 0
    assert rung["sizes"]["max_degree"] == 10
    bb = rung["bb"]["change"]
    assert (bb["status"], bb["nodes"], bb["seconds"]) == ("optimal", 1, 3.0)
    assert bb["seconds_each"] == [5.0, 1.0, 3.0]


def test_a_result_that_changes_between_runs_fails(ladder, tmp_path, monkeypatch, capsys):
    nodes = iter([1, 1, 2])
    real = ladder.run_bb
    monkeypatch.setattr(ladder, "run_bb",
                        lambda rs, model: {**real(rs, model), "nodes": next(nodes)})
    code, _ = run(ladder, tmp_path, "--repeat", "3")
    assert code == 1
    assert ("FAILED T=20: the change tree's branch-and-bound results differ between its runs"
            in capsys.readouterr().out)


def test_a_time_limited_rung_runs_once(ladder, tmp_path, monkeypatch):
    real = ladder.run_bb
    monkeypatch.setattr(ladder, "run_bb",
                        lambda rs, model: {**real(rs, model), "status": "time_limit"})
    code, rung = run(ladder, tmp_path, "--repeat", "3")
    assert code == 0
    assert len(rung["bb"]["change"]["seconds_each"]) == 1
