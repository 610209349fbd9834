import json

import pytest

from rollstock.cli import main
from rollstock.model import load_instance

from conftest import REPO, TOY_PATH

TOY = str(TOY_PATH)
GOLDEN_TOY = REPO / "tests" / "golden" / "toy"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_toy(capsys):
    code, out, _ = run(capsys, "validate", TOY)
    assert code == 0
    assert "3 obligatory" in out


def test_missing_file_names_path(capsys):
    code, _, err = run(capsys, "solve-ilp", "instances/nope.json")
    assert code == 1
    assert "nope.json" in err


def assert_clean_error(code, out, err):
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in out + err


def test_directory_as_instance_is_an_input_error(capsys):
    assert_clean_error(*run(capsys, "validate", str(TOY_PATH.parent)))


def test_file_as_out_directory_is_an_input_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert_clean_error(*run(capsys, "solve-ilp", TOY, "--out", str(taken)))


def test_directory_as_solution_is_an_input_error(capsys):
    assert_clean_error(*run(capsys, "diagram", TOY, "--solution",
                            str(TOY_PATH.parent)))


def test_negative_seed_is_an_input_error(capsys):
    code, out, err = run(capsys, "solve-qubo", TOY, "--seed", "-1")
    assert_clean_error(code, out, err)
    assert err.startswith("error: seed")


def test_invalid_instance_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alpha": 0, "delta_min": 5, "delta_max": 1, '
                   '"emu_types": [], "depots": [], "trips": []}')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "delta_min" in err


def test_solve_ilp_toy(tmp_path, capsys):
    code, out, _ = run(capsys, "solve-ilp", TOY, "--alpha", "0.01",
                       "--out", str(tmp_path), "--emit-lp", "--emit-dot")
    assert code == 0
    assert "objective=4.8" in out
    payload = json.loads((tmp_path / "solution.json").read_text())
    assert payload["status"] == "optimal"
    assert payload["objective"] == "24/5"
    assert [a["id"] for a in payload["selected_arcs"]] == [0, 2, 10]
    assert (tmp_path / "model.lp").exists()
    assert (tmp_path / "hypergraph.dot").exists()


def test_solve_ilp_alpha_zero(capsys):
    code, out, _ = run(capsys, "solve-ilp", TOY, "--alpha", "0")
    assert code == 0
    assert "objective=2.0" in out


def test_solve_ilp_infeasible_exit_code(tmp_path, capsys):
    data = json.loads(TOY_PATH.read_text())
    for depot in data["depots"]:
        depot["out_max"] = {"r1": 0, "r2": 0}
    bad = tmp_path / "stuck.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "solve-ilp", str(bad))
    assert code == 2
    assert "infeasible" in out


def test_solve_qubo_toy(tmp_path, capsys):
    code, out, _ = run(capsys, "solve-qubo", TOY, "--seed", "1",
                       "--out", str(tmp_path))
    assert code == 0
    assert "best objective=4.8" in out
    assert "sample=" in out
    portfolio = json.loads((tmp_path / "portfolio.json").read_text())
    assert [s["objective_float"] for s in portfolio["solutions"]] == [4.8, 5.6, 5.6]
    rejected = json.loads((tmp_path / "rejected.json").read_text())
    assert rejected and all(r["violated_families"] for r in rejected)


def test_solve_qubo_degenerate_params_still_exit_0(capsys):
    code, out, _ = run(capsys, "solve-qubo", TOY, "--reads", "1",
                       "--sweeps", "0")
    assert code == 0
    assert "rejected=" in out


def test_solve_qubo_zero_reads_is_an_input_error(capsys):
    code, out, err = run(capsys, "solve-qubo", TOY, "--reads", "0")
    assert code == 1
    assert err.strip() == "error: num_reads must be >= 1"
    assert "Traceback" not in out + err


def test_solve_qubo_nan_beta_is_an_input_error(capsys):
    code, out, err = run(capsys, "solve-qubo", TOY, "--beta-min", "nan")
    assert code == 1
    assert err.startswith("error: beta_min must be a finite number")
    assert "Traceback" not in out + err


def test_enumerate_toy(capsys):
    code, out, _ = run(capsys, "enumerate", TOY)
    assert code == 0
    assert "feasible=3 exhaustive=True" in out


def test_report_toy_row(capsys):
    code, out, _ = run(capsys, "report", TOY, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("instance,|T|")
    assert lines[1] == "toy,3,2/1,1,2,10,60,11,20/88"


def test_report_empty_list(capsys):
    code, out, _ = run(capsys, "report", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["instance,|T|,|T'|/|T''|,|D|,|R|,"
                                        "delta,Delta,ILP vars,QUBO vars/terms"]


def test_generate_then_solve(tmp_path, capsys):
    target = tmp_path / "gen.json"
    code, _, _ = run(capsys, "generate", str(target), "--trips", "12",
                     "--couplable", "3", "--seed", "5")
    assert code == 0
    inst = load_instance(str(target))
    assert len(inst.trips) == 12
    code, out, _ = run(capsys, "solve-ilp", str(target))
    assert code == 0
    assert "status=optimal" in out


def test_generate_rejects_zero_trips(capsys):
    code, _, err = run(capsys, "generate", "-", "--trips", "0")
    assert code == 1
    assert "n_trips" in err


def test_diagram_from_solution(tmp_path, capsys):
    run(capsys, "solve-ilp", TOY, "--out", str(tmp_path))
    code, out, _ = run(capsys, "diagram", TOY,
                       "--solution", str(tmp_path / "solution.json"),
                       "--out", str(tmp_path))
    assert code == 0
    assert "2 rotation(s)" in out
    assert (tmp_path / "diagram.svg").exists()
    assert (tmp_path / "diagram.txt").exists()


def test_diagram_rejects_mismatched_solution(tmp_path, capsys):
    solution = tmp_path / "solution.json"
    for payload, reason in (
            ({"selected_arcs": [{"id": 0, "emu_type": "r9"}]}, "does not match"),
            ({"selected_arcs": [{"emu_type": "r1"}]}, "no integer id"),
            ([1], "JSON object"),
            ({"selected_arcs": [{"id": "3"}]}, "no integer id")):
        solution.write_text(json.dumps(payload))
        code, _, err = run(capsys, "diagram", TOY, "--solution", str(solution))
        assert code == 1
        assert err.startswith("error: ") and reason in err


def test_export_lp_stdout(capsys):
    code, out, _ = run(capsys, "export-lp", TOY)
    assert code == 0
    assert "Minimize" in out and "x10" in out


def test_export_qubo_files(tmp_path, capsys):
    code, _, _ = run(capsys, "export-qubo", TOY, "--out", str(tmp_path))
    assert code == 0
    qubo_text = (tmp_path / "qubo.coo").read_text()
    assert qubo_text.splitlines()[0] == "# qubo num_vars=20 offset=300"
    assert (tmp_path / "ising.coo").exists()


def test_artifacts_are_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for target in (a, b):
        run(capsys, "solve-ilp", TOY, "--out", str(target), "--emit-lp",
            "--emit-dot")
        run(capsys, "solve-qubo", TOY, "--seed", "3", "--out", str(target))
        run(capsys, "diagram", TOY, "--solution", str(target / "solution.json"),
            "--out", str(target))
        run(capsys, "export-qubo", TOY, "--out", str(target))
    for name in ("solution.json", "model.lp", "hypergraph.dot", "portfolio.json",
                 "rejected.json", "diagram.svg", "diagram.txt", "qubo.coo",
                 "ising.coo"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # the toy artifacts recorded in tests/golden/toy
    golden = sorted(GOLDEN_TOY.iterdir())
    assert [path.name for path in golden] == [
        "diagram.svg", "diagram.txt", "hypergraph.dot", "ising.coo",
        "model.lp", "portfolio.json", "qubo.coo", "rejected.json", "solution.json"]
    for path in golden:
        assert (a / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("command", ["solve-ilp", "export-lp"])
def test_number_beyond_float_range_is_an_input_error(tmp_path, capsys, command):
    # the objective summary and the LP text are floats; 10^400/3 has none
    data = json.loads(TOY_PATH.read_text())
    data["trips"][0]["distance"] = "1" + "0" * 400 + "/3"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert_clean_error(*run(capsys, command, str(path)))


def test_report_var_counts_monotone_over_generated_sweep(tmp_path, capsys):
    paths = []
    for n in (10, 20, 40):
        target = tmp_path / f"gen{n}.json"
        code, _, _ = run(capsys, "generate", str(target), "--trips", str(n),
                         "--seed", "3")
        assert code == 0
        paths.append(str(target))
    code, out, _ = run(capsys, "report", *paths, "--format", "csv")
    assert code == 0
    ilp_vars = [int(line.split(",")[7])
                for line in out.strip().splitlines()[1:]]
    assert ilp_vars == sorted(ilp_vars)
    assert len(ilp_vars) == 3


def test_solve_qubo_tracks_solve_ilp_on_synthetic(tmp_path, capsys):
    """Cross-command check: the sampled portfolio's best plan lands within
    5% of the exact optimum on the same 30-trip file. Penalty weights are
    lowered to 30 (still above the objective spread): at 100 the chains
    freeze into infeasible traps, the calibration sensitivity the QUBO
    route is known for."""
    target = tmp_path / "syn30.json"
    run(capsys, "generate", str(target), "--trips", "30", "--couplable", "6",
        "--delta-max", "20", "--seed", "2")
    code, out, _ = run(capsys, "solve-ilp", str(target))
    assert code == 0
    exact = float(out.split("objective=")[1].split()[0])
    code, out, _ = run(capsys, "solve-qubo", str(target),
                       "--lambda1", "30", "--lambda2", "30", "--lambda3", "30",
                       "--lambda4", "30", "--lambda5", "30",
                       "--reads", "40", "--sweeps", "2000",
                       "--beta-min", "0.05", "--beta-max", "20",
                       "--seed", "7")
    assert code == 0
    assert "best objective=" in out
    sampled = float(out.split("best objective=")[1].split()[0])
    assert sampled <= exact * 1.05


def test_lambda_override_changes_qubo(capsys):
    code, out, _ = run(capsys, "export-qubo", TOY, "--lambda1", "7")
    assert code == 0
    base_code, base_out, _ = run(capsys, "export-qubo", TOY)
    assert base_code == 0
    assert out != base_out


def test_negative_lambda_is_an_input_error(capsys):
    for command in ("export-qubo", "solve-qubo", "report"):
        code, out, err = run(capsys, command, TOY, "--lambda1", "-5")
        assert code == 1, command
        assert err.strip() == "error: penalty weights must be nonnegative", command
        assert "Traceback" not in out + err


def test_invalid_time_limit_is_an_input_error(capsys):
    for limit in ("nan", "-1"):
        code, out, err = run(capsys, "solve-ilp", TOY, "--time-limit", limit)
        assert code == 1, limit
        assert err.startswith("error: time_limit must be a number >= 0"), limit
        assert "status=" not in out


def test_enumerate_zero_max_count_is_an_input_error(capsys):
    code, out, err = run(capsys, "enumerate", TOY, "--max-count", "0")
    assert code == 1
    assert err.strip() == "error: max_count must be >= 1, got 0"
    assert "feasible=" not in out


def test_solve_ilp_time_limit_exit_code(tmp_path, capsys):
    # this instance needs 3,331 nodes to prove optimality, so the first
    # deadline check, at node 512, stops a zero time limit
    target = tmp_path / "t160.json"
    code, _, _ = run(capsys, "generate", str(target), "--trips", "160",
                     "--couplable", "32", "--types", "3", "--depots", "4",
                     "--seed", "160")
    assert code == 0
    code, out, _ = run(capsys, "solve-ilp", str(target), "--time-limit", "0",
                       "--out", str(tmp_path / "out"))
    assert code == 3
    assert "status=time_limit" in out
    assert "nodes=512" in out


def test_solution_json_counts_rows_per_kind(tmp_path, capsys, toy_ilp):
    code, _, _ = run(capsys, "solve-ilp", TOY, "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "solution.json").read_text())
    kinds = [row.kind for row in toy_ilp.constraints]
    assert payload["constraints"] == {kind: kinds.count(kind) for kind in kinds}
    assert payload["constraints"] == {
        "coverage": 3, "flow_balance": 4, "out_degree": 2, "depot_out": 2,
        "capacity_forbid": 1, "driver": 2}
