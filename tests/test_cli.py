import csv
import io
import json
import re

import pytest

from rollstock import cli
from rollstock.anneal import AnnealParams
from rollstock.cli import main
from rollstock.exact import solve_exact
from rollstock.generate import GeneratorConfig
from rollstock.ilp import encode_ilp
from rollstock.model import load_instance
from rollstock.netbuild import build_hypergraph
from rollstock.qubo import DEFAULT_LAMBDAS

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


def test_report_quotes_csv_fields_and_escapes_md_pipes(tmp_path, capsys):
    data = json.loads(TOY_PATH.read_text())
    data["meta"]["name"] = 'Katowice, Gliwice "S1" | 2'
    path = tmp_path / "named.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "report", str(path), "--format", "csv")
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    assert len(row) == len(header) == 9
    assert row == ['Katowice, Gliwice "S1" | 2', "3", "2/1", "1", "2", "10", "60",
                   "11", "20/88"]
    code, out, _ = run(capsys, "report", str(path))
    assert code == 0
    header, _, row = out.splitlines()
    cells = re.split(r"(?<!\\)\|", row)
    assert len(cells) == len(re.split(r"(?<!\\)\|", header)) == 9
    assert cells[0].strip() == r'Katowice, Gliwice "S1" \| 2'


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


def test_generate_open_corridors_to_stdout_matches_golden(capsys):
    code, out, _ = run(capsys, "generate", "-", "--trips", "13", "--couplable", "3",
                       "--types", "2", "--depots", "2", "--seed", "5",
                       "--no-return-bounds")
    assert code == 0
    assert out == (REPO / "tests" / "golden" / "generate" / "t13-open.json").read_text()


def test_generate_exact_route_family_to_stdout_matches_golden(capsys):
    # the 100-trip family of perfbench's exact-route workload
    code, out, _ = run(capsys, "generate", "-", "--trips", "100", "--couplable", "20",
                       "--types", "3", "--depots", "4", "--seed", "4001")
    assert code == 0
    assert out == (REPO / "tests" / "golden" / "generate" / "t100.json").read_text()


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


def test_diagram_rejects_a_portfolio_with_no_plans(tmp_path, capsys):
    solution = tmp_path / "portfolio.json"
    solution.write_text(json.dumps({"solutions": []}))
    code, _, err = run(capsys, "diagram", TOY, "--solution", str(solution))
    assert code == 1
    assert err.startswith("error: ") and "solution file contains no selected arcs" in err


def test_export_lp_stdout(capsys):
    # the same text as solve-ilp --emit-lp, header included
    code, out, _ = run(capsys, "export-lp", TOY)
    assert code == 0
    assert out == (GOLDEN_TOY / "model.lp").read_text()


@pytest.mark.parametrize("argv", [
    ["solve-ilp", TOY, "--bogus"],
    ["solve-ilp", TOY, "--time-limit", "abc"],
    ["solve-qubo", TOY, "--reads", "many"],
    ["validate", TOY, "--driver-weighting", "per_train"],
    ["diagram", TOY, "--solution", TOY, "--driver-weighting", "per_emu"],
    ["diagram", TOY, "--solution", TOY, "--alpha", "0"],
    ["no-such-command"],
    [],
])
def test_usage_error_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "error: " in err and err.startswith("usage: rollstock")
    assert out == ""


def test_help_exits_0(capsys):
    for argv in (["--help"], ["solve-ilp", "--help"]):
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: rollstock") and err == ""


def test_validate_and_diagram_list_only_the_options_they_read(capsys):
    _, out, _ = run(capsys, "validate", "--help")
    assert "--alpha" in out and "--driver-weighting" not in out
    _, out, _ = run(capsys, "diagram", "--help")
    assert "--delta-max" in out
    assert "--alpha" not in out and "--driver-weighting" not in out


def test_export_qubo_files(tmp_path, capsys):
    code, _, _ = run(capsys, "export-qubo", TOY, "--out", str(tmp_path))
    assert code == 0
    qubo_text = (tmp_path / "qubo.coo").read_text()
    assert qubo_text.splitlines()[0] == "# qubo num_vars=20 offset=300"
    assert (tmp_path / "ising.coo").exists()


def test_export_qubo_stdout_builds_no_ising_model(capsys, monkeypatch):
    def no_ising(qubo):
        raise AssertionError("the stdout export writes no Ising model")

    monkeypatch.setattr(cli, "to_ising", no_ising)
    code, out, _ = run(capsys, "export-qubo", TOY)
    assert code == 0
    assert out == (GOLDEN_TOY / "qubo.coo").read_text()


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


def huge_toy(tmp_path):
    """The toy with trip t1 10^400/3 long, so every plan's objective lies
    beyond the float range."""
    data = json.loads(TOY_PATH.read_text())
    data["trips"][0]["distance"] = "1" + "0" * 400 + "/3"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("command", ["export-lp", "solve-ilp --emit-lp"])
def test_number_beyond_float_range_is_an_input_error(tmp_path, capsys, command):
    # LP text writes floats; 10^400/3 has none, and the command writes no
    # artifact, not even the solution it found before the LP text failed
    out = tmp_path / "out"
    assert_clean_error(*run(capsys, *command.split(), str(huge_toy(tmp_path)),
                            "--out", str(out)))
    assert not out.exists()


def test_qubo_diagonal_beyond_float_range_is_named(tmp_path, capsys):
    code, out, err = run(capsys, "solve-qubo", str(huge_toy(tmp_path)),
                         "--reads", "1", "--sweeps", "1")
    assert_clean_error(code, out, err)
    assert "diagonal" in err and "too large for a float64" in err
    assert "integer division" not in err


@pytest.mark.parametrize("command,artifact", [("solve-ilp", "solution.json"),
                                              ("enumerate", "portfolio.json")])
def test_result_beyond_float_range_is_written_exactly(tmp_path, capsys, command,
                                                      artifact):
    path = huge_toy(tmp_path)
    code, out, err = run(capsys, command, str(path), "--out", str(tmp_path))
    assert code == 0, err
    inst = load_instance(str(path))
    best = solve_exact(encode_ilp(build_hypergraph(inst), inst)).solution.objective
    exact = f"{best.numerator}/{best.denominator}"
    payload = json.loads((tmp_path / artifact).read_text())
    plans = [payload] if command == "solve-ilp" else payload["solutions"]
    assert plans[0]["objective"] == exact
    assert all(plan["objective_float"] is None for plan in plans)
    assert out.split("objective=")[1].split()[0] == exact


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


def test_enumerate_negative_show_is_an_input_error(capsys):
    code, out, err = run(capsys, "enumerate", TOY, "--show", "-2")
    assert code == 1
    assert err.strip() == "error: show must be >= 0, got -2"
    assert "feasible=" not in out
    code, out, _ = run(capsys, "enumerate", TOY, "--show", "0")
    assert code == 0
    assert "feasible=3 exhaustive=True" in out
    assert "objective=" not in out


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


def test_export_lp_out_writes_the_golden_lp(tmp_path, capsys):
    code, out, _ = run(capsys, "export-lp", TOY, "--out", str(tmp_path))
    assert code == 0
    assert out == f"wrote {tmp_path / 'model.lp'}\n"
    assert (tmp_path / "model.lp").read_text() == (GOLDEN_TOY / "model.lp").read_text()


def test_diagram_of_an_enumerated_portfolio_draws_its_first_plan(tmp_path, capsys):
    # the portfolio is sorted by objective, so its first plan is the optimum
    # and the diagram equals the golden one drawn from solve-ilp's solution
    code, _, _ = run(capsys, "enumerate", TOY, "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "portfolio.json").read_text())
    assert [a["id"] for a in payload["solutions"][0]["selected_arcs"]] == [0, 2, 10]
    code, out, _ = run(capsys, "diagram", TOY, "--solution",
                       str(tmp_path / "portfolio.json"), "--out", str(tmp_path))
    assert code == 0
    for name in ("diagram.svg", "diagram.txt"):
        assert (tmp_path / name).read_bytes() == (GOLDEN_TOY / name).read_bytes(), name
    assert out.endswith((GOLDEN_TOY / "diagram.txt").read_text())


def test_malformed_solution_file_is_invalid_json(tmp_path, capsys):
    solution = tmp_path / "solution.json"
    solution.write_text('{"selected_arcs": [')
    code, out, err = run(capsys, "diagram", TOY, "--solution", str(solution))
    assert_clean_error(code, out, err)
    assert err.startswith("error: invalid JSON")


def test_non_rational_alpha_is_an_input_error(capsys):
    code, out, err = run(capsys, "solve-ilp", TOY, "--alpha", "abc")
    assert code == 1
    assert "not a rational number: 'abc'" in err
    assert out == ""


@pytest.mark.parametrize("setting,level", [("bogus", "WARNING"), ("info", "INFO"),
                                           (None, "WARNING")])
def test_log_level_comes_from_the_environment(monkeypatch, capsys, setting, level):
    seen = {}
    monkeypatch.setattr(cli.logging, "basicConfig", lambda **kw: seen.update(kw))
    if setting is None:
        monkeypatch.delenv("ROLLSTOCK_LOG", raising=False)
    else:
        monkeypatch.setenv("ROLLSTOCK_LOG", setting)
    code, _, _ = run(capsys, "validate", TOY)
    assert code == 0
    assert seen["level"] == level


class _Stop(Exception):
    pass


def test_generate_defaults_are_the_generator_config_defaults(monkeypatch, capsys):
    seen = {}

    def capture(cfg, seed):
        seen.update(cfg=cfg, seed=seed)
        raise _Stop

    monkeypatch.setattr(cli, "generate_synthetic", capture)
    with pytest.raises(_Stop):
        main(["generate", "-", "--trips", "12"])
    assert seen == {"cfg": GeneratorConfig(n_trips=12), "seed": 0}


def test_solve_qubo_defaults_are_the_sampler_defaults(monkeypatch, capsys):
    seen = {}

    def capture(instance, params, **stages):
        seen.update(params=params)
        raise _Stop

    monkeypatch.setattr(cli, "sample_portfolio", capture)
    with pytest.raises(_Stop):
        main(["solve-qubo", TOY])
    assert seen == {"params": AnnealParams()}


@pytest.mark.parametrize("command", ["solve-qubo", "export-qubo", "report"])
def test_lambda_defaults_are_the_library_defaults(monkeypatch, capsys, command):
    seen = []

    def capture(model, lambdas):
        seen.append(tuple(lambdas))
        raise _Stop

    monkeypatch.setattr(cli, "encode_qubo", capture)
    with pytest.raises(_Stop):
        main([command, TOY])
    assert seen == [DEFAULT_LAMBDAS]


def test_driver_weighting_and_max_count_defaults_are_the_library_defaults(
        monkeypatch, capsys):
    # stand-ins with other defaults: the parser must take theirs
    seen = {}

    def encode(graph, instance, driver_weighting="per_train"):
        seen.update(driver_weighting=driver_weighting)
        return encode_ilp(graph, instance, driver_weighting)

    def enumerate_feasible(model, max_count=7):
        seen.update(max_count=max_count)
        raise _Stop

    monkeypatch.setattr(cli, "encode_ilp", encode)
    monkeypatch.setattr(cli, "enumerate_feasible", enumerate_feasible)
    with pytest.raises(_Stop):
        main(["enumerate", TOY])
    assert seen == {"driver_weighting": "per_train", "max_count": 7}


def test_enumerate_out_writes_the_golden_portfolio(tmp_path, capsys):
    # the console-script smoke diffs the same file
    code, _, _ = run(capsys, "enumerate", TOY, "--out", str(tmp_path))
    assert code == 0
    golden = REPO / "tests" / "golden" / "toy-enum" / "portfolio.json"
    assert (tmp_path / "portfolio.json").read_bytes() == golden.read_bytes()
