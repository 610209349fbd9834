import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest

from rollstock.exact import brute_force, enumerate_feasible, solve_exact
from rollstock.generate import GeneratorConfig, generate_synthetic
from rollstock.ilp import (ConstraintRow, IlpModel, Violation,
                           check_feasibility, encode_ilp, export_lp,
                           objective_value)
from rollstock.model import DriverWindow, Instance
from rollstock.netbuild import build_hypergraph
from rollstock.qubo import encode_qubo, export_qubo_coo

from conftest import small_random_instance, toy_x


def test_toy_encoding_shape(toy_ilp):
    assert toy_ilp.num_vars == 11
    kinds = [r.kind for r in toy_ilp.constraints]
    assert kinds.count("coverage") == 3
    assert kinds.count("flow_balance") == 4
    assert kinds.count("out_degree") == 2
    assert kinds.count("depot_out") == 2
    assert kinds.count("capacity_forbid") == 1
    assert kinds.count("driver") == 2
    assert "depot_in" not in kinds  # the toy drops return constraints


def test_toy_objective_coefficients(toy_ilp):
    expected = [Fraction(x, 10) for x in
                (17, 21, 17, 21, 7, 11, 7, 7, 11, 7, 14)]
    assert toy_ilp.objective == tuple(enumerate(expected))


def test_toy_constraint_rows(toy_ilp):
    rows = {r.tag: r for r in toy_ilp.constraints}
    assert rows["cover[t1]"].coeffs == ((0, 1), (1, 1))
    assert rows["cover[t2]"].coeffs == ((2, 1), (3, 1))
    assert rows["cover[t3]"].coeffs == ((4, 1), (5, 1), (7, 1), (8, 1), (10, 1))
    # x0 = x4 + x6 + x10 with unit weight on the coupling hyper-arc
    assert rows["flow[t1,r1]"].coeffs == ((0, 1), (4, -1), (6, -1), (10, -1))
    assert rows["flow[t1,r2]"].coeffs == ((1, 1), (5, -1))
    assert rows["flow[t2,r1]"].coeffs == ((2, 1), (7, -1), (9, -1), (10, -1))
    assert rows["flow[t2,r2]"].coeffs == ((3, 1), (8, -1))
    assert rows["outdeg[t1]"].coeffs == ((4, 1), (5, 1), (6, 1), (10, 1))
    assert rows["outdeg[t2]"].coeffs == ((7, 1), (8, 1), (9, 1), (10, 1))
    assert rows["depot_out[depA,r1]"].bounds() == (0, 2)
    assert rows["depot_out[depA,r2]"].bounds() == (0, 1)
    assert rows["capacity"].coeffs == ((4, 1), (7, 1))
    assert rows["capacity"].bounds() == (0, 0)
    assert rows["driver[depA,485]"].coeffs == ((0, 1), (1, 1))
    # per-EMU weighting counts the coupled pair twice
    assert rows["driver[depA,600]"].coeffs == (
        (4, 1), (5, 1), (6, 1), (7, 1), (8, 1), (9, 1), (10, 2))


def test_toy_driver_weighting_switch(toy_graph, toy_instance):
    model = encode_ilp(toy_graph, toy_instance, driver_weighting="per_train")
    rows = {r.tag: r for r in model.constraints}
    assert rows["driver[depA,600]"].coeffs == (
        (4, 1), (5, 1), (6, 1), (7, 1), (8, 1), (9, 1), (10, 1))
    # both readings keep the reference solutions feasible
    for ones in [(0, 2, 10), (0, 3, 6, 8), (1, 2, 5, 9)]:
        assert check_feasibility(model, toy_x(*ones)).feasible


def test_unknown_driver_weighting_rejected_without_driver_rows(toy_graph, toy_instance):
    inst = generate_synthetic(GeneratorConfig(n_trips=6), seed=6)
    inst = dataclasses.replace(inst, driver_windows=())
    graph = build_hypergraph(inst)
    assert not any(r.kind == "driver" for r in encode_ilp(graph, inst).constraints)
    for graph, inst in ((graph, inst), (toy_graph, toy_instance)):
        with pytest.raises(ValueError, match="unknown driver weighting 'bogus'"):
            encode_ilp(graph, inst, driver_weighting="bogus")


def test_objective_values(toy_ilp):
    assert objective_value(toy_ilp, toy_x(0, 2, 10)) == Fraction(24, 5)
    assert objective_value(toy_ilp, toy_x(0, 3, 6, 8)) == Fraction(28, 5)
    assert objective_value(toy_ilp, toy_x(1, 2, 5, 9)) == Fraction(28, 5)
    assert objective_value(toy_ilp, toy_x()) == 0
    with pytest.raises(ValueError):
        objective_value(toy_ilp, (0,) * 10)


def test_alpha_zero_counts_dispatched_emus(toy_graph, toy_instance):
    inst = dataclasses.replace(toy_instance, alpha=Fraction(0))
    model = encode_ilp(build_hypergraph(inst), inst)
    assert objective_value(model, toy_x(0, 2, 10)) == 2
    assert objective_value(model, toy_x(0, 3, 6, 8)) == 2
    assert objective_value(model, toy_x(0, 1, 2, 3)) == 4


def test_feasibility_reports(toy_ilp):
    assert check_feasibility(toy_ilp, toy_x(0, 2, 10)).feasible
    cap = check_feasibility(toy_ilp, toy_x(0, 2, 6, 7))
    assert cap.families() == ("capacity_forbid",)
    zero = check_feasibility(toy_ilp, toy_x())
    assert zero.families() == ("coverage",)
    assert zero.count() == 3
    with pytest.raises(ValueError):
        check_feasibility(toy_ilp, (0,) * 12)


@pytest.mark.parametrize("at,value", [(0, 2), (0, -1), (5, 2), (10, Fraction(1, 2)),
                                      (3, 0.5), (1, None)])
def test_entries_outside_0_1_are_refused(toy_ilp, at, value):
    # the objective would price an entry of 2 once, the rows would count it twice
    x = list(toy_x(0, 2, 10))
    x[at] = value
    for evaluate in (objective_value, check_feasibility):
        with pytest.raises(ValueError, match=re.escape(f"entry {at} is {value!r}, not 0 or 1")):
            evaluate(toy_ilp, x)


def test_binary_entries_of_any_numeric_type_are_accepted(toy_ilp):
    want = objective_value(toy_ilp, toy_x(0, 2, 10))
    for x in (tuple(bool(v) for v in toy_x(0, 2, 10)),
              tuple(float(v) for v in toy_x(0, 2, 10)),
              np.array(toy_x(0, 2, 10), dtype=np.int8)):
        assert objective_value(toy_ilp, x) == want
        assert check_feasibility(toy_ilp, x).feasible


def test_empty_instance_empty_model():
    inst = small_random_instance(1)
    empty = dataclasses.replace(inst, trips=(), driver_windows=())
    model = encode_ilp(build_hypergraph(empty), empty)
    assert model.num_vars == 0
    assert model.constraints == ()


# ---------------------------------------------------------------------------
# Independent feasibility oracle straight from the instance data


def direct_feasible(inst: Instance, graph, x) -> bool:
    trips = {t.id: t for t in inst.trips}
    arcs = graph.arcs
    selected = [arcs[i] for i, v in enumerate(x) if v]

    def targets_of(arc):
        return [graph.node(t).trip for t in arc.targets
                if graph.node(t).is_trip]

    def sources_of(arc):
        return [graph.node(s).trip for s in arc.sources
                if graph.node(s).is_trip]

    for trip in inst.trips:
        if not trip.obligatory:
            continue
        covers = sum(targets_of(a).count(trip.id) for a in selected)
        if covers != 1:
            return False

    departing = {trip_id for arc in arcs for trip_id in sources_of(arc)}
    for trip in inst.trips:
        if trip.id not in departing:
            continue
        for emu in inst.emu_types:
            arriving = sum(a.k for a in selected
                           if a.emu_type == emu.id
                           and trip.id in targets_of(a))
            leaving = sum(a.k_prime for a in selected
                          if a.emu_type == emu.id
                          and trip.id in sources_of(a))
            if arriving != leaving:
                return False

    for trip in inst.trips:
        if sum(1 for a in selected if trip.id in sources_of(a)) > 1:
            return False

    for depot in inst.depots:
        for emu in inst.emu_types:
            out = sum(a.k_prime for a in selected
                      if a.kind == "depot_out" and a.emu_type == emu.id
                      and graph.node(a.sources[0]).depot == depot.id)
            lo, hi = depot.out_bounds(emu.id)
            if not lo <= out <= hi:
                return False
            if depot.has_sink:
                back = sum(a.k for a in selected
                           if a.kind == "depot_in" and a.emu_type == emu.id
                           and graph.node(a.targets[0]).depot == depot.id)
                lo, hi = depot.in_bounds(emu.id)
                if not lo <= back <= hi:
                    return False

    for arc in selected:
        emu = inst.type_by_id(arc.emu_type)
        for trip_id in targets_of(arc):
            trip = trips[trip_id]
            if max(0, trip.passengers - arc.k * emu.seats) > inst.seat_tolerance(arc.k, trip):
                return False
            if max(0, trip.bicycles - arc.k * emu.bike_slots) > inst.bike_tolerance(arc.k, trip):
                return False

    for window in inst.driver_windows:
        if window.license is not None:
            covered = inst.license_types(window.license)
        else:
            covered = None
        demand = 0
        for arc in selected:
            if covered is not None and arc.emu_type not in covered:
                continue
            for trip_id in set(targets_of(arc)):
                trip = trips[trip_id]
                if (inst.driver_depot_of(trip) == window.depot
                        and trip.depart <= window.at < trip.arrive):
                    demand += arc.k
        if not window.min_drivers <= demand <= window.max_drivers:
            return False
    return True


@pytest.mark.parametrize("seed", range(1, 11))
def test_check_feasibility_matches_direct_evaluation(seed):
    inst = small_random_instance(seed, max_trips=6)
    graph = build_hypergraph(inst)
    model = encode_ilp(graph, inst)
    if model.num_vars > 18:
        pytest.skip("random model too large for exhaustive comparison")
    import numpy as np
    rng = np.random.default_rng(seed)
    for _ in range(300):
        x = tuple(int(v) for v in rng.integers(0, 2, model.num_vars))
        assert check_feasibility(model, x).feasible == direct_feasible(
            inst, graph, x)


def test_depot_balance_special_case():
    inst = small_random_instance(2)
    graph = build_hypergraph(inst)
    # force equal in/out counts per type by pinning the bounds
    depots = tuple(
        dataclasses.replace(
            d, out_min=dict(d.out_max), in_min=dict(d.in_max or {}))
        for d in inst.depots)
    pinned = dataclasses.replace(inst, depots=depots)
    graph = build_hypergraph(pinned)
    model = encode_ilp(graph, pinned)
    portfolio = brute_force(model) if model.num_vars <= 24 else None
    if portfolio is None or not portfolio.solutions:
        pytest.skip("no feasible pinned solution in this draw")
    for sol in portfolio.solutions:
        for depot in pinned.depots:
            for emu in pinned.emu_types:
                out = sum(graph.arcs[a].k_prime for a in sol.decoded
                          if graph.arcs[a].kind == "depot_out"
                          and graph.arcs[a].emu_type == emu.id
                          and graph.node(graph.arcs[a].sources[0]).depot == depot.id)
                back = sum(graph.arcs[a].k for a in sol.decoded
                           if graph.arcs[a].kind == "depot_in"
                           and graph.arcs[a].emu_type == emu.id
                           and graph.node(graph.arcs[a].targets[0]).depot == depot.id)
                assert out == back == depot.out_max.get(emu.id, 0)


def test_per_trip_tolerance_override(toy_instance):
    # raising the tolerance on the crowded return trip legalizes x4/x7
    trips = tuple(
        dataclasses.replace(t, seat_tolerance_single=30) if t.id == "t3" else t
        for t in toy_instance.trips)
    relaxed = dataclasses.replace(toy_instance, trips=trips)
    model = encode_ilp(build_hypergraph(relaxed), relaxed)
    assert all(r.kind != "capacity_forbid" for r in model.constraints)
    # and tightening it forbids even the roomy type and the coupled pair
    trips = tuple(
        dataclasses.replace(t, seat_tolerance_single=0,
                            seat_tolerance_coupled=0,
                            passengers=141) if t.id == "t3" else t
        for t in toy_instance.trips)
    tightened = dataclasses.replace(toy_instance, trips=trips)
    model = encode_ilp(build_hypergraph(tightened), tightened)
    cap = next(r for r in model.constraints if r.kind == "capacity_forbid")
    assert {v for v, _ in cap.coeffs} == {4, 5, 7, 8, 10}

    from rollstock.model import loads_instance, serialize_instance
    assert loads_instance(serialize_instance(relaxed)) == relaxed


# ---------------------------------------------------------------------------
# Licensed drivers (authorization-restricted windows)


def licensed_variant(inst: Instance, licenses, windows):
    return dataclasses.replace(inst, licenses=licenses,
                               driver_windows=inst.driver_windows + windows)


def licensed_driver_rows(graph, inst):
    """The driver[depot,at,license] rows of encode_ilp, in encoding order."""
    return [r for r in encode_ilp(graph, inst).constraints
            if r.kind == "driver" and r.tag.count(",") == 2]


def test_single_license_degenerates_to_plain_rows(toy_instance):
    inst = licensed_variant(
        toy_instance,
        {"all": frozenset({"r1", "r2"})},
        (DriverWindow(depot="depA", at=600, min_drivers=0, max_drivers=2,
                      license="all"),))
    graph = build_hypergraph(inst)
    rows = licensed_driver_rows(graph, inst)
    assert len(rows) == 1
    plain = {r.tag: r for r in encode_ilp(graph, inst).constraints}
    assert rows[0].coeffs == plain["driver[depA,600]"].coeffs
    assert rows[0].bounds() == plain["driver[depA,600]"].bounds()


def test_disjoint_licenses_partition_support(toy_instance):
    inst = licensed_variant(
        toy_instance,
        {"lic1": frozenset({"r1"}), "lic2": frozenset({"r2"})},
        (DriverWindow(depot="depA", at=600, max_drivers=2, license="lic1"),
         DriverWindow(depot="depA", at=600, max_drivers=2, license="lic2")))
    graph = build_hypergraph(inst)
    rows = licensed_driver_rows(graph, inst)
    assert len(rows) == 2
    supports = [set(v for v, _ in r.coeffs) for r in rows]
    assert supports[0] & supports[1] == set()
    plain = {r.tag: r for r in encode_ilp(graph, inst).constraints}
    full = set(v for v, _ in plain["driver[depA,600]"].coeffs)
    assert supports[0] | supports[1] == full


def test_licensed_feasible_set_matches_direct_filter():
    base = small_random_instance(6, max_trips=6)
    mid = (min(t.depart for t in base.trips)
           + max(t.arrive for t in base.trips)) // 2
    windows = tuple(
        DriverWindow(depot=d.id, at=mid, min_drivers=0, max_drivers=1,
                     license=base.emu_types[0].id)
        for d in base.depots)
    inst = dataclasses.replace(base, driver_windows=base.driver_windows + windows)
    graph = build_hypergraph(inst)
    model = encode_ilp(graph, inst)
    if model.num_vars > 18:
        pytest.skip("draw too large")
    for bits in range(1 << model.num_vars):
        x = tuple((bits >> i) & 1 for i in range(model.num_vars))
        assert check_feasibility(model, x).feasible == direct_feasible(
            inst, graph, x)


# ---------------------------------------------------------------------------
# LP export


def test_lp_export_toy(toy_ilp):
    text = export_lp(toy_ilp)
    assert "Minimize" in text and "Subject To" in text
    assert "Bounds" in text and "Binary" in text and text.rstrip().endswith("End")
    assert "1.7 x0" in text  # alpha * 70 + 1
    assert "2 x10" in text   # k-weighted driver row
    binaries = re.search(r"Binary\n (.+)\n", text).group(1).split()
    assert binaries == [f"x{i}" for i in range(11)]
    assert "capacity: 1 x4 + 1 x7 = 0" in text


def test_lp_export_empty_model():
    text = export_lp(IlpModel(num_vars=0, objective=(), constraints=()))
    assert text.startswith("\\ Problem")
    assert "Minimize" in text and text.rstrip().endswith("End")


def test_non_decimal_coefficient_text_per_format():
    # 1/3 has no exact decimal: LP text falls back to the float, COO to n/d
    model = IlpModel(num_vars=1, objective=((0, Fraction(1, 3)),),
                     constraints=())
    assert " obj: 0.3333333333333333 x0" in export_lp(model).splitlines()
    assert "0 0 1/3" in export_qubo_coo(encode_qubo(model)).splitlines()


def parse_lp(text: str):
    """Minimal LP reader covering the dialect export_lp emits."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.startswith("\\")]
    section = None
    objective: dict[int, float] = {}
    constraints = []
    num_vars = 0
    for line in lines:
        if line in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
            section = line
            continue
        if section == "Minimize":
            body = line.split(":", 1)[1]
            for coeff, var in re.findall(r"([+-]? ?[\d.]+) x(\d+)", body):
                objective[int(var)] = float(coeff.replace(" ", ""))
        elif section == "Subject To":
            name, body = line.split(":", 1)
            m = re.match(r"(.*?)(<=|>=|=)(.*)", body)
            expr, rel, rhs = m.group(1), m.group(2), float(m.group(3))
            coeffs = {int(v): float(c.replace(" ", ""))
                      for c, v in re.findall(r"([+-]? ?[\d.]+) x(\d+)", expr)}
            constraints.append((coeffs, rel, rhs))
        elif section == "Binary":
            num_vars = max(num_vars, *(int(v) + 1
                                       for v in re.findall(r"x(\d+)", line)))
    return num_vars, objective, constraints


def milp_on_lp(text: str):
    """Solve an exported LP file with scipy's HiGHS MILP solver."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    import numpy as np
    n, objective, constraints = parse_lp(text)
    c = np.zeros(n)
    for v, coeff in objective.items():
        c[v] = coeff
    rows, lower, upper = [], [], []
    for coeffs, rel, rhs in constraints:
        row = np.zeros(n)
        for v, coeff in coeffs.items():
            row[v] = coeff
        rows.append(row)
        lower.append(rhs if rel in ("=", ">=") else -np.inf)
        upper.append(rhs if rel in ("=", "<=") else np.inf)
    result = scipy_opt.milp(
        c=c,
        constraints=scipy_opt.LinearConstraint(np.array(rows), lower, upper),
        integrality=np.ones(n),
        bounds=scipy_opt.Bounds(np.zeros(n), np.ones(n)))
    return n, result


def test_exported_lp_solves_to_toy_optimum_with_external_milp(toy_ilp):
    n, result = milp_on_lp(export_lp(toy_ilp))
    assert n == 11
    assert result.success
    assert abs(result.fun - 4.8) < 1e-9
    chosen = {i for i in range(n) if result.x[i] > 0.5}
    assert chosen == {0, 2, 10}


def test_lp_range_row_with_positive_lower_bound(toy_instance, toy_graph):
    windows = (dataclasses.replace(toy_instance.driver_windows[0],
                                   min_drivers=1),
               *toy_instance.driver_windows[1:])
    inst = dataclasses.replace(toy_instance, driver_windows=windows)
    model = encode_ilp(toy_graph, inst)
    lp = export_lp(model)
    assert " driver_depA_485__lo: 1 x0 + 1 x1 >= 1\n" in lp
    assert " driver_depA_485__hi: 1 x0 + 1 x1 <= 2\n" in lp
    _, result = milp_on_lp(lp)
    assert result.success
    assert abs(result.fun - float(solve_exact(model).solution.objective)) < 1e-9


def test_lp_range_row_lower_bound_against_negative_coefficients():
    # -3 x0 in [-2, 0]: lo -2 lies above the least lhs -3, so x0 = 1 is
    # infeasible and the _lo line must say so
    row = ConstraintRow(kind="driver", relation="range", lo=-2, hi=0,
                        coeffs=((0, -3),), tag="d")
    model = IlpModel(num_vars=1, objective=((0, Fraction(-1)),), constraints=(row,))
    assert [s.x for s in brute_force(model).solutions] == [(0,)]
    lp = export_lp(model)
    assert " d_lo: - 3 x0 >= -2\n" in lp
    _, result = milp_on_lp(lp)
    assert result.success
    assert round(result.x[0]) == 0 and abs(result.fun) < 1e-9
    # at lo -3, the least lhs, the row cannot bind from below: no _lo line
    loose = IlpModel(num_vars=1, objective=model.objective,
                     constraints=(dataclasses.replace(row, lo=-3),))
    assert "_lo" not in export_lp(loose)
    assert round(milp_on_lp(export_lp(loose))[1].x[0]) == 1


def test_lp_row_names_are_distinct():
    # "a,b" and "a_b" sanitize alike, a range row "x" writes "x_lo" after a
    # row tagged "x_lo", and "x_lo_5" is already taken when row 5 repeats
    # "x_lo": each later name gains its row index until it is new
    def row(tag, relation="=", **bounds):
        return ConstraintRow(kind="driver", relation=relation, coeffs=((0, 1),),
                             tag=tag, **(bounds or dict(rhs=1)))

    model = IlpModel(num_vars=1, objective=(), constraints=(
        row("a,b"), row("a_b"), row("x_lo", "<="), row("x_lo_5"),
        row("x", "range", lo=1, hi=1), row("x_lo"), row("")))
    names = [line.split(":")[0].strip()
             for line in export_lp(model).split("Subject To\n")[1].split("Bounds")[0].splitlines()]
    assert names == ["a_b", "a_b_1", "x_lo", "x_lo_5", "x_4_lo", "x_4_hi",
                     "x_lo_5_5", "c6"]
    _, result = milp_on_lp(export_lp(model))
    assert result.success and round(result.x[0]) == 1


def test_bicycle_shortage_forbids_arcs(toy_instance):
    r1 = dataclasses.replace(toy_instance.type_by_id("r1"), bike_slots=2)
    t3 = dataclasses.replace(toy_instance.trip_by_id("t3"), bicycles=3)
    inst = dataclasses.replace(
        toy_instance,
        emu_types=tuple(r1 if r.id == "r1" else r for r in toy_instance.emu_types),
        trips=tuple(t3 if t.id == "t3" else t for t in toy_instance.trips))
    model = encode_ilp(build_hypergraph(inst), inst)
    rows = {r.tag: r for r in model.constraints}
    # seats already forbid the r1 singles 4 and 7; bicycles add the r2
    # transfers 5 and 8, while the coupled pair 10 carries 4 >= 3 bikes
    assert rows["capacity"].coeffs == ((4, 1), (5, 1), (7, 1), (8, 1))
    portfolio = enumerate_feasible(model)
    assert portfolio.exhaustive
    assert [s.objective for s in portfolio.solutions] == [Fraction(24, 5)]
    assert solve_exact(model).solution.decoded == (0, 2, 10)


def test_le_row_lower_bound_is_its_least_lhs():
    row = ConstraintRow(kind="out_degree", relation="<=", rhs=0,
                        coeffs=((0, 1), (1, -1)), tag="le")
    assert row.bounds() == (-1, 0)
    model = IlpModel(num_vars=2, objective=(), constraints=(row,))
    assert check_feasibility(model, (0, 1)).feasible
    assert check_feasibility(model, (1, 0)).violations == {
        "out_degree": (Violation(tag="le", lhs=1, lo=-1, hi=0),)}


# ---------------------------------------------------------------------------
# The model checks its own rows where it is built


def two_var_model(coeffs=((0, 1), (1, 1)), relation="=", objective=()):
    return IlpModel(
        num_vars=2, objective=objective,
        constraints=(ConstraintRow(kind="coverage", relation=relation, rhs=1,
                                   coeffs=coeffs, tag="cover[01]"),))


@pytest.mark.parametrize("var", [-1, 2])
def test_construction_rejects_a_row_index_outside_the_model(var):
    match = rf"row 'cover\[01\]' names variable {var}, outside range\(2\)"
    with pytest.raises(ValueError, match=match):
        two_var_model(coeffs=((0, 1), (var, 1)))
    model = two_var_model()
    row = dataclasses.replace(model.constraints[0], coeffs=((var, 1),))
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(model, constraints=(row,))


@pytest.mark.parametrize("var", [-1, 2])
def test_construction_rejects_an_objective_index_outside_the_model(var):
    match = rf"objective names variable {var}, outside range\(2\)"
    with pytest.raises(ValueError, match=match):
        two_var_model(objective=((var, Fraction(1)),))
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(two_var_model(), objective=((0, Fraction(1)), (var, Fraction(2))))


def test_construction_rejects_an_unknown_relation():
    match = r"row 'cover\[01\]' has relation '==', not one of =, <=, range"
    with pytest.raises(ValueError, match=match):
        two_var_model(relation="==")
    model = two_var_model()
    row = dataclasses.replace(model.constraints[0], relation="==")
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(model, constraints=model.constraints + (row,))


def test_construction_merges_a_repeated_variable_into_its_first_entry():
    # 2 x3 + 2 x2 + x1 - 2 x2: x2's entries sum to zero in its first place
    model = IlpModel(num_vars=4, objective=(), constraints=(
        ConstraintRow(kind="driver", relation="range", lo=-2, hi=-2,
                      coeffs=((3, 2), (2, 2), (1, 1), (2, -2)), tag="d"),))
    assert model.constraints[0].coeffs == ((3, 2), (2, 0), (1, 1))
    assert model.constraints[0].bounds() == (-2, -2)
    assert " d_hi: 2 x3 + 1 x1 <= -2\n" in export_lp(model)


def test_rows_naming_each_variable_once_are_kept_as_built(toy_graph, toy_instance):
    rows = encode_ilp(toy_graph, toy_instance).constraints
    rebuilt = IlpModel(num_vars=11, objective=(), constraints=rows)
    assert rebuilt.constraints is rows
    merged = dataclasses.replace(rows[0], coeffs=rows[0].coeffs + rows[0].coeffs[:1])
    changed = IlpModel(num_vars=11, objective=(), constraints=(merged,) + rows[1:])
    assert changed.constraints[0].coeffs[0] == (rows[0].coeffs[0][0], 2)
    assert all(a is b for a, b in zip(changed.constraints[1:], rows[1:]))
