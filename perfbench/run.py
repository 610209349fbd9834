"""rollstock benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload exact-route --seed 1 --seconds 25 --trace 0

Set-up imports rollstock from ``src/`` next to this directory and
generates the workload's instances from ``--seed`` (three times; the
median is ``setup_s``). The program sees only the serialized JSON. The
run then repeats passes over the instances until ``--seconds`` have gone,
checks every answer, and prints one JSON object as its last line. Times
are scaled to a reference machine speed measured by a calibration loop
sampled during the passes (see ``pass_seconds``). With ``--trace 1``
passes alternate between untraced and traced; the traced ones give the
per-layer metrics, and their ``run_s`` against the untraced one the
tracing overhead. A run that finds a wrong answer prints its result and
exits with 1. README.md in this directory says why each workload was
chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS, Tracer, span_times  # noqa: E402

# Instance family and pass contents per workload. "toy" sizes serve the
# self-test only. Generator seed of instance i under --seed s: s*1000 + i.
SIZES = {
    "exact-route": {
        "full": dict(gen=dict(n_trips=100, n_couplable=20, n_types=3, n_depots=4), count=192),
        "toy": dict(gen=dict(n_trips=30, n_couplable=6, n_types=2, n_depots=2), count=3),
    },
    "anneal-portfolio": {
        "full": dict(gen=dict(n_trips=12, n_types=1, n_depots=1), count=16,
                     reads=100, sweeps=500),
        "toy": dict(gen=dict(n_trips=6, n_types=1, n_depots=1), count=2,
                    reads=10, sweeps=50),
    },
    "compile-large": {
        "full": dict(gen=dict(n_trips=1000, n_couplable=200, n_types=3, n_depots=8), count=1),
        "toy": dict(gen=dict(n_trips=60, n_couplable=12, n_types=3, n_depots=8), count=1),
    },
}
# Fixed instances whose artifact digests are recorded in digests.json and
# checked on every run, whatever --seed is.
REFERENCE = {
    "compile-large": dict(gen=dict(n_trips=200, n_couplable=40, n_types=3, n_depots=8), seed=0),
    "anneal-portfolio": dict(gen=dict(n_trips=12, n_types=1, n_depots=1), seed=0,
                             reads=100, sweeps=500),
}
SOLVE_TIME_LIMIT = 60.0  # seconds; reaching it counts as a failure
CALIBRATE_EVERY = 0.5  # seconds of wall time between calibration samples in a pass
CALIBRATION_REF_S = 0.007  # median calibration time on the 2-vCPU VM the bounds were set on
TOP_PLANS = 10  # size of the exact portfolio the anneal portfolio is compared with

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"),
              ("ok_share", "ratio"), ("optimal_share", "ratio"),
              ("feasible_share", "ratio"), ("opt_hit_share", "ratio"),
              ("portfolio_recall", "ratio"))
PER_LAYER = (
    ("model.loads_s", "s"), ("netbuild.build_s", "s"), ("netbuild.arcs", "count"),
    ("ilp.encode_s", "s"), ("ilp.rows", "count"), ("ilp.export_lp_s", "s"),
    ("ilp.lp_bytes", "bytes"), ("qubo.encode_s", "s"), ("qubo.to_ising_s", "s"),
    ("qubo.export_coo_s", "s"), ("qubo.vars", "count"), ("qubo.terms", "count"),
    ("qubo.coo_bytes", "bytes"), ("qubo.decode_s", "s"), ("qubo.decode_calls", "count"),
    ("exact.solve_s", "s"), ("exact.nodes", "count"), ("exact.nodes_per_s", "1/s"),
    ("exact.enumerate_s", "s"), ("exact.enumerate_plans", "count"),
    ("anneal.anneal_s", "s"), ("anneal.site_updates_per_s", "1/s"),
    ("anneal.distinct_samples", "count"), ("diagram.render_s", "s"),
    ("model.self_s", "s"), ("netbuild.self_s", "s"), ("ilp.self_s", "s"),
    ("exact.self_s", "s"), ("qubo.self_s", "s"), ("anneal.self_s", "s"),
    ("diagram.self_s", "s"), ("trace.overhead_share", "ratio"),
)
# span name -> per-layer time metric
SPAN_METRICS = {
    "model.loads": "model.loads_s", "netbuild.build": "netbuild.build_s",
    "ilp.encode": "ilp.encode_s", "ilp.export_lp": "ilp.export_lp_s",
    "qubo.encode": "qubo.encode_s", "qubo.to_ising": "qubo.to_ising_s",
    "qubo.export_coo": "qubo.export_coo_s", "qubo.decode": "qubo.decode_s",
    "exact.solve": "exact.solve_s", "exact.enumerate": "exact.enumerate_s",
    "anneal.anneal": "anneal.anneal_s", "diagram.render": "diagram.render_s",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def import_rollstock(fresh: bool = False):
    """Import rollstock from this checkout's src/, never from elsewhere.
    ``fresh`` drops an earlier import first, so that set-up can time it."""
    src = ROOT / "src"
    if not (src / "rollstock" / "__init__.py").is_file():
        raise SystemExit(f"rollstock sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if fresh:
        for name in [m for m in sys.modules if m == "rollstock" or m.startswith("rollstock.")]:
            del sys.modules[name]
    import rollstock
    if Path(rollstock.__file__).resolve().parent != src / "rollstock":
        raise SystemExit(f"rollstock was imported from {rollstock.__file__}, not {src}")
    return rollstock


def generate(rs, gen: dict, seed: int) -> str:
    return rs.serialize_instance(rs.generate_synthetic(rs.GeneratorConfig(**gen), seed))


def instance_texts(rs, size: dict, seed: int) -> list[str]:
    return [generate(rs, size["gen"], seed * 1000 + i) for i in range(size["count"])]


# ---------------------------------------------------------------------------
# One operation = one instance through the workload's pipeline. Each returns
# a determinism key (equal on every pass) and what the checks need.


def op_exact(rs, text: str, size: dict, index: int, seed: int) -> dict:
    inst = rs.loads_instance(text)
    graph = rs.build_hypergraph(inst)
    model = rs.encode_ilp(graph, inst)
    result = rs.solve_exact(model, time_limit=SOLVE_TIME_LIMIT)
    if result.solution is None:
        return {"key": result.status, "status": result.status}
    chosen = result.solution.decoded
    drawing = rs.render_svg(inst, graph, chosen) + rs.render_ascii(inst, graph, chosen)
    return {"key": (result.status, result.solution.x, sha256(drawing)),
            "status": result.status, "x": result.solution.x,
            "objective": result.solution.objective}


def sample_digest(samples) -> str:
    h = hashlib.sha256()
    for e in samples.entries:
        h.update(f"{''.join(map(str, e.y))} {e.energy} {e.multiplicity}\n".encode())
    return h.hexdigest()


def op_anneal(rs, text: str, size: dict, index: int, seed: int) -> dict:
    inst = rs.loads_instance(text)
    graph = rs.build_hypergraph(inst)
    model = rs.encode_ilp(graph, inst)
    qubo = rs.encode_qubo(model)
    params = rs.AnnealParams(num_reads=size["reads"], sweeps=size["sweeps"],
                             seed=seed * 1000 + index)
    run = rs.sample_portfolio(inst, params=params, graph=graph, ilp=model, qubo=qubo)
    exact = rs.enumerate_feasible(model)
    infeasible_reads = sum(r.multiplicity for r in run.rejected)
    top = {s.x for s in exact.solutions[:TOP_PLANS]}
    found = {s.x for s in run.portfolio.solutions}
    best, optimum = run.portfolio.best(), exact.best()
    return {"key": sample_digest(run.samples),
            "enumerated": exact.exhaustive and optimum is not None,
            "reads": params.num_reads,
            "feasible_reads": params.num_reads - infeasible_reads,
            "opt_hit": None not in (best, optimum) and best.objective == optimum.objective,
            "top": len(top), "recalled": len(top & found)}


def op_compile(rs, text: str, size: dict, index: int, seed: int) -> dict:
    inst = rs.loads_instance(text)
    graph = rs.build_hypergraph(inst)
    model = rs.encode_ilp(graph, inst)
    lp = rs.export_lp(model)
    qubo = rs.encode_qubo(model)
    ising = rs.to_ising(qubo)
    qubo_coo = rs.export_qubo_coo(qubo)
    ising_coo = rs.export_ising_coo(ising)
    report = rs.scaling_report(inst, graph, model, qubo)
    if (report.ilp_vars, report.qubo_terms) != (model.num_vars, qubo.num_terms()):
        raise RuntimeError("scaling_report disagrees with the compiled models")
    return {"key": {"lp": sha256(lp), "qubo_coo": sha256(qubo_coo),
                    "ising_coo": sha256(ising_coo)}}


OPS = {"exact-route": op_exact, "anneal-portfolio": op_anneal, "compile-large": op_compile}


# ---------------------------------------------------------------------------
# Correctness checks, run after timing


def milp_objective(model) -> float:
    """Optimum of the same IlpModel by scipy's HiGHS MILP solver."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    n = model.num_vars
    c = np.zeros(n)
    for v, coeff in model.objective:
        c[v] += float(coeff)
    rows, cols, vals, lo, hi = [], [], [], [], []
    for i, row in enumerate(model.constraints):
        row_lo, row_hi = row.bounds()
        lo.append(-np.inf if row_lo is None else row_lo)
        hi.append(row_hi)
        for v, coeff in row.coeffs:
            rows.append(i)
            cols.append(v)
            vals.append(coeff)
    a = coo_matrix((vals, (rows, cols)), shape=(len(lo), n)).tocsr()
    res = milp(c, constraints=LinearConstraint(a, lo, hi),
               integrality=np.ones(n), bounds=Bounds(0, 1))
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the model: {res.message}")
    return res.fun + float(model.constant)


def check_exact(rs, texts: list[str], first: list[dict]) -> list[str]:
    """Per instance: '' if proven optimal, feasible and equal to HiGHS."""
    verdicts = []
    for text, out in zip(texts, first):
        if out["status"] != "optimal":
            verdicts.append(f"status {out['status']}")
            continue
        inst = rs.loads_instance(text)
        model = rs.encode_ilp(rs.build_hypergraph(inst), inst)
        if not rs.check_feasibility(model, out["x"]).feasible:
            verdicts.append("plan violates the ILP")
            continue
        ref = milp_objective(model)
        if abs(float(out["objective"]) - ref) > 1e-6 * max(1.0, abs(ref)):
            verdicts.append(f"objective {float(out['objective'])} != HiGHS {ref}")
            continue
        verdicts.append("")
    return verdicts


def check_anneal(rs, texts: list[str], first: list[dict]) -> list[str]:
    return ["" if out["enumerated"] else "enumeration not exhaustive or empty"
            for out in first]


def check_compile(rs, texts: list[str], first: list[dict]) -> list[str]:
    return [""] * len(first)


CHECKS = {"exact-route": check_exact, "anneal-portfolio": check_anneal,
          "compile-large": check_compile}


def load_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text())


def run_digest(workload: str, keys: list) -> object:
    """What digests.json records for one run: compile-large's export
    digests, or one digest over all anneal sample sets in instance order."""
    return keys[0] if workload == "compile-large" else sha256("".join(keys))


def reference_digest(rs, workload: str) -> object:
    ref = REFERENCE[workload]
    text = generate(rs, ref["gen"], ref["seed"])
    return run_digest(workload, [OPS[workload](rs, text, ref, 0, ref["seed"])["key"]])


def recorded_digest_mismatches(rs, workload: str, seed: int, first: list[dict]) -> list[str]:
    """Compare with digests.json: this seed's entry if recorded, and the
    fixed reference instance on every run."""
    table = load_digests()[workload]
    problems = []
    recorded = table["seeds"].get(str(seed))
    if recorded is not None and recorded != run_digest(workload, [o["key"] for o in first]):
        problems.append(f"seed {seed}: digests differ from digests.json")
    if reference_digest(rs, workload) != table["reference"]:
        problems.append("reference instance: digests differ from digests.json")
    return problems


# ---------------------------------------------------------------------------
# Measurement


def calibrate() -> float:
    """Seconds for a fixed loop of the kinds of work rollstock does: Fraction
    sums, dict updates and scalar numpy indexing. It uses no rollstock code,
    so a change to the library cannot move it; only the machine can."""
    start = time.perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 1501):
        total += Fraction(1, i % 97 + 1)
        table[i % 211, i % 7] = table.get((i % 211, i % 7), 0) + i
    a = np.zeros(64)
    for i in range(1000):
        a[i % 64] = a[i * 7 % 64] * 0.5 + 1.0
    return time.perf_counter() - start


class Calibrator:
    """Takes a calibrate() sample every CALIBRATE_EVERY seconds of wall time
    from a SIGALRM handler, so samples fall inside long library calls too.
    ``spent`` is the time the handler took, which callers subtract."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Calibrator":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY, CALIBRATE_EVERY)
        self._sample(None, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


@dataclass
class Pass:
    seconds: float
    traced: bool
    op_seconds: list = field(default_factory=list)  # per instance
    calibration: list = field(default_factory=list)  # calibrate() samples
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # per instance: '' or message
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def run_pass(rs, op, texts, size, seed, tracer) -> Pass:
    outputs, errors, op_seconds = [], [], []
    start = time.perf_counter()
    with Calibrator() as calibrator:
        for i, text in enumerate(texts):
            op_start, spent = time.perf_counter(), calibrator.spent
            try:
                if tracer is None:
                    outputs.append(op(rs, text, size, i, seed))
                else:
                    tracer.op = f"i{i}"
                    with tracer.span("bench.op"):
                        outputs.append(op(rs, text, size, i, seed))
                errors.append("")
            except Exception as exc:  # one failed operation must not end the run
                outputs.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
            op_seconds.append(time.perf_counter() - op_start - (calibrator.spent - spent))
    p = Pass(seconds=time.perf_counter() - start, traced=tracer is not None,
             op_seconds=op_seconds, calibration=calibrator.samples, outputs=outputs,
             errors=errors)
    if tracer is not None:
        p.spans, p.counts = tracer.take()
    return p


def layer_metrics(p: Pass) -> dict[str, float]:
    total, self_s = span_times(p.spans)
    m = {metric: total.get(name, 0.0) for name, metric in SPAN_METRICS.items()}
    for key in ("netbuild.arcs", "ilp.rows", "ilp.lp_bytes", "qubo.vars", "qubo.terms",
                "qubo.coo_bytes", "qubo.decode_calls", "exact.nodes",
                "exact.enumerate_plans", "anneal.distinct_samples"):
        m[key] = p.counts.get(key, 0)
    m["exact.nodes_per_s"] = (m["exact.nodes"] / m["exact.solve_s"]
                              if m["exact.solve_s"] else 0.0)
    m["anneal.site_updates_per_s"] = (p.counts.get("anneal.site_updates", 0) / m["anneal.anneal_s"]
                                      if m["anneal.anneal_s"] else 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["bench.self_s"] = self_s.get("bench", 0.0)
    return m


def speed_factor(calibration: list[float]) -> float:
    """Reference calibration time over the median one measured: below 1
    while the machine runs slow."""
    return CALIBRATION_REF_S / statistics.median(calibration)


def pass_seconds(passes: list[Pass]) -> float:
    """Instances per pass times the geometric mean over instances of each
    instance's median time across the passes, scaled to the reference
    machine speed with the calibration samples taken during the passes.

    A shared virtual machine runs everything up to half slower in phases of
    seconds to minutes. Calibration samples interleaved with the operations
    see the same mix of phases, so their median tracks it. Branch-and-bound
    cost is heavy-tailed (one instance in a thousand takes a hundred times
    the median), so a plain sum would swing with the seed; the geometric
    mean, the usual summary of solver times over an instance set, does not."""
    typical = [statistics.median(times) for times in zip(*(p.op_seconds for p in passes))]
    calibration = [c for p in passes for c in p.calibration]
    return len(typical) * statistics.geometric_mean(typical) * speed_factor(calibration)


def quality(workload: str, first: list[dict], verdicts: list[str]) -> dict[str, float]:
    """Answer-quality ratios. A ratio about a kind of answer the workload
    does not produce reads 1: nothing of that kind was missed."""
    q = {"optimal_share": 1.0, "feasible_share": 1.0, "opt_hit_share": 1.0,
         "portfolio_recall": 1.0}
    done = [out for out in first if out is not None]
    if workload == "exact-route":
        q["optimal_share"] = sum(out["status"] == "optimal" for out in done) / len(first)
    elif workload == "anneal-portfolio":
        q["optimal_share"] = sum(v == "" for v in verdicts) / len(first)
        q["feasible_share"] = (sum(out["feasible_reads"] for out in done)
                               / max(1, sum(out["reads"] for out in done)))
        q["opt_hit_share"] = sum(out["opt_hit"] for out in done) / len(first)
        q["portfolio_recall"] = (sum(out["recalled"] for out in done)
                                 / max(1, sum(out["top"] for out in done)))
    return q


def measure(rs, op, texts, size, seed, seconds, tracer) -> list[Pass]:
    """Passes until ``seconds`` have gone; with a tracer, every second pass
    is traced and the run has at least one pass of each kind."""
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            p = run_pass(rs, op, texts, size, seed, tracer if traced else None)
        finally:
            if traced:
                tracer.remove()
        if passes:  # later passes are only compared with the first
            p.outputs = [out and {"key": out["key"]} for out in p.outputs]
        passes.append(p)
        kinds = {p.traced for p in passes}
        if time.perf_counter() >= deadline and len(kinds) == 1 + (tracer is not None):
            return passes


def check(rs, workload, scale, seed, texts, passes) -> tuple[int, int, list[str], list[str]]:
    """Attempted and failed operations, per-instance verdicts and messages.
    The first pass is checked against references, later ones against it."""
    first = passes[0].outputs
    verdicts = list(passes[0].errors)
    problems = []
    if all(out is not None for out in first):
        for i, v in enumerate(CHECKS[workload](rs, texts, first)):
            verdicts[i] = verdicts[i] or v
        if scale == "full" and workload in REFERENCE:
            problems = recorded_digest_mismatches(rs, workload, seed, first)
    attempted = failed = 0
    for p in passes:
        for i, out in enumerate(p.outputs):
            attempted += 1
            failed += bool(p.errors[i] or verdicts[i] or problems
                           or out["key"] != first[i]["key"])
    messages = sorted({f"instance {i}: {v}" for i, v in enumerate(verdicts) if v}
                      | set(problems)
                      | {f"pass {k} instance {i}: {e}"
                         for k, p in enumerate(passes) for i, e in enumerate(p.errors) if e})
    return attempted, failed, verdicts, messages


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    workload, seed, scale = args.workload, args.seed, "toy" if args.toy else "full"
    size = SIZES[workload][scale]

    setups, setup_calibration = [], [calibrate()]
    for _ in range(3):
        start = time.perf_counter()
        rs = import_rollstock(fresh=True)
        texts = instance_texts(rs, size, seed)
        setups.append(time.perf_counter() - start)
        setup_calibration.append(calibrate())
    passes = measure(rs, OPS[workload], texts, size, seed, args.seconds,
                     Tracer() if args.trace else None)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, verdicts, messages = check(rs, workload, scale, seed, texts, passes)

    plain = [p for p in passes if not p.traced]
    values = {"run_s": pass_seconds(plain),
              "setup_s": statistics.median(setups) * speed_factor(setup_calibration),
              "peak_rss_mib": peak_rss_mib, "ok_share": 1 - failed / attempted}
    values.update(quality(workload, passes[0].outputs, verdicts))
    print(f"workload {workload} seed {seed} scale {scale}: {len(passes)} passes, "
          f"{len(texts)} instances each; untraced pass wall time median "
          f"{statistics.median(p.seconds for p in plain):.4f} s, max "
          f"{max(p.seconds for p in plain):.4f} s over {len(plain)} passes; slowest "
          f"operation {max(max(p.op_seconds) for p in plain):.4f} s; speed factor "
          f"{speed_factor([c for p in plain for c in p.calibration]):.3f} in passes, "
          f"{speed_factor(setup_calibration):.3f} in set-up (raw setup_s "
          f"{statistics.median(setups):.4f} s)")
    if args.trace:
        traced = [p for p in passes if p.traced]
        per_pass = [layer_metrics(p) for p in traced]
        layers = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        layers["trace.overhead_share"] = pass_seconds(traced) / values["run_s"] - 1
        write_trace(workload, seed, traced)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        busy = sum(layers[f"{layer}.self_s"] for layer in LAYERS + ("bench",))
        for layer in LAYERS + ("bench",):
            self_s = layers[f"{layer}.self_s"]
            print(f"  self time {layer:<9} {self_s:9.4f} s  {self_s / busy:6.1%}")
        print(f"  tracing overhead {layers['trace.overhead_share']:+.1%} (run_s of the "
              f"traced passes against the untraced ones)")
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"  {name:<17} {values[name]:.6g} {unit}")
    for line in messages:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def write_trace(workload: str, seed: int, traced: list[Pass]) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    spans = [dict(s, pass_index=k) for k, p in enumerate(traced) for s in p.spans]
    (out / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(spans))


if __name__ == "__main__":
    sys.exit(main())
