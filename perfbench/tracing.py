"""Spans and counters recorded around calls into rollstock's layers.

The library has no tracing of its own, so the benchmark wraps the public
functions it calls (and the two that ``sample_portfolio`` calls inside
``rollstock.anneal``) from outside. Each call becomes one span with a
name, start, end, parent span and operation id; counters are taken from
the call's arguments and result at the same boundary. Everything stays in
memory until the run writes it out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict


def _lp_counts(args, kwargs, text):
    return {"ilp.lp_bytes": len(text.encode())}


def _coo_counts(args, kwargs, text):
    return {"qubo.coo_bytes": len(text.encode())}


def _anneal_counts(args, kwargs, samples):
    model = args[0]
    params = args[1] if len(args) > 1 else kwargs["params"]
    return {"anneal.site_updates": params.num_reads * params.sweeps * model.num_vars,
            "anneal.distinct_samples": len(samples.entries)}


# (module, attribute, span name, counters from (args, kwargs, result))
WRAPPED = (
    ("rollstock", "loads_instance", "model.loads", None),
    ("rollstock", "build_hypergraph", "netbuild.build",
     lambda a, k, g: {"netbuild.arcs": len(g.arcs)}),
    ("rollstock", "encode_ilp", "ilp.encode",
     lambda a, k, m: {"ilp.rows": len(m.constraints)}),
    ("rollstock", "export_lp", "ilp.export_lp", _lp_counts),
    ("rollstock", "encode_qubo", "qubo.encode",
     lambda a, k, q: {"qubo.vars": q.num_vars, "qubo.terms": q.num_terms()}),
    ("rollstock", "to_ising", "qubo.to_ising", None),
    ("rollstock", "export_qubo_coo", "qubo.export_coo", _coo_counts),
    ("rollstock", "export_ising_coo", "qubo.export_coo", _coo_counts),
    ("rollstock", "scaling_report", "qubo.scaling_report", None),
    ("rollstock", "solve_exact", "exact.solve",
     lambda a, k, r: {"exact.nodes": r.nodes}),
    ("rollstock", "enumerate_feasible", "exact.enumerate",
     lambda a, k, p: {"exact.enumerate_plans": len(p.solutions)}),
    ("rollstock", "sample_portfolio", "anneal.sample_portfolio", None),
    ("rollstock.anneal", "anneal", "anneal.anneal", _anneal_counts),
    ("rollstock.anneal", "decode", "qubo.decode",
     lambda a, k, d: {"qubo.decode_calls": 1}),
    ("rollstock", "render_svg", "diagram.render", None),
    ("rollstock", "render_ascii", "diagram.render", None),
)

LAYERS = ("model", "netbuild", "ilp", "exact", "qubo", "anneal", "diagram")


class Tracer:
    """In-memory span and counter store; ``install`` patches, ``remove`` undoes."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append({"name": name, "op": self.op,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": time.perf_counter(), "end": None})
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += value
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> tuple[list[dict], dict[str, int]]:
        """Hand over and clear what was recorded since the last call."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts


def span_times(spans: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Total seconds per span name, and self seconds per layer.

    A span's self time is its duration minus its direct children's
    durations; the layer is the span name up to the first dot.
    """
    total: defaultdict[str, float] = defaultdict(float)
    child: defaultdict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    self_s: defaultdict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        duration = s["end"] - s["start"]
        total[s["name"]] += duration
        self_s[s["name"].split(".", 1)[0]] += duration - child[i]
    return dict(total), dict(self_s)
