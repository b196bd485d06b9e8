"""Traced invocations: span recording in the child and per-layer metrics.

Run as a script, this module is the child process of a traced invocation:

    python perfbench/tracing.py <spans.json> <invocation-id> <fairprice argv...>

It times ``import fairprice.cli``, wraps the public functions of each layer
on their modules (so calls through module globals, such as
``core_is_nonempty -> lp_feasible``, are caught too), calls
``fairprice.cli.main(argv)`` and writes the spans it kept in memory to
``spans.json``.  Hot leaf methods (``Game.worth``, ``Game.coalitions``) get
call counters instead of spans.  Nothing is written to stdout, so a traced
invocation prints what an untraced one prints.

Imported, it turns the span files of one traced pass into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter

# layer group -> (module, function names) wrapped with spans
SPAN_GROUPS = {
    "specio.load": ("specio", ("load_game", "load_argument_game", "load_payoff_vector")),
    "specio.render": ("specio", ("results_to_json", "results_to_csv", "curves_to_csv")),
    "fair_division.shapley": ("fair_division", ("shapley",)),
    "fair_division.arguments": ("fair_division", ("anonymity_proof_shapley", "shapley_arguments")),
    "corelp.core_is_nonempty": ("corelp", ("core_is_nonempty",)),
    "corelp.lp_feasible": ("corelp", ("lp_feasible",)),
    "corelp.core_contains": ("corelp", ("core_contains",)),
    "trust.dp_optimal": ("trust", ("dp_optimal",)),
    "trust.expected_curve": ("trust", ("expected_curve",)),
    "trust.mc_simulate": ("trust", ("mc_simulate",)),
    "trust.closed_forms": ("trust", (
        "no_reset_total", "no_reset_total_geometric", "with_reset_total",
        "with_reset_total_bound", "zero_success_probability", "zero_success_lower_bound",
        "dilog", "dilog_series", "recovery_threshold",
    )),
    "verification.run_suite": ("verification", ("run_suite",)),
}
COUNTED = {"games.worth": "worth", "games.coalitions": "coalitions"}


class Tracer:
    """Spans (name, start, end, parent, attrs) and call counts, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def add(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, self.stack[-1] if self.stack else -1, {}])

    def wrap(self, name: str, fn, attrs=None):
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            rec = [name, 0.0, 0.0, parent, {}]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            mem = name == "trust.dp_optimal" and not tracemalloc.is_tracing()
            if mem:
                tracemalloc.start()
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
                if mem:
                    rec[4]["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                if attrs:
                    rec[4].update(attrs(sig.bind(*args, **kwargs).arguments))
        return traced

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted


def _lp_rows(a):
    return {"rows": len(a["sys"].inequalities), "vars": len(a["sys"].variables)}


ATTRS = {
    "trust.dp_optimal": lambda a: {"cells": a["n"] * (a["n"] + 2) ** 2},
    "trust.mc_simulate": lambda a: {"draws": a["n"] * a["trials"]},
    "corelp.lp_feasible": _lp_rows,
}


def install(tracer: Tracer) -> None:
    import importlib

    from fairprice.games import Game

    for group, (module, names) in SPAN_GROUPS.items():
        mod = importlib.import_module(f"fairprice.{module}")
        for fname in names:
            setattr(mod, fname, tracer.wrap(group, getattr(mod, fname), ATTRS.get(group)))
    for name, method in COUNTED.items():
        setattr(Game, method, tracer.count(name, getattr(Game, method)))


def child_main(spans_path: str, inv: str, argv: list[str]) -> int:
    tracer = Tracer()
    start = time.perf_counter()
    import fairprice.cli

    tracer.add("cli.import", start, time.perf_counter())
    install(tracer)
    code = tracer.wrap("cli.main", fairprice.cli.main)(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"inv": inv, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


# ---------------------------------------------------------------------------
# Per-layer metrics from the span files of one traced pass
# ---------------------------------------------------------------------------

def _outermost(spans: list[list], group: str) -> list[list]:
    """Spans of a group that no other span of the same group encloses."""
    out = []
    for rec in spans:
        if rec[0] != group:
            continue
        parent = rec[3]
        while parent >= 0 and spans[parent][0] != group:
            parent = spans[parent][3]
        if parent < 0:
            out.append(rec)
    return out


def _self_times(spans: list[list], group: str) -> float:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return sum(rec[2] - rec[1] - child[i] for i, rec in enumerate(spans) if rec[0] == group)


def layer_metrics(traces: list[dict], walls: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``traces`` holds each invocation's span file, ``walls`` the wall time of
    each traced invocation as its parent measured it (spawn to exit).  All
    times are totals over the pass.
    """
    m: Counter = Counter()
    rows_max, frac_max, peak_mb = 0, 0.0, 0.0
    for trace, wall in zip(traces, walls):
        spans = trace["spans"]
        for name in COUNTED:
            m[f"{name}.calls"] += trace["counts"].get(name, 0)
        for group in SPAN_GROUPS:
            outer = _outermost(spans, group)
            m[f"{group}.s"] += sum(r[2] - r[1] for r in outer)
            m[f"{group}.calls"] += len(outer)
        for rec in spans:
            attrs = rec[4]
            if rec[0] == "corelp.lp_feasible":
                rows_max = max(rows_max, attrs["rows"])
                frac_max = max(frac_max, attrs["rows"] / (2 ** attrs["vars"] - 2))
            m["trust.dp_optimal.cells"] += attrs.get("cells", 0)
            m["trust.mc_simulate.draws"] += attrs.get("draws", 0)
            peak_mb = max(peak_mb, attrs.get("peak_mb", 0.0))
        top = [r for r in spans if r[3] < 0]
        m["cli.import_s"] += sum(r[2] - r[1] for r in top if r[0] == "cli.import")
        m["cli.self_s"] += _self_times(spans, "cli.main")
        m["corelp.separation.self_s"] += _self_times(spans, "corelp.core_is_nonempty")
        m["verification.run_suite.self_s"] += _self_times(spans, "verification.run_suite")
        m["trace.unattributed_s"] += wall - sum(r[2] - r[1] for r in top)
    mc_s = m["trust.mc_simulate.s"]
    derived = {
        "specio.load_s": m["specio.load.s"],
        "specio.render_s": m["specio.render.s"],
        "corelp.lp_feasible.rows_max": rows_max,
        "corelp.rows_active_frac": frac_max,
        "trust.dp_optimal.peak_mb": peak_mb,
        "trust.mc_simulate.draws_per_s": m["trust.mc_simulate.draws"] / mc_s if mc_s else 0.0,
    }
    return {**m, **derived}


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1], sys.argv[2], sys.argv[3:]))
