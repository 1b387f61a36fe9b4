"""Per-layer tracing from outside the program.

``install`` replaces public functions of the package at the names their
callers look them up by (``qtopos.cli.build_poset``,
``qtopos.quantum.ks_search``, ``qtopos.contexts.proj_leq`` ...) with
wrappers that record spans, timers or counters.  Nothing under ``src/``
changes.  A span is ``(name, start, end, parent, op)``; spans stay in
memory and are written out when the run ends.

Three kinds of wrapper, chosen by how often the function runs:

* span: layer boundaries, a handful to a few hundred per op;
* timer: time and calls only, for the validating constructors that run once
  per enumerated result (thousands per op);
* counter: calls only, for the numeric predicates (tens of thousands).

A call nested inside an open call of the same metric (``heyting_not``
calling ``heyting_implies``, ``daseinise_projector_inner`` calling
``daseinise_projector``) is left to the outer one, so no time is counted
twice.  A ``SizeLimit`` is charged to the innermost wrapped function it
passes through.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter

# Per-pass totals; every other per-layer metric is a per-op median.
COUNT_METRICS = (
    "scenario.calls", "contexts.contexts", "contexts.order_pairs",
    "contexts.candidates", "contexts.equal_calls", "contexts.leq_calls",
    "numerics.proj_leq_calls", "numerics.eigensystem_calls",
    "quantum.presheaf_points", "quantum.restriction_maps", "quantum.ks_nodes",
    "quantum.ks_sections", "quantum.ks_limit_trips", "props.leaves",
    "kernel.heyting_calls", "kernel.construct_calls", "kernel.enum_results",
    "kernel.limit_trips", "cli.report_bytes",
)
TIME_METRICS = (
    "scenario.parse_s", "contexts.build_poset_s", "quantum.presheaf_s",
    "quantum.ks_s", "quantum.daseinise_s", "quantum.truth_s",
    "quantum.delta_s", "props.parse_s", "kernel.heyting_s",
    "kernel.construct_s", "kernel.enum_s", "cli.self_s",
)
RATIO_METRICS = ("contexts.absorb_ratio", "quantum.ks_nodes_per_s")
PER_LAYER = (TIME_METRICS + COUNT_METRICS + RATIO_METRICS
             + ("trace.op_p50_s", "trace.overhead_s"))
UNITS = {**{name: "s" for name in PER_LAYER if name.endswith("_s")},
         **{name: "count" for name in COUNT_METRICS},
         "cli.report_bytes": "bytes", "contexts.absorb_ratio": "ratio",
         "quantum.ks_nodes_per_s": "1/s"}


class Tracer:
    """Spans and counters of one traced run, grouped by op."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open: set[str] = set()
        self.op = -1
        self.counts: Counter = Counter()
        self.per_op: list[Counter] = []

    def begin_op(self) -> None:
        self.op += 1
        self.counts = Counter()
        self.per_op.append(self.counts)

    def start(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def stop(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def trip(self, exc: Exception, key: str) -> None:
        if not getattr(exc, "_bench_charged", False):
            exc._bench_charged = True
            self.counts[key] += 1

    def op_metrics(self) -> list[dict]:
        """Per-op layer times (seconds) and counters."""
        out = [dict(counts) for counts in self.per_op]
        children: dict[int, float] = {}
        for name, start, end, parent, op in self.spans:
            out[op][name + "_s"] = out[op].get(name + "_s", 0.0) + end - start
            if parent >= 0:
                children[parent] = children.get(parent, 0.0) + end - start
        for index, (name, start, end, _parent, op) in enumerate(self.spans):
            if name == "cli.run_command":
                own = end - start - children.get(index, 0.0)
                out[op]["cli.self_s"] = out[op].get("cli.self_s", 0.0) + own
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(per_op: list[dict], passes: int) -> dict:
    """Per-layer metrics: per-op medians of times, per-pass counts."""
    out = {}
    for key in TIME_METRICS:
        values = [m[key] for m in per_op if m.get(key)]
        out[key] = statistics.median(values) if values else 0.0
    totals = Counter()
    for m in per_op:
        totals.update({k: v for k, v in m.items() if k in COUNT_METRICS})
    for key in COUNT_METRICS:
        out[key] = totals[key] / passes
    out["contexts.absorb_ratio"] = (
        totals["contexts.contexts"] / totals["contexts.candidates"]
        if totals["contexts.candidates"] else 0.0)
    rates = [m["quantum.ks_nodes"] / m["quantum.ks_s"]
             for m in per_op if m.get("quantum.ks_s")]
    out["quantum.ks_nodes_per_s"] = statistics.median(rates) if rates else 0.0
    return out


def _wrap(tracer: Tracer, module, attr: str, metric: str, kind: str,
          on_result=None, trip_key: str | None = None, size_limit=None):
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if metric in tracer.open:
            return fn(*args, **kwargs)
        tracer.open.add(metric)
        index = tracer.start(metric) if kind == "span" else None
        begin = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except size_limit as exc:
            tracer.trip(exc, trip_key)
            if on_result is not None:
                on_result(tracer.counts, args, None)
            raise
        finally:
            tracer.open.discard(metric)
            if kind == "span":
                tracer.stop(index)
            else:
                tracer.counts[metric + "_s"] += time.perf_counter() - begin
        if on_result is not None:
            on_result(tracer.counts, args, result)
        return result

    setattr(module, attr, wrapper)


def _count(tracer: Tracer, module, attr: str, key: str, when=None):
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if when is None or when(result):
            tracer.counts[key] += 1
        return result

    setattr(module, attr, wrapper)


def _count_yields(tracer: Tracer, module, attr: str, key: str):
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            tracer.counts[key] += 1
            yield item

    setattr(module, attr, wrapper)


def _points(presheaf) -> int:
    return sum(len(points) for points in presheaf.sets.values())


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions; call once per process."""
    import qtopos.cli as cli
    import qtopos.contexts as contexts
    import qtopos.kernel as kernel
    import qtopos.props as props
    import qtopos.quantum as quantum
    import qtopos.scenario as scenario
    from qtopos.errors import SizeLimit

    def span(module, attr, metric, on_result=None, trip_key=None):
        _wrap(tracer, module, attr, metric, "span", on_result,
              trip_key or metric.split(".")[0] + ".limit_trips", SizeLimit)

    def timer(module, attr, metric):
        _wrap(tracer, module, attr, metric, "timer",
              lambda counts, args, result: counts.update([metric + "_calls"]),
              metric.split(".")[0] + ".limit_trips", SizeLimit)

    def scenario_done(counts, args, result):
        counts["scenario.calls"] += 1

    def poset_done(counts, args, result):
        counts["contexts.candidates"] += len(args[0])
        if result is not None:
            counts["contexts.contexts"] += len(result)
            counts["contexts.order_pairs"] += len(result.leq) - len(result)

    def presheaf_done(counts, args, result):
        if result is not None:
            counts["quantum.presheaf_points"] += _points(result.underlying)
            counts["quantum.restriction_maps"] += len(
                result.underlying.restrictions)

    def ks_done(counts, args, result):
        if result is None:  # tripped: the search stops one node past its cap
            counts["quantum.ks_nodes"] += quantum.KS_NODE_LIMIT + 1
        else:
            counts["quantum.ks_nodes"] += result.nodes_explored
            counts["quantum.ks_sections"] += len(result.sections)

    def heyting_done(counts, args, result):
        counts["kernel.heyting_calls"] += 1

    def enum_done(counts, args, result):
        if isinstance(result, list):
            counts["kernel.enum_results"] += len(result)
        elif result is not None:
            counts["kernel.enum_results"] += _points(result)

    span(cli, "parse_scenario", "scenario.parse", scenario_done)
    span(cli, "build_poset", "contexts.build_poset", poset_done)
    span(quantum, "spectral_presheaf", "quantum.presheaf", presheaf_done)
    span(quantum, "ks_search", "quantum.ks", ks_done, "quantum.ks_limit_trips")
    for name in ("daseinise_projector", "daseinise_projector_inner"):
        span(quantum, name, "quantum.daseinise")
    for name in ("pseudo_state", "truth_value_pseudo",
                 "truth_value_truthobject"):
        span(quantum, name, "quantum.truth")
    span(quantum, "delta_subobject", "quantum.delta")
    span(props, "parse_prop", "props.parse")
    for name in ("heyting_meet", "heyting_join", "heyting_implies",
                 "heyting_not", "truth_value_inclusion"):
        span(kernel, name, "kernel.heyting", heyting_done)
    for name in ("all_subobjects", "hom_set", "power_object",
                 "global_elements", "exponential"):
        span(kernel, name, "kernel.enum", enum_done)
    for name in ("presheaf", "subobject", "nat_transform", "lowerset"):
        timer(kernel, name, "kernel.construct")

    _count(tracer, contexts, "contexts_equal", "contexts.equal_calls")
    _count(tracer, contexts, "context_leq", "contexts.leq_calls")
    _count(tracer, contexts, "context_intersection", "contexts.candidates",
           when=lambda result: result is not None)
    _count_yields(tracer, contexts, "coarsenings", "contexts.candidates")
    for module in (contexts, quantum):
        _count(tracer, module, "proj_leq", "numerics.proj_leq_calls")
    for module in (scenario, contexts, quantum):
        _count(tracer, module, "eigensystem", "numerics.eigensystem_calls")
