"""Per-layer metrics, computed from one traced run's spans.

Every workload reports every name in :data:`PER_LAYER`; a layer the
workload never enters reports 0, which is the prediction for it.
Times are self times (see :mod:`tracing`) divided by the number of
events that drive the layer: ops on ``solve`` and ``circuit``; on
``serve``, the server's registrations, reads or writes (see
``serve.py``).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

from common import Metrics
from tracing import Tracer

#: name -> unit, in report order.
PER_LAYER = {
    "datalog.parser.ms": "ms",
    "datalog.analysis.ms": "ms",
    "datalog.grounding.ms": "ms",
    "datalog.grounding.ground_rules": "count",
    "datalog.grounding.join_probes": "count",
    "datalog.grounding.yield": "ratio",
    "datalog.seminaive.ms": "ms",
    "datalog.seminaive.iterations": "count",
    "datalog.seminaive.rule_evaluations": "count",
    "datalog.incremental.delta_ms": "ms",
    "constructions.ms": "ms",
    "constructions.gates": "count",
    "constructions.gates_per_ground_rule": "ratio",
    "circuits.runtime.freeze_ms": "ms",
    "circuits.runtime.first_eval_ms": "ms",
    "circuits.runtime.warm_eval_us": "us",
    "circuits.runtime.bool_lane_us": "us",
    "circuits.runtime.point_eval_us": "us",
    "circuits.runtime.serve_init_ms": "ms",
    "circuits.runtime.update_us": "us",
    "python.gc_ms": "ms",
    "serving.wire.decode_us": "us",
    "serving.batcher.fill_ratio": "ratio",
    "serving.batcher.timer_flush_share": "share",
    "serving.server.cpu_busy_share": "share",
    "serving.read_p99_ms": "ms",
    "serving.server.recompiles": "count",
    "serving.resilience.shed_requests": "count",
    "serving.resilience.handler_timeouts": "count",
    "serving.resilience.internal_errors": "count",
    "serving.resilience.degraded_deltas": "count",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.cpu_busy_share": "share",
    "machine.slowdown": "ratio",
    "trace.op_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.layer_share": "share",
}

#: Span name -> the per-layer metric its self time feeds (ms per event).
_TIME_LAYERS = {
    "datalog.parser": ("datalog.parser.ms", 1e3),
    "datalog.analysis": ("datalog.analysis.ms", 1e3),
    "datalog.grounding": ("datalog.grounding.ms", 1e3),
    "datalog.seminaive": ("datalog.seminaive.ms", 1e3),
    "datalog.incremental": ("datalog.incremental.delta_ms", 1e3),
    "constructions": ("constructions.ms", 1e3),
    "circuits.runtime.freeze": ("circuits.runtime.freeze_ms", 1e3),
    "circuits.runtime.first_eval": ("circuits.runtime.first_eval_ms", 1e3),
    "circuits.runtime.serve_init": ("circuits.runtime.serve_init_ms", 1e3),
}

#: Span name -> (metric, attr holding the item count, scale to µs).
_ITEM_LAYERS = {
    "circuits.runtime.warm_eval": ("circuits.runtime.warm_eval_us", "items"),
    "circuits.runtime.bool_lanes": ("circuits.runtime.bool_lane_us", "items"),
    "circuits.runtime.point_eval": ("circuits.runtime.point_eval_us", "items"),
    "circuits.runtime.update": ("circuits.runtime.update_us", "items"),
}


def _within(tracer: Tracer, index: int, name: str) -> bool:
    spans = tracer.spans
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(
    tracer: Tracer,
    events: Dict[str, int],
    overhead_ms: Sequence[float],
    extra: Optional[Dict[str, float]] = None,
) -> Metrics:
    """Aggregate *tracer* into every :data:`PER_LAYER` metric.

    *events* maps a span name to the number of events its time is
    divided by (``"op"`` is the default for every layer);
    *overhead_ms* holds paired traced-minus-untraced op times; *extra*
    overlays metrics measured outside the spans.
    """
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    ops = max(events.get("op", 0), 1)
    self_times = tracer.self_times()

    def per(span_name: str) -> int:
        return max(events.get(span_name, ops), 1)

    for span_name, (metric, scale) in _TIME_LAYERS.items():
        values[metric] = self_times.get(span_name, 0.0) * scale / per(span_name)
    for span_name, (metric, key) in _ITEM_LAYERS.items():
        items = tracer.attr_total(span_name, key)
        if items:
            values[metric] = self_times.get(span_name, 0.0) * 1e6 / items

    rules = tracer.attr_total("datalog.grounding", "rules")
    probes = tracer.attr_total("datalog.grounding", "probes")
    grounding_events = per("datalog.grounding")
    values["datalog.grounding.ground_rules"] = rules / grounding_events
    values["datalog.grounding.join_probes"] = probes / grounding_events
    values["datalog.grounding.yield"] = rules / probes if probes else 0.0

    fixpoint_events = per("datalog.seminaive")
    values["datalog.seminaive.iterations"] = (
        tracer.attr_total("datalog.seminaive", "iterations") / fixpoint_events
    )
    values["datalog.seminaive.rule_evaluations"] = (
        tracer.attr_total("datalog.seminaive", "rule_evaluations") / fixpoint_events
    )

    gates = tracer.attr_total("constructions", "gates")
    values["constructions.gates"] = gates / per("constructions")
    construction_rules = sum(
        span.attrs.get("rules", 0)
        for index, span in enumerate(tracer.spans)
        if span.name == "datalog.grounding" and _within(tracer, index, "constructions")
    )
    values["constructions.gates_per_ground_rule"] = (
        gates / construction_rules if construction_rules else 0.0
    )

    op_spans = tracer.spans_named("op")
    op_seconds = sum(span.end - span.start for span in op_spans)
    values["python.gc_ms"] = tracer.gc_seconds * 1e3 / ops
    if op_spans:
        values["trace.op_ms"] = op_seconds * 1e3 / len(op_spans)
        # Whatever of an op no layer span covers is the op's self time.
        values["trace.layer_share"] = 1.0 - self_times.get("op", 0.0) / op_seconds
    if overhead_ms:
        values["trace.overhead_ms"] = statistics.median(overhead_ms)
    if extra:
        values.update(extra)

    metrics = Metrics()
    for name, unit in PER_LAYER.items():
        metrics.add(name, values[name], unit)
    return metrics


def paired_order(index: int) -> List[bool]:
    """Traced-flag order for the two runs of paired op *index*:
    alternate which side runs first so warm caches favour neither."""
    return [True, False] if index % 2 == 0 else [False, True]
