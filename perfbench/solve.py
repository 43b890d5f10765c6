"""The ``solve`` workload: the default one-shot path.

One op parses the transitive-closure program text and runs the default
``repro.api.solve()`` over TROPICAL (Bellman-Ford) on a fresh weighted
``random_digraph(n, 3n)``: grounding and the fixpoint do almost all the
work.  The op is single-threaded and closed-loop (the next op starts
when the last one returns).  Each op's time is reported at reference
speed (see :mod:`speed`).

``n`` sweeps ``SIZES`` along the shape list.  Op costs then spread over
a 3x range instead of clustering at one size, so the median moves
smoothly when the machine's speed drifts during a run instead of
jumping between a fast and a slow mode.

Every answer (all ``n * n`` pairs) is checked after the window against
the plain-Python Dijkstra in :mod:`instances`.
"""

from __future__ import annotations

import statistics
from array import array

from common import (
    Metrics,
    Outcome,
    median_setup,
    peak_rss_mb,
    percentile,
    perf_counter,
    whole_cycles,
)
from instances import TC_TEXT, WARMUP_SHAPE_BASE, all_pairs, circuit_shape, shape_of, tc_instance
from layers import layer_metrics, paired_order
from speed import REFERENCE_S, probe, scale, warm
from tracing import Tracer, instrument

from repro.api import solve
from repro.datalog.parser import parse_program
from repro.semirings import TROPICAL

SIZES = range(24, 41)
#: Shapes in the list (see instances.py), each size three times; a run
#: makes several passes.
CYCLE = 3 * len(SIZES)
WARMUP_OPS = 2
#: circuit_gates / circuit_depth: median over the first shapes of the list.
GATE_SAMPLE = 16


def instance(seed: int, index: int, relabel: bool = True):
    n = SIZES[index % CYCLE % len(SIZES)]
    return tc_instance(n, seed, "op", index, shape_of(index, CYCLE), relabel)


def op(database, tracer: Tracer):
    """One timed op; returns its EvaluationResult."""
    with tracer.span("op"):
        with tracer.span("datalog.parser"):
            program = parse_program(TC_TEXT, target="T")
        return solve(program, database, TROPICAL)


def pack(result, n: int) -> array:
    """Every ``T(u, v)`` value, row-major, ``inf`` when underivable."""
    values = array("d", [float("inf")]) * (n * n)
    for fact, value in result.values.items():
        u, v = fact.args
        values[u * n + v] = value
    return values


def setup(seed: int) -> float:
    def once(repeat: int) -> None:
        for j in range(WARMUP_OPS):
            inst = tc_instance(SIZES[len(SIZES) // 2], seed, f"warmup{repeat}", j, WARMUP_SHAPE_BASE + j)
            op(inst.database(), Tracer(enabled=False))

    return median_setup(once)


def check(seed: int, records, outcome: Outcome) -> None:
    for index, _seconds, values in records:
        inst = instance(seed, index)
        n = inst.n
        expected = all_pairs(n, inst.weights)
        wrong = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if values[u * n + v] != expected[u][v]
        ]
        outcome.record(not wrong, f"solve op {index}: {len(wrong)} wrong pairs, e.g. {wrong[:3]}")


def median_shape():
    """Median size and depth of the TC provenance circuits of the first
    shapes of the list.  The vertex labels shift a circuit's size by a
    gate or two, so the shapes are measured unrelabelled, which repeats
    exactly at every seed."""
    program = parse_program(TC_TEXT, target="T")
    shapes = [
        circuit_shape(program, inst.database(), inst.output())
        for inst in (instance(0, index, relabel=False) for index in range(GATE_SAMPLE))
    ]
    return statistics.median(s[0] for s in shapes), statistics.median(s[1] for s in shapes)


def run(seed: int, seconds: float, trace: bool):
    warm()
    setup_s = setup(seed)
    tracer = Tracer(enabled=False)
    inst_hooks = instrument(tracer) if trace else None
    records = []
    overhead = []
    probes = []
    deadline = perf_counter() + seconds
    index = 0
    try:
        while perf_counter() < deadline:
            inst = instance(seed, index)
            sides = paired_order(index) if trace else [False]
            for traced in sides:
                database = inst.database()
                before = probe()
                tracer.enabled = traced
                start = perf_counter()
                result = op(database, tracer)
                elapsed = perf_counter() - start
                tracer.enabled = False
                after = probe()
                probes += (before, after)
                # The op's time at reference speed (see speed.py).
                elapsed *= scale(before, after)
                if traced or not trace:
                    records.append((index, elapsed, pack(result, inst.n)))
                if trace:
                    overhead.append(elapsed if traced else -elapsed)
            index += 1
    finally:
        if inst_hooks is not None:
            inst_hooks.restore()

    outcome = Outcome()
    check(seed, records, outcome)
    if trace:
        paired = [overhead[i] + overhead[i + 1] for i in range(0, len(overhead) - 1, 2)]
        slowdown = {"machine.slowdown": statistics.median(probes) / REFERENCE_S}
        metrics = layer_metrics(tracer, {"op": len(records)}, [1e3 * d for d in paired], slowdown)
        return metrics, outcome, tracer

    op_ms = [1e3 * seconds for _, seconds, _ in whole_cycles(records, CYCLE)]
    p50 = statistics.median(op_ms)
    rate = len(op_ms) / (sum(op_ms) / 1e3)
    gates, depth = median_shape()
    metrics = Metrics()
    metrics.add("setup_s", setup_s, "s")
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB")
    metrics.add("ok_share", outcome.ok_share, "share")
    metrics.add("ops_per_s", rate, "1/s")
    metrics.add("op_p50_ms", p50, "ms")
    metrics.add("op_p90_ms", percentile(op_ms, 90), "ms")
    # solve has one op class: a one-shot query on a fresh database is
    # at once its first answer, a point read and the answer after a
    # write, and every op after warm-up runs warm code.
    metrics.add("first_answer_ms", p50, "ms")
    metrics.add("warm_evals_per_s", rate, "1/s")
    metrics.add("circuit_gates", gates, "count")
    metrics.add("circuit_depth", depth, "count")
    metrics.add("read_p50_ms", p50, "ms")
    metrics.add("write_p50_ms", p50, "ms")
    metrics.add("write_p90_ms", percentile(op_ms, 90), "ms")
    return metrics, outcome, None
