"""The ``circuit`` workload: build once, query many times, in process.

One op takes a fresh weighted, relabelled Dyck-1 (Example 6.4)
``random_bracket_graph`` and opens a new ``Session``; ``circuit(fact)``
runs the default ``auto`` construction (it resolves to the generic
Theorem 3.1 circuit) and ``compiled()`` freezes it.  Then, timed
separately inside the op:

* the first answer (kernel codegen plus one evaluation);
* one warm ``evaluate_batch`` of ``LANES`` tropical assignments;
* one ``LANES``-lane ``evaluate_boolean_batch``;
* ``READS`` point reads, each one ``evaluate`` with
  ``OVERRIDES`` weights overridden (the in-process twin of a served read).

Every ``WRITE_EVERY``-th op is followed by a write phase on the same
circuit, timed as its own class: an ``IncrementalEvaluator`` is opened
and ``WRITES`` point writes each change one leaf weight (the dirty cone
is re-evaluated).  It stays outside the op so the op's percentiles
cover one class.

No HTTP is involved.  Every time is reported at reference speed (see
:mod:`speed`), by probes before the op and after its write phase.
After the window every op's answers are checked
against ``repro.api.solve`` on the same instance and weights.
"""

from __future__ import annotations

import statistics

from common import (
    Metrics,
    Outcome,
    median_setup,
    peak_rss_mb,
    percentile,
    perf_counter,
    whole_cycles,
)
from instances import WARMUP_SHAPE_BASE, circuit_shape, dyck_instance, rng_for, shape_of, weight
from layers import layer_metrics, paired_order
from speed import REFERENCE_S, probe, scale, warm
from tracing import Tracer, instrument

from repro.api import Session, solve
from repro.datalog.library import dyck1
from repro.semirings import BOOLEAN, TROPICAL

N, M = 5, 15
#: Shapes in the list (see instances.py); a run makes several passes.
CYCLE = 36
LANES = 64
READS = 16
OVERRIDES = 8
#: Every ``WRITE_EVERY``-th op's circuit also takes ``WRITES`` point
#: writes, timed as their own class outside the op.
WRITE_EVERY = 2
WRITES = 16
WARMUP_OPS = 3
#: circuit_gates / circuit_depth: median over one pass of the list.
GATE_SAMPLE = CYCLE


class Inputs:
    """One op's instance and query data, drawn from ``(seed, index)``."""

    def __init__(self, seed: int, kind: str, index: int, shape: int):
        inst = dyck_instance(N, M, seed, kind, index, shape)
        rng = rng_for(seed, f"{kind}/queries", index)
        self.database = inst.database()
        self.output = inst.output()
        self.base = inst.weighted_facts()
        facts = list(self.base)
        self.warm = [{fact: weight(rng) for fact in facts} for _ in range(LANES)]
        self.lanes = [frozenset(f for f in facts if rng.random() < 0.5) for _ in range(LANES)]
        self.reads = []
        for _ in range(READS):
            assignment = dict(self.base)
            for fact in rng.sample(facts, OVERRIDES):
                assignment[fact] = weight(rng)
            self.reads.append(assignment)
        # A write names a leaf by position, since only the op knows which
        # facts its circuit kept as leaves.
        self.writes = [(rng.randrange(1 << 30), weight(rng)) for _ in range(WRITES)]
        self.sample = rng.randrange(LANES)


def op_inputs(seed: int, index: int) -> Inputs:
    return Inputs(seed, "op", index, shape_of(index, CYCLE))


class Answers:
    __slots__ = ("first", "warm", "deltas", "lane", "reads", "written", "times", "write_times")

    def __init__(self):
        self.deltas = self.written = None
        self.write_times = []


def op(inputs: Inputs, tracer: Tracer):
    """One timed op; every phase's duration lands in ``answers.times``.
    Returns the answers and the op's session (for the write phase)."""
    answers = Answers()
    output = inputs.output
    with tracer.span("op"):
        start = perf_counter()
        session = Session(dyck1(), inputs.database)
        compiled = session.compiled(output)
        with tracer.span("circuits.runtime.first_eval"):
            answers.first = compiled.evaluate(TROPICAL, inputs.base)
        first = perf_counter()
        with tracer.span("circuits.runtime.warm_eval", items=LANES):
            warm = session.evaluate_batch(output, TROPICAL, inputs.warm)
        warmed = perf_counter()
        with tracer.span("circuits.runtime.bool_lanes", items=LANES):
            lanes = compiled.evaluate_boolean_batch(inputs.lanes)
        read_times = []
        reads = []
        for assignment in inputs.reads:
            begin = perf_counter()
            with tracer.span("circuits.runtime.point_eval", items=1):
                reads.append(compiled.evaluate(TROPICAL, assignment))
            read_times.append(perf_counter() - begin)
        end = perf_counter()
    answers.warm = warm[inputs.sample]
    answers.lane = lanes[inputs.sample]
    answers.reads = reads
    answers.times = (end - start, first - start, warmed - first, read_times)
    return answers, session


def write_phase(inputs: Inputs, session: Session, answers: Answers, tracer: Tracer) -> None:
    """``WRITES`` point writes on the op's built circuit: one
    ``IncrementalEvaluator`` (its own kernel), then one leaf weight
    changed per write, each timed into ``answers.write_times``."""
    output = inputs.output
    with tracer.span("writes"):
        with tracer.span("circuits.runtime.serve_init"):
            evaluator = session.serve(output, TROPICAL, inputs.base)
        leaves = evaluator.compiled.var_labels
        answers.deltas = [{leaves[k % len(leaves)]: w} for k, w in inputs.writes]
        for delta in answers.deltas:
            begin = perf_counter()
            with tracer.span("circuits.runtime.update", items=1):
                evaluator.update(delta)
            answers.write_times.append(perf_counter() - begin)
        answers.written = evaluator.value()


def setup(seed: int) -> float:
    def once(repeat: int) -> None:
        for j in range(WARMUP_OPS):
            op(Inputs(seed, f"warmup{repeat}", j, WARMUP_SHAPE_BASE + j), Tracer(enabled=False))

    return median_setup(once)


def check(seed: int, answers_by_index, outcome: Outcome) -> None:
    program = dyck1()
    for index, answers in answers_by_index:
        inputs = op_inputs(seed, index)
        db, output = inputs.database, inputs.output
        problems = []

        def expect(label, got, semiring, weights):
            want = solve(program, db, semiring, weights=weights).value(output)
            if got != want:
                problems.append(f"{label}: got {got!r}, expected {want!r}")

        expect("first answer", answers.first, TROPICAL, inputs.base)
        expect("warm answer", answers.warm, TROPICAL, inputs.warm[inputs.sample])
        lane = inputs.lanes[inputs.sample]
        expect("boolean lane", answers.lane, BOOLEAN, {f: f in lane for f in inputs.base})
        expect("point read", answers.reads[index % READS], TROPICAL, inputs.reads[index % READS])
        if answers.deltas is not None:
            written = dict(inputs.base)
            for delta in answers.deltas:
                written.update(delta)
            expect("after writes", answers.written, TROPICAL, written)
        outcome.record(not problems, f"circuit op {index}: {problems}")


def rescale(answers: Answers, factor: float) -> None:
    """Turn the op's wall times into times at reference speed."""
    total, first, warm_s, read_times = answers.times
    answers.times = (total * factor, first * factor, warm_s * factor, [r * factor for r in read_times])
    answers.write_times = [w * factor for w in answers.write_times]


def run(seed: int, seconds: float, trace: bool):
    warm()
    setup_s = setup(seed)
    tracer = Tracer(enabled=False)
    hooks = instrument(tracer) if trace else None
    results = []
    overhead = []
    probes = []
    deadline = perf_counter() + seconds
    index = 0
    try:
        while perf_counter() < deadline:
            sides = paired_order(index) if trace else [False]
            for traced in sides:
                inputs = op_inputs(seed, index)  # a fresh database per side
                before = probe()
                tracer.enabled = traced
                answers, session = op(inputs, tracer)
                if index % WRITE_EVERY == 0:
                    write_phase(inputs, session, answers, tracer)
                tracer.enabled = False
                after = probe()
                probes += (before, after)
                rescale(answers, scale(before, after))
                if traced or not trace:
                    results.append((index, answers))
                if trace:
                    overhead.append(answers.times[0] if traced else -answers.times[0])
            del session
            index += 1
    finally:
        if hooks is not None:
            hooks.restore()

    outcome = Outcome()
    check(seed, results, outcome)
    if trace:
        paired = [overhead[i] + overhead[i + 1] for i in range(0, len(overhead) - 1, 2)]
        events = {
            "op": len(results),
            "circuits.runtime.serve_init": len(tracer.spans_named("circuits.runtime.serve_init")),
        }
        slowdown = {"machine.slowdown": statistics.median(probes) / REFERENCE_S}
        metrics = layer_metrics(tracer, events, [1e3 * d for d in paired], slowdown)
        return metrics, outcome, tracer

    program = dyck1()
    shapes = []
    for index in range(GATE_SAMPLE):
        inputs = op_inputs(seed, index)
        shapes.append(circuit_shape(program, inputs.database, inputs.output))
    timed = [answers for _, answers in whole_cycles(results, CYCLE)]
    times = [a.times for a in timed]
    op_ms = [1e3 * t[0] for t in times]
    first_ms = [1e3 * t[1] for t in times]
    read_ms = [1e3 * r for t in times for r in t[3]]
    write_ms = [1e3 * w for a in timed for w in a.write_times]
    metrics = Metrics()
    metrics.add("setup_s", setup_s, "s")
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB")
    metrics.add("ok_share", outcome.ok_share, "share")
    metrics.add("ops_per_s", len(op_ms) / (sum(op_ms) / 1e3), "1/s")
    metrics.add("op_p50_ms", statistics.median(op_ms), "ms")
    metrics.add("op_p90_ms", percentile(op_ms, 90), "ms")
    metrics.add("first_answer_ms", statistics.median(first_ms), "ms")
    metrics.add("warm_evals_per_s", LANES * len(times) / sum(t[2] for t in times), "1/s")
    metrics.add("circuit_gates", statistics.median(s[0] for s in shapes), "count")
    metrics.add("circuit_depth", statistics.median(s[1] for s in shapes), "count")
    metrics.add("read_p50_ms", statistics.median(read_ms), "ms")
    metrics.add("write_p50_ms", statistics.median(write_ms), "ms")
    metrics.add("write_p90_ms", percentile(write_ms, 90), "ms")
    return metrics, outcome, None
