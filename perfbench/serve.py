"""The ``serve`` workload: the served path under an open loop.

A ``CircuitServer`` runs in its own process (``server_proc.py``).  This
process is the load generator.  It holds two keep-alive connections and
sends on a fixed schedule, whatever the server's pace:

* **reads**, ``READ_RATE`` per second on connection 1:
  ``/circuits/A/evaluate`` tropical point queries with ``OVERRIDES``
  weights overridden, against a read-only TC circuit (``N`` vertices);
* **writes**, ``WRITE_RATE`` per second on connection 2:
  ``/circuits/B/facts`` deltas on a second TC circuit.  Each retracts
  one edge and re-inserts the edge it retracted ``WINDOW`` writes
  earlier, so no write is structural.  Each write is followed, on the
  same connection and before the next write starts, by one read of B.

A request's latency runs from when it was *due*, so a stall also
charges the requests queued behind it.  Latencies are reported at
reference speed (see ``speed.py``), scaled by the server's own probes
around the moment the request was due.  How busy the offered load
keeps the server is ``serving.server.cpu_busy_share`` of the traced
run (README.md, "Measured spread").

Checks, after the window: every read against Dijkstra with its
overridden weights; B's answer after every write against Dijkstra on
that write's window.  The run fails, reporting nothing, if the
generator itself ran late (``LAG_BOUND_MS``), if any write recompiled,
or if any ``/stats`` resilience counter is non-zero.

The traced run starts the server with ``--trace``: the server records
its own calls into the program as spans during registration and, in
alternate ``TRACE_SEGMENT``-second segments, during the window, and
hands them over at the end.  The per-layer numbers come from those
spans and the server's counters.
"""

from __future__ import annotations

import asyncio
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    InvalidRun,
    Metrics,
    Outcome,
    SETUP_REPEATS,
    percentile,
    perf_counter,
)
from instances import TC_TEXT, circuit_shape, rng_for, shortest_nonempty_paths, tc_instance, weight
from layers import layer_metrics
from speed import REFERENCE_S, scale_at
from tracing import Tracer

from repro.datalog.ast import Fact
from repro.datalog.parser import parse_program
from repro.serving import CircuitClient, ServerError

N = 48
#: Circuit B is smaller than A, so its maintenance holds the event loop
#: for a short time per write: few reads queue behind a write, and the
#: write percentiles rarely include one of the server's gen-2
#: collections.
N_B = 24
READ_RATE = 50.0
WRITE_RATE = 5.0
OVERRIDES = 8
WINDOW = 4
WARMUP_READS = 20
WARMUP_WRITES = 2
#: The generator may wake this late (p99) before the run is void.
LAG_BOUND_MS = 20.0
#: Fixed shapes of the two served graphs (see instances.py).
SHAPE_A, SHAPE_B = 2_000_000, 2_000_001
DRAIN_SECONDS = 30.0
#: Traced run: the server records spans in every other segment of the
#: window, so traced and untraced reads can be compared.
TRACE_SEGMENT = 1.0
SERVER = Path(__file__).resolve().parent / "server_proc.py"
CLIENT_ERRORS = (ServerError, ConnectionError, OSError, asyncio.IncompleteReadError)


class Server:
    """One server process and its line protocol."""

    def __init__(self, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER)] + (["--trace"] if trace else []),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._expect("imported")

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process exited with {self.proc.wait()}")
        return line.strip()

    def _expect(self, word: str) -> str:
        line = self._line()
        if not line.startswith(word):
            raise RuntimeError(f"server said {line!r}, expected {word!r}")
        return line

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def ask(self, command: str):
        self.send(command)
        return json.loads(self._line())

    def start(self) -> int:
        """Start serving; returns the port.  ``max_delay`` is then the
        server's batching timer in seconds."""
        self.send("start")
        _, port, max_delay = self._expect("listening").split()
        self.max_delay = float(max_delay)
        return int(port)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.send("quit")
                self.proc.wait(timeout=30)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Plan:
    """Every input of one run, drawn from the seed."""

    def __init__(self, seed: int, seconds: float):
        # The two served graphs keep their vertex labels, so circuit A's
        # size and depth are the same at every seed.
        self.a = tc_instance(N, seed, "serveA", 0, SHAPE_A, relabel=False)
        self.b = tc_instance(N_B, seed, "serveB", 0, SHAPE_B, relabel=False)
        self.reads = int(seconds * READ_RATE)
        self.writes = int(seconds * WRITE_RATE)
        edges = sorted(self.a.edges)
        self.overrides = []
        for k in range(WARMUP_READS + self.reads):
            rng = rng_for(seed, "read", k)
            self.overrides.append({e: weight(rng) for e in rng.sample(edges, OVERRIDES)})
        cycle = sorted(e for e in self.b.edges if e not in self.b.backbone)
        rng_for(seed, "writes", 0).shuffle(cycle)
        self.cycle = cycle

    def write(self, j: int):
        """Write *j*: retract one edge, re-insert the one retracted
        ``WINDOW`` writes earlier (none for the first ``WINDOW``)."""
        cycle = self.cycle
        retract = cycle[j % len(cycle)]
        insert = cycle[(j - WINDOW) % len(cycle)] if j >= WINDOW else None
        return retract, insert

    def retracted_after(self, count: int):
        return {self.write(j)[0] for j in range(max(count - WINDOW, 0), count)}


def edge_fact(edge) -> Fact:
    return Fact("E", edge)


def weights_wire(plan_weights) -> dict:
    return {edge_fact(e): w for e, w in plan_weights.items()}


async def register(client: CircuitClient, inst) -> dict:
    return await client.register(
        TC_TEXT,
        [edge_fact(e) for e in inst.edges],
        inst.output(),
        target="T",
        weights=weights_wire(inst.weights),
    )


async def send_write(client: CircuitClient, plan: Plan, key: str, j: int) -> dict:
    retract, insert = plan.write(j)
    inserts = [] if insert is None else [(edge_fact(insert), plan.b.weights[insert])]
    return await client.facts(key, retract=[edge_fact(retract)], insert=inserts)


def traced_segment(offset: float) -> bool:
    """Whether the traced run records spans at *offset* into the window."""
    return int(offset / TRACE_SEGMENT) % 2 == 0


class Served:
    """One set-up: a server process, its two circuits, warm clients."""

    def __init__(self, plan: Plan, trace: bool):
        self.plan = plan
        self.server = Server(trace)
        self.reader = self.writer = None

    async def setup(self):
        """Timed: start, register, warm up.  Returns its (start, end)
        on the ``perf_counter`` clock."""
        plan, server = self.plan, self.server
        start = perf_counter()
        port = server.start()
        self.reader = CircuitClient("127.0.0.1", port, retry=None)
        self.writer = CircuitClient("127.0.0.1", port, retry=None)
        server.send("phase register")
        self.registered_a = await register(self.reader, plan.a)
        self.key_a = self.registered_a["key"]
        self.first_value = await self.reader.evaluate(self.key_a, "tropical")
        self.key_b = (await register(self.writer, plan.b))["key"]
        server.send("phase off")
        for k in range(WARMUP_READS):
            await self.reader.evaluate(self.key_a, "tropical", weights_wire(plan.overrides[k]))
        for j in range(WINDOW + WARMUP_WRITES):
            await send_write(self.writer, plan, self.key_b, j)
        return start, perf_counter()

    async def close(self):
        for client in (self.reader, self.writer):
            if client is not None:
                await client.close()
        self.server.stop()


async def open_loop(sess: Served, seconds: float, trace: bool):
    """The measured window.  Returns t0 and the per-request records."""
    plan = sess.plan
    loop = asyncio.get_running_loop()
    lags, reads, writes, tasks = [], [], [], []
    first_write = WINDOW + WARMUP_WRITES
    # A write and its read of B hold the writer connection together, so
    # a late write never slips between an earlier write and its read.
    write_lock = asyncio.Lock()

    async def read(k: int, due: float):
        try:
            value = await sess.reader.evaluate(
                sess.key_a, "tropical", weights_wire(plan.overrides[WARMUP_READS + k])
            )
            reads.append((k, due, perf_counter() - due, value, None))
        except CLIENT_ERRORS as exc:
            reads.append((k, due, perf_counter() - due, None, repr(exc)))

    async def write(j: int, due: float):
        """The write, then the first answer of B that reflects it."""
        async with write_lock:
            try:
                reply = await send_write(sess.writer, plan, sess.key_b, first_write + j)
                written = perf_counter() - due
                value = await sess.writer.evaluate(sess.key_b, "tropical")
                writes.append((j, due, written, perf_counter() - due, reply.get("recompiled"), value, None))
            except CLIENT_ERRORS as exc:
                writes.append((j, due, perf_counter() - due, None, None, None, repr(exc)))

    def phase(on: int, due: float):
        sess.server.send("phase window" if on else "phase off")

    actions = (read, write)
    schedule = [(k / READ_RATE, 1, k) for k in range(plan.reads)]
    schedule += [((j + 0.5) / WRITE_RATE + 0.5 / READ_RATE, 2, j) for j in range(plan.writes)]
    if trace:
        segments = range(int(seconds / TRACE_SEGMENT))
        schedule += [(s * TRACE_SEGMENT, 0, traced_segment(s * TRACE_SEGMENT)) for s in segments]
    schedule.sort()
    t0 = perf_counter() + 0.05
    for offset, kind, index in schedule:
        due = t0 + offset
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if kind == 0:
            phase(index, due)
            continue
        lags.append(perf_counter() - due)
        tasks.append(loop.create_task(actions[kind - 1](index, due)))
    done, pending = await asyncio.wait(tasks, timeout=DRAIN_SECONDS)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    if trace:
        sess.server.send("phase off")
    return t0, lags, reads, writes


def check(plan: Plan, reads, writes, outcome: Outcome) -> None:
    a = plan.a
    answered = {r[0]: (r[3], r[4]) for r in reads}
    for k in range(plan.reads):
        value, error = answered.get(k, (None, "no response"))
        weights = dict(a.weights)
        weights.update(plan.overrides[WARMUP_READS + k])
        want = shortest_nonempty_paths(N, weights, a.source)[a.sink]
        outcome.record(error is None and value == want, f"read {k}: got {value!r} ({error}), expected {want}")
    b = plan.b
    applied = {w[0]: (w[5], w[6]) for w in writes}
    for j in range(plan.writes):
        value, error = applied.get(j, (None, "no response"))
        count = WINDOW + WARMUP_WRITES + j + 1
        gone = plan.retracted_after(count)
        live = {e: w for e, w in b.weights.items() if e not in gone}
        want = shortest_nonempty_paths(N_B, live, b.source)[b.sink]
        outcome.record(
            error is None and value == want,
            f"circuit B after {count} writes: got {value!r} ({error}), expected {want}",
        )


async def drive(plan: Plan, seconds: float, trace: bool):
    setups = []
    for repeat in range(SETUP_REPEATS):
        sess = Served(plan, trace)
        try:
            start, end = await sess.setup()
        except BaseException:
            await sess.close()
            raise
        # Set-up at reference speed, by the server's probes around it.
        probes = sess.server.ask("probes")
        setups.append((end - start) * scale_at(probes, (start + end) / 2, max(0.5, (end - start) / 2)))
        if repeat < SETUP_REPEATS - 1:
            await sess.close()
    try:
        control = CircuitClient("127.0.0.1", sess.reader.port, retry=None)
        before = await control.stats()
        await control.close()
        usage0 = sess.server.ask("usage")
        # The generator's own collector must not make it late: freeze
        # everything set-up allocated so collections skip it.
        gc.collect()
        gc.freeze()
        cpu0, wall0 = time.process_time(), perf_counter()
        try:
            t0, lags, reads, writes = await open_loop(sess, seconds, trace)
        finally:
            gc.unfreeze()
        cpu1, wall1 = time.process_time(), perf_counter()
        usage1 = sess.server.ask("usage")
        async with CircuitClient("127.0.0.1", sess.reader.port, retry=None) as control:
            after = await control.stats()
        probes = sess.server.ask("probes")
        spans = sess.server.ask("spans") if trace else None
    finally:
        await sess.close()
    return {
        "setups": setups,
        "first_value": sess.first_value,
        "registered_size": sess.registered_a["size"],
        "max_delay": sess.server.max_delay,
        "key_a": sess.key_a,
        "before": before,
        "after": after,
        "server_busy": (usage1["cpu_s"] - usage0["cpu_s"]) / (wall1 - wall0),
        "loadgen_busy": (cpu1 - cpu0) / (wall1 - wall0),
        "peak_rss_mb": usage1["peak_rss_mb"],
        "probes": [p for p in probes if p[0] >= wall0],
        "spans": spans,
        "t0": t0,
        "lags": lags,
        "reads": reads,
        "writes": writes,
    }


def guard(run: dict) -> None:
    """The validity guards: fail loudly rather than report numbers."""
    lag_p99 = 1e3 * percentile(run["lags"], 99)
    if lag_p99 > LAG_BOUND_MS:
        raise InvalidRun(f"load generator ran late: lag p99 {lag_p99:.1f} ms > {LAG_BOUND_MS} ms")
    recompiled = [w[0] for w in run["writes"] if w[4]]
    if recompiled:
        raise InvalidRun(f"writes {recompiled[:5]} recompiled circuit B; no write may be structural")
    counters = {k: v for k, v in run["after"]["resilience"].items() if v}
    if counters:
        raise InvalidRun(f"non-zero /stats resilience counters: {counters}")


def lane_delta(run: dict, field: str) -> int:
    def value(stats):
        lanes = stats["per_circuit"][run["key_a"]]["numeric_lanes"].get("tropical", {})
        return lanes.get(field, 0)

    return value(run["after"]) - value(run["before"])


def scaled_ms(run: dict, due: float, seconds: float) -> float:
    """A latency in ms at reference speed, by the server's probes
    around the moment the request was due."""
    return 1e3 * seconds * scale_at(run["probes"], due)


def read_ms(run: dict, read) -> float:
    """A read's latency in ms at reference speed.  A point read waits
    for its batch's flush timer (``max_delay``: at this rate every
    batch is flushed by the timer, ``serving.batcher.timer_flush_share``
    is 1).  That wait is a timer, not work, so it is left as it is and
    only the rest of the latency is scaled."""
    timer = run["max_delay"]
    return 1e3 * timer + scaled_ms(run, read[1], read[2] - timer)


def end_to_end(plan: Plan, run: dict, outcome: Outcome) -> Metrics:
    reads = [r for r in run["reads"] if r[4] is None]
    writes = [w for w in run["writes"] if w[6] is None]
    reads_ms = [read_ms(run, r) for r in run["reads"]]
    write_ms = [scaled_ms(run, w[1], w[2]) for w in run["writes"]]
    end = max(r[1] + r[2] for r in run["reads"])
    span = end - run["t0"]
    gates, depth = circuit_shape(parse_program(TC_TEXT, target="T"), plan.a.database(), plan.a.output())
    outcome.record(
        gates == run["registered_size"],
        f"served circuit A has {run['registered_size']} gates, in-process {gates}",
    )
    metrics = Metrics()
    metrics.add("setup_s", statistics.median(run["setups"]), "s")
    metrics.add("peak_rss_mb", run["peak_rss_mb"], "MB")
    metrics.add("ok_share", outcome.ok_share, "share")
    metrics.add("ops_per_s", (len(reads) + len(writes)) / span, "1/s")
    # On serve an op is a write.  A read percentile at p90 would sit on
    # the edge between reads served at once and reads queued behind a
    # write, so the op percentiles come from the write class.
    metrics.add("op_p50_ms", statistics.median(write_ms), "ms")
    metrics.add("op_p90_ms", percentile(write_ms, 90), "ms")
    # On serve the first answer is B's answer after a write: from the
    # write's due time until a read of B reflects it.
    metrics.add("first_answer_ms", statistics.median(scaled_ms(run, w[1], w[3]) for w in writes), "ms")
    metrics.add("warm_evals_per_s", len(reads) / span, "1/s")
    metrics.add("circuit_gates", gates, "count")
    metrics.add("circuit_depth", depth, "count")
    metrics.add("read_p50_ms", statistics.median(reads_ms), "ms")
    metrics.add("write_p50_ms", statistics.median(write_ms), "ms")
    metrics.add("write_p90_ms", percentile(write_ms, 90), "ms")
    return metrics


def per_layer(run: dict) -> tuple:
    """The per-layer metrics from the server's own spans: registration
    (per registered circuit) and the traced segments of the window."""
    registration = Tracer.from_records(run["spans"].get("register", {"gc_seconds": 0.0, "spans": []}))
    window = Tracer.from_records(run["spans"].get("window", {"gc_seconds": 0.0, "spans": []}))
    # A registration's evaluation is the circuit's first: codegen + run.
    for span in registration.spans:
        if span.name == "circuits.runtime.warm_eval":
            span.name = "circuits.runtime.first_eval"
    events = {
        "op": len(registration.spans_named("serving.register")),
        "circuits.runtime.first_eval": len(registration.spans_named("circuits.runtime.first_eval")),
    }

    t0 = run["t0"]
    traced_reads = [read_ms(run, r) for r in run["reads"] if traced_segment(r[1] - t0)]
    plain_reads = [read_ms(run, r) for r in run["reads"] if not traced_segment(r[1] - t0)]
    traced_requests = len(traced_reads) + sum(1 for w in run["writes"] if traced_segment(w[1] - t0))
    own = window.span_self_times()
    evals_a = [
        (span, own[index])
        for index, span in enumerate(window.spans)
        if span.name == "circuits.runtime.warm_eval" and span.attrs["size"] == run["registered_size"]
    ]
    window_self = window.self_times()
    decodes = len(window.spans_named("serving.wire.decode"))
    facts = len(window.spans_named("serving.facts"))
    top = sum(span.end - span.start for span in window.spans if span.parent < 0)
    # Server CPU seconds spent in the traced segments (reads are spread
    # evenly over the window, so their split is the segments' split).
    window_seconds = max(r[1] + r[2] for r in run["reads"]) - t0
    traced_cpu = run["server_busy"] * window_seconds * len(traced_reads) / len(run["reads"])
    batches = lane_delta(run, "batches")
    resilience = run["after"]["resilience"]
    extra = {
        "circuits.runtime.warm_eval_us": 1e6 * sum(o for _, o in evals_a) / max(sum(s.attrs["items"] for s, _ in evals_a), 1),
        "serving.wire.decode_us": 1e6 * window_self.get("serving.wire.decode", 0.0) / max(decodes, 1),
        "datalog.incremental.delta_ms": 1e3
        * sum(s.end - s.start for s in window.spans_named("datalog.incremental"))
        / max(facts, 1),
        "serving.batcher.fill_ratio": lane_delta(run, "items") / (batches * 64) if batches else 0.0,
        "serving.batcher.timer_flush_share": lane_delta(run, "timer_flushes") / batches if batches else 0.0,
        "serving.server.cpu_busy_share": run["server_busy"],
        "serving.server.recompiles": sum(1 for w in run["writes"] if w[4]),
        # Reported here, ungated: see README.md, "Measured spread".
        "serving.read_p99_ms": percentile([read_ms(run, r) for r in run["reads"]], 99),
        "loadgen.lag_p99_ms": 1e3 * percentile(run["lags"], 99),
        "loadgen.cpu_busy_share": run["loadgen_busy"],
        "python.gc_ms": 1e3 * window.gc_seconds / max(traced_requests, 1),
        "machine.slowdown": statistics.median(p[1] for p in run["probes"]) / REFERENCE_S,
        "trace.op_ms": statistics.median(traced_reads),
        "trace.overhead_ms": statistics.median(traced_reads) - statistics.median(plain_reads),
        "trace.layer_share": min(top / traced_cpu, 1.0) if traced_cpu else 0.0,
    }
    for name in ("shed_requests", "handler_timeouts", "internal_errors", "degraded_deltas"):
        extra[f"serving.resilience.{name}"] = resilience[name]
    metrics = layer_metrics(registration, events, [], extra)
    registration.absorb(window)
    return metrics, registration


def run(seed: int, seconds: float, trace: bool):
    plan = Plan(seed, seconds)
    result = asyncio.run(drive(plan, seconds, trace))
    guard(result)
    outcome = Outcome()
    check(plan, result["reads"], result["writes"], outcome)
    want = shortest_nonempty_paths(N, plan.a.weights, plan.a.source)
    outcome.record(
        result["first_value"] == want[plan.a.sink],
        f"first answer of A: {result['first_value']!r} != {want[plan.a.sink]}",
    )
    if trace:
        metrics, tracer = per_layer(result)
        return metrics, outcome, tracer
    return end_to_end(plan, result, outcome), outcome, None
