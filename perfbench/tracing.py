"""Spans recorded from the benchmark's own files.

Nothing inside ``src/`` is instrumented.  A traced run wraps the
public functions each layer exposes -- at the benchmark's own call
sites, and by rebinding the module attributes other modules of the
program call them through -- and records one span per call: name,
start, end and the span that caused it.  The ``serve`` workload's
server process (``server_proc.py``, a benchmark file too) installs the
same wrappers on itself.  Spans stay in memory and are written out
once, when the run ends.

A layer's *self time* is its spans' durations minus the part their
child spans cover, so nested layers (grounding inside a construction,
analysis inside a fixpoint) are never counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List

perf_counter = time.perf_counter


class Span:
    __slots__ = ("tracer", "name", "attrs", "start", "end", "parent")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.parent = -1
        self.start = self.end = 0.0

    def __enter__(self) -> "Span":
        tracer = self.tracer
        stack = tracer._stack
        self.parent = stack[-1] if stack else -1
        stack.append(len(tracer.spans))
        tracer.spans.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = perf_counter()
        self.tracer._stack.pop()


#: The span of an untraced call: records nothing.
_NO_SPAN = contextlib.nullcontext()


class Tracer:
    """An in-memory span recorder; ``enabled`` switches it on and off."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.gc_seconds = 0.0

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NO_SPAN
        return Span(self, name, attrs)

    # -- aggregation ---------------------------------------------------

    def span_self_times(self) -> List[float]:
        """Seconds of self time of every span, in span order."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return [span.end - span.start - child[index] for index, span in enumerate(spans)]

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.span_self_times()):
            totals[span.name] += own
        return totals

    def spans_named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def attr_total(self, name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in self.spans if span.name == name)

    def absorb(self, other: "Tracer") -> None:
        """Append *other*'s spans (and collector time) to this tracer."""
        offset = len(self.spans)
        for span in other.spans:
            if span.parent >= 0:
                span.parent += offset
            self.spans.append(span)
        self.gc_seconds += other.gc_seconds

    def records(self) -> dict:
        """Every span as one JSON-ready record (times in microseconds
        from the first span)."""
        origin = self.spans[0].start if self.spans else 0.0
        spans = [
            {
                "id": index,
                "parent": span.parent,
                "name": span.name,
                "start_us": round((span.start - origin) * 1e6, 1),
                "end_us": round((span.end - origin) * 1e6, 1),
                **({"attrs": span.attrs} if span.attrs else {}),
            }
            for index, span in enumerate(self.spans)
        ]
        return {"gc_seconds": self.gc_seconds, "spans": spans}

    @classmethod
    def from_records(cls, records: dict) -> "Tracer":
        """The tracer :meth:`records` describes (times in seconds from
        its first span), e.g. one sent over from another process."""
        tracer = cls(enabled=False)
        tracer.gc_seconds = records["gc_seconds"]
        for record in records["spans"]:
            span = Span(tracer, record["name"], record.get("attrs", {}))
            span.parent = record["parent"]
            span.start = record["start_us"] / 1e6
            span.end = record["end_us"] / 1e6
            tracer.spans.append(span)
        return tracer

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.records()))


class Instrumentation:
    """Rebinds public functions of the program to span-recording wrappers.

    Every module attribute under ``repro`` that *is* the original
    function is rebound, so a call made from inside the program (a
    construction calling the grounder) is timed as well as one made
    by the benchmark.  :meth:`restore` puts every original back.
    Assigning :attr:`tracer` redirects every wrapper to another tracer.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []
        self._gc_start = 0.0

    def wrap_function(self, original: Callable, name: str, annotate=None) -> None:
        wrapper = self._wrapper(original, name, annotate)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(functools.partial(setattr, module, attr, original))

    def wrap_method(self, cls: type, method: str, name: str, annotate=None) -> None:
        original = cls.__dict__[method]
        setattr(cls, method, self._wrapper(original, name, annotate))
        self._undo.append(functools.partial(setattr, cls, method, original))

    def _wrapper(self, original: Callable, name: str, annotate):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer = self.tracer  # read per call: a run may swap tracers
            if not tracer.enabled:
                return original(*args, **kwargs)
            with tracer.span(name) as span:
                if annotate is None:
                    return original(*args, **kwargs)
                return annotate(span, original, args, kwargs)

        return wrapper

    def time_gc(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._undo.append(functools.partial(gc.callbacks.remove, self._on_gc))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        elif self.tracer.enabled:
            self.tracer.gc_seconds += perf_counter() - self._gc_start

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _grounding(span: Span, original, args, kwargs):
    from repro.datalog.grounding import count_join_probes

    probes, ground = count_join_probes(lambda: original(*args, **kwargs))
    span.attrs["probes"] = probes
    span.attrs["rules"] = len(ground)
    return ground


def _fixpoint(span: Span, original, args, kwargs):
    result = original(*args, **kwargs)
    span.attrs["iterations"] = result.iterations
    span.attrs["rule_evaluations"] = result.rule_evaluations
    return result


def _construction(span: Span, original, args, kwargs):
    choice = original(*args, **kwargs)
    span.attrs["gates"] = choice.circuit.size
    return choice


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap every layer the benchmark reports on (see README.md)."""
    from repro.api import StreamSession
    from repro.circuits import runtime
    from repro.constructions import auto
    from repro.datalog import analysis, grounding
    from repro.datalog.seminaive import FixpointEngine

    inst = Instrumentation(tracer)
    inst.wrap_function(grounding.relevant_grounding, "datalog.grounding", _grounding)
    inst.wrap_function(grounding.columnar_grounding, "datalog.grounding", _grounding)
    inst.wrap_function(analysis.require_valid, "datalog.analysis")
    inst.wrap_function(analysis.prune_unreachable, "datalog.analysis")
    inst.wrap_method(FixpointEngine, "evaluate", "datalog.seminaive", _fixpoint)
    inst.wrap_function(auto.provenance_circuit, "constructions", _construction)
    inst.wrap_function(runtime.compile_circuit, "circuits.runtime.freeze")
    inst.wrap_method(StreamSession, "insert", "datalog.incremental")
    inst.wrap_method(StreamSession, "retract", "datalog.incremental")
    inst.time_gc()
    return inst


def _batch(span: Span, original, args, kwargs):
    compiled = args[0]
    assignments = args[2] if len(args) > 2 else kwargs["assignments"]
    span.attrs["items"] = len(assignments)
    span.attrs["size"] = compiled.size
    return original(*args, **kwargs)


def instrument_server(tracer: Tracer) -> Instrumentation:
    """:func:`instrument`, plus what a ``CircuitServer`` calls on its
    own: the parser, the wire decoder, batch evaluation and the
    registration and ``/facts`` handlers."""
    from repro.circuits.runtime import CompiledCircuit
    from repro.datalog import parser
    from repro.serving import server

    inst = instrument(tracer)
    inst.wrap_function(parser.parse_program, "datalog.parser")
    inst.wrap_function(server.fact_from_wire, "serving.wire.decode")
    inst.wrap_method(CompiledCircuit, "evaluate_batch", "circuits.runtime.warm_eval", _batch)
    inst.wrap_method(server.CircuitServer, "_register", "serving.register")
    inst.wrap_method(server.CircuitServer, "_facts", "serving.facts")
    return inst
