"""CircuitServer: compiled provenance circuits behind asyncio HTTP.

The server is the paper's evaluation pipeline turned into a long-lived
process (DESIGN.md §10).  A client registers a (program, database,
output fact) triple once; the server grounds it, builds the circuit
through the configured construction, compiles it, and caches the whole
:class:`repro.api.Session` under a key derived from
``(program fingerprint, database fingerprint, construction)``.  Every
subsequent query is pure circuit evaluation:

* ``POST /circuits/<key>/boolean`` -- Boolean point queries, coalesced
  by a :class:`~repro.serving.batcher.LaneBatcher` into the 64-wide
  bitset lanes of ``evaluate_boolean_batch``;
* ``POST /circuits/<key>/evaluate`` -- numeric valuations, batched
  through ``evaluate_batch`` (any registered semiring);
* ``POST /circuits/<key>/update`` -- sparse weight deltas served by a
  per-(circuit, semiring) ``IncrementalEvaluator`` session that pays
  only the dirty cone;
* ``POST /circuits/<key>/facts`` -- *fact-stream* deltas (inserts,
  retracts, reweights) absorbed by the entry's
  :class:`~repro.api.StreamSession` (DESIGN.md §11): the maintained
  fixpoint regrounds differentially, retracted leaves are served as
  semiring ``0`` to the existing circuit, and only an insert that
  creates a leaf the compiled circuit has never seen triggers a
  recompile (reported as ``"recompiled": true``).  A body carrying
  ``"idempotency_key"`` is applied at most once per (circuit, token);
  repeats replay the recorded response with ``"replayed": true``;
* ``POST /solve`` -- one-shot fixpoint evaluation (no circuit cache),
  with divergence reported as HTTP 422.

**Failure model** (DESIGN.md §12): every request phase runs under a
wall-clock deadline from the :class:`~repro.serving.resilience.
ResilienceConfig` -- header read (slow-loris safe), body read, and the
handler itself (expiry maps to 504).  Declared bodies above
``max_body_bytes`` are rejected with 413 before reading; connections
and in-flight requests beyond the admission limits are *shed* with
503 + ``Retry-After`` instead of queueing unboundedly.  ``/healthz``
is pure liveness; ``/readyz`` reports readiness (503 while draining).
``close()`` drains: it stops accepting, flushes parked lane futures
through the kernel so in-flight queries complete, then fails whatever
remains instead of abandoning it.  Shed/timeout/error counters are
surfaced under ``/stats`` ``"resilience"``.

The HTTP/1.1 framing is hand-rolled over ``asyncio`` streams -- no
third-party web stack -- and supports keep-alive, so a client holds
one TCP connection for its whole query stream.

Wire format: facts are either strings in surface syntax (``"E(0,1)"``,
parsed by the Datalog parser, numerals become ints) or
``[predicate, [arg, ...]]`` pairs taken literally.  Responses are JSON
objects; errors are ``{"error": ...}`` with a 4xx/5xx status.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import time
from collections import OrderedDict
from typing import Any, Awaitable, Dict, List, Mapping, Optional, Set, Tuple, TypeVar

from ..api import Session
from ..config import ExecutionConfig
from .batcher import BatcherClosed, LaneBatcher
from .resilience import Deadline, IdempotencyCache, ResilienceConfig, ResilienceStats
from ..datalog.analysis import ProgramValidationError, analyze_program, require_valid
from ..datalog.ast import DatalogError, Fact
from ..datalog.database import Database
from ..datalog.evaluation import DivergenceError
from ..datalog.incremental import MaintenancePolicy
from ..datalog.parser import ParseError, parse_atom, parse_program
from ..testing.faults import FLUSH_RAISE, FLUSH_SLOW, HANDLER_STALL, PARTIAL_WRITE, SOCKET_RESET
from ..semirings import (
    ARCTIC,
    BOOLEAN,
    COUNTING,
    COUNTING_CAP,
    FUZZY,
    LUKASIEWICZ,
    TROPICAL,
    TROPICAL_INT,
    VITERBI,
)

__all__ = ["CircuitServer", "ServingError", "SEMIRINGS", "DEFAULT_MAINTENANCE_POLICY"]

#: Wire name → semiring singleton.  Only semirings whose values survive
#: a JSON round-trip are exposed over HTTP.
SEMIRINGS = {
    "boolean": BOOLEAN,
    "counting": COUNTING,
    "counting_cap": COUNTING_CAP,
    "tropical": TROPICAL,
    "tropical_int": TROPICAL_INT,
    "viterbi": VITERBI,
    "fuzzy": FUZZY,
    "lukasiewicz": LUKASIEWICZ,
    "arctic": ARCTIC,
}

#: The server's default maintenance watchdogs: generous enough that no
#: healthy delta ever trips them, finite so a poisoned update degrades
#: the circuit to recompute instead of wedging the event loop.
DEFAULT_MAINTENANCE_POLICY = MaintenancePolicy(
    max_propagate_seconds=5.0,
    max_refresh_seconds=10.0,
    max_reground_seconds=5.0,
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_T = TypeVar("_T")

#: Body fields of ``/circuits`` and ``/solve`` that once picked a
#: grounding engine or fixpoint strategy.  Grounding and the fixpoint
#: now run one pipeline, so a request naming one gets a 400 instead of
#: an answer computed some other way than it asked for.
_REMOVED_FIELDS = ("engine", "strategy")


class ServingError(Exception):
    """A request error with an HTTP status (raised by handlers)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def fact_from_wire(obj: object) -> Fact:
    """Decode one fact from its wire form (string or [pred, args])."""
    if isinstance(obj, str):
        try:
            return parse_atom(obj).to_fact()
        except DatalogError as exc:
            raise ServingError(400, f"bad fact {obj!r}: {exc}") from exc
    if isinstance(obj, (list, tuple)) and len(obj) == 2 and isinstance(obj[0], str):
        predicate, args = obj
        if not isinstance(args, (list, tuple)):
            raise ServingError(400, f"bad fact {obj!r}: args must be a list")
        return Fact(predicate, tuple(args))
    raise ServingError(400, f"bad fact {obj!r}: expected 'R(a,b)' or ['R', [a, b]]")


def _resolve_semiring(body: Mapping[str, Any]):
    name = body.get("semiring", "boolean")
    semiring = SEMIRINGS.get(name)
    if semiring is None:
        raise ServingError(400, f"unknown semiring {name!r}; one of {sorted(SEMIRINGS)}")
    return name, semiring


def _parse_weights(raw: object, where: str) -> Dict[Fact, object]:
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        raise ServingError(400, f"{where} must be an object of fact → value")
    return {fact_from_wire(label): value for label, value in raw.items()}


class _CircuitEntry:
    """One cached compiled circuit plus its serving machinery."""

    __slots__ = (
        "key",
        "session",
        "output",
        "choice",
        "compiled",
        "boolean_batcher",
        "numeric_batchers",
        "incremental",
        "base_valuations",
        "queries",
        "stream",
        "faults",
        "policy",
        "lane_width",
        "max_delay",
    )

    def __init__(
        self,
        key: str,
        session: Session,
        output: Fact,
        lane_width: int,
        max_delay: float,
        faults=None,
        policy: Optional[MaintenancePolicy] = None,
    ):
        self.key = key
        self.session = session
        self.output = output
        self.faults = faults
        self.policy = policy
        self.lane_width = lane_width
        self.max_delay = max_delay
        self.choice = session.circuit(output)
        self.compiled = self.choice.compiled()
        self.boolean_batcher = LaneBatcher(self._boolean_flush, lane_width=lane_width, max_delay=max_delay)
        # name → LaneBatcher for numeric point queries (built lazily).
        self.numeric_batchers: Dict[str, LaneBatcher] = {}
        # name → IncrementalEvaluator update session (built lazily).
        self.incremental: Dict[str, object] = {}
        # name → dense base valuation reused to complete sparse queries.
        self.base_valuations: Dict[str, Dict[Fact, object]] = {}
        self.queries = 0
        # StreamSession write handle; attached on the first facts delta.
        self.stream = None

    def _fault_gate(self) -> None:
        """Fault-injection tap shared by every flush kernel."""
        if self.faults is not None:
            self.faults.stall_sync(FLUSH_SLOW)
            self.faults.check(FLUSH_RAISE)

    def _boolean_flush(self, batches: List) -> List[bool]:
        self._fault_gate()
        return self.compiled.evaluate_boolean_batch(batches)

    def base_valuation(self, name: str, semiring) -> Dict[Fact, object]:
        base = self.base_valuations.get(name)
        if base is None:
            if self.stream is not None:
                base = self.stream.assignment(semiring)
            else:
                base = self.session.database.valuation(semiring)
            self.base_valuations[name] = base
        return base

    def get_stream(self):
        if self.stream is None:
            self.stream = self.session.stream(policy=self.policy)
        return self.stream

    def batchers(self) -> List[LaneBatcher]:
        return [self.boolean_batcher, *self.numeric_batchers.values()]

    def numeric_batcher(self, name: str, semiring) -> "LaneBatcher":
        batcher = self.numeric_batchers.get(name)
        if batcher is None:
            def flush(assignments: List) -> List:
                self._fault_gate()
                return self.compiled.evaluate_batch(
                    semiring, assignments, backend=self.session.config.backend
                )

            batcher = LaneBatcher(flush, lane_width=self.lane_width, max_delay=self.max_delay)
            self.numeric_batchers[name] = batcher
        return batcher

    def update_session(self, name: str, semiring):
        session = self.incremental.get(name)
        if session is None:
            assignment = None if self.stream is None else self.stream.assignment(semiring)
            session = self.session.serve(self.output, semiring, assignment)
            self.incremental[name] = session
        return session

    def stats(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "construction": self.choice.construction,
            "size": self.compiled.size,
            "queries": self.queries,
            "boolean_lanes": self.boolean_batcher.stats.snapshot(),
            "numeric_lanes": {
                name: batcher.stats.snapshot()
                for name, batcher in sorted(self.numeric_batchers.items())
            },
            "update_sessions": sorted(self.incremental),
        }
        if self.stream is not None:
            payload["stream"] = {
                "degraded": self.stream.degraded,
                "degradations": self.stream.degradations,
                "last_degrade_reason": self.stream.last_degrade_reason,
            }
        return payload


class CircuitServer:
    """Asyncio HTTP server over an LRU cache of compiled circuits.

    ``max_circuits`` bounds the cache; registration of a key already
    present is a cache hit (the expensive ground/construct/compile
    pipeline is skipped), and the least-recently-used entry is evicted
    past the bound.  ``lane_width``/``max_delay`` set the micro-batching
    policy shared by every entry's Boolean and numeric batchers.

    ``resilience`` carries the failure-model knobs (defaults on -- see
    :class:`~repro.serving.resilience.ResilienceConfig`);
    ``maintenance_policy`` arms the fact-stream watchdogs (defaults to
    :data:`DEFAULT_MAINTENANCE_POLICY`); ``fault_injector`` is the
    test-only seeded chaos tap (:mod:`repro.testing.faults`) -- pass
    ``None`` (the default) in production.

    Usage::

        server = CircuitServer()
        host, port = await server.start()
        ...
        await server.close()

    or ``async with CircuitServer() as (host, port): ...``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_circuits: int = 32,
        lane_width: int = 64,
        max_delay: float = 0.002,
        resilience: Optional[ResilienceConfig] = None,
        maintenance_policy: Optional[MaintenancePolicy] = None,
        fault_injector=None,
    ):
        if max_circuits < 1:
            raise ValueError("max_circuits must be positive")
        self.host = host
        self.port = port
        self.max_circuits = max_circuits
        self.lane_width = lane_width
        self.max_delay = max_delay
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.fault_injector = fault_injector
        policy = maintenance_policy if maintenance_policy is not None else DEFAULT_MAINTENANCE_POLICY
        if fault_injector is not None and policy.fault_hook is None:
            policy = dataclasses.replace(policy, fault_hook=fault_injector.maintenance_hook())
        self.maintenance_policy = policy
        self.res_stats = ResilienceStats()
        self._idempotency = IdempotencyCache(self.resilience.idempotency_cache_size)
        self._server: Optional[asyncio.AbstractServer] = None
        self._circuits: "OrderedDict[str, _CircuitEntry]" = OrderedDict()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._conn_tasks: Set["asyncio.Task"] = set()
        self._inflight = 0
        self._draining = False
        self.cache_hits = 0
        self.cache_misses = 0
        self.evictions = 0
        self.requests = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        if self._server is not None:
            raise RuntimeError("server already started")
        self._draining = False
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def close(self) -> None:
        """Graceful shutdown: stop accepting, drain, then tear down.

        Parked lane futures are *flushed through the kernel* so every
        in-flight query still gets its (correct) answer; only work
        that arrives after the drain fails, with :class:`BatcherClosed`
        -- nothing is left pending forever.
        """
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        # Flush whatever is parked so in-flight handlers can finish.
        for entry in self._circuits.values():
            for batcher in entry.batchers():
                if batcher.pending:
                    self.res_stats.bump("drained_futures", batcher.pending)
                batcher.flush_now()
        # Give in-flight handlers their grace period to write responses.
        deadline = time.monotonic() + self.resilience.shutdown_grace
        while self._inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        # Anything still parked (arrived during the drain) fails loudly.
        for entry in self._circuits.values():
            for batcher in entry.batchers():
                if batcher.pending:
                    self.res_stats.bump("failed_futures", batcher.pending)
                batcher.close(BatcherClosed("server shut down while the query was queued"))
        # Cancel connections that outlived the grace period (idle
        # keep-alives included) and wait for their handlers, so no
        # task survives into event-loop teardown.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        self._conn_tasks.clear()
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        self._server = None

    async def __aenter__(self) -> Tuple[str, int]:
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # Server shutdown cancelled the connection mid-read; the
            # in-flight work already got its grace period in close().
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._writers.discard(writer)
            writer.close()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        cfg = self.resilience
        if self._draining or len(self._writers) >= cfg.max_connections:
            self.res_stats.bump("shed_connections")
            try:
                await self._write_response(
                    writer,
                    503,
                    {
                        "error": "shedding load: connection capacity reached"
                        if not self._draining
                        else "server is draining",
                        "retry_after": cfg.retry_after,
                    },
                    keep_alive=False,
                    retry_after=cfg.retry_after,
                )
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                writer.close()
            return
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ServingError as exc:
                    # A framing error poisons the stream: respond once
                    # and close rather than resynchronize.
                    await self._write_response(
                        writer, exc.status, {"error": str(exc)}, keep_alive=False
                    )
                    break
                if request is None:
                    break
                method, path, body, keep_alive = request
                if self._draining:
                    keep_alive = False
                self.requests += 1
                if self._inflight >= cfg.max_inflight:
                    self.res_stats.bump("shed_requests")
                    await self._write_response(
                        writer,
                        503,
                        {
                            "error": "shedding load: too many requests in flight",
                            "retry_after": cfg.retry_after,
                        },
                        keep_alive,
                        retry_after=cfg.retry_after,
                    )
                    if not keep_alive:
                        break
                    continue
                self._inflight += 1
                try:
                    status, payload = await self._dispatch_with_deadline(method, path, body)
                finally:
                    self._inflight -= 1
                retry_after = cfg.retry_after if status == 503 else None
                await self._write_response(writer, status, payload, keep_alive, retry_after=retry_after)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            self.res_stats.bump("disconnects")

    async def _bounded(
        self, awaitable: Awaitable[_T], deadline: Optional[Deadline]
    ) -> _T:
        if deadline is None:
            return await awaitable
        remaining = deadline.remaining()
        if remaining <= 0:
            raise asyncio.TimeoutError
        return await asyncio.wait_for(awaitable, remaining)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Optional[dict], bool]]:
        cfg = self.resilience
        header_deadline = cfg.deadline("header")
        try:
            request_line = await self._bounded(reader.readline(), header_deadline)
        except asyncio.TimeoutError:
            # Idle keep-alive or a slow-loris request line: either way
            # no request ever materialized; close without a response.
            self.res_stats.bump("header_timeouts")
            return None
        if not request_line:
            return None
        try:
            method, path, _version = request_line.decode("latin-1").split()
        except ValueError:
            self.res_stats.bump("bad_requests")
            raise ServingError(400, "malformed request line")
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await self._bounded(reader.readline(), header_deadline)
            except asyncio.TimeoutError:
                # Slow-loris: the request started but its headers
                # dribble; the deadline caps the read.
                self.res_stats.bump("header_timeouts")
                raise ServingError(408, f"headers not received within {cfg.header_timeout}s")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        body: Optional[dict] = None
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            self.res_stats.bump("bad_requests")
            raise ServingError(400, f"malformed Content-Length {raw_length!r}")
        if length < 0:
            self.res_stats.bump("bad_requests")
            raise ServingError(400, f"negative Content-Length {raw_length!r}")
        if length > cfg.max_body_bytes:
            self.res_stats.bump("oversize_rejections")
            raise ServingError(
                413,
                f"declared body of {length} bytes exceeds the "
                f"{cfg.max_body_bytes}-byte limit",
            )
        if length:
            try:
                raw = await self._bounded(
                    reader.readexactly(length), cfg.deadline("body")
                )
            except asyncio.TimeoutError:
                self.res_stats.bump("body_timeouts")
                raise ServingError(
                    408, f"body of {length} bytes not received within {cfg.body_timeout}s"
                )
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                body = {"__malformed__": str(exc)}
        return method.upper(), path, body, keep_alive

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool,
        retry_after: Optional[float] = None,
    ) -> None:
        data = json.dumps(payload).encode()
        extra = f"Retry-After: {retry_after}\r\n" if retry_after is not None else ""
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extra}"
            "\r\n"
        ).encode("latin-1")
        blob = head + data
        faults = self.fault_injector
        if faults is not None:
            if faults.fires(SOCKET_RESET):
                writer.transport.abort()
                raise ConnectionResetError("injected socket reset before response")
            if faults.fires(PARTIAL_WRITE):
                writer.write(blob[: max(1, len(blob) // 2)])
                try:
                    await writer.drain()
                finally:
                    writer.transport.abort()
                raise ConnectionResetError("injected partial response write")
        writer.write(blob)
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _dispatch_with_deadline(
        self, method: str, path: str, body: Optional[dict]
    ) -> Tuple[int, dict]:
        cfg = self.resilience
        deadline = cfg.deadline("handler")
        try:
            return await self._bounded(self._dispatch(method, path, body), deadline)
        except asyncio.TimeoutError:
            self.res_stats.bump("handler_timeouts")
            return 504, {
                "error": f"handler exceeded its {cfg.handler_timeout}s budget",
                "phase": "handler",
            }

    async def _dispatch(self, method: str, path: str, body: Optional[dict]) -> Tuple[int, dict]:
        if isinstance(body, dict) and "__malformed__" in body:
            return 400, {"error": f"request body is not valid JSON: {body['__malformed__']}"}
        if self.fault_injector is not None:
            await self.fault_injector.stall_async(HANDLER_STALL)
        try:
            parts = [p for p in path.split("/") if p]
            if method == "GET" and parts == ["healthz"]:
                return 200, {"status": "ok", "draining": self._draining}
            if method == "GET" and parts == ["readyz"]:
                if self._draining:
                    return 503, {"status": "draining", "ready": False}
                return 200, {"status": "ok", "ready": True}
            if method == "GET" and parts == ["stats"]:
                return 200, self._stats()
            if method == "POST" and parts == ["solve"]:
                return 200, self._solve(self._require_body(body))
            if method == "POST" and parts == ["lint"]:
                return 200, self._lint(self._require_body(body))
            if method == "POST" and parts == ["circuits"]:
                return 200, self._register(self._require_body(body))
            if method == "POST" and len(parts) == 3 and parts[0] == "circuits":
                entry = self._lookup(parts[1])
                action = parts[2]
                if action == "boolean":
                    return 200, await self._boolean(entry, self._require_body(body))
                if action == "evaluate":
                    return 200, await self._evaluate(entry, self._require_body(body))
                if action == "update":
                    return 200, self._update(entry, self._require_body(body))
                if action == "facts":
                    return self._facts_idempotent(entry, self._require_body(body))
            return 404, {"error": f"no route for {method} {path}"}
        except ServingError as exc:
            return exc.status, {"error": str(exc)}
        except BatcherClosed as exc:
            return 503, {"error": f"shutting down: {exc}"}
        except DivergenceError as exc:
            return 422, {"error": f"fixpoint diverged: {exc}"}
        except ProgramValidationError as exc:
            # Structured 400: every DL-coded diagnostic, machine-readable.
            return 400, {
                "error": f"{type(exc).__name__}: {exc}",
                "diagnostics": [d.to_json() for d in exc.diagnostics],
            }
        except ParseError as exc:
            return 400, {
                "error": f"{type(exc).__name__}: {exc}",
                "line": exc.line,
                "column": exc.column,
                "source_line": exc.source_line,
            }
        except (DatalogError, KeyError, TypeError, ValueError) as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:  # never a torn connection for a handler bug
            self.res_stats.bump("internal_errors")
            return 500, {"error": f"internal error: {type(exc).__name__}: {exc}"}

    @staticmethod
    def _require_body(body: Optional[dict]) -> dict:
        if not isinstance(body, dict):
            raise ServingError(400, "expected a JSON object request body")
        return body

    def _lookup(self, key: str) -> _CircuitEntry:
        entry = self._circuits.get(key)
        if entry is None:
            raise ServingError(404, f"unknown circuit key {key!r}; register it via POST /circuits")
        self._circuits.move_to_end(key)
        entry.queries += 1
        return entry

    # -- handlers ------------------------------------------------------

    def _build_problem(self, body: Mapping[str, Any]) -> Tuple[Session, ExecutionConfig]:
        for field in _REMOVED_FIELDS:
            if field in body:
                raise ServingError(
                    400,
                    f"'{field}' is no longer accepted: grounding and the fixpoint run one "
                    "pipeline; drop the field",
                )
        program_field = body.get("program")
        if not program_field:
            raise ServingError(400, "missing 'program' (rule text or list of rules)")
        text = program_field if isinstance(program_field, str) else "\n".join(program_field)
        # Parse unvalidated, then gate through the analyzer: a bad
        # program yields a ProgramValidationError whose DL-coded
        # diagnostics _dispatch serializes into the structured 400.
        program = parse_program(text, target=body.get("target"), validate=False)
        require_valid(program)
        database = Database()
        for wire_fact in body.get("facts", ()):
            database.add_fact(fact_from_wire(wire_fact))
        for fact, weight in _parse_weights(body.get("weights"), "'weights'").items():
            database.set_weight(fact, weight)
        config = ExecutionConfig(construction=body.get("construction"))
        return Session(program, database, config), config

    def _register(self, body: Mapping[str, Any]) -> dict:
        session, config = self._build_problem(body)
        if "output" not in body:
            raise ServingError(400, "missing 'output' (the fact the circuit computes)")
        output = fact_from_wire(body["output"])
        program_fp, db_fp, construction = session.fingerprint
        digest = hashlib.sha256(
            "\x00".join((program_fp, db_fp, construction, repr(output), str(config.key()))).encode()
        )
        key = digest.hexdigest()[:16]
        entry = self._circuits.get(key)
        cached = entry is not None
        if cached:
            self.cache_hits += 1
            self._circuits.move_to_end(key)
        else:
            self.cache_misses += 1
            entry = _CircuitEntry(
                key,
                session,
                output,
                self.lane_width,
                self.max_delay,
                faults=self.fault_injector,
                policy=self.maintenance_policy,
            )
            self._circuits[key] = entry
            while len(self._circuits) > self.max_circuits:
                _, evicted = self._circuits.popitem(last=False)
                for batcher in evicted.batchers():
                    batcher.flush_now()
                    batcher.close()
                self.evictions += 1
        return {
            "key": key,
            "cached": cached,
            "construction": entry.choice.construction,
            "theorem": entry.choice.theorem,
            "size": entry.compiled.size,
            "program_fingerprint": program_fp,
            "database_fingerprint": db_fp,
        }

    async def _boolean(self, entry: _CircuitEntry, body: Mapping[str, Any]) -> dict:
        if "batches" in body:
            batches = [frozenset(fact_from_wire(f) for f in batch) for batch in body["batches"]]
            values = entry.compiled.evaluate_boolean_batch(batches)
            return {"values": values}
        if "true_facts" not in body:
            raise ServingError(400, "expected 'true_facts' (point query) or 'batches'")
        true_facts = frozenset(fact_from_wire(f) for f in body["true_facts"])
        value = await entry.boolean_batcher.submit(true_facts)
        return {"value": value}

    async def _evaluate(self, entry: _CircuitEntry, body: Mapping[str, Any]) -> dict:
        name, semiring = _resolve_semiring(body)
        base = entry.base_valuation(name, semiring)
        if "assignments" in body:
            assignments = []
            for raw in body["assignments"]:
                assignment = dict(base)
                assignment.update(_parse_weights(raw, "each assignment"))
                assignments.append(assignment)
            values = entry.compiled.evaluate_batch(
                semiring, assignments, backend=entry.session.config.backend
            )
            return {"values": values}
        assignment = dict(base)
        assignment.update(_parse_weights(body.get("weights"), "'weights'"))
        batcher = entry.numeric_batcher(name, semiring)
        value = await batcher.submit(assignment)
        return {"value": value}

    def _update(self, entry: _CircuitEntry, body: Mapping[str, Any]) -> dict:
        name, semiring = _resolve_semiring(body)
        delta = _parse_weights(body.get("delta"), "'delta'")
        if not delta:
            raise ServingError(400, "missing 'delta' (fact → new value)")
        session = entry.update_session(name, semiring)
        try:
            outputs = session.update(delta)
        except KeyError as exc:
            raise ServingError(400, f"delta touches a fact with no input gate: {exc}") from exc
        return {"outputs": outputs, "cone_size": session.last_cone_size}

    def _facts_idempotent(self, entry: _CircuitEntry, body: Mapping[str, Any]) -> Tuple[int, dict]:
        """The ``/facts`` route behind its idempotency-token dedupe."""
        token = body.get("idempotency_key")
        if token is not None:
            if not isinstance(token, str) or not token:
                raise ServingError(400, "idempotency_key must be a non-empty string")
            cached = self._idempotency.get(entry.key, token)
            if cached is not None:
                self.res_stats.bump("idempotent_replays")
                return cached
        payload = self._facts(entry, body)
        if token is not None:
            # Only a *completed* mutation is recorded: failures above
            # raised out of this frame, so their retries re-execute.
            self._idempotency.put(entry.key, token, 200, payload)
        return 200, payload

    def _facts(self, entry: _CircuitEntry, body: Mapping[str, Any]) -> dict:
        inserts: List[Tuple[Fact, object]] = []
        for item in body.get("insert", ()):
            if isinstance(item, Mapping):
                if "fact" not in item:
                    raise ServingError(400, "each weighted insert needs a 'fact' key")
                inserts.append((fact_from_wire(item["fact"]), item.get("weight")))
            else:
                inserts.append((fact_from_wire(item), None))
        retracts = [fact_from_wire(item) for item in body.get("retract", ())]
        weights = _parse_weights(body.get("weights"), "'weights'")
        if not inserts and not retracts and not weights:
            raise ServingError(400, "expected 'insert', 'retract' and/or 'weights'")
        # Validate the whole delta up front so a bad item can't leave the
        # route half-applied.
        database = entry.session.database
        idbs = entry.session.program.idb_predicates
        for fact in [f for f, _ in inserts] + retracts + list(weights):
            if fact.predicate in idbs:
                raise ServingError(400, f"{fact} is an IDB fact; only EDB facts stream")
        for fact in retracts:
            if fact not in database:
                raise ServingError(400, f"cannot retract {fact}: not in the database")
        stream = entry.get_stream()
        known = entry.compiled.var_slots
        structural = any(fact not in known and fact not in database for fact, _ in inserts)
        degradations_before = stream.degradations
        inserted = sum(stream.insert(fact, weight=weight) for fact, weight in inserts)
        for fact in retracts:
            stream.retract(fact)
        for fact, weight in weights.items():
            stream.set_weight(fact, weight)
        degraded_now = stream.degradations > degradations_before
        if degraded_now:
            self.res_stats.bump("degraded_deltas")
        # Cached per-semiring state is built from the pre-delta valuation.
        entry.base_valuations.clear()
        entry.incremental.clear()
        recompiled = False
        if structural or degraded_now:
            # A degraded delta rebuilds through full recompute: served
            # answers stay exactly correct, only slower.
            entry.choice = entry.session.circuit(entry.output)
            entry.compiled = entry.choice.compiled()
            recompiled = True
        return {
            "inserted": inserted,
            "retracted": len(retracts),
            "reweighted": len(weights),
            "recompiled": recompiled,
            "degraded": stream.degraded,
            "size": entry.compiled.size,
            "database_fingerprint": entry.session.fingerprint[1],
        }

    def _lint(self, body: Mapping[str, Any]) -> dict:
        """``POST /lint``: the static analyzer as a service.

        Always 200 with the :class:`~repro.datalog.analysis
        .AnalysisReport` JSON -- diagnostics are the *result* of a lint
        request, not a failure of it; even an unparseable program
        answers 200 with ``ok: false`` and a ``parse_error`` object.
        Optional ``facts``/``weights`` arm the database passes and
        optional ``semiring`` arms divergence prediction (DL006).
        """
        program_field = body.get("program")
        if not program_field:
            raise ServingError(400, "missing 'program' (rule text or list of rules)")
        text = program_field if isinstance(program_field, str) else "\n".join(program_field)
        try:
            program = parse_program(text, target=body.get("target"), validate=False)
        except ParseError as exc:
            return {
                "ok": False,
                "diagnostics": [],
                "parse_error": {
                    "message": str(exc),
                    "line": exc.line,
                    "column": exc.column,
                    "source_line": exc.source_line,
                },
            }
        database = None
        if body.get("facts") or body.get("weights"):
            database = Database()
            for wire_fact in body.get("facts", ()):
                database.add_fact(fact_from_wire(wire_fact))
            for fact, weight in _parse_weights(body.get("weights"), "'weights'").items():
                database.set_weight(fact, weight)
        semiring = None
        if body.get("semiring"):
            _, semiring = _resolve_semiring(body)
        report = analyze_program(program, database=database, semiring=semiring)
        return report.to_json()

    def _solve(self, body: Mapping[str, Any]) -> dict:
        session, _config = self._build_problem(body)
        name, semiring = _resolve_semiring(body)
        weights = _parse_weights(body.get("weights"), "'weights'") or None
        result = session.solve(
            semiring,
            weights=weights,
            max_iterations=body.get("max_iterations"),
            raise_on_divergence=True,
        )
        values = {
            repr(fact): value
            for fact, value in result.values.items()
            if not semiring.is_zero(value)
        }
        return {"semiring": name, "iterations": result.iterations, "values": values}

    # -- stats ---------------------------------------------------------

    def _stats(self) -> dict:
        per_circuit = {key: entry.stats() for key, entry in self._circuits.items()}
        lane_batches = sum(e.boolean_batcher.stats.batches for e in self._circuits.values())
        lane_items = sum(e.boolean_batcher.stats.items for e in self._circuits.values())
        fill = lane_items / (lane_batches * self.lane_width) if lane_batches else 0.0
        streams = [e.stream for e in self._circuits.values() if e.stream is not None]
        return {
            "circuits": len(self._circuits),
            "max_circuits": self.max_circuits,
            "requests": self.requests,
            "inflight": self._inflight,
            "draining": self._draining,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "evictions": self.evictions,
            },
            "boolean_lanes": {
                "lane_width": self.lane_width,
                "batches": lane_batches,
                "items": lane_items,
                "fill_ratio": round(fill, 4),
            },
            "resilience": self.res_stats.snapshot(),
            "idempotency": self._idempotency.snapshot(),
            "maintenance": {
                "streams": len(streams),
                "degraded_now": sum(1 for s in streams if s.degraded),
                "degradations": sum(s.degradations for s in streams),
            },
            "per_circuit": per_circuit,
        }
