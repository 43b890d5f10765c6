"""CircuitClient: a stdlib asyncio client for :class:`CircuitServer`.

One client holds one keep-alive TCP connection; concurrent coroutines
sharing a client are serialized per request by an internal lock (HTTP
1.1 without pipelining), so load generators that want *server-side*
concurrency -- the thing the lane batcher coalesces -- should open one
client per worker coroutine, as ``benchmarks/bench_serving.py`` does.

**Retries** (DESIGN.md §12): the client pairs the server's failure
model with a :class:`RetryPolicy` -- bounded exponential backoff with
jitter, spent from a token-bucket *retry budget* so a broken server
cannot trigger a retry storm.  What is retried follows idempotency:

* a 503 shed is retried for every route (the server sheds *before*
  applying anything), honoring its ``Retry-After`` hint;
* dropped connections and 504 deadline expiries are retried only for
  idempotent traffic -- reads, registration, circuit evaluation --
  because the original request may have been applied;
* ``/facts`` mutations become retry-safe by carrying an
  ``idempotency_key`` (auto-generated per logical delta): the server
  deduplicates on it, so a retry of a delta whose response was lost
  replays the recorded response instead of double-applying.

Facts travel in either wire form; this client sends whatever it is
given, so callers may pass ``Fact`` objects (serialized via their
surface ``repr``), strings, or ``[pred, args]`` pairs.
"""

from __future__ import annotations

import asyncio
import json
import random
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from ..datalog.ast import Fact

__all__ = ["CircuitClient", "RetryPolicy", "ServerError"]


class ServerError(Exception):
    """A non-2xx response from the server."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, jittered, budgeted retries (client side of §12).

    ``backoff(attempt)`` grows geometrically from ``base_delay`` by
    ``multiplier`` up to ``max_delay``, then subtracts up to
    ``jitter`` (a fraction) at random so synchronized clients do not
    retry in lockstep.  The *budget* is a token bucket shared by the
    whole client: every retry spends one token, every success refills
    ``refill`` tokens (capped at ``budget``), so sustained failure
    degrades to roughly one retry per ``1/refill`` successes instead
    of multiplying load on a struggling server.
    """

    max_attempts: int = 4
    base_delay: float = 0.02
    max_delay: float = 0.5
    multiplier: float = 2.0
    jitter: float = 0.5
    budget: float = 16.0
    refill: float = 0.1

    def backoff(self, attempt: int, rng: random.Random) -> float:
        raw = min(self.max_delay, self.base_delay * (self.multiplier ** attempt))
        if self.jitter <= 0:
            return raw
        return raw * (1.0 - self.jitter * rng.random())


def _wire_fact(fact: object) -> object:
    """Client-side fact encoding: ``Fact`` → surface string, else as-is."""
    if isinstance(fact, Fact):
        return repr(fact)
    return fact


def _wire_weights(weights: Optional[Mapping]) -> Optional[Dict[str, object]]:
    if weights is None:
        return None
    return {str(_wire_fact(fact)): value for fact, value in weights.items()}


#: Exceptions that mean "the connection died under us" -- the request
#: may or may not have been applied, so these retry only idempotently.
_CONNECTION_ERRORS = (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError)


class CircuitClient:
    """A persistent-connection JSON/HTTP client for the serving API.

    *retry* defaults to :class:`RetryPolicy`; pass ``None`` to make
    every failure surface on the first attempt (the chaos suite uses
    both modes).  *retry_seed* pins the jitter stream for reproducible
    tests.
    """

    def __init__(
        self,
        host: str,
        port: int,
        retry: Optional[RetryPolicy] = RetryPolicy(),
        retry_seed: Optional[int] = None,
    ):
        self.host = host
        self.port = port
        self.retry = retry
        self._rng = random.Random(retry_seed)
        self._tokens = retry.budget if retry is not None else 0.0
        self.retries = 0
        self.retry_give_ups = 0
        self.last_headers: Dict[str, str] = {}
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()

    # -- connection lifecycle ------------------------------------------

    async def connect(self) -> "CircuitClient":
        if self._reader is not None and self._reader.at_eof():
            # The server closed the kept-alive connection while it sat
            # idle (e.g. at its header_timeout): writing into it would
            # fail the next request, so reconnect instead.
            await self.close()
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "CircuitClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- raw request ---------------------------------------------------

    async def request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, dict]:
        """One HTTP round-trip, no retries; returns ``(status, payload)``.

        Response headers land in :attr:`last_headers` (the retry loop
        reads ``Retry-After`` from there).
        """
        await self.connect()
        data = b"" if body is None else json.dumps(body).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: keep-alive\r\n"
            "\r\n"
        ).encode("latin-1")
        async with self._lock:
            assert self._writer is not None and self._reader is not None
            self._writer.write(head + data)
            await self._writer.drain()
            status_line = await self._reader.readline()
            if not status_line:
                raise ConnectionError("server closed the connection")
            if not status_line.endswith(b"\n"):
                raise ConnectionError(f"torn response status line {status_line!r}")
            try:
                status = int(status_line.split()[1])
            except (IndexError, ValueError):
                raise ConnectionError(f"malformed status line {status_line!r}")
            headers: Dict[str, str] = {}
            terminated = False
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b"\n"):
                    terminated = True
                    break
                if line == b"" or not line.endswith(b"\n"):
                    break  # connection died mid-headers
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            if not terminated:
                # A torn frame must never be mistaken for a complete
                # (empty) response -- surface it as a connection error
                # so the retry policy can decide.
                raise ConnectionError("connection closed mid-response headers")
            length = int(headers.get("content-length", "0"))
            raw = await self._reader.readexactly(length) if length else b"{}"
        self.last_headers = headers
        if headers.get("connection", "keep-alive").lower() == "close":
            await self.close()
        return status, json.loads(raw)

    # -- retry machinery -----------------------------------------------

    def _spend_retry_token(self) -> bool:
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.retries += 1
            return True
        self.retry_give_ups += 1
        return False

    def _refill_retry_tokens(self) -> None:
        if self.retry is not None:
            self._tokens = min(self.retry.budget, self._tokens + self.retry.refill)

    async def _pause(self, attempt: int, retry_after: Optional[float]) -> None:
        assert self.retry is not None
        delay = self.retry.backoff(attempt, self._rng)
        if retry_after is not None:
            delay = max(delay, retry_after)
        await asyncio.sleep(delay)

    def _retry_after_hint(self) -> Optional[float]:
        raw = self.last_headers.get("retry-after")
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError:
            return None

    async def _call(
        self, method: str, path: str, body: Optional[dict] = None, idempotent: Optional[bool] = None
    ) -> dict:
        """A request with the retry policy applied.

        *idempotent* defaults by route: everything but ``/facts`` is
        replay-safe; ``/facts`` becomes replay-safe when its body
        carries an ``idempotency_key``.
        """
        if idempotent is None:
            idempotent = method == "GET" or not path.endswith("/facts")
        replay_safe = idempotent or (
            isinstance(body, dict) and bool(body.get("idempotency_key"))
        )
        policy = self.retry
        attempt = 0
        while True:
            can_retry = (
                policy is not None and attempt + 1 < policy.max_attempts
            )
            try:
                status, payload = await self.request(method, path, body)
            except _CONNECTION_ERRORS:
                await self.close()
                if can_retry and replay_safe and self._spend_retry_token():
                    await self._pause(attempt, None)
                    attempt += 1
                    continue
                raise
            if status < 400:
                self._refill_retry_tokens()
                return payload
            # 503 sheds happen before anything is applied: retry-safe
            # for every route.  504 means the handler was cancelled
            # mid-flight: retry only replay-safe traffic.
            if (status == 503 or (status == 504 and replay_safe)) and can_retry:
                if self._spend_retry_token():
                    await self._pause(attempt, self._retry_after_hint())
                    attempt += 1
                    continue
            raise ServerError(status, payload.get("error", "unknown error"))

    def retry_snapshot(self) -> Dict[str, object]:
        return {
            "retries": self.retries,
            "give_ups": self.retry_give_ups,
            "tokens": round(self._tokens, 3),
        }

    # -- typed API -----------------------------------------------------

    async def healthz(self) -> dict:
        return await self._call("GET", "/healthz")

    async def readyz(self) -> dict:
        return await self._call("GET", "/readyz")

    async def stats(self) -> dict:
        return await self._call("GET", "/stats")

    async def register(
        self,
        program: object,
        facts: Iterable,
        output: object,
        *,
        target: Optional[str] = None,
        weights: Optional[Mapping] = None,
        construction: Optional[str] = None,
    ) -> dict:
        """Register a circuit; returns the registration report (with ``key``)."""
        body: Dict[str, Any] = {
            "program": program if isinstance(program, (str, list)) else str(program),
            "facts": [_wire_fact(f) for f in facts],
            "output": _wire_fact(output),
        }
        if target is not None:
            body["target"] = target
        if weights is not None:
            body["weights"] = _wire_weights(weights)
        if construction is not None:
            body["construction"] = construction
        return await self._call("POST", "/circuits", body)

    async def boolean(self, key: str, true_facts: Iterable) -> bool:
        """One coalesced Boolean point query."""
        body = {"true_facts": [_wire_fact(f) for f in true_facts]}
        payload = await self._call("POST", f"/circuits/{key}/boolean", body)
        return payload["value"]

    async def boolean_batch(self, key: str, batches: Iterable[Iterable]) -> list:
        """A pre-assembled batch, evaluated directly (no coalescing)."""
        body = {"batches": [[_wire_fact(f) for f in batch] for batch in batches]}
        payload = await self._call("POST", f"/circuits/{key}/boolean", body)
        return payload["values"]

    async def evaluate(self, key: str, semiring: str, weights: Optional[Mapping] = None):
        """One numeric point valuation (batched server-side)."""
        body: Dict[str, Any] = {"semiring": semiring}
        if weights is not None:
            body["weights"] = _wire_weights(weights)
        payload = await self._call("POST", f"/circuits/{key}/evaluate", body)
        return payload["value"]

    async def evaluate_batch(self, key: str, semiring: str, assignments: Iterable[Mapping]) -> list:
        body = {
            "semiring": semiring,
            "assignments": [_wire_weights(a) for a in assignments],
        }
        payload = await self._call("POST", f"/circuits/{key}/evaluate", body)
        return payload["values"]

    async def update(self, key: str, semiring: str, delta: Mapping) -> dict:
        """Apply a sparse weight delta to the incremental session.

        The delta carries *absolute* new values, so replaying it is
        idempotent -- the retry policy treats it as such.
        """
        body = {"semiring": semiring, "delta": _wire_weights(delta)}
        return await self._call("POST", f"/circuits/{key}/update", body)

    async def facts(
        self,
        key: str,
        *,
        insert: Iterable = (),
        retract: Iterable = (),
        weights: Optional[Mapping] = None,
        idempotency_key: Optional[str] = None,
    ) -> dict:
        """Stream a fact delta (inserts/retracts/reweights) into a circuit.

        ``insert`` items may be plain facts or ``(fact, weight)`` pairs;
        the server maintains its fixpoint differentially and recompiles
        the circuit only when an insert adds a leaf it has never seen.

        Each call mints an *idempotency_key* (unless one is supplied),
        making the mutation replay-safe: if the response is lost and
        the retry policy re-sends, the server deduplicates on the token
        and replays the recorded response (``"replayed": true``).
        """
        wire_insert = []
        for item in insert:
            if isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], Fact):
                wire_insert.append({"fact": _wire_fact(item[0]), "weight": item[1]})
            else:
                wire_insert.append(_wire_fact(item))
        body: Dict[str, Any] = {
            "insert": wire_insert,
            "retract": [_wire_fact(f) for f in retract],
        }
        if weights is not None:
            body["weights"] = _wire_weights(weights)
        if idempotency_key is None and self.retry is not None:
            idempotency_key = uuid.uuid4().hex
        if idempotency_key:
            body["idempotency_key"] = idempotency_key
        return await self._call("POST", f"/circuits/{key}/facts", body)

    async def solve(
        self,
        program: object,
        facts: Iterable,
        semiring: str = "boolean",
        *,
        target: Optional[str] = None,
        weights: Optional[Mapping] = None,
        max_iterations: Optional[int] = None,
    ) -> dict:
        body: Dict[str, Any] = {
            "program": program if isinstance(program, (str, list)) else str(program),
            "facts": [_wire_fact(f) for f in facts],
            "semiring": semiring,
        }
        if target is not None:
            body["target"] = target
        if weights is not None:
            body["weights"] = _wire_weights(weights)
        if max_iterations is not None:
            body["max_iterations"] = max_iterations
        return await self._call("POST", "/solve", body)

    async def lint(
        self,
        program: object,
        facts: Iterable = (),
        *,
        target: Optional[str] = None,
        weights: Optional[Mapping] = None,
        semiring: Optional[str] = None,
    ) -> dict:
        """Run the server-side static analyzer (``POST /lint``).

        Returns the analysis report JSON (``ok``, DL-coded
        ``diagnostics``, ``dependencies``, and -- when *semiring* is
        given -- ``divergence``); a syntactically broken program
        answers ``ok: false`` with a ``parse_error`` object instead of
        an HTTP error.
        """
        body: Dict[str, Any] = {
            "program": program if isinstance(program, (str, list)) else str(program),
        }
        wired = [_wire_fact(f) for f in facts]
        if wired:
            body["facts"] = wired
        if target is not None:
            body["target"] = target
        if weights is not None:
            body["weights"] = _wire_weights(weights)
        if semiring is not None:
            body["semiring"] = semiring
        return await self._call("POST", "/lint", body)
