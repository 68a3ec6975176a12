"""Client SDK for the gateway wire protocol: sync + async, pool + retry.

* :class:`GatewayClient` — synchronous, built on blocking sockets behind a
  thread-safe connection pool (one request in flight per pooled
  connection); the ergonomic entry point for scripts and notebooks;
* :class:`AsyncGatewayClient` — asyncio, one connection, *pipelined*: many
  requests in flight at once, demultiplexed by the request ``id`` the
  protocol echoes back.  The load generator's building block.

Both drive one sans-I/O decision core, ``_Call``, which owns every
decision of a ``predict`` call; each ``predict`` only sends, hands the
reply back, and sleeps, re-sends or returns as told.  Transport stays in
the clients: the sync pool's reconnect-once and breaker, the async
demultiplexer and hedging.

Both honour the server's explicit backpressure: a ``BUSY`` frame is
retried after a **full-jitter** exponential backoff —
``uniform(0, min(cap, base * 2**attempt))`` floored by the server's
``retry_after_s`` hint — up to ``retries`` attempts and at most
``retry_budget_s`` of total waiting, then :class:`GatewayBusyError` (or
:class:`RetryBudgetExceeded`) propagates.  Jitter matters under
correlated load: a synchronized thundering herd retrying on the
deterministic schedule re-collides every round, while full jitter spreads
the herd across the whole backoff window (the classic AWS result).  The
sleep *and* the jitter RNG are injectable, so tests pin the schedule
without real waiting.

Protocol revision 3 adds the resilience surface (see docs/PROTOCOL.md §6):

* **deadline budgets** — ``predict(..., budget_s=...)`` stamps the
  *remaining* wall-clock budget into each attempt; the server sheds
  expired work with ``ERROR {"code": "shed"}``, surfaced as
  :class:`GatewayShedError`, and the client refuses to even send once the
  budget is locally gone (:class:`DeadlineExpiredError`);
* **circuit breaking** — an optional :class:`CircuitBreaker` trips to
  *open* after consecutive transport failures, fails calls fast with
  :class:`CircuitOpenError` while open, and probes with a single
  *half-open* request after the reset timeout;
* **hedged requests** — the async client can re-send an idempotent
  ``images_ref`` request that is slow to return and take whichever reply
  lands first (``hedge_after_s``);
* **CANCEL / HEALTH** — :meth:`AsyncGatewayClient.cancel` unwinds a
  queued request, and both clients expose the server's ``HEALTH`` probe.

Image tensors are transferred once: the SDK computes the wire content
digest locally (:func:`~repro.gateway.protocol.images_digest`), optimistically
sends ``images_ref``, and falls back to a full ``images`` payload when the
server answers ``unknown_images_ref`` (a restarted server loses its
cache) — even when no BUSY retry is left.  When the async client's one
stream dies (EOF, reset, a failed write, or :meth:`~AsyncGatewayClient.close`)
every pending and later request fails with :class:`GatewayError`.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.gateway.protocol import (
    FrameDecoder,
    FrameType,
    ProtocolError,
    encode_frame,
    encode_images,
    images_digest,
)

__all__ = [
    "GatewayError",
    "GatewayBusyError",
    "GatewayRequestError",
    "GatewayShedError",
    "DeadlineExpiredError",
    "RetryBudgetExceeded",
    "CircuitBreaker",
    "CircuitOpenError",
    "GatewayResult",
    "GatewayClient",
    "AsyncGatewayClient",
]


class GatewayError(RuntimeError):
    """Base class of every client-side gateway failure."""


class GatewayBusyError(GatewayError):
    """The server refused admission and the retry budget is exhausted.

    Attributes:
        retry_after_s: The server's last backoff hint in seconds.
        draining: True when the refusal came from a draining server.
    """

    def __init__(self, message: str, retry_after_s: float, draining: bool) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s
        self.draining = draining


class GatewayRequestError(GatewayError):
    """The server answered with an ERROR frame.

    Attributes:
        code: The machine-readable error code from the wire.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


class GatewayShedError(GatewayRequestError):
    """The server shed the request: its deadline budget was already spent.

    A shed is not a failure of the server — it is the server declining to
    burn cluster time on work the caller has (by its own ``budget_s``
    stamp) already abandoned.  Retrying with the same expired budget is
    pointless; retry with a fresh one or not at all.
    """


class DeadlineExpiredError(GatewayError):
    """The deadline budget ran out client-side before (re)sending.

    Attributes:
        elapsed_s: Wall-clock seconds spent since the first attempt.
    """

    def __init__(self, message: str, elapsed_s: float) -> None:
        super().__init__(message)
        self.elapsed_s = elapsed_s


class RetryBudgetExceeded(GatewayBusyError):
    """BUSY retries stopped early: the total retry *time* budget is spent.

    Distinct from plain :class:`GatewayBusyError` (attempt-count
    exhaustion): with full-jitter backoff, counting attempts bounds
    nothing — only a wall-clock budget does.
    """


class CircuitOpenError(GatewayError):
    """The circuit breaker is open: the call failed fast, nothing was sent.

    Attributes:
        retry_in_s: Seconds until the breaker will allow a half-open probe.
    """

    def __init__(self, message: str, retry_in_s: float) -> None:
        super().__init__(message)
        self.retry_in_s = retry_in_s


class CircuitBreaker:
    """Closed / open / half-open breaker over consecutive transport failures.

    One breaker guards one gateway endpoint (shared by every pooled
    connection to it): ``failure_threshold`` consecutive transport-level
    failures trip it *open*, during which calls fail fast with
    :class:`CircuitOpenError` — a dead server is not improved by more
    connection attempts, and the callers behind the breaker stop burning
    their own deadlines on it.  After ``reset_timeout_s`` one *half-open*
    probe is let through: success closes the breaker, failure re-opens it
    for another full timeout.

    Server *application* errors (ERROR frames, BUSY) never count — the
    service answered, so the transport is healthy.

    Thread-safe; the clock is injectable for deterministic tests.

    Args:
        failure_threshold: Consecutive transport failures that trip the
            breaker.
        reset_timeout_s: Open-state hold before a half-open probe.
        clock: Monotonic time source.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self.state = "closed"
        self.opens = 0
        self._consecutive_failures = 0
        self._opened_at = 0.0

    def allow(self) -> bool:
        """Whether a call may proceed right now (claims the probe slot)."""
        with self._lock:
            if self.state == "closed":
                return True
            if self.state == "open":
                if self._clock() - self._opened_at >= self.reset_timeout_s:
                    self.state = "half_open"
                    return True
                return False
            # half_open: the single probe is already in flight.
            return False

    def retry_in_s(self) -> float:
        """Seconds until the next half-open probe would be allowed."""
        with self._lock:
            if self.state != "open":
                return 0.0
            return max(
                0.0, self.reset_timeout_s - (self._clock() - self._opened_at)
            )

    def record_success(self) -> None:
        """A call completed at the transport level: close the breaker."""
        with self._lock:
            self.state = "closed"
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        """A transport failure: count it, trip or re-trip as needed."""
        with self._lock:
            if self.state == "half_open":
                # The probe failed: straight back to open, fresh timeout.
                self.state = "open"
                self.opens += 1
                self._opened_at = self._clock()
                return
            self._consecutive_failures += 1
            if (
                self.state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                self.state = "open"
                self.opens += 1
                self._opened_at = self._clock()


@dataclass(frozen=True)
class GatewayResult:
    """One successful wire inference: predictions plus the modeled trace.

    Attributes:
        predictions: Predicted class labels, one per image.
        request_id: The router-side request id.
        trace: The modeled telemetry the server returned (node, modeled
            latency/energy, deadline outcome, execution mode...).
        images_ref: Content digest under which the server cached the
            images (present when this request uploaded them).
        attempts: Admission attempts taken (1 = no BUSY retry).
        wire_latency_s: Wall-clock send-to-response time of the winning
            attempt.
    """

    predictions: np.ndarray
    request_id: int
    trace: Dict[str, object]
    images_ref: Optional[str]
    attempts: int
    wire_latency_s: float


def _backoff_delay_s(
    attempt: int,
    hint_s: float,
    base_s: float,
    cap_s: float,
    rng: Optional[random.Random] = None,
) -> float:
    """The retry policy both clients share.

    With an ``rng`` this is **full jitter**: uniform over
    ``[0, min(cap, base * 2**attempt)]``, floored by the server's hint
    (the hint is the server's statement of when capacity *can* exist —
    jittering below it would just buy another BUSY).  Without an ``rng``
    it degrades to the deterministic ``max(hint, base * 2**attempt)``
    schedule, which is what the policy unit tests pin.

    Args:
        attempt: Zero-based index of the attempt that just got BUSY.
        hint_s: The server's ``retry_after_s`` hint.
        base_s: First-retry backoff.
        cap_s: Upper bound of any single delay.
        rng: Jitter source (``None`` = deterministic legacy schedule).

    Returns:
        Seconds to wait before the next attempt.
    """
    ceiling = base_s * (2.0**attempt)
    if rng is not None:
        ceiling = rng.uniform(0.0, min(cap_s, ceiling))
    return min(cap_s, max(hint_s, ceiling))


#: The ``counters`` keys of both clients.  The async client has no pool
#: and no breaker, so its ``reconnects`` and ``breaker_rejections`` stay 0.
_COUNTERS = (
    "requests",
    "busy_retries",
    "reconnects",
    "transport_errors",
    "shed",
    "expired_local",
    "breaker_rejections",
)


class _Call:
    """The decisions of one ``predict`` call, free of I/O.

    Digest reference or upload, the budget stamp, BUSY backoff, the
    re-upload, error mapping, the result and the client's ``counters``
    live here only, so the two clients cannot drift apart.  Each ``predict``
    sends :meth:`payload`, hands the reply to :meth:`step`, and returns,
    sleeps or re-sends as the step says; every terminal failure is raised here.
    """

    def __init__(self, client, model_id, images, sla, deadline_s, budget_s) -> None:
        self._client = client
        self._images = np.asarray(images, dtype=np.float64)
        self._ref = images_digest(self._images)
        self._send_full = self._ref not in client._known_refs
        self._fields: dict = {"model_id": model_id, "sla": sla}
        if deadline_s is not None:
            self._fields["deadline_s"] = deadline_s
        self._budget_s = budget_s
        self._started = time.perf_counter()
        self._slept_s = 0.0
        self.attempts = 0  # REQUESTs sent, a re-upload included
        client.counters["requests"] += 1

    def payload(self) -> dict:
        """The next attempt's REQUEST payload under a fresh wire id.

        Each attempt stamps the *remaining* ``budget_s``, which is what
        lets the server shed work whose caller has already timed out.

        Raises:
            DeadlineExpiredError: The budget is spent; nothing may be sent.
        """
        client = self._client
        remaining_s = None
        if self._budget_s is not None:
            elapsed_s = time.perf_counter() - self._started
            remaining_s = self._budget_s - elapsed_s
            if remaining_s <= 0.0:
                client.counters["expired_local"] += 1
                raise DeadlineExpiredError(
                    f"deadline budget {self._budget_s}s expired before attempt "
                    f"{self.attempts + 1}",
                    elapsed_s=elapsed_s,
                )
        payload = {"id": next(client._ids), **self._fields}
        if remaining_s is not None:
            payload["budget_s"] = remaining_s
        if self._send_full:
            payload["images"] = encode_images(self._images)
        else:
            payload["images_ref"] = self._ref
        self.attempts += 1
        return payload

    def step(self, frame_type: FrameType, reply: dict, latency_s: float):
        """Decide what the reply to the last :meth:`payload` means.

        Returns:
            The :class:`GatewayResult` on a RESPONSE; otherwise the seconds
            to sleep before the next attempt, or ``None`` to send it now.

        Raises:
            GatewayBusyError: BUSY with no retry left.
            RetryBudgetExceeded: The next backoff would overrun the budget.
            GatewayShedError: The server shed the request.
            GatewayRequestError: Any other ERROR code.
            GatewayError: A frame type no REQUEST is answered with.
        """
        client = self._client
        attempt = self.attempts - 1
        if frame_type is FrameType.RESPONSE:
            client._known_refs.add(self._ref)
            return GatewayResult(
                predictions=np.asarray(reply["predictions"]),
                request_id=int(reply["request_id"]),
                trace=reply.get("trace", {}),
                images_ref=reply.get("images_ref"),
                attempts=self.attempts,
                wire_latency_s=latency_s,
            )
        if frame_type is FrameType.BUSY:
            hint_s = float(reply.get("retry_after_s", 0.0))
            draining = bool(reply.get("draining", False))
            if attempt >= client.retries:
                raise GatewayBusyError(
                    f"server still busy after {self.attempts} attempts",
                    retry_after_s=hint_s,
                    draining=draining,
                )
            delay_s = _backoff_delay_s(
                attempt,
                hint_s,
                client.backoff_base_s,
                client.backoff_cap_s,
                rng=client._rng,
            )
            retry_budget_s = client.retry_budget_s
            if retry_budget_s is not None and self._slept_s + delay_s > retry_budget_s:
                raise RetryBudgetExceeded(
                    f"retry budget {retry_budget_s}s exhausted after {self.attempts} attempts",
                    retry_after_s=hint_s,
                    draining=draining,
                )
            client.counters["busy_retries"] += 1
            self._slept_s += delay_s
            return delay_s
        if frame_type is not FrameType.ERROR:
            raise GatewayError(f"unexpected frame {frame_type.name} to a request")
        code = reply.get("code", "unknown")
        if code == "unknown_images_ref" and not self._send_full:
            # The server lost the tensor (a restart or an LRU eviction):
            # upload it once, whether or not a BUSY retry is left.
            client._known_refs.discard(self._ref)
            self._send_full = True
            return None
        if code == "shed":
            client.counters["shed"] += 1
            raise GatewayShedError(code, reply.get("message", ""))
        if code == "malformed_frame" and attempt < client.retries:
            # The request bytes were mangled in transit: the server never
            # parsed them (re-sending cannot double-execute) and closes the
            # stream after this courtesy frame.
            client.counters["transport_errors"] += 1
            return None
        raise GatewayRequestError(code, reply.get("message", ""))


class _PooledConnection:
    """One blocking socket plus its incremental decoder."""

    def __init__(self, host: str, port: int, timeout_s: float) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = FrameDecoder()

    def close(self) -> None:
        """Close the socket, ignoring teardown races."""
        try:
            self.sock.close()
        except OSError:
            pass

    def roundtrip(self, frame: bytes):
        """Send one frame and block for the next reply on the stream.

        Unsolicited ``DRAIN`` notices (a server beginning its graceful
        shutdown) are skipped — the caller still gets its terminal frame.

        Returns:
            The ``(frame_type, payload)`` of the reply.

        Raises:
            ConnectionError: If the server closes the stream first.
        """
        self.sock.sendall(frame)
        while True:
            for decoded in self.decoder.feed(b""):
                if decoded[0] is not FrameType.DRAIN:
                    return decoded
            chunk = self.sock.recv(64 * 1024)
            if not chunk:
                raise ConnectionError("server closed the connection")
            for decoded in self.decoder.feed(chunk):
                if decoded[0] is not FrameType.DRAIN:
                    return decoded


class GatewayClient:
    """Synchronous gateway client with connection pooling and retry.

    Thread-safe: up to ``pool_size`` threads issue requests concurrently,
    each on its own pooled connection (strict request/response per
    connection keeps demultiplexing trivial; use
    :class:`AsyncGatewayClient` for pipelining).

    Args:
        host: Gateway host.
        port: Gateway port.
        pool_size: Maximum concurrently open connections.
        retries: Admission attempts before :class:`GatewayBusyError`.
        backoff_base_s: First-retry backoff (doubles per attempt).
        backoff_cap_s: Upper bound of any single backoff delay.
        retry_budget_s: Total BUSY-backoff *sleep* allowed per call before
            :class:`RetryBudgetExceeded` (``None`` = attempt-count bound
            only).
        timeout_s: Socket connect/read timeout.
        sleep: Injectable sleep for the backoff waits (tests pass a
            recorder; production leaves ``time.sleep``).
        rng: Full-jitter source for the backoff (tests inject a pinned
            one; ``None`` seeds a fresh ``random.Random()``).
        breaker: Optional :class:`CircuitBreaker` guarding this endpoint
            (shared across the pool; share one instance across clients to
            guard the endpoint fleet-wide).
    """

    def __init__(
        self,
        host: str,
        port: int,
        pool_size: int = 4,
        retries: int = 6,
        backoff_base_s: float = 0.01,
        backoff_cap_s: float = 1.0,
        retry_budget_s: Optional[float] = None,
        timeout_s: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.retry_budget_s = retry_budget_s
        self.timeout_s = timeout_s
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self.breaker = breaker
        self._idle: List[_PooledConnection] = []
        self._slots = threading.BoundedSemaphore(pool_size)
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._known_refs: set = set()
        self._closed = False
        #: Client-side resilience accounting (monotonic totals).
        self.counters: Dict[str, int] = dict.fromkeys(_COUNTERS, 0)

    # ------------------------------------------------------------------ #
    # Pool plumbing
    # ------------------------------------------------------------------ #
    def _checkout(self) -> _PooledConnection:
        """Borrow a pooled connection (opening one when none is idle)."""
        self._slots.acquire()
        with self._lock:
            if self._idle:
                return self._idle.pop()
        try:
            return _PooledConnection(self.host, self.port, self.timeout_s)
        except BaseException:
            self._slots.release()
            raise

    def _checkin(self, connection: Optional[_PooledConnection]) -> None:
        """Return a connection to the pool (None = it died, drop the slot)."""
        if connection is not None:
            with self._lock:
                self._idle.append(connection)
        self._slots.release()

    def close(self) -> None:
        """Close every idle pooled connection (idempotent)."""
        self._closed = True
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "GatewayClient":
        """The client is its own context value."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Close the pool on exit."""
        self.close()

    # ------------------------------------------------------------------ #
    # Wire operations
    # ------------------------------------------------------------------ #
    def predict(
        self,
        model_id: str,
        images: np.ndarray,
        sla: str = "best_effort",
        deadline_s: Optional[float] = None,
        budget_s: Optional[float] = None,
    ) -> GatewayResult:
        """Run one inference over the wire.

        Args:
            model_id: Registered model to run.
            images: ``(batch, channels, height, width)`` image tensor.
            sla: Wire SLA class name (``latency`` / ``throughput`` /
                ``best_effort``).
            deadline_s: Virtual-time deadline (required by the server for
                the latency class).
            budget_s: Wall-clock deadline budget for the whole call.  Each
                attempt stamps the *remaining* budget on the wire; the
                server sheds expired work, and the client refuses to send
                (or sleep) past the budget locally.

        Returns:
            The :class:`GatewayResult` with predictions and trace.

        Raises:
            GatewayBusyError: Admission kept failing past the retry budget.
            RetryBudgetExceeded: The retry *time* budget ran out first.
            GatewayShedError: The server shed the request (budget spent).
            DeadlineExpiredError: The budget expired client-side.
            CircuitOpenError: The breaker is open; nothing was sent.
            GatewayRequestError: The server rejected or failed the request.
            GatewayError: The connection died repeatedly or the server
                answered out of protocol.
        """
        call = _Call(self, model_id, images, sla, deadline_s, budget_s)
        while True:
            # After malformed_frame the server has closed this stream, so
            # the re-send takes _roundtrip's reconnect.
            frame = encode_frame(FrameType.REQUEST, call.payload())
            outcome = call.step(*self._roundtrip(frame))
            if isinstance(outcome, GatewayResult):
                return outcome
            if outcome is not None:
                self._sleep(outcome)

    def ping(self) -> float:
        """Round-trip a PING; returns the wall-clock latency in seconds."""
        _, _, latency_s = self._roundtrip(
            encode_frame(FrameType.PING, {"id": next(self._ids)})
        )
        return latency_s

    def health(self) -> Dict[str, object]:
        """Probe the server's health (revision-3 HEALTH frame).

        Returns:
            The health payload: ``state`` (``ready`` / ``live`` /
            ``draining``), ``queue_depth``, ``queue_limit``, ``draining``.
        """
        frame_type, reply, _ = self._roundtrip(
            encode_frame(FrameType.HEALTH, {"id": next(self._ids)})
        )
        if frame_type is not FrameType.HEALTH:
            raise GatewayError(f"unexpected frame {frame_type.name} to HEALTH")
        return reply

    def stats(self) -> Dict[str, float]:
        """Fetch the server's counters via the wire STATS query."""
        frame_type, reply, _ = self._roundtrip(
            encode_frame(FrameType.STATS, {"id": next(self._ids)})
        )
        if frame_type is not FrameType.STATS:
            raise GatewayError(f"unexpected frame {frame_type.name} to STATS")
        return reply["stats"]

    def metrics(self) -> dict:
        """Scrape the server's full metrics registry (wire METRICS query).

        Returns the JSON-safe registry snapshot (see
        ``repro.obs.MetricsRegistry.snapshot``); render it with
        ``repro.obs.render_prometheus`` / ``render_json`` or feed it to
        ``python -m repro.obs report``.  METRICS is a protocol revision-2
        frame, so this raises against a pre-revision-2 server.
        """
        frame_type, reply, _ = self._roundtrip(
            encode_frame(FrameType.METRICS, {"id": next(self._ids)})
        )
        if frame_type is not FrameType.METRICS:
            raise GatewayError(f"unexpected frame {frame_type.name} to METRICS")
        return reply["snapshot"]

    def _roundtrip(self, frame: bytes):
        """One request/response exchange on a pooled connection.

        Reconnects once on a dead pooled socket (idle connections outlive
        server restarts); a second consecutive failure propagates.  The
        breaker (when configured) sees only transport outcomes: an ERROR
        frame is a healthy transport.

        Returns:
            ``(frame_type, payload, wall_latency_s)``.
        """
        if self._closed:
            raise GatewayError("client is closed")
        if self.breaker is not None and not self.breaker.allow():
            self.counters["breaker_rejections"] += 1
            retry_in_s = self.breaker.retry_in_s()
            raise CircuitOpenError(
                f"circuit breaker open for {self.host}:{self.port}; "
                f"next probe in {retry_in_s:.3f}s",
                retry_in_s=retry_in_s,
            )
        try:
            connection = self._checkout()
        except OSError:
            self._record_transport_failure()
            raise
        try:
            try:
                started = time.perf_counter()
                frame_type, payload = connection.roundtrip(frame)
            except (ConnectionError, OSError, ProtocolError):
                # A pooled socket can outlive a server restart: reconnect
                # once and resend (inference is stateless, so a re-run of
                # a possibly-served request is safe — see PROTOCOL.md).
                self.counters["reconnects"] += 1
                connection.close()
                connection = _PooledConnection(self.host, self.port, self.timeout_s)
                started = time.perf_counter()
                frame_type, payload = connection.roundtrip(frame)
        except BaseException as error:
            if isinstance(error, (ConnectionError, OSError, ProtocolError)):
                self._record_transport_failure()
            connection.close()
            self._checkin(None)
            raise
        self._checkin(connection)
        if self.breaker is not None:
            self.breaker.record_success()
        return frame_type, payload, time.perf_counter() - started

    def _record_transport_failure(self) -> None:
        """Count a transport-level failure and inform the breaker."""
        self.counters["transport_errors"] += 1
        if self.breaker is not None:
            self.breaker.record_failure()


class AsyncGatewayClient:
    """Pipelined asyncio client: many requests in flight on one stream.

    A single reader task demultiplexes replies by the echoed request id,
    so callers simply ``await predict(...)`` concurrently; BUSY retries
    re-submit under a fresh id after an (injectable) async sleep.

    Args:
        host: Gateway host.
        port: Gateway port.
        retries: Admission attempts before :class:`GatewayBusyError`.
        backoff_base_s: First-retry backoff (doubles per attempt).
        backoff_cap_s: Upper bound of any single backoff delay.
        retry_budget_s: Total BUSY-backoff sleep allowed per call before
            :class:`RetryBudgetExceeded` (``None`` = attempt bound only).
        sleep: Injectable async sleep (tests pass a recorder).
        rng: Full-jitter source for the backoff (``None`` seeds a fresh
            ``random.Random()``).
    """

    def __init__(
        self,
        host: str,
        port: int,
        retries: int = 6,
        backoff_base_s: float = 0.01,
        backoff_cap_s: float = 1.0,
        retry_budget_s: Optional[float] = None,
        sleep=asyncio.sleep,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.retry_budget_s = retry_budget_s
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._waiters: Dict[object, asyncio.Future] = {}
        self._ids = itertools.count()
        self._known_refs: set = set()
        #: Why the stream ended (None while up); exchanges then fail with it.
        self._ended: Optional[str] = "client is not connected"
        self.drained = False
        #: Client-side resilience accounting (the sync client's keys).
        self.counters: Dict[str, int] = dict.fromkeys(_COUNTERS, 0)
        #: Hedging accounting: hedges issued / hedges whose copy won.
        self.hedges_sent = 0
        self.hedge_wins = 0

    async def connect(self) -> None:
        """Open the stream and start the demultiplexing reader task."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._ended = None
        self._reader_task = asyncio.ensure_future(self._read_loop())

    async def close(self) -> None:
        """Close the stream, failing requests in flight (idempotent)."""
        self._end_stream("client is closed")
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None

    async def __aenter__(self) -> "AsyncGatewayClient":
        """Connect on entry."""
        await self.connect()
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        """Close on exit."""
        await self.close()

    def _end_stream(self, reason: str) -> None:
        """Record why the stream ended and fail every pending waiter with it."""
        if self._ended is None:
            self._ended = reason
        waiters, self._waiters = self._waiters, {}
        for waiter in waiters.values():
            if not waiter.done():
                waiter.set_exception(GatewayError(self._ended))

    async def _read_loop(self) -> None:
        """Route every inbound frame to the future waiting on its id."""
        decoder = FrameDecoder()
        try:
            while True:
                chunk = await self._reader.read(64 * 1024)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                for frame_type, payload in decoder.feed(chunk):
                    if frame_type is FrameType.DRAIN:
                        self.drained = True
                        continue
                    waiter = self._waiters.pop(payload.get("id"), None)
                    if waiter is not None and not waiter.done():
                        waiter.set_result((frame_type, payload))
        except Exception as error:  # noqa: BLE001 - fan the failure out
            self._end_stream(str(error) or type(error).__name__)

    async def _exchange(self, frame_type: FrameType, payload: dict):
        """Send one frame and await the reply frame with the same id.

        Raises:
            GatewayError: The stream has ended, or ends before the reply.
        """
        if self._ended is not None:
            raise GatewayError(self._ended)
        waiter = asyncio.get_event_loop().create_future()
        self._waiters[payload["id"]] = waiter
        try:
            self._writer.write(encode_frame(frame_type, payload))
            await self._writer.drain()
        except OSError as error:  # a reset or broken pipe fails the stream
            self._end_stream(f"write failed: {error}")
        try:
            return await waiter
        finally:
            # Normally the read loop popped this on reply; the pop here
            # covers cancellation (an abandoned hedge) so dead waiters
            # never accumulate.
            self._waiters.pop(payload["id"], None)

    async def _exchange_hedged(self, payload: dict, hedge_after_s: float):
        """One REQUEST exchange with a single hedged re-send.

        The primary is sent immediately; if no reply lands within
        ``hedge_after_s`` a *copy under a fresh wire id* (same
        ``budget_s`` stamp) is sent and the first reply of either wins.
        Only safe for idempotent requests (``images_ref``-only re-sends of
        memoized inference) — both copies may execute.  The loser's reply
        is discarded by the demultiplexer when it eventually arrives.
        """
        primary = asyncio.ensure_future(self._exchange(FrameType.REQUEST, payload))
        done, _ = await asyncio.wait({primary}, timeout=hedge_after_s)
        if done:
            return primary.result()
        self.hedges_sent += 1
        hedge = asyncio.ensure_future(
            self._exchange(FrameType.REQUEST, dict(payload, id=next(self._ids)))
        )
        done, pending = await asyncio.wait(
            {primary, hedge}, return_when=asyncio.FIRST_COMPLETED
        )
        winner = primary if primary in done else hedge
        if winner is hedge:
            self.hedge_wins += 1
        for loser in pending:
            loser.cancel()
        return winner.result()

    async def predict(
        self,
        model_id: str,
        images: np.ndarray,
        sla: str = "best_effort",
        deadline_s: Optional[float] = None,
        budget_s: Optional[float] = None,
        hedge_after_s: Optional[float] = None,
    ) -> GatewayResult:
        """Run one inference over the pipelined stream.

        Args:
            model_id: Registered model to run.
            images: ``(batch, channels, height, width)`` image tensor.
            sla: Wire SLA class name.
            deadline_s: Virtual-time deadline (latency class).
            budget_s: Wall-clock deadline budget; each attempt stamps the
                remaining budget on the wire (see :class:`GatewayClient`).
            hedge_after_s: Hedge a slow attempt by re-sending after this
                many seconds and racing the two replies.  Only applied to
                idempotent ``images_ref`` re-sends (never the initial
                tensor upload) — both copies may execute, which is safe
                precisely because re-running memoized inference on the
                same digest is a cache hit.

        Returns:
            The :class:`GatewayResult`.

        Raises:
            GatewayBusyError: Admission kept failing past the retry budget.
            RetryBudgetExceeded: The retry *time* budget ran out first.
            GatewayShedError: The server shed the request (budget spent).
            DeadlineExpiredError: The budget expired client-side.
            GatewayRequestError: The server rejected or failed the request.
            GatewayError: The stream failed.
        """
        call = _Call(self, model_id, images, sla, deadline_s, budget_s)
        while True:
            payload = call.payload()
            started = time.perf_counter()
            if hedge_after_s is not None and "images_ref" in payload:
                reply = await self._exchange_hedged(payload, hedge_after_s)
            else:
                reply = await self._exchange(FrameType.REQUEST, payload)
            outcome = call.step(*reply, time.perf_counter() - started)
            if isinstance(outcome, GatewayResult):
                return outcome
            if outcome is not None:
                await self._sleep(outcome)

    async def cancel(self, target_id) -> bool:
        """Unwind one queued request by its wire id (revision-3 CANCEL).

        The CANCEL op runs under its own fresh id, so the ack and the
        target's terminal ``ERROR {"code": "cancelled"}`` (delivered to
        whoever awaits the target) never collide.

        Returns:
            True when the server unwound the request before dispatch;
            False when it was already past the point of no return (its
            result still arrives).
        """
        frame_type, reply = await self._exchange(
            FrameType.CANCEL, {"id": next(self._ids), "target_id": target_id}
        )
        if frame_type is not FrameType.CANCEL:
            raise GatewayError(f"unexpected frame {frame_type.name} to CANCEL")
        return bool(reply.get("cancelled"))

    async def health(self) -> Dict[str, object]:
        """Probe the server's health (revision-3 HEALTH frame)."""
        frame_type, reply = await self._exchange(
            FrameType.HEALTH, {"id": next(self._ids)}
        )
        if frame_type is not FrameType.HEALTH:
            raise GatewayError(f"unexpected frame {frame_type.name} to HEALTH")
        return reply

    async def stats(self) -> Dict[str, float]:
        """Fetch the server's counters via the wire STATS query."""
        frame_type, reply = await self._exchange(
            FrameType.STATS, {"id": next(self._ids)}
        )
        if frame_type is not FrameType.STATS:
            raise GatewayError(f"unexpected frame {frame_type.name} to STATS")
        return reply["stats"]
