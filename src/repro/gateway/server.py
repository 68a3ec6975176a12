"""Asyncio TCP gateway multiplexing wire clients onto a ClusterRouter.

:class:`GatewayServer` is the event-driven, non-threaded serving front end
(one event loop, no worker threads — the CCP-interpreter concurrency model
from PAPERS.md translated to asyncio):

* every client connection is one reader coroutine feeding an incremental
  :class:`~repro.gateway.protocol.FrameDecoder`;
* validated requests land in a *bounded* admission queue — when it is
  full the client gets an immediate ``BUSY`` frame carrying a
  ``retry_after_s`` hint instead of unbounded buffering (explicit
  backpressure, the zero-loss contract: every request is answered with
  RESPONSE, ERROR or BUSY, nothing is silently dropped);
* a single dispatcher coroutine drains the admission queue in bounded
  batches through :meth:`ClusterRouter.submit` / ``drain`` — adjacent
  same-model requests coalesce inside the router — and streams each
  response back on its own connection, yielding to the loop between
  batches so admission and I/O never starve;
* writes go through ``await writer.drain()``, so a slow reader throttles
  its own response stream via the transport's flow control instead of
  growing server buffers;
* :meth:`drain_and_stop` is the graceful shutdown: new work is refused
  with ``BUSY {"draining": true}``, everything already admitted completes
  and is flushed, every connection gets a ``DRAIN`` frame, then sockets
  close.

Protocol revision 3 adds the resilience surface:

* **deadline budgets / load shedding** — a request carrying ``budget_s``
  (remaining wall-clock budget, stamped by the client) is *shed* with
  ``ERROR {"code": "shed"}`` the moment the budget is provably blown:
  at admission when it arrives already expired, and again at dispatch
  when queueing ate what was left.  Shedding at dispatch is the useful
  half — work the caller has already abandoned never reaches the router;
* **CANCEL** — unwinds a queued-but-undispatched request: the target gets
  ``ERROR {"code": "cancelled"}``, the CANCEL op gets an ack with
  ``cancelled`` true/false (false = already dispatched, result still
  coming);
* **HEALTH** — live/ready/draining probe for supervisors and load
  balancers, answered from the reader coroutine even while dispatch is
  saturated;
* **idle timeout** — a connection that stays silent for
  ``idle_timeout_s`` with no outstanding work is closed with
  ``ERROR {"code": "idle_timeout"}``, so dead peers cannot pin
  connection state forever (slow-loris defence);
* **admission journal** — an optional
  :class:`~repro.gateway.journal.AdmissionJournal` records every
  admission and terminal outcome, so a restart after a crash reports
  exactly which acknowledged requests were lost
  (``python -m repro.gateway.journal``).

:class:`ThreadedGateway` hosts the server loop in a daemon thread for
synchronous callers (tests, benchmarks, the example scripts); its
:meth:`~ThreadedGateway.kill` is the supervised-restart drill's abrupt
stop — no drain, no farewell frames, no final journal fsync.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from collections import OrderedDict
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import ClusterRouter, RequestNotCompleteError, SLAClass
from repro.errors import ConfigurationError
from repro.gateway.journal import AdmissionJournal
from repro.gateway.protocol import (
    FrameDecoder,
    FrameType,
    MAX_PAYLOAD_BYTES,
    ProtocolError,
    decode_images,
    encode_frame,
    images_digest,
)
from repro.obs import MetricsRegistry, Tracer

__all__ = ["GatewayServer", "ThreadedGateway"]

#: Wire names of the SLA classes, straight from the enum values.
_SLA_BY_WIRE = {sla.value: sla for sla in SLAClass}


class _Connection:
    """Per-connection state: the writer, a decoder, and send accounting."""

    __slots__ = ("reader", "writer", "decoder", "open", "peer")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_payload: int,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder(max_payload=max_payload)
        self.open = True
        peer = writer.get_extra_info("peername")
        self.peer = f"{peer[0]}:{peer[1]}" if peer else "?"


#: Wire stats keys → help text.  The gateway counts each in a plain int
#: (``GatewayServer.stats``); a scrape-time collector publishes them as
#: registry counters named ``gateway_<key>_total``.
_STATS_KEYS = {
    "connections_opened": "Client connections accepted.",
    "connections_closed": "Client connections torn down.",
    "frames_received": "Well-formed frames decoded off the wire.",
    "requests_received": "REQUEST frames seen (admitted or refused).",
    "requests_admitted": "REQUEST frames accepted into the admission queue.",
    "responses_sent": "RESPONSE frames delivered to live peers.",
    "responses_dropped": "Responses computed for peers that vanished.",
    "busy_sent": "BUSY backpressure frames sent.",
    "errors_sent": "ERROR frames sent.",
    "malformed_frames": "Framing violations (connection closed).",
    "pings": "PING frames answered.",
    "bytes_received": "Raw bytes read off client sockets.",
    "bytes_sent": "Raw frame bytes written to client sockets.",
    "shed_sent": "Requests shed for an expired deadline budget.",
    "cancels_received": "CANCEL frames received.",
    "requests_cancelled": "Admitted requests unwound by CANCEL before dispatch.",
    "health_checks": "HEALTH frames answered.",
    "idle_timeouts": "Connections closed for exceeding the idle timeout.",
}

#: Byte budget of the ``images_ref`` cache, least recently used evicted
#: first; a client referencing an evicted digest gets
#: ``ERROR unknown_images_ref`` and re-uploads, as after a restart.
IMAGES_REF_CACHE_BYTES = 64 * 1024 * 1024


class _Pending:
    """One admitted request waiting for its router result."""

    __slots__ = ("connection", "wire_id", "router_id", "parsed")

    def __init__(
        self, connection: _Connection, wire_id, router_id: int, parsed: dict
    ) -> None:
        self.connection = connection
        self.wire_id = wire_id
        self.router_id = router_id
        self.parsed = parsed


class GatewayServer:
    """Length-prefixed-JSON TCP front end for a :class:`ClusterRouter`.

    The server owns no models and no fleet — it translates frames into
    admissions on the router it is given and router results back into
    frames.  All router interaction happens on the event loop from the
    single dispatcher coroutine, so the (synchronous, single-threaded)
    router never sees concurrent calls.

    Args:
        router: The cluster router requests are admitted to.  Models must
            already be registered.
        host: Interface to bind (loopback by default).
        port: TCP port; 0 picks a free port (read :attr:`port` after
            :meth:`start`).
        max_queue: Bound of the admission queue; a request arriving while
            it is full is refused with a ``BUSY`` frame.
        admission_batch: Most requests the dispatcher admits+drains per
            cycle before yielding to the event loop.
        max_payload_bytes: Per-frame payload cap for this server.
        min_retry_after_s: Floor of the ``retry_after_s`` hint in ``BUSY``
            frames.
        metrics: Observability registry answering the wire ``METRICS``
            scrape; one is created when omitted.  The router is attached
            to it (cluster metric families, virtual clock) unless it
            already carries its own instrumentation.
        tracer: Span tracer; one is created (with ``sample_every``) when
            omitted.
        sample_every: Deterministic trace sampling rate for the default
            tracer (trace one request in this many; 0 disables).
        idle_timeout_s: Close a connection after this many seconds with
            no bytes arriving *and* no outstanding admitted work (``None``
            disables — the pre-revision-3 behaviour).
        journal: Crash-safety journal — an
            :class:`~repro.gateway.journal.AdmissionJournal`, or a path
            one is opened at.  ``None`` (default) journals nothing.
    """

    def __init__(
        self,
        router: ClusterRouter,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 1024,
        admission_batch: int = 128,
        max_payload_bytes: int = MAX_PAYLOAD_BYTES,
        min_retry_after_s: float = 0.01,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        sample_every: int = 1024,
        idle_timeout_s: Optional[float] = None,
        journal=None,
    ) -> None:
        if max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        if admission_batch < 1:
            raise ConfigurationError("admission_batch must be >= 1")
        if idle_timeout_s is not None and idle_timeout_s <= 0:
            raise ConfigurationError("idle_timeout_s must be positive (or None)")
        self.router = router
        self.host = host
        self.port = port
        self.max_queue = max_queue
        self.admission_batch = admission_batch
        self.max_payload_bytes = max_payload_bytes
        self.min_retry_after_s = min_retry_after_s
        self.idle_timeout_s = idle_timeout_s
        if journal is None or isinstance(journal, AdmissionJournal):
            self.journal = journal
        else:
            self.journal = AdmissionJournal(journal)
        #: The ``images_ref`` cache: decoded tensors by digest, least recently
        #: used first.  Queued requests hold their own arrays, so eviction
        #: never touches admitted work.
        self._images_by_ref: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._images_bytes = 0
        self._admission: List[Tuple[_Connection, dict]] = []
        self._pending: List[_Pending] = []
        self._dispatch_wakeup: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._dispatcher_task: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: List[_Connection] = []
        self._draining = False
        self._paused = False
        #: Exponential moving average of per-request service time, the
        #: basis of the ``retry_after_s`` backpressure hint.
        self._service_time_ema_s = 0.001
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(sample_every)
        if getattr(router, "_obs", None) is None:
            from repro.cluster.instrumentation import attach_cluster_observability

            attach_cluster_observability(router, self.metrics)
        if getattr(router, "tracer", None) is None:
            router.tracer = self.tracer
        #: The wire counters: plain ints, published at scrape time by _collect.
        self.stats: Dict[str, int] = dict.fromkeys(_STATS_KEYS, 0)
        self._stat_counters = {
            key: self.metrics.counter(f"gateway_{key}_total", help_text).labels()
            for key, help_text in _STATS_KEYS.items()
        }
        #: Scrapes may run on any thread; each moves counters by a delta.
        self._collect_lock = threading.Lock()
        self._ema_gauge = self.metrics.gauge(
            "gateway_service_time_ema_seconds",
            "EMA of per-request wall service time (retry_after basis).",
        )
        self._retry_gauge = self.metrics.gauge(
            "gateway_retry_after_seconds",
            "The retry_after_s hint a BUSY frame would carry right now.",
        )
        self._queue_gauge = self.metrics.gauge(
            "gateway_queue_depth",
            "Admitted-but-unanswered requests (admission + in flight).",
        )
        self._queue_limit_gauge = self.metrics.gauge(
            "gateway_queue_limit", "Bound of the admission queue."
        )
        self.metrics.register_collector(self._collect)

    def _collect(self, _registry: MetricsRegistry) -> None:
        """Scrape-time collector: the wire counters and live queue state.

        Moves each ``gateway_<key>_total`` counter to its int, down too (a
        response taken back for a vanished peer).
        """
        with self._collect_lock:
            for key, counter in self._stat_counters.items():
                delta = self.stats[key] - counter.value
                if delta:
                    counter.inc(delta)
        self._ema_gauge.set(self._service_time_ema_s)
        self._retry_gauge.set(self._retry_after_s())
        self._queue_gauge.set(float(len(self._admission) + len(self._pending)))
        self._queue_limit_gauge.set(float(self.max_queue))

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listening socket and start the dispatcher.

        Raises:
            OSError: If the bind fails (port in use, bad interface).
        """
        self._dispatch_wakeup = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher_task = asyncio.ensure_future(self._dispatcher())

    async def drain_and_stop(self) -> None:
        """Graceful shutdown: refuse new work, finish admitted work, close.

        New ``REQUEST`` frames arriving during the drain are answered with
        ``BUSY {"draining": true}``.  Once the admission queue and the
        in-flight batch are empty, every connection receives a ``DRAIN``
        frame and is closed, then the listener stops.
        """
        self._draining = True
        self._paused = False
        if self._server is not None:
            self._server.close()
        while self._admission or self._pending:
            self._dispatch_wakeup.set()
            await asyncio.sleep(0)
        if self._dispatcher_task is not None:
            self._dispatcher_task.cancel()
            try:
                await self._dispatcher_task
            except asyncio.CancelledError:
                pass
        farewell = encode_frame(
            FrameType.DRAIN,
            {
                "reason": "shutdown",
                "completed": self.stats["responses_sent"],
            },
        )
        for connection in list(self._connections):
            if connection.open:
                try:
                    connection.writer.write(farewell)
                    await connection.writer.drain()
                except (ConnectionError, RuntimeError):
                    pass
            await self._close_connection(connection)
        # One tick for reader coroutines to observe their closed sockets
        # and finish, so stopping the loop does not strand pending tasks.
        await asyncio.sleep(0)
        if self._server is not None:
            await self._server.wait_closed()
        if self.journal is not None:
            # Graceful drains leave a fully reconciled journal: every
            # admitted request has a terminal record, and the tail batch
            # is fsynced by close().
            self.journal.close()

    def pause_dispatch(self) -> None:
        """Hold the dispatcher (admissions keep queueing until ``BUSY``).

        A test/operations knob: with dispatch paused, offered load beyond
        ``max_queue`` is refused with ``BUSY`` frames, which is how the
        backpressure drills produce a deterministic overload.
        """
        self._paused = True

    def resume_dispatch(self) -> None:
        """Release a :meth:`pause_dispatch` hold.

        Safe to call from any thread: the wakeup is marshalled onto the
        server's loop with ``call_soon_threadsafe`` — a plain
        ``Event.set()`` from a foreign thread would not interrupt a loop
        blocked in ``select()``, leaving queued admissions stranded until
        unrelated I/O happened to arrive.
        """
        self._paused = False
        if self._loop is not None and self._dispatch_wakeup is not None:
            self._loop.call_soon_threadsafe(self._dispatch_wakeup.set)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Reader loop of one client connection."""
        connection = _Connection(reader, writer, self.max_payload_bytes)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Response frames are small; without NODELAY, Nagle + delayed
            # ACK would add 40 ms stalls to every tail percentile.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._connections.append(connection)
        self.stats["connections_opened"] += 1
        try:
            while True:
                if self.idle_timeout_s is None:
                    chunk = await reader.read(64 * 1024)
                else:
                    try:
                        chunk = await asyncio.wait_for(
                            reader.read(64 * 1024), self.idle_timeout_s
                        )
                    except asyncio.TimeoutError:
                        # A silent peer with admitted work in flight is a
                        # pipelining client waiting on its responses, not
                        # a dead one — only truly idle connections close.
                        if self._has_outstanding(connection):
                            continue
                        self.stats["idle_timeouts"] += 1
                        await self._send_error(
                            connection,
                            None,
                            "idle_timeout",
                            f"no frames for {self.idle_timeout_s}s; closing",
                        )
                        break
                if not chunk:
                    break
                self.stats["bytes_received"] += len(chunk)
                try:
                    for frame_type, payload in connection.decoder.feed(chunk):
                        self.stats["frames_received"] += 1
                        await self._handle_frame(connection, frame_type, payload)
                except ProtocolError as error:
                    self.stats["malformed_frames"] += 1
                    await self._send_error(connection, None, "malformed_frame", str(error))
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            await self._close_connection(connection)

    def _has_outstanding(self, connection: _Connection) -> bool:
        """Whether any admitted or in-flight request belongs to this peer."""
        return any(owner is connection for owner, _ in self._admission) or any(
            entry.connection is connection for entry in self._pending
        )

    async def _close_connection(self, connection: _Connection) -> None:
        """Tear one connection down idempotently."""
        if not connection.open:
            return
        connection.open = False
        self.stats["connections_closed"] += 1
        if connection in self._connections:
            self._connections.remove(connection)
        try:
            connection.writer.close()
            await connection.writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass

    async def _send(self, connection: _Connection, frame: bytes) -> bool:
        """Write one frame with flow control; False if the peer is gone.

        ``await writer.drain()`` is the slow-reader throttle: a client
        that stops reading blocks only its own response stream (this
        coroutine), never the dispatcher or other connections.
        """
        if not connection.open:
            return False
        try:
            connection.writer.write(frame)
            self.stats["bytes_sent"] += len(frame)
            await connection.writer.drain()
            return True
        except (ConnectionError, RuntimeError):
            await self._close_connection(connection)
            return False

    async def _send_error(
        self, connection: _Connection, wire_id, code: str, message: str
    ) -> None:
        """Send one ERROR frame (counted)."""
        self.stats["errors_sent"] += 1
        await self._send(
            connection,
            encode_frame(
                FrameType.ERROR, {"id": wire_id, "code": code, "message": message}
            ),
        )

    # ------------------------------------------------------------------ #
    # Frame handling
    # ------------------------------------------------------------------ #
    async def _handle_frame(
        self, connection: _Connection, frame_type: FrameType, payload: dict
    ) -> None:
        """Route one decoded frame to its handler."""
        if frame_type is FrameType.REQUEST:
            await self._handle_request(connection, payload)
        elif frame_type is FrameType.PING:
            self.stats["pings"] += 1
            await self._send(
                connection,
                encode_frame(FrameType.PONG, {"id": payload.get("id")}),
            )
        elif frame_type is FrameType.STATS:
            await self._send(
                connection,
                encode_frame(
                    FrameType.STATS,
                    {"id": payload.get("id"), "stats": self.snapshot()},
                ),
            )
        elif frame_type is FrameType.METRICS:
            await self._send(
                connection,
                encode_frame(
                    FrameType.METRICS,
                    {"id": payload.get("id"), "snapshot": self.metrics.snapshot()},
                ),
            )
        elif frame_type is FrameType.CANCEL:
            await self._handle_cancel(connection, payload)
        elif frame_type is FrameType.HEALTH:
            await self._handle_health(connection, payload)
        else:
            await self._send_error(
                connection,
                payload.get("id"),
                "bad_request",
                f"frame type {frame_type.name} is not valid client -> server",
            )

    async def _handle_cancel(self, connection: _Connection, payload: dict) -> None:
        """Unwind one queued-but-undispatched request of this connection.

        The CANCEL op carries its own ``id`` plus the ``target_id`` of the
        request to unwind, so the ack and the target's terminal ERROR
        never collide on one wire id.  A request already handed to the
        router is past the point of no return: the ack reports
        ``cancelled: false`` and the result (or its error) still arrives.
        """
        self.stats["cancels_received"] += 1
        target_id = payload.get("target_id")
        cancelled = False
        for index, (owner, parsed) in enumerate(self._admission):
            if owner is connection and parsed["id"] == target_id:
                del self._admission[index]
                cancelled = True
                self.stats["requests_cancelled"] += 1
                self._journal_done(parsed, "cancelled")
                await self._send_error(
                    connection,
                    target_id,
                    "cancelled",
                    "request cancelled before dispatch",
                )
                break
        await self._send(
            connection,
            encode_frame(
                FrameType.CANCEL,
                {
                    "id": payload.get("id"),
                    "target_id": target_id,
                    "cancelled": cancelled,
                },
            ),
        )

    async def _handle_health(self, connection: _Connection, payload: dict) -> None:
        """Answer a HEALTH probe from the reader coroutine (never queued).

        States: ``draining`` (shutdown under way — stop sending work),
        ``live`` (up but not accepting: dispatch paused or queue full),
        ``ready`` (accepting work).
        """
        self.stats["health_checks"] += 1
        depth = len(self._admission) + len(self._pending)
        if self._draining:
            state = "draining"
        elif self._paused or depth >= self.max_queue:
            state = "live"
        else:
            state = "ready"
        await self._send(
            connection,
            encode_frame(
                FrameType.HEALTH,
                {
                    "id": payload.get("id"),
                    "state": state,
                    "queue_depth": depth,
                    "queue_limit": self.max_queue,
                    "draining": self._draining,
                },
            ),
        )

    async def _handle_request(self, connection: _Connection, payload: dict) -> None:
        """Validate one REQUEST and admit it (or answer BUSY/ERROR)."""
        wire_id = payload.get("id")
        self.stats["requests_received"] += 1
        if self._draining or len(self._admission) + len(self._pending) >= self.max_queue:
            self.stats["busy_sent"] += 1
            await self._send(
                connection,
                encode_frame(
                    FrameType.BUSY,
                    {
                        "id": wire_id,
                        "retry_after_s": self._retry_after_s(),
                        "queue_depth": len(self._admission) + len(self._pending),
                        "queue_limit": self.max_queue,
                        "draining": self._draining,
                    },
                ),
            )
            return
        try:
            parsed = self._parse_request(payload)
        except ProtocolError as error:
            await self._send_error(connection, wire_id, "bad_request", str(error))
            return
        except KeyError as error:
            await self._send_error(
                connection,
                wire_id,
                "unknown_images_ref",
                f"images_ref {error.args[0]!r} has not been seen by this server",
            )
            return
        if parsed["budget_s"] is not None and parsed["budget_s"] <= 0.0:
            # The budget expired in flight: the caller has already given
            # up, so executing would burn cluster time on a dead request.
            # Shed before admission — never journaled, never queued.
            self.stats["shed_sent"] += 1
            await self._send_error(
                connection,
                wire_id,
                "shed",
                f"deadline budget {parsed['budget_s']}s already expired at admission",
            )
            return
        self.stats["requests_admitted"] += 1
        # Wall stamp of the accept, so the sampled gateway.accept span can
        # be emitted retroactively once the router id is known.
        parsed["_accept_wall_s"] = time.time()
        if parsed["budget_s"] is not None:
            parsed["_deadline_wall_s"] = parsed["_accept_wall_s"] + parsed["budget_s"]
        self._journal_admit(parsed)
        self._admission.append((connection, parsed))
        self._dispatch_wakeup.set()

    def _journal_admit(self, parsed: dict) -> None:
        """Record one admission in the journal (when one is attached)."""
        if self.journal is not None:
            parsed["_jid"] = self.journal.record_admitted(
                parsed["model_id"], parsed["images_ref"], wire_id=parsed["id"]
            )

    def _journal_done(self, parsed: dict, status: str) -> None:
        """Record one terminal outcome in the journal (when attached)."""
        if self.journal is not None and "_jid" in parsed:
            self.journal.record_done(parsed["_jid"], status)

    def _parse_request(self, payload: dict) -> dict:
        """Decode and validate a REQUEST payload into submit() kwargs.

        Raises:
            ProtocolError: On schema violations.
            KeyError: On an ``images_ref`` this server has never decoded.
        """
        if "model_id" not in payload or not isinstance(payload["model_id"], str):
            raise ProtocolError("request needs a string model_id")
        sla_name = payload.get("sla", SLAClass.BEST_EFFORT.value)
        if sla_name not in _SLA_BY_WIRE:
            raise ProtocolError(
                f"unknown sla {sla_name!r} (one of {sorted(_SLA_BY_WIRE)})"
            )
        deadline_s = payload.get("deadline_s")
        if deadline_s is not None and (
            not isinstance(deadline_s, (int, float)) or deadline_s <= 0
        ):
            raise ProtocolError("deadline_s must be a positive number")
        # budget_s is the *wall-clock* budget the client has left, distinct
        # from deadline_s (the modeled virtual-time SLA deadline).  Zero or
        # negative is legal on the wire — it means "already expired", which
        # admission answers with a shed, not a schema error.
        budget_s = payload.get("budget_s")
        if budget_s is not None and (
            isinstance(budget_s, bool)
            or not isinstance(budget_s, (int, float))
            or budget_s != budget_s  # NaN
        ):
            raise ProtocolError("budget_s must be a finite number")
        has_images = "images" in payload
        has_ref = "images_ref" in payload
        if has_images == has_ref:
            raise ProtocolError("request needs exactly one of images / images_ref")
        if has_images:
            images = decode_images(payload["images"])
            ref = images_digest(images)
            self._remember_images(ref, images)
        else:
            ref = payload["images_ref"]
            if not isinstance(ref, str):
                raise ProtocolError("images_ref must be a string digest")
            images = self._images_by_ref[ref]  # KeyError -> unknown_images_ref
            self._images_by_ref.move_to_end(ref)
        return {
            "id": payload.get("id"),
            "model_id": payload["model_id"],
            "sla": _SLA_BY_WIRE[sla_name],
            "deadline_s": float(deadline_s) if deadline_s is not None else None,
            "budget_s": float(budget_s) if budget_s is not None else None,
            "images": images,
            "images_ref": ref,
            "echo_ref": has_images,
        }

    def _remember_images(self, ref: str, images: np.ndarray) -> None:
        """Cache one uploaded tensor, evicting the LRU ones past the budget."""
        cache = self._images_by_ref
        if cache.pop(ref, None) is None:
            self._images_bytes += images.nbytes
        cache[ref] = images
        while self._images_bytes > IMAGES_REF_CACHE_BYTES:
            self._images_bytes -= cache.popitem(last=False)[1].nbytes

    def _retry_after_s(self) -> float:
        """Backpressure hint: modeled time to clear half the queue."""
        backlog = len(self._admission) + len(self._pending)
        return max(self.min_retry_after_s, 0.5 * backlog * self._service_time_ema_s)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    async def _dispatcher(self) -> None:
        """The single dispatcher coroutine: admission queue -> router -> wire."""
        while True:
            await self._dispatch_wakeup.wait()
            self._dispatch_wakeup.clear()
            while self._admission and not self._paused:
                await self._dispatch_batch()
                # Yield: let readers admit / refuse while results stream out.
                await asyncio.sleep(0)

    async def _dispatch_batch(self) -> None:
        """Admit one bounded batch into the router, drain it, respond."""
        batch = self._admission[: self.admission_batch]
        del self._admission[: len(batch)]
        started = time.perf_counter()
        now_wall_s = time.time()
        for connection, parsed in batch:
            deadline_wall_s = parsed.get("_deadline_wall_s")
            if deadline_wall_s is not None and now_wall_s > deadline_wall_s:
                # Queueing ate the budget: the caller timed out while this
                # request waited, so dispatching it would be pure waste.
                self.stats["shed_sent"] += 1
                self._journal_done(parsed, "shed")
                await self._send_error(
                    connection,
                    parsed["id"],
                    "shed",
                    "deadline budget expired while queued",
                )
                continue
            try:
                router_id = self.router.submit(
                    parsed["model_id"],
                    parsed["images"],
                    sla=parsed["sla"],
                    deadline_s=parsed["deadline_s"],
                    input_digest=parsed["images_ref"],
                )
            except ConfigurationError as error:
                self._journal_done(parsed, "error")
                await self._send_error(
                    connection, parsed["id"], "bad_request", str(error)
                )
                continue
            self._pending.append(
                _Pending(connection, parsed["id"], router_id, parsed)
            )
        stranded = self._drain_router()
        pending, self._pending = self._pending, []
        touched = []
        for entry in pending:
            if self._respond_nodrain(entry, stranded) and entry.connection not in touched:
                touched.append(entry.connection)
        # One flow-control flush per connection per batch (not per frame):
        # a slow reader still throttles its own stream here, but a healthy
        # batch costs one drain instead of admission_batch of them.
        for connection in touched:
            try:
                await connection.writer.drain()
            except (ConnectionError, RuntimeError):
                await self._close_connection(connection)
        if pending:
            span = time.perf_counter() - started
            per_request = span / len(pending)
            self._service_time_ema_s += 0.2 * (per_request - self._service_time_ema_s)

    def _drain_router(self) -> bool:
        """Drain the router's backlog, tolerating per-dispatch failures.

        A dispatch that raises marks its requests failed (the router's
        contract) and leaves the rest queued, so the drain is retried while
        each pass completes or fails something.  A pass that does neither
        means the backlog is stranded — every node has failed and no
        recovery is scheduled (e.g. every fleet worker died) — and
        retrying would spin forever with the event loop blocked.

        Returns:
            True when requests are left stranded in the router's queue.
        """
        router = self.router
        while router.queue_depth():
            settled = router.completed_requests + router.failed_requests
            try:
                router.drain()
            except Exception:  # noqa: BLE001 - re-raised per request by result()
                pass
            if router.completed_requests + router.failed_requests == settled:
                return True
        return False

    def _write_nodrain(self, connection: _Connection, frame: bytes) -> bool:
        """Buffer one frame on a connection without awaiting flow control.

        The per-batch drain in :meth:`_dispatch_batch` applies the
        backpressure; this just stages bytes.  Returns False when the
        peer is already gone.
        """
        if not connection.open:
            return False
        try:
            connection.writer.write(frame)
            self.stats["bytes_sent"] += len(frame)
            return True
        except (ConnectionError, RuntimeError):
            return False

    def _respond_nodrain(self, entry: _Pending, stranded: bool) -> bool:
        """Stage the terminal frame (RESPONSE or ERROR) of one admission.

        Args:
            entry: The admitted request.
            stranded: The drain left requests queued with no node able to
                run them; an incomplete request is one of those and is
                answered ``execution_failed``.

        Returns:
            True when bytes were staged on a live connection (the caller
            owes that connection a drain).
        """
        try:
            result = self.router.result(entry.router_id)
        except Exception as error:  # noqa: BLE001 - the dispatch failure, per contract
            # Anything but "still queued" is the request's own dispatch
            # failure.  Still queued after a stalled drain means no node can
            # run it; after a drain that did not stall it is our fault.
            queued = isinstance(error, RequestNotCompleteError)
            code = "internal" if queued and not stranded else "execution_failed"
            self.stats["errors_sent"] += 1
            self._journal_done(entry.parsed, "error")
            return self._write_nodrain(
                entry.connection,
                encode_frame(
                    FrameType.ERROR,
                    {"id": entry.wire_id, "code": code, "message": str(error)},
                ),
            )
        trace = result.trace
        payload = {
            "id": entry.wire_id,
            "request_id": entry.router_id,
            "predictions": np.asarray(result.predictions).tolist(),
            "trace": {
                "model_id": trace.model_id,
                "node_id": trace.node_id,
                "sla": trace.sla,
                "latency_s": trace.latency_s,
                "compute_s": trace.compute_s,
                "energy_j": trace.energy_j,
                "deadline_missed": bool(trace.deadline_missed),
                "execution_mode": trace.execution_mode,
                "coalesced": int(trace.coalesced),
                "replayed": bool(trace.replayed),
            },
        }
        if entry.parsed.get("echo_ref"):
            payload["images_ref"] = entry.parsed["images_ref"]
        accept_span = None
        if self.tracer.should_sample(entry.router_id):
            # The wall-clock legs of the span tree: gateway.accept covers
            # socket arrival to result availability, response.write the
            # frame staging.  Same trace id as the modeled-time spans the
            # cluster emitted for this request.
            accept_span = self.tracer.start_span(
                "gateway.accept", entry.router_id, sla=trace.sla
            )
            accept_span.start_wall_s = entry.parsed.get(
                "_accept_wall_s", accept_span.start_wall_s
            )
            self.tracer.end_span(accept_span)
            write_span = self.tracer.start_span(
                "response.write", entry.router_id, parent=accept_span
            )
        # Count before writing: the socket send releases the GIL, so a
        # client thread could otherwise observe its response (and read a
        # snapshot) before this coroutine reaches the increment.
        self.stats["responses_sent"] += 1
        if self._write_nodrain(
            entry.connection, encode_frame(FrameType.RESPONSE, payload)
        ):
            if accept_span is not None:
                self.tracer.end_span(write_span)
            self._journal_done(entry.parsed, "responded")
            return True
        # The client vanished mid-request: the work was still done and
        # accounted (zero-loss means *answered or knowingly dropped at a
        # closed socket*, never silently lost in a queue).
        self.stats["responses_sent"] -= 1
        self.stats["responses_dropped"] += 1
        self._journal_done(entry.parsed, "dropped")
        return False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, float]:
        """Counters answering the wire ``STATS`` query.

        Returns:
            Gateway counters (the same ints a ``METRICS`` scrape
            publishes, so the two cannot drift) plus the router's
            conservation numerators
            (``router_completed``, ``router_failed``), the live
            ``queue_depth`` / ``queue_limit`` / ``draining`` state, and
            the backpressure signals ``service_time_ema_s`` /
            ``retry_after_s``.
        """
        snapshot: Dict[str, float] = dict(self.stats)
        snapshot["queue_depth"] = len(self._admission) + len(self._pending)
        snapshot["queue_limit"] = self.max_queue
        snapshot["draining"] = bool(self._draining)
        snapshot["service_time_ema_s"] = self._service_time_ema_s
        snapshot["retry_after_s"] = self._retry_after_s()
        snapshot["router_completed"] = self.router.completed_requests
        snapshot["router_failed"] = self.router.failed_requests
        if self.journal is not None:
            snapshot["journal_records_written"] = self.journal.records_written
            snapshot["journal_fsyncs"] = self.journal.fsyncs
        return snapshot


class ThreadedGateway:
    """Host a :class:`GatewayServer` event loop in a daemon thread.

    The synchronous harness around the async server: benchmarks, tests and
    examples start it, talk to ``(host, port)`` with the client SDK, and
    stop it.  The router is handed over to the gateway thread and must not
    be used concurrently from the starting thread while serving.

    Args:
        router: The cluster router to serve (models registered).
        **server_kwargs: Forwarded to :class:`GatewayServer`.
    """

    def __init__(self, router: ClusterRouter, **server_kwargs) -> None:
        self.server = GatewayServer(router, **server_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    def start(self, timeout_s: float = 10.0) -> Tuple[str, int]:
        """Start the loop thread; returns the bound ``(host, port)``.

        Args:
            timeout_s: Seconds to wait for the socket to bind.

        Raises:
            RuntimeError: If the server does not come up within the
                timeout.
        """
        self._thread = threading.Thread(
            target=self._run, name="repro-gateway", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise RuntimeError("gateway server failed to start in time")
        return self.server.host, self.server.port

    def _run(self) -> None:
        """Thread body: a fresh event loop running the server forever."""
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            # Settle whatever the stop left behind so closing the loop
            # never destroys a pending task.  Readers are given a moment
            # to observe their closed/aborted transports and exit on
            # their own first — cancelling a streams client task outright
            # trips asyncio.streams' done callback into logging a
            # spurious CancelledError on this Python; only stragglers
            # get cancelled.
            pending = asyncio.all_tasks(self._loop)
            if pending:
                self._loop.run_until_complete(asyncio.wait(pending, timeout=1.0))
                stragglers = [task for task in pending if not task.done()]
                for task in stragglers:
                    task.cancel()
                if stragglers:
                    self._loop.run_until_complete(
                        asyncio.gather(*stragglers, return_exceptions=True)
                    )
            self._loop.close()

    def call(self, factory: Callable[[], Awaitable], timeout_s: float = 30.0):
        """Run one coroutine on the gateway loop and return its result.

        Args:
            factory: Zero-argument callable building the coroutine (built
                on the gateway loop's thread).
            timeout_s: Seconds to wait for completion.

        Returns:
            Whatever the coroutine returns.
        """
        future = asyncio.run_coroutine_threadsafe(factory(), self._loop)
        return future.result(timeout_s)

    def stop(self, timeout_s: float = 30.0) -> None:
        """Gracefully drain the server and join the loop thread.

        Args:
            timeout_s: Seconds to wait for the drain and the join.
        """
        if self._loop is None:
            return
        self.call(self.server.drain_and_stop, timeout_s=timeout_s)
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout_s)
        self._loop = None

    def kill(self, timeout_s: float = 10.0) -> None:
        """Abrupt stop: the supervised-restart drill's simulated crash.

        No drain, no DRAIN farewell, no final journal fsync: connections
        are aborted mid-flight, the dispatcher is cancelled wherever it
        stands, and the journal is abandoned — admitted-but-unanswered
        requests stay *unreconciled* on disk, exactly what
        :meth:`AdmissionJournal.recover` exists to report after the
        restart.

        Args:
            timeout_s: Seconds to wait for the loop thread to die.
        """
        if self._loop is None:
            return

        def _abort() -> None:
            for connection in list(self.server._connections):
                connection.open = False
                transport = connection.writer.transport
                if transport is not None:
                    transport.abort()
            if self.server._server is not None:
                self.server._server.close()
            if self.server._dispatcher_task is not None:
                self.server._dispatcher_task.cancel()
            if self.server.journal is not None:
                self.server.journal.abandon()
            self._loop.stop()

        self._loop.call_soon_threadsafe(_abort)
        if self._thread is not None:
            self._thread.join(timeout_s)
        self._loop = None

    def __enter__(self) -> "ThreadedGateway":
        """Start on entry; the instance is the context value."""
        self.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Stop on exit (graceful drain)."""
        self.stop()
