"""A seeded TCP interposer injecting wire faults between client and gateway.

:class:`ChaosProxy` listens on its own port, opens one upstream connection
to the live gateway per accepted client, and pumps bytes both ways while
applying the :class:`~repro.chaos.plan.ChaosPlan` it was given:

* the client->server pump is *frame-aware*: it splits the stream on the
  protocol's 8-byte headers and evaluates the plan's RESET / CORRUPT /
  DELAY / THROTTLE rules once per forwarded frame, in rule order, each
  decision drawn from the connection's seeded RNG;
* the server->client pump evaluates STALL_READ rules once per forwarded
  chunk — when one fires the proxy simply stops reading for ``delay_s``,
  which is exactly what a slow-loris client does to the gateway's
  flow-controlled write path.

Each direction owns an independent decision stream (derived from the plan
seed and the connection index), so injections are reproducible regardless
of how the two pumps interleave.  The proxy never interprets payloads; a
client byte sequence it cannot frame (bad magic, oversized announcement)
is forwarded verbatim and left to the server's own rejection path.

:class:`ThreadedChaosProxy` hosts the proxy loop in a daemon thread for
synchronous callers, mirroring :class:`~repro.gateway.server.ThreadedGateway`.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, List, Optional, Tuple

from repro.chaos.plan import ChaosKind, ChaosPlan, ChaosRule
from repro.gateway.protocol import HEADER_SIZE, HEADER_STRUCT, MAGIC, MAX_PAYLOAD_BYTES

__all__ = ["ChaosProxy", "ThreadedChaosProxy"]


def _corrupt_frame(frame: bytearray, rule: ChaosRule, rng) -> None:
    """Flip payload bytes in place; guarantee the result is undecodable.

    Flips ``rule.flip_bytes`` payload bytes at RNG-chosen positions.  If
    the mutation happens to leave a frame the protocol would still accept
    (the framing has no payload checksum), the magic is mangled too —
    every injected corruption must be *detectable*, or it would silently
    alias legitimate traffic and void the zero-acknowledged-loss gates.
    """
    from repro.gateway.protocol import decode_frame, ProtocolError

    payload_len = len(frame) - HEADER_SIZE
    if payload_len > 0:
        for _ in range(rule.flip_bytes):
            position = HEADER_SIZE + rng.randrange(payload_len)
            frame[position] ^= 0xFF
    try:
        decode_frame(bytes(frame))
    except ProtocolError:
        return  # the flip alone is detectable
    frame[0] ^= 0xFF  # still decodable: mangle the magic as well


class _Link:
    """One proxied client<->server connection pair."""

    __slots__ = ("client_reader", "client_writer", "server_reader", "server_writer")

    def __init__(self, client_reader, client_writer, server_reader, server_writer):
        self.client_reader = client_reader
        self.client_writer = client_writer
        self.server_reader = server_reader
        self.server_writer = server_writer

    def abort(self) -> None:
        """RST-style teardown of both sides (mid-stream reset)."""
        for writer in (self.client_writer, self.server_writer):
            transport = writer.transport
            if transport is not None:
                transport.abort()

    def close(self) -> None:
        """Graceful FIN of both sides."""
        for writer in (self.client_writer, self.server_writer):
            try:
                writer.close()
            except RuntimeError:
                pass


class ChaosProxy:
    """Asyncio TCP interposer applying a :class:`ChaosPlan` to live traffic.

    Args:
        upstream_host: The gateway's host.
        upstream_port: The gateway's port.
        plan: The chaos script; an empty plan makes the proxy a transparent
            byte pipe (the passthrough-fidelity tests rely on this).
        host: Interface the proxy binds (loopback by default).
        port: Proxy port; 0 picks a free one (read :attr:`port` after
            :meth:`start`).
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: Optional[ChaosPlan] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.plan = plan if plan is not None else ChaosPlan()
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._links: List[_Link] = []
        #: Injection counters by fault kind, plus link accounting.
        self.injected: Dict[str, int] = {kind.value: 0 for kind in ChaosKind}
        self.connections_proxied = 0
        self.bytes_to_server = 0
        self.bytes_to_client = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listening socket.

        Raises:
            OSError: If the bind fails.
        """
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listener and abort every live link."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for link in list(self._links):
            link.abort()
        self._links.clear()
        await asyncio.sleep(0)

    def snapshot(self) -> Dict[str, float]:
        """Injection counters: per-kind totals plus link/byte accounting."""
        snapshot: Dict[str, float] = dict(self.injected)
        snapshot["connections_proxied"] = self.connections_proxied
        snapshot["bytes_to_server"] = self.bytes_to_server
        snapshot["bytes_to_client"] = self.bytes_to_client
        return snapshot

    # ------------------------------------------------------------------ #
    # Pumps
    # ------------------------------------------------------------------ #
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Accept one client, dial upstream, run both pumps to completion."""
        index = self.connections_proxied
        self.connections_proxied += 1
        try:
            server_reader, server_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port
            )
        except OSError:
            writer.transport.abort()
            return
        link = _Link(reader, writer, server_reader, server_writer)
        self._links.append(link)
        # Independent, reproducible decision streams per direction: the
        # request pump draws from 2*index, the response pump from 2*index+1.
        try:
            await asyncio.gather(
                self._pump_requests(link, self.plan.rng_for(2 * index)),
                self._pump_responses(link, self.plan.rng_for(2 * index + 1)),
            )
        except (ConnectionError, OSError):
            pass
        finally:
            if link in self._links:
                self._links.remove(link)
            link.close()

    async def _pump_requests(self, link: _Link, rng) -> None:
        """Client -> server: frame-aware forwarding with injections."""
        rules = [
            rule for rule in self.plan.rules if rule.kind is not ChaosKind.STALL_READ
        ]
        buffer = bytearray()
        frames_seen = 0
        framing_ok = True
        while True:
            chunk = await link.client_reader.read(64 * 1024)
            if not chunk:
                break
            if not framing_ok:
                # The client stream stopped being frameable earlier: pipe
                # the rest verbatim and let the server reject it.
                await self._forward_to_server(link, bytes(chunk))
                continue
            buffer.extend(chunk)
            while True:
                frame, framing_ok = self._next_frame(buffer)
                if frame is None:
                    if not framing_ok and buffer:
                        await self._forward_to_server(link, bytes(buffer))
                        buffer.clear()
                    break
                frames_seen += 1
                if not await self._forward_frame(link, frame, frames_seen, rules, rng):
                    return  # a RESET fired: the link is gone
        self._half_close(link.server_writer)

    @staticmethod
    def _next_frame(buffer: bytearray) -> Tuple[Optional[bytearray], bool]:
        """Split one complete frame off the buffer.

        Returns ``(frame, framing_ok)``; ``(None, True)`` means more bytes
        are needed, ``(None, False)`` means the stream is not frameable
        (bad magic or an announcement beyond the cap) and the caller
        should fall back to verbatim piping.
        """
        if len(buffer) < HEADER_SIZE:
            return None, True
        magic, _version, _type, length = HEADER_STRUCT.unpack(bytes(buffer[:HEADER_SIZE]))
        if magic != MAGIC or length > MAX_PAYLOAD_BYTES:
            return None, False
        total = HEADER_SIZE + length
        if len(buffer) < total:
            return None, True
        frame = bytearray(buffer[:total])
        del buffer[:total]
        return frame, True

    async def _forward_frame(
        self, link: _Link, frame: bytearray, frame_index: int, rules, rng
    ) -> bool:
        """Apply request-path rules to one frame and forward it.

        Returns False when a RESET tore the link down (stop pumping).
        """
        throttle: Optional[ChaosRule] = None
        for rule in rules:
            fired = rng.random() < rule.probability and frame_index > rule.after_frames
            if not fired:
                continue
            self.injected[rule.kind.value] += 1
            if rule.kind is ChaosKind.RESET:
                link.abort()
                return False
            if rule.kind is ChaosKind.CORRUPT:
                _corrupt_frame(frame, rule, rng)
            elif rule.kind is ChaosKind.DELAY:
                await asyncio.sleep(rule.delay_s)
            elif rule.kind is ChaosKind.THROTTLE:
                throttle = rule
        data = bytes(frame)
        if throttle is None:
            await self._forward_to_server(link, data)
            return True
        for start in range(0, len(data), throttle.chunk_bytes):
            await self._forward_to_server(link, data[start : start + throttle.chunk_bytes])
            await asyncio.sleep(throttle.delay_s)
        return True

    async def _forward_to_server(self, link: _Link, data: bytes) -> None:
        """Write bytes upstream under flow control."""
        self.bytes_to_server += len(data)
        link.server_writer.write(data)
        await link.server_writer.drain()

    async def _pump_responses(self, link: _Link, rng) -> None:
        """Server -> client: chunk piping with slow-loris read stalls."""
        stall_rules = self.plan.rules_for(ChaosKind.STALL_READ)
        while True:
            chunk = await link.server_reader.read(64 * 1024)
            if not chunk:
                break
            # Counted before forwarding, so the client's next snapshot() sees it.
            stalls = [rule.delay_s for rule in stall_rules if rng.random() < rule.probability]
            self.injected[ChaosKind.STALL_READ.value] += len(stalls)
            self.bytes_to_client += len(chunk)
            link.client_writer.write(chunk)
            await link.client_writer.drain()
            if stalls:
                # Stop *reading* for a while: the gateway's responses back
                # up in its socket buffer and its per-connection drain()
                # throttles — the slow-loris pressure point.
                await asyncio.sleep(sum(stalls))
        self._half_close(link.client_writer)

    @staticmethod
    def _half_close(writer: asyncio.StreamWriter) -> None:
        """Propagate an EOF to the other side, tolerating dead transports."""
        try:
            if writer.can_write_eof():
                writer.write_eof()
        except (ConnectionError, OSError, RuntimeError):
            pass


class ThreadedChaosProxy:
    """Host a :class:`ChaosProxy` event loop in a daemon thread.

    The synchronous harness for tests and benchmarks: start it, point a
    client at ``(host, port)``, and stop it.

    Args:
        upstream_host: The gateway's host.
        upstream_port: The gateway's port.
        plan: The chaos script (transparent pipe when omitted).
        **proxy_kwargs: Forwarded to :class:`ChaosProxy`.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: Optional[ChaosPlan] = None,
        **proxy_kwargs,
    ) -> None:
        self.proxy = ChaosProxy(upstream_host, upstream_port, plan=plan, **proxy_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    def start(self, timeout_s: float = 10.0) -> Tuple[str, int]:
        """Start the proxy thread; returns the bound ``(host, port)``.

        Raises:
            RuntimeError: If the proxy does not come up within the timeout.
        """
        self._thread = threading.Thread(
            target=self._run, name="repro-chaos-proxy", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise RuntimeError("chaos proxy failed to start in time")
        return self.proxy.host, self.proxy.port

    def _run(self) -> None:
        """Thread body: a fresh event loop running the proxy forever."""
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.proxy.start())
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop the proxy and join the loop thread."""
        if self._loop is None:
            return
        asyncio.run_coroutine_threadsafe(self.proxy.stop(), self._loop).result(timeout_s)
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout_s)
        self._loop = None

    def __enter__(self) -> "ThreadedChaosProxy":
        """Start on entry; the instance is the context value."""
        self.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Stop on exit."""
        self.stop()
