"""Asyncio TCP server exposing a :class:`CamService` over the wire.

:class:`CamServer` is the socket front door of the reproduction: it
accepts connections, decodes :mod:`repro.net.protocol` frames
incrementally, executes each request against the wrapped
:class:`~repro.service.scheduler.CamService` (batch frames fan out to
concurrent service calls) and streams the responses back -- requests
from one connection are served *pipelined*, never lock-step. Each
connection is a :class:`~repro.net.channel.FrameChannel` that runs one
handler task per request frame and nothing else; a client that stops
reading stops its connection's intake.

Operational guarantees:

- **bounded intake** -- at most ``max_connections`` concurrent
  connections (excess ones receive an ``OVERLOADED`` error frame and
  are closed) and at most ``max_frame_size`` payload bytes per frame
  (violations answer ``FRAME_TOO_LARGE`` and close the connection);
- **timeouts** -- a connection with nothing to read for
  ``idle_timeout_s`` is closed (one timer, re-armed from the last
  read); request deadlines belong to the wrapped service alone (an
  expired request comes back as status ``"timeout"`` inside its
  RESULT/UPDATED frame and is never applied);
- **graceful drain** -- :meth:`stop` stops accepting, lets in-flight
  requests complete and answers frames that arrive during the drain
  window with ``RETRY_LATER``, so a restarting client loses nothing;
- **exactly-once mutations** -- INSERT/DELETE frames carry idempotency
  tokens; the server keeps one bounded token -> response-future table
  and answers a retried token from it (awaiting the first attempt if it
  is still running) without re-applying the mutation.

Telemetry is threaded through :mod:`repro.obs` under ``net_*`` names
(frames and bytes per direction, decode errors, connection churn,
request latency) with an always-on :class:`ServerStats` mirror.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.errors import ConfigError, NetError, ProtocolError
from repro.net import protocol
from repro.net.channel import FrameChannel
from repro.net.protocol import ErrorCode, Frame, Opcode
from repro.service.scheduler import CamService

#: Idempotency tokens remembered; the oldest is forgotten first.
_DEDUPE_CAPACITY = 65536


@dataclass
class ServerStats:
    """Always-on counters mirrored outside the obs registry."""

    connections_opened: int = 0
    connections_closed: int = 0
    connections_rejected: int = 0
    idle_closed: int = 0
    frames_in: int = 0
    frames_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    decode_errors: int = 0
    requests: int = 0
    errors_sent: int = 0
    retry_later: int = 0
    dedupe_hits: int = 0
    per_opcode: Dict[str, int] = field(default_factory=dict)

    def count_opcode(self, opcode: Opcode) -> None:
        name = opcode.name.lower()
        self.per_opcode[name] = self.per_opcode.get(name, 0) + 1


class _Connection(FrameChannel):
    """One client connection: admission, the idle timer, flow control
    and the frame counters. Each request frame runs in one handler task
    (``tasks``); the connection itself runs none."""

    def __init__(self, server: "CamServer") -> None:
        super().__init__(server.max_frame_size)
        self.server = server
        self.stats = server.stats
        self.tasks: Set[asyncio.Task] = set()
        self.last_read = self.loop.time()
        self.idle: Optional[asyncio.TimerHandle] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        server = self.server
        if server.draining or (len(server._connections)
                               >= server.max_connections):
            code = (ErrorCode.RETRY_LATER if server.draining
                    else ErrorCode.OVERLOADED)
            reason = ("server is draining" if server.draining
                      else f"server at its {server.max_connections}-"
                           "connection limit")
            self.stats.connections_rejected += 1
            obs.inc("net_connections_total",
                    help="connection lifecycle events by kind",
                    event="rejected")
            transport.write(protocol.encode_frame(
                Opcode.ERROR, 0, protocol.encode_error(code, reason)
            ))
            transport.close()
            return
        server._connections.add(self)
        self.stats.connections_opened += 1
        obs.inc("net_connections_total", event="opened")
        obs.set_gauge("net_connections_active", len(server._connections),
                      help="currently open client connections")
        if server.idle_timeout_s is not None:
            self.idle = self.loop.call_at(
                self.last_read + server.idle_timeout_s, self._idle_check)

    def _idle_check(self) -> None:
        """Close the connection if nothing was read for the idle
        timeout; otherwise re-arm for the timeout after the last read."""
        deadline = self.last_read + self.server.idle_timeout_s
        if self.loop.time() < deadline:
            self.idle = self.loop.call_at(deadline, self._idle_check)
            return
        self.stats.idle_closed += 1
        obs.inc("net_connections_total", event="idle_closed")
        self.close()

    def data_received(self, data: bytes) -> None:
        self.last_read = self.loop.time()
        self.stats.bytes_in += len(data)
        obs.inc("net_bytes_total", len(data),
                help="wire bytes by direction", direction="in")
        super().data_received(data)

    def frames_received(self, frames: List[Frame]) -> None:
        for frame in frames:
            self.stats.frames_in += 1
            obs.inc("net_frames_total",
                    help="frames by direction", direction="in")
            self.server._dispatch(self, frame)

    def decode_failed(self, exc: ProtocolError) -> None:
        # answer once, then hang up
        self.stats.decode_errors += 1
        obs.inc("net_decode_errors_total",
                help="frames rejected by the decoder")
        self.server._send_error(self, 0, exc)
        self.close()

    def sent(self, frames: int, size: int) -> None:
        self.stats.frames_out += frames
        self.stats.bytes_out += size
        obs.inc("net_frames_total", frames, direction="out")
        obs.inc("net_bytes_total", size, direction="out")

    def pause_writing(self) -> None:
        # A peer that stops reading stops this connection's intake.
        super().pause_writing()
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        super().resume_writing()
        self.transport.resume_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        if self.idle is not None:
            self.idle.cancel()
        connections = self.server._connections
        if self in connections:
            connections.discard(self)
            self.stats.connections_closed += 1
            obs.inc("net_connections_total", event="closed")
            obs.set_gauge("net_connections_active", len(connections))


class CamServer:
    """TCP front end for a :class:`CamService`.

    Use as an async context manager (binds on enter, drains and closes
    on exit)::

        cam = repro.open_session(config, engine="batch", shards=4)
        async with CamService(cam) as service:
            async with CamServer(service, port=0) as server:
                host, port = server.address
                ...

    ``port=0`` binds an ephemeral port; read it back from
    :attr:`address`.
    """

    def __init__(
        self,
        service: CamService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 64,
        max_frame_size: int = protocol.MAX_FRAME_SIZE,
        idle_timeout_s: Optional[float] = None,
    ) -> None:
        if max_connections < 1:
            raise ConfigError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        if max_frame_size < 1:
            raise ConfigError(
                f"max_frame_size must be >= 1, got {max_frame_size}"
            )
        if idle_timeout_s is not None and idle_timeout_s <= 0:
            raise ConfigError(
                f"idle_timeout_s must be > 0, got {idle_timeout_s}"
            )
        self.service = service
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.max_frame_size = max_frame_size
        self.idle_timeout_s = idle_timeout_s
        self.stats = ServerStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        #: idempotency token -> future of its mutation's (opcode,
        #: payload) answer; still pending while the first attempt runs.
        self._dedupe: "OrderedDict[bytes, asyncio.Future]" = OrderedDict()
        self._draining = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise NetError("server already started")
        self._draining = False
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        socket = self._server.sockets[0]
        self.host, self.port = socket.getsockname()[:2]

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolved after :meth:`start`)."""
        return self.host, self.port

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def active_connections(self) -> int:
        return len(self._connections)

    async def drain(self) -> None:
        """Complete in-flight requests; new ones get ``RETRY_LATER``.

        Closes the listening socket first so no fresh connection can
        sneak work in, then drains the wrapped service (its admission
        gate starts refusing instantly) and finally waits for every
        per-frame handler task to flush its response.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.service.drain()
        pending = [task for conn in self._connections
                   for task in list(conn.tasks)]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    async def stop(self) -> None:
        """Graceful shutdown: drain, then flush and close every
        connection."""
        if self._server is None and not self._connections:
            return
        await self.drain()
        connections = list(self._connections)
        for conn in connections:
            conn.close()
        await asyncio.gather(*(conn.lost for conn in connections))
        self._server = None

    async def __aenter__(self) -> "CamServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, conn: _Connection, frame: Frame) -> None:
        if not frame.opcode.is_request:
            self._send_error(conn, frame.request_id, ProtocolError(
                f"{frame.opcode.name} is a response opcode; clients send "
                "requests only"
            ))
            return
        conn.tasks.add(asyncio.ensure_future(self._handle(conn, frame)))

    async def _handle(self, conn: _Connection, frame: Frame) -> None:
        self.stats.requests += 1
        self.stats.count_opcode(frame.opcode)
        started = time.perf_counter()
        status = "ok"
        try:
            await self._execute(conn, frame)
        except Exception as exc:  # typed ReproErrors map to their codes
            status = "error"
            self._send_error(conn, frame.request_id, exc)
        finally:
            conn.tasks.discard(asyncio.current_task())
        opcode = frame.opcode.name.lower()
        obs.inc("net_requests_total", help="requests by opcode and outcome",
                opcode=opcode, status=status)
        obs.observe("net_request_latency_seconds",
                    time.perf_counter() - started,
                    help="server-side request latency",
                    buckets=obs.SECONDS_BUCKETS, opcode=opcode)

    async def _execute(self, conn: _Connection, frame: Frame) -> None:
        opcode = frame.opcode
        if opcode is Opcode.PING:
            self._send(conn, Opcode.PONG, frame.request_id, frame.payload)
        elif opcode is Opcode.LOOKUP:
            keys = protocol.decode_lookup(frame.payload)
            responses = await self.service.lookup_many(keys)
            payload = protocol.encode_results([
                (response.status, response.result)
                for response in responses
            ])
            self._send(conn, Opcode.RESULT, frame.request_id, payload)
        elif opcode is Opcode.INSERT:
            token, words = protocol.decode_mutation(frame.payload)

            async def apply_insert() -> Tuple[int, bytes]:
                response = await self.service.insert(words)
                return int(Opcode.UPDATED), protocol.encode_update_ack(
                    response.status, response.stats, response.error
                )

            out, payload = await self._mutate_once(token, apply_insert)
            self._send(conn, Opcode(out), frame.request_id, payload)
        elif opcode is Opcode.DELETE:
            token, keys = protocol.decode_mutation(frame.payload)

            async def apply_delete() -> Tuple[int, bytes]:
                responses = await self.service.delete_many(keys)
                return int(Opcode.RESULT), protocol.encode_results([
                    (response.status, response.result)
                    for response in responses
                ])

            out, payload = await self._mutate_once(token, apply_delete)
            self._send(conn, Opcode(out), frame.request_id, payload)
        elif opcode is Opcode.SNAPSHOT:
            blob = self.service.cam.snapshot().to_binary()
            if len(blob) > self.max_frame_size:
                raise ProtocolError(
                    f"snapshot of {len(blob)} bytes exceeds the "
                    f"{self.max_frame_size}-byte frame limit"
                )
            self._send(conn, Opcode.SNAPSHOT_DATA, frame.request_id, blob)
        elif opcode is Opcode.STATS:
            self._send(conn, Opcode.STATS_DATA, frame.request_id,
                       protocol.encode_stats(self._stats_doc()))
        else:  # pragma: no cover - is_request filtered already
            raise ProtocolError(f"unhandled opcode {opcode!r}")

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _send(self, conn: _Connection, opcode: Opcode, request_id: int,
              payload: bytes) -> None:
        conn.send(protocol.encode_frame(opcode, request_id, payload))

    def _send_error(self, conn: _Connection, request_id: int,
                    exc: BaseException) -> None:
        code = protocol.error_code_for(exc)
        self.stats.errors_sent += 1
        if code is ErrorCode.RETRY_LATER:
            self.stats.retry_later += 1
        obs.inc("net_errors_sent_total",
                help="error frames by code", code=code.name.lower())
        self._send(conn, Opcode.ERROR, request_id,
                   protocol.encode_error(code, str(exc)))

    async def _mutate_once(
        self, token: bytes, apply: Callable[[], Awaitable[Tuple[int, bytes]]]
    ) -> Tuple[int, bytes]:
        """Run ``apply`` exactly once per idempotency token.

        A retried token awaits the future of its first attempt --
        finished or, for a retry racing its original on another
        connection, still running -- instead of re-applying the
        mutation. An attempt that raised is forgotten, so its retry
        applies afresh.
        """
        key = bytes(token)
        future = self._dedupe.get(key)
        if future is None:
            future = asyncio.ensure_future(apply())
            self._dedupe[key] = future
            future.add_done_callback(
                lambda done: self._forget_failed(key, done))
            while len(self._dedupe) > _DEDUPE_CAPACITY:
                self._dedupe.popitem(last=False)
        else:
            self.stats.dedupe_hits += 1
            obs.inc("net_dedupe_hits_total",
                    help="mutations answered from the idempotency cache")
        # shield: a handler cancelled mid-wait must not cancel the
        # mutation its retries are waiting on.
        return await asyncio.shield(future)

    def _forget_failed(self, key: bytes, future: asyncio.Future) -> None:
        if ((future.cancelled() or future.exception() is not None)
                and self._dedupe.get(key) is future):
            del self._dedupe[key]

    def _stats_doc(self) -> dict:
        return {
            "server": {
                **asdict(self.stats),
                "connections_active": len(self._connections),
                "draining": self._draining,
            },
            **self.service.stats_doc(),
        }


__all__ = ["CamServer", "ServerStats"]
