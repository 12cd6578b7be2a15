"""Asyncio TCP server exposing a :class:`CamService` over the wire.

:class:`CamServer` is the socket front door of the reproduction: it
accepts connections, decodes :mod:`repro.net.protocol` frames
incrementally, executes each request against the wrapped
:class:`~repro.service.scheduler.CamService` (batch frames fan out to
concurrent service calls) and streams responses back through a
per-connection writer task -- requests from one connection are served
*pipelined*, never lock-step. The writer hands every response queued
on the connection to the transport in one write; the frame and byte
counters still count frames.

Operational guarantees:

- **bounded intake** -- at most ``max_connections`` concurrent
  connections (excess ones receive an ``OVERLOADED`` error frame and
  are closed) and at most ``max_frame_size`` payload bytes per frame
  (violations answer ``FRAME_TOO_LARGE`` and close the connection);
- **timeouts** -- a connection idle longer than ``idle_timeout_s`` is
  closed; request deadlines belong to the wrapped service alone (an
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
from typing import Awaitable, Callable, Dict, Optional, Set, Tuple

from repro import obs
from repro.errors import ConfigError, NetError, ProtocolError
from repro.net import protocol
from repro.net.protocol import ErrorCode, Frame, FrameDecoder, Opcode
from repro.service.scheduler import CamService

_READ_CHUNK = 64 * 1024
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


class _Connection:
    """Per-connection state: decoder, writer queue, in-flight tasks."""

    __slots__ = ("reader", "writer", "decoder", "outgoing", "tasks",
                 "handler", "peer", "closed")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 max_frame_size: int) -> None:
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder(max_frame_size=max_frame_size)
        self.outgoing: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue()
        self.tasks: Set[asyncio.Task] = set()
        #: the task running this connection's reader loop.
        self.handler = asyncio.current_task()
        peer = writer.get_extra_info("peername")
        self.peer = f"{peer[0]}:{peer[1]}" if peer else "?"
        self.closed = False


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
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
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
        """Graceful shutdown: drain, flush writers, close connections."""
        if self._server is None and not self._connections:
            return
        await self.drain()
        handlers = [conn.handler for conn in self._connections]
        for conn in list(self._connections):
            await conn.outgoing.put(None)  # writer flushes then exits
        # Each writer pops the sentinel, flushes and closes its
        # transport; the reader then sees EOF and its handler returns.
        await asyncio.gather(*handlers, return_exceptions=True)
        self._server = None

    async def __aenter__(self) -> "CamServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        conn = _Connection(reader, writer, self.max_frame_size)
        if self._draining or len(self._connections) >= self.max_connections:
            code = (ErrorCode.RETRY_LATER if self._draining
                    else ErrorCode.OVERLOADED)
            reason = ("server is draining" if self._draining
                      else f"server at its {self.max_connections}-"
                           "connection limit")
            self.stats.connections_rejected += 1
            obs.inc("net_connections_total",
                    help="connection lifecycle events by kind",
                    event="rejected")
            frame = protocol.encode_frame(
                Opcode.ERROR, 0, protocol.encode_error(code, reason)
            )
            try:
                writer.write(frame)
                await writer.drain()
                writer.close()
            except (ConnectionError, OSError):
                pass
            return
        self._connections.add(conn)
        self.stats.connections_opened += 1
        obs.inc("net_connections_total", event="opened")
        obs.set_gauge("net_connections_active", len(self._connections),
                      help="currently open client connections")
        writer_task = asyncio.ensure_future(self._writer_loop(conn))
        try:
            await self._reader_loop(conn)
        finally:
            await conn.outgoing.put(None)
            await writer_task
            self._close_connection(conn)

    def _close_connection(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._connections.discard(conn)
        self.stats.connections_closed += 1
        obs.inc("net_connections_total", event="closed")
        obs.set_gauge("net_connections_active", len(self._connections))
        try:
            conn.writer.close()
        except (ConnectionError, OSError):  # pragma: no cover
            pass

    async def _reader_loop(self, conn: _Connection) -> None:
        while True:
            try:
                if self.idle_timeout_s is not None:
                    data = await asyncio.wait_for(
                        conn.reader.read(_READ_CHUNK), self.idle_timeout_s
                    )
                else:
                    data = await conn.reader.read(_READ_CHUNK)
            except asyncio.TimeoutError:
                self.stats.idle_closed += 1
                obs.inc("net_connections_total", event="idle_closed")
                return
            except (ConnectionError, OSError):
                return
            if not data:
                return  # peer closed
            self.stats.bytes_in += len(data)
            obs.inc("net_bytes_total", len(data),
                    help="wire bytes by direction", direction="in")
            try:
                frames = conn.decoder.feed(data)
            except ProtocolError as exc:
                # The stream offset is untrustworthy after a framing
                # error: answer once, then hang up.
                self.stats.decode_errors += 1
                obs.inc("net_decode_errors_total",
                        help="frames rejected by the decoder")
                self._send_error(conn, 0, exc)
                return
            for frame in frames:
                self.stats.frames_in += 1
                obs.inc("net_frames_total",
                        help="frames by direction", direction="in")
                self._dispatch(conn, frame)

    async def _writer_loop(self, conn: _Connection) -> None:
        """Write every response queued on the connection in one
        ``transport.write``; frames stay the unit the counters count."""
        outgoing = conn.outgoing
        stopping = False
        while not stopping:
            blobs = [await outgoing.get()]
            while not outgoing.empty():
                blobs.append(outgoing.get_nowait())
            if None in blobs:  # the stop sentinel: flush what precedes it
                blobs = blobs[:blobs.index(None)]
                stopping = True
            if not blobs:
                continue
            data = b"".join(blobs)
            try:
                conn.writer.write(data)
                await conn.writer.drain()
            except (ConnectionError, OSError):
                break
            self.stats.frames_out += len(blobs)
            self.stats.bytes_out += len(data)
            obs.inc("net_frames_total", len(blobs), direction="out")
            obs.inc("net_bytes_total", len(data), direction="out")
        self._close_connection(conn)

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
                    response.status, response.stats
                )

            out, payload = await self._mutate_once(token, apply_insert)
            self._send(conn, Opcode(out), frame.request_id, payload)
        elif opcode is Opcode.DELETE:
            token, keys = protocol.decode_mutation(frame.payload)

            async def apply_delete() -> Tuple[int, bytes]:
                responses = [await self.service.delete(key)
                             for key in keys]
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
        conn.outgoing.put_nowait(
            protocol.encode_frame(opcode, request_id, payload)
        )

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
