"""Pipelined network client for the CAM server.

:class:`CamClient` multiplexes concurrent requests over a small pool
of TCP connections: every request gets a connection-local request id,
its frame joins the connection's outbox (no lock-step
request/response), and the connection's ``data_received`` resolves the
matching future when the response arrives -- so hundreds of requests
can be in flight at once over one socket, which is what buys the >= 5x
throughput over a naive one-request-per-round-trip client
(``benchmarks/bench_net_throughput.py``). Each connection is a
:class:`~repro.net.channel.FrameChannel`, which writes its outbox once
per loop turn, or at once past 64 KiB; a request that finds the
transport paused waits until it is writable again. Callers racing to
use a pool slot that has no connection yet share one connect.

Failure handling:

- **connection loss** -- every future pending on the dead connection
  fails with :class:`~repro.errors.ConnectionLostError`; the request
  layer reconnects and retries with exponential backoff (20 ms
  doubling to 0.5 s) up to ``max_retries`` times. Mutations reuse
  their idempotency token on every attempt, so a retry the server
  already applied is answered from its idempotency table --
  exactly-once, zero lost or duplicated updates;
- **server drain** -- ``RETRY_LATER`` error frames are retried the
  same way (the server is restarting or handing off);
- **timeouts** -- a response not seen within ``request_timeout_s``
  (one timer per attempt) fails the attempt with
  :class:`~repro.errors.RequestTimeoutError` and is retried
  (idempotency makes this safe for mutations too); the late response,
  if it still comes, matches no pending id and is dropped.

Responses are surfaced as the *same*
:class:`~repro.service.scheduler.ServiceResponse` dataclass the
in-process service returns, rebuilt bit-identically from the wire
(each key's matched addresses travel, not its whole match vector), so
code written against :class:`CamService` ports to the network client by
changing only the constructor -- and the equivalence suite can diff the
two paths directly.

Set ``pipelined=False`` for the deliberately naive baseline: one
request per round trip per connection (used by the benchmark and the
loadgen's closed-loop baseline mode). Each attempt picks its pool slot
first and then waits for that slot's lock, so a naive pool of N
connections has up to N requests in flight.
"""

from __future__ import annotations

import asyncio
import itertools
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.types import SearchResult
from repro.errors import (
    ConfigError,
    ConnectionLostError,
    NetError,
    ProtocolError,
    RequestTimeoutError,
    ServiceDrainingError,
    ServiceOverloadError,
)
from repro.net import protocol
from repro.net.channel import FrameChannel
from repro.net.protocol import Frame, Opcode
from repro.service.scheduler import ServiceResponse
from repro.service.snapshot import CamSnapshot

#: First retry delay; each further retry doubles it up to the cap.
_BACKOFF_S = 0.02
_BACKOFF_MAX_S = 0.5

#: Errors that mark an *attempt* as failed but the request retryable.
_RETRYABLE = (ConnectionLostError, RequestTimeoutError,
              ServiceDrainingError, ServiceOverloadError)


class _Connection(FrameChannel):
    """One pooled socket; its answers resolve ``pending`` by request
    id straight from ``data_received``."""

    def __init__(self) -> None:
        super().__init__()
        self.pending: Dict[int, "asyncio.Future[Frame]"] = {}
        self.ids = itertools.count(1)

    def frames_received(self, frames: List[Frame]) -> None:
        for frame in frames:
            future = self.pending.pop(frame.request_id, None)
            if future is not None and not future.done():
                future.set_result(frame)
            # Unmatched ids: a response for an attempt we already
            # abandoned (timed out and retried) -- drop it.

    def decode_failed(self, exc: ProtocolError) -> None:
        self.fail_all(exc)
        self.transport.abort()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self.fail_all(ConnectionLostError("connection closed"))

    def expire(self, request_id: int, opcode: Opcode,
               timeout_s: float) -> None:
        """Timer callback: fail a request whose answer is late; the
        answer, if it still comes, finds no pending id and is dropped."""
        future = self.pending.pop(request_id, None)
        if future is not None and not future.done():
            future.set_exception(RequestTimeoutError(
                f"no response to {opcode.name} within {timeout_s}s"
            ))

    def fail_all(self, exc: BaseException) -> None:
        for future in self.pending.values():
            if not future.done():
                future.set_exception(exc)
        self.pending.clear()


class CamClient:
    """Connection-pooled, pipelined client for :class:`CamServer`.

    ::

        async with CamClient(host, port, pool_size=2) as client:
            await client.insert([7, 42, 99])
            response = await client.lookup(42)
            assert response.result.hit

    Thread-unsafe by design (one event loop); share by task, not by
    thread.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 1,
        pipelined: bool = True,
        request_timeout_s: float = 10.0,
        max_retries: int = 3,
    ) -> None:
        if pool_size < 1:
            raise ConfigError(f"pool_size must be >= 1, got {pool_size}")
        if request_timeout_s <= 0:
            raise ConfigError(
                f"request_timeout_s must be > 0, got {request_timeout_s}"
            )
        if max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.pipelined = pipelined
        self.request_timeout_s = request_timeout_s
        self.max_retries = max_retries
        self.retries = 0
        self.kills = 0
        self._pool: List[Optional[_Connection]] = [None] * pool_size
        #: pool slot -> its in-flight connect, shared by racing callers.
        self._connecting: Dict[int, asyncio.Task] = {}
        self._turn = itertools.count()
        #: naive mode: one lock per pool slot, held for one round trip.
        self._slot_locks = (None if pipelined
                            else [asyncio.Lock() for _ in range(pool_size)])
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def connect(self) -> None:
        """Eagerly open every pooled connection (optional; requests
        open lazily on demand)."""
        for index in range(self.pool_size):
            await self._connection(index)

    async def close(self) -> None:
        self._closed = True
        pool = [conn for conn in self._pool if conn is not None]
        for conn in pool:
            conn.transport.abort()
        await asyncio.gather(*(conn.lost for conn in pool))
        self._pool = [None] * self.pool_size

    async def __aenter__(self) -> "CamClient":
        await self.connect()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    def kill_connections(self) -> None:
        """Abruptly sever every open connection (fault injection for
        tests and the loadgen's ``--kill-after`` chaos knob): frames
        still in an outbox are dropped, never written. The next request
        transparently reconnects and retries."""
        self.kills += 1
        for conn in self._pool:
            if conn is not None:
                conn.transport.abort()

    # ------------------------------------------------------------------
    # public request API
    # ------------------------------------------------------------------
    async def lookup(self, key: int) -> ServiceResponse:
        """Search one key (see :meth:`lookup_many` for batches)."""
        return (await self.lookup_many([key]))[0]

    async def lookup_many(self, keys: Sequence[int]) -> List[ServiceResponse]:
        """Search a batch of keys carried in one frame."""
        frame = await self._request(
            Opcode.LOOKUP, protocol.encode_lookup([int(k) for k in keys])
        )
        return [
            ServiceResponse("lookup", status, result, error=error)
            for status, result, error in self._expect_results(frame,
                                                              len(keys))
        ]

    async def insert(self, words: Sequence[int]) -> ServiceResponse:
        """Store a batch of words; exactly-once across retries."""
        payload = protocol.encode_mutation(
            os.urandom(protocol.TOKEN_SIZE), [int(w) for w in words]
        )
        frame = await self._request(Opcode.INSERT, payload)
        if frame.opcode is not Opcode.UPDATED:
            raise ProtocolError(
                f"expected UPDATED, got {frame.opcode.name}"
            )
        status, stats, error = protocol.decode_update_ack(frame.payload)
        return ServiceResponse(kind="insert", status=status, stats=stats,
                               error=error)

    async def delete(self, key: int) -> ServiceResponse:
        """Delete-by-content; exactly-once across retries."""
        payload = protocol.encode_mutation(
            os.urandom(protocol.TOKEN_SIZE), [int(key)]
        )
        frame = await self._request(Opcode.DELETE, payload)
        status, result, error = self._expect_results(frame, 1)[0]
        return ServiceResponse(kind="delete", status=status, result=result,
                               error=error)

    async def ping(self, payload: bytes = b"") -> float:
        """Round-trip a PING; returns the wall-clock RTT in seconds."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        frame = await self._request(Opcode.PING, payload)
        if frame.opcode is not Opcode.PONG or frame.payload != payload:
            raise ProtocolError("PONG payload mismatch")
        return loop.time() - started

    async def stats(self) -> dict:
        """The server's stats document (server/service/cam sections)."""
        frame = await self._request(Opcode.STATS, b"")
        if frame.opcode is not Opcode.STATS_DATA:
            raise ProtocolError(
                f"expected STATS_DATA, got {frame.opcode.name}"
            )
        return protocol.decode_stats(frame.payload)

    async def snapshot(self) -> CamSnapshot:
        """The server CAM's full content snapshot (binary codec)."""
        frame = await self._request(Opcode.SNAPSHOT, b"")
        if frame.opcode is not Opcode.SNAPSHOT_DATA:
            raise ProtocolError(
                f"expected SNAPSHOT_DATA, got {frame.opcode.name}"
            )
        return CamSnapshot.from_binary(frame.payload)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _expect_results(
        self, frame: Frame, count: int
    ) -> List[Tuple[str, SearchResult, Optional[str]]]:
        if frame.opcode is not Opcode.RESULT:
            raise ProtocolError(
                f"expected RESULT, got {frame.opcode.name}"
            )
        results = protocol.decode_results(frame.payload)
        if len(results) != count:
            raise ProtocolError(
                f"RESULT carries {len(results)} entries, expected {count}"
            )
        return results

    async def _connection(self, index: int) -> _Connection:
        """The slot's open connection; callers racing on a slot with
        none share one connect instead of opening a socket each."""
        conn = self._pool[index]
        if conn is not None and not conn.transport.is_closing():
            return conn
        connecting = self._connecting.get(index)
        if connecting is None:
            connecting = asyncio.ensure_future(self._open(index))
            self._connecting[index] = connecting
        # shield: one cancelled caller must not cancel the others' connect.
        return await asyncio.shield(connecting)

    async def _open(self, index: int) -> _Connection:
        try:
            _, conn = await asyncio.get_running_loop().create_connection(
                _Connection, self.host, self.port)
        finally:
            self._connecting.pop(index, None)
        if self._closed:  # closed while the connect was in flight
            conn.transport.abort()
            raise NetError("client is closed")
        self._pool[index] = conn
        return conn

    async def _request(self, opcode: Opcode, payload: bytes) -> Frame:
        """Send one request with retry-with-backoff; returns the
        response frame (ERROR frames are raised as their mapped
        exception)."""
        if self._closed:
            raise NetError("client is closed")
        delay = _BACKOFF_S
        last: Optional[BaseException] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.retries += 1
                obs.inc("net_client_retries_total",
                        help="request attempts after the first",
                        opcode=opcode.name.lower())
                await asyncio.sleep(delay)
                delay = min(delay * 2, _BACKOFF_MAX_S)
            try:
                return await self._attempt(opcode, payload)
            except _RETRYABLE as exc:
                last = exc
                continue
        raise NetError(
            f"{opcode.name} failed after {self.max_retries + 1} attempts: "
            f"{last}"
        ) from last

    async def _attempt(self, opcode: Opcode, payload: bytes) -> Frame:
        index = next(self._turn) % self.pool_size
        if self._slot_locks is None:
            return await self._exchange(index, opcode, payload)
        async with self._slot_locks[index]:
            return await self._exchange(index, opcode, payload)

    async def _exchange(self, index: int, opcode: Opcode,
                        payload: bytes) -> Frame:
        """One attempt's round trip on pool slot ``index``."""
        try:
            conn = await self._connection(index)
        except (ConnectionError, OSError) as exc:
            raise ConnectionLostError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from exc
        request_id = next(conn.ids) & 0xFFFFFFFF
        future: "asyncio.Future[Frame]" = conn.loop.create_future()
        conn.pending[request_id] = future
        conn.send(protocol.encode_frame(opcode, request_id, payload))
        timer = conn.loop.call_later(self.request_timeout_s, conn.expire,
                                     request_id, opcode,
                                     self.request_timeout_s)
        try:
            if not conn.writable.done():
                # shield: a cancelled caller must not cancel the
                # future every writer of this connection waits on.
                await asyncio.shield(conn.writable)
            frame = await future
        finally:
            timer.cancel()
        if frame.opcode is Opcode.ERROR:
            code, message = protocol.decode_error(frame.payload)
            raise protocol.exception_for(code, message)
        return frame


__all__ = ["CamClient"]
